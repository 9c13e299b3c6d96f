//! Integration tests of the observability layer: the metrics the
//! instrumented recovery path records must agree with what recovery itself
//! reports (`RecoveryOutcome`) and with the device-level `DeviceStats`.

use argus::core::providers::MemProvider;
use argus::core::{HybridLogRs, LogEntry, RecoverySystem};
use argus::guardian::{Outcome, RsKind, World};
use argus::objects::{ActionId, GuardianId, Heap, ObjKind, Uid, Value};
use argus::obs::{Event, Registry};

fn aid(n: u64) -> ActionId {
    ActionId::new(GuardianId(0), n)
}

/// The Figure 4-2/§4.3.2 scenario (see tests/scenario_hybrid.rs): the
/// registry's recovery counters and the journal's `recovery_pass` event must
/// match the `RecoveryOutcome` field for field.
#[test]
fn figure_4_2_metrics_agree_with_recovery_outcome() {
    let reg = Registry::new();
    let _scope = reg.enter();

    let (t1, t2) = (aid(1), aid(2));
    let (o1, o2) = (Uid(1), Uid(2));
    let mut rs = HybridLogRs::create(MemProvider::fast()).unwrap();

    let bc = rs
        .append_raw(
            &LogEntry::BaseCommitted {
                uid: o1,
                value: Value::Int(10),
                prev: None,
            },
            false,
        )
        .unwrap();
    let l1 = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Atomic,
                value: Value::Int(11),
            },
            false,
        )
        .unwrap();
    let l2 = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Mutex,
                value: Value::Int(21),
            },
            false,
        )
        .unwrap();
    let p1 = rs
        .append_raw(
            &LogEntry::Prepared {
                aid: t1,
                pairs: vec![(o1, l1), (o2, l2)],
                prev: Some(bc),
            },
            true,
        )
        .unwrap();
    let c1 = rs
        .append_raw(
            &LogEntry::Committed {
                aid: t1,
                prev: Some(p1),
            },
            true,
        )
        .unwrap();
    let l1p = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Atomic,
                value: Value::Int(12),
            },
            false,
        )
        .unwrap();
    let l2p = rs
        .append_raw(
            &LogEntry::DataH {
                kind: ObjKind::Mutex,
                value: Value::Int(22),
            },
            false,
        )
        .unwrap();
    rs.append_raw(
        &LogEntry::Prepared {
            aid: t2,
            pairs: vec![(o1, l1p), (o2, l2p)],
            prev: Some(c1),
        },
        true,
    )
    .unwrap();

    rs.simulate_crash().unwrap();
    let mut heap = Heap::new();
    let out = rs.recover(&mut heap).unwrap();

    // The thesis's exact figures: 3 data entries read; the backward chain is
    // prepared(T2) → committed(T1) → prepared(T1) → bc, i.e. 4 hops.
    assert_eq!(out.data_entries_read, 3);
    assert_eq!(out.chain_hops, 4);

    // Counters mirror the outcome exactly.
    assert_eq!(reg.counter("core.recoveries").get(), 1);
    assert_eq!(
        reg.counter("core.recover.entries_examined").get(),
        out.entries_examined
    );
    assert_eq!(
        reg.counter("core.recover.data_entries_read").get(),
        out.data_entries_read
    );
    assert_eq!(reg.counter("core.recover.chain_hops").get(), out.chain_hops);

    // The journal's recovery_pass event carries the same figures, plus the
    // rebuilt table sizes.
    let report = reg.report();
    let pass = report
        .events
        .iter()
        .rev()
        .find_map(|r| match r.event {
            Event::RecoveryPass {
                entries_examined,
                data_entries_read,
                chain_hops,
                pt_size,
                ot_size,
                ..
            } => Some((
                entries_examined,
                data_entries_read,
                chain_hops,
                pt_size,
                ot_size,
            )),
            _ => None,
        })
        .expect("a recovery_pass event was journaled");
    assert_eq!(pass.0, out.entries_examined);
    assert_eq!(pass.1, out.data_entries_read);
    assert_eq!(pass.2, out.chain_hops);
    assert_eq!(pass.3, out.pt.len() as u64);
    assert_eq!(pass.4, out.ot.len() as u64);
    // One chain_hop event per hop, one recovery_data_read per data entry.
    let hops = report
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::ChainHop { .. }))
        .count() as u64;
    let data_reads = report
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::RecoveryDataRead { .. }))
        .count() as u64;
    assert_eq!(hops, out.chain_hops);
    assert_eq!(data_reads, out.data_entries_read);
}

/// A whole-world crash/restart: recovery counters must agree with the
/// `RecoveryOutcome`, with the stable-log's own read counter, and with the
/// device-level `DeviceStats` page tallies.
#[test]
fn world_recovery_metrics_agree_with_device_stats() {
    let reg = Registry::new();
    let _scope = reg.enter();

    let mut world = World::fast();
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    for i in 0..20i64 {
        let a = world.begin(g).unwrap();
        world
            .set_stable(g, a, &format!("k{}", i % 5), Value::Int(i))
            .unwrap();
        assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
    }
    let a = world.begin(g).unwrap();
    world.set_stable(g, a, "doomed", Value::Int(-1)).unwrap();
    world.abort_local(a);

    // Snapshot counters and device stats just before the crash so only the
    // recovery pass is measured.
    let entry_reads_before = reg.counter("slog.entry_reads").get();
    let device_before = world.guardian(g).unwrap().log_stats().device;

    world.crash(g);
    let outcome = world.restart(g).unwrap();
    let device = world
        .guardian(g)
        .unwrap()
        .log_stats()
        .device
        .since(&device_before);

    // The hybrid log walked a real backward chain.
    assert!(outcome.chain_hops > 0);
    assert!(outcome.entries_examined >= outcome.chain_hops);

    // Registry counters mirror the outcome.
    assert_eq!(reg.counter("core.recoveries").get(), 1);
    assert_eq!(
        reg.counter("core.recover.entries_examined").get(),
        outcome.entries_examined
    );
    assert_eq!(
        reg.counter("core.recover.chain_hops").get(),
        outcome.chain_hops
    );
    assert_eq!(
        reg.counter("core.recover.data_entries_read").get(),
        outcome.data_entries_read
    );

    // Every examined entry is one stable-log read: the slog layer's
    // independent counter must agree with the recovery layer's.
    let entry_reads = reg.counter("slog.entry_reads").get() - entry_reads_before;
    assert_eq!(entry_reads, outcome.entries_examined);

    // And the device really ran: recovery cost page reads, but never more
    // than one per examined entry (several small entries share a page).
    let page_reads = device.seq_reads + device.rand_reads;
    assert!(page_reads > 0, "recovery read no pages");
    assert!(
        page_reads <= outcome.entries_examined,
        "{page_reads} page reads > {} entries examined",
        outcome.entries_examined
    );
    assert!(device.busy_us > 0);

    // The phase timer measured the recovery pass on the simulated clock.
    let recover_us = reg.histogram("core.recover_us").snapshot();
    assert_eq!(recover_us.count, 1);
    assert!(recover_us.sum > 0);

    // World-level counters saw the crash and the restart.
    assert_eq!(reg.counter("world.crashes").get(), 1);
    assert_eq!(reg.counter("world.restarts").get(), 1);
}

/// `core.hk.passes` counts every finished housekeeping pass, whatever the
/// organization or mode — shadowing's version-storage collection included.
#[test]
fn every_organization_counts_one_housekeeping_pass() {
    use argus::core::HousekeepingMode;
    use HousekeepingMode::{Compaction, Snapshot};
    // Snapshot housekeeping needs the hybrid log's mutex table; shadowing
    // ignores the mode.
    for (kind, modes) in [
        (RsKind::Simple, &[Compaction][..]),
        (RsKind::Hybrid, &[Compaction, Snapshot][..]),
        (RsKind::Shadow, &[Compaction][..]),
        (RsKind::Redo, &[Compaction][..]),
    ] {
        for &mode in modes {
            let reg = Registry::new();
            let _scope = reg.enter();
            let mut world = World::fast();
            let g = world.add_guardian(kind).unwrap();
            for i in 0..4i64 {
                let a = world.begin(g).unwrap();
                world.set_stable(g, a, "k", Value::Int(i)).unwrap();
                assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
            }
            let passes = reg.counter("core.hk.passes").get();
            world.housekeep(g, mode).unwrap();
            assert_eq!(
                reg.counter("core.hk.passes").get() - passes,
                1,
                "{kind:?} {mode:?}"
            );
        }
    }
}
