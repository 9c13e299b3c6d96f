//! The local one-force commit (DESIGN.md deviation 10): an action whose
//! only participant is its home guardian writes the records two-phase
//! commit with itself would write — data, `prepared`, `committing([home])`,
//! `committed`, `done` — but publishes them with one log force and sends
//! no protocol messages.

mod common;

use argus::core::LogEntry;
use argus::guardian::{Outcome, RsKind, World, WorldConfig};
use argus::objects::{ActionId, GuardianId, HeapId, ObjRef, Value};
use argus::obs::Registry;
use argus::sim::CostModel;
use std::fmt::Write;

const KINDS: [RsKind; 4] = [RsKind::Simple, RsKind::Hybrid, RsKind::Shadow, RsKind::Redo];

/// One guardian of `kind` with accounts `a` and `b` (100 each) bound to
/// stable names by a committed setup action.
fn bank(kind: RsKind, cfg: WorldConfig) -> (World, GuardianId, [HeapId; 2]) {
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(kind).unwrap();
    let setup = world.begin(g).unwrap();
    let mut accounts = [HeapId(0); 2];
    for (slot, name) in accounts.iter_mut().zip(["a", "b"]) {
        *slot = world.create_atomic(g, setup, Value::Int(100)).unwrap();
        world
            .set_stable(g, setup, name, Value::heap_ref(*slot))
            .unwrap();
    }
    assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
    (world, g, accounts)
}

/// Begins a transfer of `amount` from `a` to `b` at `g`, both legs written.
fn begin_transfer(world: &mut World, g: GuardianId, [a, b]: [HeapId; 2], amount: i64) -> ActionId {
    let aid = world.begin(g).unwrap();
    for (h, delta) in [(a, -amount), (b, amount)] {
        world
            .write_atomic(g, aid, h, move |v| {
                if let Value::Int(n) = v {
                    *n += delta;
                }
            })
            .unwrap();
    }
    aid
}

/// The committed balances of `a` and `b`, resolved by stable name (heap ids
/// mean nothing across a crash).
fn balances(world: &World, g: GuardianId) -> (i64, i64) {
    let guardian = world.guardian(g).unwrap();
    let read = |name: &str| match guardian.stable_value(name) {
        Some(Value::Ref(ObjRef::Heap(h))) => match guardian.heap.read_value(h, None) {
            Ok(Value::Int(n)) => *n,
            other => panic!("{name}: bad value {other:?}"),
        },
        other => panic!("{name}: unresolved {other:?}"),
    };
    (read("a"), read("b"))
}

/// The action an outcome record speaks for.
fn outcome_of(entry: &LogEntry) -> Option<ActionId> {
    match entry {
        LogEntry::Prepared { aid, .. }
        | LogEntry::Committing { aid, .. }
        | LogEntry::Committed { aid, .. }
        | LogEntry::Aborted { aid, .. }
        | LogEntry::Done { aid, .. } => Some(*aid),
        _ => None,
    }
}

#[test]
fn a_local_commit_is_one_force_and_no_messages() {
    for kind in KINDS {
        let reg = Registry::new();
        let _scope = reg.enter();
        let (mut world, g, accounts) = bank(kind, WorldConfig::default());

        let forces = reg.counter("slog.forces").get();
        let delivered = world.network().delivered();
        let started = reg.counter("twopc.coord.started").get();
        let device = world.guardian(g).unwrap().log_stats().device;
        let aid = begin_transfer(&mut world, g, accounts, 30);
        assert_eq!(world.commit(aid).unwrap(), Outcome::Committed);

        assert_eq!(reg.counter("slog.forces").get() - forces, 1, "{kind:?}");
        assert_eq!(world.network().delivered() - delivered, 0, "{kind:?}");
        assert_eq!(
            reg.counter("twopc.coord.started").get() - started,
            0,
            "{kind:?}"
        );
        let syncs = world
            .guardian(g)
            .unwrap()
            .log_stats()
            .device
            .since(&device)
            .forces;
        assert_eq!(syncs, 2, "{kind:?}: data pages + superblock");
        assert_eq!(balances(&world, g), (70, 130), "{kind:?}");

        // The action's outcome records, in two-phase-commit order.
        if let Some(entries) = world.dump_log(g).unwrap() {
            let records: Vec<&str> = entries
                .iter()
                .filter(|(_, e)| outcome_of(e) == Some(aid))
                .map(|(_, e)| e.name())
                .collect();
            assert_eq!(
                records,
                ["prepared", "committing", "committed", "done"],
                "{kind:?}"
            );
        }
        common::lint_world(&mut world);
    }
}

#[test]
fn an_action_unknown_at_its_restarted_home_aborts() {
    for kind in KINDS {
        let (mut world, g, accounts) = bank(kind, WorldConfig::default());
        let aid = begin_transfer(&mut world, g, accounts, 30);
        world.crash(g);
        world.restart(g).unwrap();
        assert_eq!(world.commit(aid).unwrap(), Outcome::Aborted, "{kind:?}");
        assert_eq!(world.verdict(aid), Some(false), "{kind:?}");
        assert_eq!(balances(&world, g), (100, 100), "{kind:?}");
        common::lint_world(&mut world);
    }
}

/// The fast path polls the force scheduler the way a message delivery
/// does: under an immediate schedule each local commit forces as it starts,
/// so concurrent local commits share nothing; under group commit they
/// share one force.
#[test]
fn local_commits_batch_only_under_group_commit() {
    for (cfg, forces_for_8) in [(WorldConfig::unbatched(), 8), (WorldConfig::default(), 1)] {
        for kind in KINDS {
            let reg = Registry::new();
            let _scope = reg.enter();
            let mut world = World::with_config(CostModel::fast(), cfg);
            let g = world.add_guardian(kind).unwrap();
            let setup = world.begin(g).unwrap();
            let objs: Vec<HeapId> = (0..8)
                .map(|i| {
                    let h = world.create_atomic(g, setup, Value::Int(0)).unwrap();
                    let name = format!("k{i}");
                    world
                        .set_stable(g, setup, &name, Value::heap_ref(h))
                        .unwrap();
                    h
                })
                .collect();
            assert_eq!(world.commit(setup).unwrap(), Outcome::Committed);
            let aids: Vec<ActionId> = objs
                .iter()
                .map(|&h| {
                    let aid = world.begin(g).unwrap();
                    world
                        .write_atomic(g, aid, h, |v| *v = Value::Int(1))
                        .unwrap();
                    aid
                })
                .collect();
            let forces = reg.counter("slog.forces").get();
            for &aid in &aids {
                world.commit_start(aid).unwrap();
            }
            for &aid in &aids {
                assert_eq!(world.commit_settle(aid).unwrap(), Outcome::Committed);
            }
            assert_eq!(
                reg.counter("slog.forces").get() - forces,
                forces_for_8,
                "{kind:?} {:?}",
                cfg.force
            );
        }
    }
}

/// A crash at every page-write index of one local commit leaves either the
/// whole transfer or none of it after restart — under group commit and
/// with every force immediate.
#[test]
fn a_crash_inside_the_fused_force_is_all_or_nothing() {
    for cfg in [WorldConfig::default(), WorldConfig::unbatched()] {
        for kind in KINDS {
            let mut crash_points = 0;
            for k in 0.. {
                let (mut world, g, accounts) = bank(kind, cfg);
                let aid = begin_transfer(&mut world, g, accounts, 30);
                world.arm_crash_after_writes(g, k).unwrap();
                let outcome = world.commit(aid).unwrap();
                if world.is_up(g) {
                    // The commit needed no more than `k` page writes.
                    world.fault_plan(g).unwrap().disarm();
                    assert_eq!(outcome, Outcome::Committed, "{kind:?} k={k}");
                    break;
                }
                crash_points += 1;
                assert_eq!(outcome, Outcome::Pending, "{kind:?} k={k}");
                world.restart(g).unwrap();
                let got = balances(&world, g);
                assert!(
                    got == (70, 130) || got == (100, 100),
                    "{kind:?} k={k}: half a transfer survived: {got:?}"
                );
                common::lint_world(&mut world);
            }
            assert!(
                crash_points >= 2,
                "{kind:?}: only {crash_points} crash points"
            );
        }
    }
}

/// A serial single-guardian run leaves the log that two-phase commit with
/// itself left, record for record and address for address: the fixture was
/// recorded from that implementation (shadowing keeps no decodable log, so
/// its record count and bytes stand in).
#[test]
fn serial_runs_write_the_two_phase_commit_log() {
    let mut listing = String::new();
    for kind in KINDS {
        let (mut world, g, accounts) = bank(kind, WorldConfig::default());
        for amount in [7, 11, 13] {
            let aid = begin_transfer(&mut world, g, accounts, amount);
            assert_eq!(world.commit(aid).unwrap(), Outcome::Committed);
        }
        let stats = world.guardian(g).unwrap().log_stats();
        writeln!(
            listing,
            "== {kind:?}: {} records, {} bytes",
            stats.entries, stats.bytes
        )
        .unwrap();
        for (addr, entry) in world.dump_log(g).unwrap().into_iter().flatten() {
            writeln!(listing, "{addr:?} {entry:?}").unwrap();
        }
    }
    let expected = include_str!("fixtures/serial_local_commit_log.txt");
    for (i, (got, want)) in listing.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(listing.lines().count(), expected.lines().count());
}
