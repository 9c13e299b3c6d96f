//! Cross-organization equivalence: the simple log, the hybrid log, the
//! shadowing baseline, and the redo log must recover identical stable
//! states from identical histories — the organizations differ in cost,
//! never in meaning.

use argus::core::providers::MemProvider;
use argus::core::{HybridLogRs, RecoverySystem, RedoRs, SimpleLogRs};
use argus::guardian::{RsKind, World};
use argus::objects::{ActionId, GuardianId, Heap, ObjRef, Value};
use argus::obs::Registry;
use argus::shadow::ShadowRs;
use argus::sim::DetRng;
use argus::workload::{Banking, BankingConfig, Reservations, ReservationsConfig};

fn bank_balances(seed: u64, kind: RsKind) -> Vec<i64> {
    let mut world = World::fast();
    let cfg = BankingConfig {
        guardians: 2,
        accounts_per_guardian: 8,
        initial: 500,
        zipf_theta: 0.4,
        cross_prob: 0.5,
        abort_prob: 0.1,
    };
    let bank = Banking::setup(&mut world, kind, cfg).unwrap();
    let mut rng = DetRng::new(seed);
    bank.run(&mut world, &mut rng, 60).unwrap();
    for &g in bank.guardians().to_vec().iter() {
        world.crash(g);
        world.restart(g).unwrap();
    }
    let mut balances = Vec::new();
    for &g in bank.guardians() {
        let guardian = world.guardian(g).unwrap();
        for i in 0..8 {
            match guardian.stable_value(&format!("acct{i}")) {
                Some(Value::Ref(ObjRef::Heap(h))) => {
                    match guardian.heap.read_value(h, None).unwrap() {
                        Value::Int(b) => balances.push(*b),
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }
    balances
}

#[test]
fn banking_histories_recover_identically() {
    for seed in [1u64, 2, 3] {
        let simple = bank_balances(seed, RsKind::Simple);
        let hybrid = bank_balances(seed, RsKind::Hybrid);
        let shadow = bank_balances(seed, RsKind::Shadow);
        let redo = bank_balances(seed, RsKind::Redo);
        assert_eq!(simple, hybrid, "seed {seed}: simple vs hybrid");
        assert_eq!(hybrid, shadow, "seed {seed}: hybrid vs shadow");
        assert_eq!(shadow, redo, "seed {seed}: shadow vs redo");
        // And the invariant holds.
        assert_eq!(simple.iter().sum::<i64>(), 2 * 8 * 500, "seed {seed}");
    }
}

#[test]
fn reservations_recover_identically() {
    let mut results = Vec::new();
    for kind in [RsKind::Simple, RsKind::Hybrid, RsKind::Shadow, RsKind::Redo] {
        let mut world = World::fast();
        let resv = Reservations::setup(
            &mut world,
            kind,
            ReservationsConfig {
                flights: 3,
                seats: 10,
            },
        )
        .unwrap();
        let mut rng = DetRng::new(77);
        let stats = resv.run(&mut world, &mut rng, 25).unwrap();
        world.crash(resv.guardian());
        world.restart(resv.guardian()).unwrap();
        results.push((
            stats,
            resv.booked_seats(&world).unwrap(),
            resv.audit_len(&world).unwrap(),
        ));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert_eq!(results[2], results[3]);
    // Seats and audit trail agree with each other.
    let (stats, seats, audit) = results[0];
    assert_eq!(stats.booked, seats);
    assert_eq!(seats, audit);
}

/// A fresh recovery system of `kind` over in-memory stores.
fn fresh_rs(kind: RsKind) -> Box<dyn RecoverySystem> {
    let provider = MemProvider::fast();
    match kind {
        RsKind::Simple => Box::new(SimpleLogRs::create(provider).unwrap()),
        RsKind::Hybrid => Box::new(HybridLogRs::create(provider).unwrap()),
        RsKind::Shadow => Box::new(ShadowRs::create(provider).unwrap()),
        RsKind::Redo => Box::new(RedoRs::create(provider).unwrap()),
    }
}

/// One write operation of the recovery-system interface (§2.3).
#[derive(Debug, Clone, Copy)]
enum WriteOp {
    Prepare,
    Commit,
    Abort,
    Committing,
    Done,
}

/// Runs a fixed history through `rs`: a participant that prepares and
/// commits, a coordinator's `committing` and `done`, and a participant that
/// prepares and aborts. With `staged`, each operation is its `stage_*`
/// call, checked to cost no device sync, followed by `force_staged`;
/// otherwise each is the forcing operation. Either way every operation must
/// cost exactly one log force of two device syncs (data pages, then the
/// superblock).
fn run_write_history(kind: RsKind, rs: &mut dyn RecoverySystem, reg: &Registry, staged: bool) {
    let g = GuardianId(0);
    let mut heap = Heap::with_stable_root();
    let root = heap.stable_root().unwrap();
    let (a1, a2, a3) = (
        ActionId::new(g, 1),
        ActionId::new(g, 2),
        ActionId::new(g, 3),
    );
    let gids = [g, GuardianId(1)];
    let history = [
        (a1, WriteOp::Prepare, 1),
        (a1, WriteOp::Commit, 1),
        (a2, WriteOp::Committing, 0),
        (a2, WriteOp::Done, 0),
        (a3, WriteOp::Prepare, 3),
        (a3, WriteOp::Abort, 3),
    ];
    let forces = || reg.counter("slog.forces").get();
    let syncs = |rs: &dyn RecoverySystem| rs.log_stats().device.forces;
    for (aid, op, value) in history {
        if let WriteOp::Prepare = op {
            heap.acquire_write(root, aid).unwrap();
            heap.write_value(root, aid, |v| *v = Value::Int(value))
                .unwrap();
        }
        let (forces0, syncs0) = (forces(), syncs(rs));
        let what = format!("{kind:?} {op:?} {aid:?} (staged: {staged})");
        if staged {
            match op {
                WriteOp::Prepare => rs.stage_prepare(aid, &[root], &heap),
                WriteOp::Commit => rs.stage_commit(aid),
                WriteOp::Abort => rs.stage_abort(aid),
                WriteOp::Committing => rs.stage_committing(aid, &gids),
                WriteOp::Done => rs.stage_done(aid),
            }
            .unwrap();
            assert_eq!(forces(), forces0, "{what}: staging forced the log");
            assert_eq!(syncs(rs), syncs0, "{what}: staging synced the device");
            rs.force_staged().unwrap();
        } else {
            match op {
                WriteOp::Prepare => rs.prepare(aid, &[root], &heap),
                WriteOp::Commit => rs.commit(aid),
                WriteOp::Abort => rs.abort(aid),
                WriteOp::Committing => rs.committing(aid, &gids),
                WriteOp::Done => rs.done(aid),
            }
            .unwrap();
        }
        assert_eq!(forces() - forces0, 1, "{what}: one log force");
        assert_eq!(syncs(rs) - syncs0, 2, "{what}: two device syncs");
        match op {
            WriteOp::Commit => heap.commit_action(aid),
            WriteOp::Abort => heap.abort_action(aid),
            _ => {}
        }
    }
}

#[test]
fn staged_ops_are_the_write_path_on_every_organization() {
    for kind in [RsKind::Simple, RsKind::Hybrid, RsKind::Shadow, RsKind::Redo] {
        let mut logs = Vec::new();
        let mut sizes = Vec::new();
        for staged in [false, true] {
            let reg = Registry::new();
            let _scope = reg.enter();
            let mut rs = fresh_rs(kind);
            run_write_history(kind, rs.as_mut(), &reg, staged);
            logs.push(rs.dump_log().unwrap());
            let stats = rs.log_stats();
            sizes.push((stats.entries, stats.bytes));
        }
        // The forcing operations are the staged ones plus the force, so
        // both runs leave the same log: the same records at the same
        // addresses (shadow keeps no decodable log; compare its size).
        assert_eq!(sizes[0], sizes[1], "{kind:?}: log size");
        assert_eq!(logs[0], logs[1], "{kind:?}: log contents");
        assert_eq!(logs[0].is_none(), kind == RsKind::Shadow, "{kind:?}");
    }
}
