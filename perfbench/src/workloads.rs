//! The three workloads, each a closed loop over one four-organization world:
//! a client issues its next action only after the previous one is
//! acknowledged.
//!
//! * `serial_commit` — one client, single-guardian transfers, home guardian
//!   round-robin over the four organizations. Nothing batches, conflicts or
//!   crosses guardians, so each commit's forced records dominate.
//! * `group_commit` — eight clients whose commits overlap: all eight call
//!   `commit_start` before any calls `commit_settle`. Zipfian transfers and
//!   reservations, ~40% across guardians, with a housekeeping threshold on
//!   every guardian. Group-commit batching, cc refusals, 2PC, the world
//!   scheduler and housekeeping stalls are what is timed.
//! * `restart` — a history ~40× the page cache on every guardian; the loop
//!   crashes all four, restarts each, checks every object (untimed) and
//!   takes one commit per guardian. The read and recovery path.
//!
//! The commit workloads run crash/restart cycles of their own at their
//! checkpoint, so every workload reports restart figures, and every run
//! ends with a crash, restart and check of every object.

use crate::harness::{
    dir_bytes, work_dir, BResult, Conservation, Ctx, Harness, Op, Plan, RestartLedger, Write, ORGS,
};
use crate::ledger::{Counts, Spans};
use crate::peel::{peel, PeelTimes};
use crate::stats::{mean, median, quantile, ratio};
use argus_core::HousekeepingMode;
use argus_guardian::{Outcome, RsKind};
use argus_objects::{ActionId, Value};
use argus_sim::{DetRng, Zipf};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Accounts per guardian in the commit workloads.
const ACCOUNTS: usize = 1024;
/// Initial balance of every account.
const INITIAL: i64 = 1_000;
/// Initial seats on every guardian's flight (`group_commit`).
const SEATS: i64 = 1_000_000;
/// Zipf skew of account choice in `group_commit`.
const THETA: f64 = 0.9;
/// Concurrent clients in `group_commit`.
const CLIENTS: usize = 8;
/// Probability a `group_commit` action's second guardian differs from its
/// home guardian.
const CROSS: f64 = 0.4;
/// Probability a `group_commit` action is a reservation.
const RESERVATION: f64 = 0.3;
/// Log entries past which a guardian runs a housekeeping pass in
/// `group_commit`.
const HK_ENTRIES: u64 = 8_192;
/// Objects per guardian in `restart`.
const RESTART_OBJECTS: usize = 256;
/// Payload bytes per object version in `restart`.
const VALUE_BYTES: usize = 48;
/// Committed actions per guardian in the `restart` history: about 40× the
/// 64 KiB page cache of log bytes on the simple log.
const HISTORY: usize = 4_352;
/// Actions per guardian whose commits overlap while the history is built,
/// so set-up shares forces (at most the group-commit batch of 64).
const HISTORY_BATCH: usize = 64;
/// Objects written per `restart` action.
const RESTART_WRITES: usize = 4;

/// The deterministic prefix of each run after which the checkpoint takes
/// `write_bytes_per_commit` and `space_amp`, so they repeat exactly for a
/// seed: committed actions for the commit workloads, crash/restart cycles
/// for `restart`. A run that has not reached it when its time is up
/// continues until it has.
const COUNT_WINDOW: [u64; 3] = [10_000, 10_000, 100];
/// Crash/restart cycles the commit workloads run at their checkpoint: at
/// least 100, so ten samples lie beyond `restart_ms.p90`, and at least
/// half the run's `--seconds` of timed restarts. Short restarts measured
/// over a second or two swing with the machine's speed from run to run.
const RESTART_CYCLES: usize = 100;
/// Repetitions of the layer peel per organization; the peel reports
/// medians.
const PEELS: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, single-guardian transfers, round-robin homes.
    SerialCommit,
    /// Eight overlapping clients, zipfian mix with 2PC and housekeeping.
    GroupCommit,
    /// Crash all, restart all, check, one commit per guardian.
    Restart,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serial_commit" => Some(Self::SerialCommit),
            "group_commit" => Some(Self::GroupCommit),
            "restart" => Some(Self::Restart),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SerialCommit => "serial_commit",
            Self::GroupCommit => "group_commit",
            Self::Restart => "restart",
        }
    }

    fn count_window(self) -> u64 {
        COUNT_WINDOW[self as usize]
    }

    /// Set-ups per untraced run; `setup_s` is their median. The commit
    /// workloads set up in tens of ms, so they take more.
    pub fn setups(self) -> usize {
        match self {
            Self::Restart => 3,
            _ => 5,
        }
    }
}

/// How a pass runs.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Directory the worlds live in (inside the checkout).
    pub root: PathBuf,
    /// Plant one wrong expectation in the model before the oracle runs.
    pub plant: bool,
}

/// Actions that ran alone, per organization: their latency and the syncs
/// and bytes each caused.
#[derive(Debug, Default, Clone)]
pub struct OrgCommits {
    /// µs from `begin` to `Committed`, single-guardian actions only.
    pub commit_us: Vec<f64>,
    /// fsyncs caused by actions that ran alone.
    pub fsyncs: f64,
    /// Bytes handed to `write(2)` by actions that ran alone.
    pub bytes: f64,
    /// Actions that ran alone.
    pub alone: u64,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Logical actions that ran to an outcome (every one must commit).
    pub attempted: u64,
    /// Action attempts, counting attempts refused by concurrency control.
    pub attempts: u64,
    /// Committed actions in the timed window (self-counted: `world.commits`
    /// only counts `World::commit`).
    pub commits: u64,
    /// Committed actions that wrote at more than one guardian.
    pub cross: u64,
    /// Writes refused by concurrency control.
    pub conflicts: u64,
    /// Housekeeping passes that ran (self-counted `maybe_housekeep` returns).
    pub hk_passes: u64,
    /// Seconds of timed work.
    pub window_s: f64,
    /// µs from an action's first `begin` to its `Committed`, retries
    /// included.
    pub commit_us: Vec<f64>,
    /// ms from the crash of all four guardians until each has restarted
    /// and committed one action.
    pub restart_ms: Vec<f64>,
    /// µs of each first commit after a restart.
    pub first_commit_us: Vec<f64>,
    /// `write_bytes_per_commit` and `space_amp` over the count window.
    pub count_window: (f64, f64),
    /// How far every counter advanced over the timed window, the
    /// checkpoint taken out.
    pub counts: Counts,
    /// How far every counter advanced during the checkpoint.
    excluded: Counts,
    /// Per-organization single-guardian commits.
    pub orgs: [OrgCommits; 4],
    /// Files and bytes under each guardian's directory at the checkpoint.
    pub disk_at_checkpoint: [(usize, f64); 4],
    /// The same at the end of the timed window.
    pub disk_at_end: [(usize, f64); 4],
    /// Recovery work of every restart.
    pub restarts: RestartLedger,
    /// The layer peel per organization (traced passes only).
    pub peel: [PeelTimes; 4],
    /// Spans of the pass (recorded in traced passes only).
    pub spans: Spans,
}

impl Pass {
    fn new(traced: bool) -> Self {
        Self {
            setup_s: 0.0,
            attempted: 0,
            attempts: 0,
            commits: 0,
            cross: 0,
            conflicts: 0,
            hk_passes: 0,
            window_s: 0.0,
            commit_us: Vec::new(),
            restart_ms: Vec::new(),
            first_commit_us: Vec::new(),
            count_window: (0.0, 0.0),
            counts: Counts::default(),
            excluded: Counts::default(),
            orgs: Default::default(),
            disk_at_checkpoint: [(0, 0.0); 4],
            disk_at_end: [(0, 0.0); 4],
            restarts: RestartLedger::default(),
            peel: [PeelTimes::default(); 4],
            spans: Spans::new(traced),
        }
    }

    /// The workload's headline latency: mean restart for `restart`, commit
    /// p50 otherwise (the tracing overhead is measured on it).
    pub fn headline(&self, w: Workload) -> f64 {
        match w {
            Workload::Restart => mean(&self.restart_ms),
            _ => median(&self.commit_us),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn bank_names(seats: bool) -> Vec<String> {
    let mut names: Vec<String> = (0..ACCOUNTS).map(|i| format!("a{i}")).collect();
    if seats {
        names.push("seats".into());
    }
    names
}

/// Builds the workload's world in a fresh directory.
fn setup(opts: &Opts) -> BResult<Harness> {
    let dir = work_dir(&opts.root, opts.workload.name())?;
    match opts.workload {
        Workload::SerialCommit | Workload::GroupCommit => {
            let seats = opts.workload == Workload::GroupCommit;
            let mut h = Harness::new(dir, bank_names(seats), |i| {
                Value::Int(if i < ACCOUNTS { INITIAL } else { SEATS })
            })?;
            h.conservation = Some(Conservation {
                accounts: ACCOUNTS,
                total: ORGS.len() as i64 * ACCOUNTS as i64 * INITIAL,
                seats: seats.then_some((ACCOUNTS, ORGS.len() as i64 * SEATS)),
            });
            if seats {
                // Simple and redo logs reject snapshot housekeeping.
                for (i, (kind, _)) in ORGS.iter().enumerate() {
                    let mode = if *kind == RsKind::Hybrid {
                        HousekeepingMode::Snapshot
                    } else {
                        HousekeepingMode::Compaction
                    };
                    h.world
                        .set_housekeeping_policy(h.gids[i], HK_ENTRIES, mode)
                        .ctx("housekeeping policy")?;
                }
            }
            Ok(h)
        }
        Workload::Restart => {
            let names = (0..RESTART_OBJECTS).map(|i| format!("o{i}")).collect();
            let mut h = Harness::new(dir, names, |_| Value::Bytes(vec![0; VALUE_BYTES]))?;
            build_history(&mut h, &mut DetRng::new(opts.seed ^ 0x5e7u64))?;
            Ok(h)
        }
    }
}

/// A `restart` action at guardian `g`: `RESTART_WRITES` distinct objects,
/// none in `taken`, each set to a fresh 48-byte value.
fn restart_plan(rng: &mut DetRng, g: usize, taken: &mut Vec<usize>) -> Plan {
    let mut writes = Vec::with_capacity(RESTART_WRITES);
    for _ in 0..RESTART_WRITES {
        let mut obj = rng.gen_range(RESTART_OBJECTS as u64) as usize;
        while taken.contains(&obj) {
            obj = (obj + 1) % RESTART_OBJECTS;
        }
        taken.push(obj);
        let fill = rng.next_u64().to_le_bytes();
        let value: Vec<u8> = fill.iter().cycle().take(VALUE_BYTES).copied().collect();
        writes.push(Write {
            g,
            obj,
            op: Op::Set(Value::Bytes(value)),
        });
    }
    Plan {
        home: g,
        writes,
        reservation: false,
    }
}

/// Commits `HISTORY` actions per guardian, `HISTORY_BATCH` per guardian at
/// a time with overlapping commits.
fn build_history(h: &mut Harness, rng: &mut DetRng) -> BResult<()> {
    let mut spans = Spans::new(false);
    for _ in 0..HISTORY / HISTORY_BATCH {
        let mut batch = Vec::new();
        for g in 0..ORGS.len() {
            let mut taken = Vec::new();
            for _ in 0..HISTORY_BATCH {
                let plan = restart_plan(rng, g, &mut taken);
                let aid = h
                    .begin_and_write(&plan, &mut spans)?
                    .ok_or("history writes are disjoint within a batch")?;
                batch.push((plan, aid));
            }
        }
        for (plan, aid) in &batch {
            h.commit_start(*aid, plan.home, &mut spans)?;
        }
        for (plan, aid) in &batch {
            if h.commit_settle(*aid, plan.home, &mut spans)? != Outcome::Committed {
                return Err("a history action did not commit".into());
            }
            h.apply(plan);
        }
    }
    Ok(())
}

/// A `serial_commit` action: a transfer between two distinct uniform
/// accounts of guardian `home`.
fn transfer_plan(rng: &mut DetRng, home: usize) -> Plan {
    let from = rng.gen_range(ACCOUNTS as u64) as usize;
    let mut to = rng.gen_range(ACCOUNTS as u64 - 1) as usize;
    if to >= from {
        to += 1;
    }
    let amount = 1 + rng.gen_range(100) as i64;
    Plan {
        home,
        writes: vec![
            Write {
                g: home,
                obj: from,
                op: Op::Add(-amount),
            },
            Write {
                g: home,
                obj: to,
                op: Op::Add(amount),
            },
        ],
        reservation: false,
    }
}

/// A `group_commit` action: a zipfian transfer, or a reservation that
/// debits the user's account, credits the flight guardian's revenue
/// account (account 0) and takes one of its seats.
fn mixed_plan(rng: &mut DetRng, zipf: &Zipf) -> Plan {
    let n = ORGS.len();
    let home = rng.gen_range(n as u64) as usize;
    let other = if rng.gen_bool(CROSS) {
        (home + 1 + rng.gen_range(n as u64 - 1) as usize) % n
    } else {
        home
    };
    let amount = 1 + rng.gen_range(100) as i64;
    let from = zipf.sample(rng);
    if rng.gen_bool(RESERVATION) {
        let user = if other == home && from == 0 { 1 } else { from };
        Plan {
            home,
            writes: vec![
                Write {
                    g: home,
                    obj: user,
                    op: Op::Add(-amount),
                },
                Write {
                    g: other,
                    obj: 0,
                    op: Op::Add(amount),
                },
                Write {
                    g: other,
                    obj: ACCOUNTS,
                    op: Op::Add(-1),
                },
            ],
            reservation: true,
        }
    } else {
        let mut to = zipf.sample(rng);
        if other == home && to == from {
            to = (to + 1) % ACCOUNTS;
        }
        Plan {
            home,
            writes: vec![
                Write {
                    g: home,
                    obj: from,
                    op: Op::Add(-amount),
                },
                Write {
                    g: other,
                    obj: to,
                    op: Op::Add(amount),
                },
            ],
            reservation: false,
        }
    }
}

/// Runs `plan` alone, then housekeeps its guardian; with `in_window`,
/// charges its latency, syncs and bytes to its organization and counts the
/// housekeeping passes.
fn run_alone(h: &mut Harness, plan: &Plan, pass: &mut Pass, in_window: bool) -> BResult<Duration> {
    let fsyncs = h.reg.counter("stable.file.fsyncs");
    let bytes = h.reg.counter("stable.file.bytes_written");
    let (f0, b0) = (fsyncs.get(), bytes.get());
    let dt = h.run_alone(plan, &mut pass.spans)?;
    let passes = h.housekeep(plan, &mut pass.spans)?;
    pass.attempted += 1;
    if in_window {
        let org = &mut pass.orgs[plan.home];
        org.commit_us.push(us(dt));
        org.fsyncs += (fsyncs.get() - f0) as f64;
        org.bytes += (bytes.get() - b0) as f64;
        org.alone += 1;
        pass.hk_passes += passes;
    }
    Ok(dt)
}

/// One crash/restart cycle: crash all four guardians, restart each, check
/// every object against the model (untimed), then commit one action per
/// guardian. Returns the cycle's timed part: from the crash until each
/// guardian has restarted and committed one action.
fn cycle(h: &mut Harness, rng: &mut DetRng, pass: &mut Pass, in_window: bool) -> BResult<Duration> {
    let t0 = Instant::now();
    h.crash_and_restart(&mut pass.spans, &mut pass.restarts)?;
    let restarted = t0.elapsed();
    h.check()?;
    let t1 = Instant::now();
    for g in 0..ORGS.len() {
        let plan = match h.conservation {
            Some(_) => transfer_plan(rng, g),
            None => restart_plan(rng, g, &mut Vec::new()),
        };
        let dt = run_alone(h, &plan, pass, in_window)?;
        pass.first_commit_us.push(us(dt));
        if in_window {
            pass.commit_us.push(us(dt));
            pass.commits += 1;
            pass.attempts += 1;
        }
    }
    Ok(restarted + t1.elapsed())
}

/// Files and bytes under each guardian's directory.
fn disk_usage(h: &Harness) -> [(usize, f64); 4] {
    std::array::from_fn(|g| {
        let dir = h.guardian_dir(g);
        let files = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        (files, dir_bytes(&dir) as f64)
    })
}

/// The run's checkpoint, reached after the count window's deterministic
/// prefix of work. It takes `write_bytes_per_commit` (bytes written since
/// `bytes0`) and `space_amp` (the world's bytes on disk over the model's
/// live bytes); in the commit workloads it runs the restart cycles, so
/// their history is the same for a seed whatever the throughput; in a
/// traced pass it peels every guardian. Its time is excluded from the
/// timed window.
fn checkpoint(
    h: &mut Harness,
    rng: &mut DetRng,
    pass: &mut Pass,
    opts: &Opts,
    bytes0: u64,
) -> BResult<()> {
    let start = Counts::take(&h.reg);
    let written = h.reg.counter("stable.file.bytes_written").get() - bytes0;
    pass.count_window = (
        ratio(written as f64, pass.commits as f64),
        ratio(dir_bytes(h.dir()) as f64, h.live_bytes() as f64),
    );
    pass.disk_at_checkpoint = disk_usage(h);
    if opts.workload != Workload::Restart {
        if opts.plant {
            plant(h);
        }
        let mut timed = Duration::ZERO;
        while pass.restart_ms.len() < RESTART_CYCLES || timed < opts.seconds / 2 {
            let dt = cycle(h, rng, pass, false)?;
            pass.restart_ms.push(dt.as_secs_f64() * 1e3);
            timed += dt;
        }
    }
    if pass.spans.on() {
        peel_all(h, opts, pass)?;
    }
    pass.excluded = Counts::take(&h.reg).minus(&start);
    Ok(())
}

fn serial_window(h: &mut Harness, opts: &Opts, rng: &mut DetRng, pass: &mut Pass) -> BResult<()> {
    let bytes0 = h.reg.counter("stable.file.bytes_written").get();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while start.elapsed() - paused < opts.seconds || k < opts.workload.count_window() {
        let plan = transfer_plan(rng, (k % ORGS.len() as u64) as usize);
        let dt = run_alone(h, &plan, pass, true)?;
        pass.commit_us.push(us(dt));
        pass.attempts += 1;
        pass.commits += 1;
        k += 1;
        if k == opts.workload.count_window() {
            let t = Instant::now();
            checkpoint(h, rng, pass, opts, bytes0)?;
            paused += t.elapsed();
        }
    }
    pass.window_s = (start.elapsed() - paused).as_secs_f64();
    Ok(())
}

/// One `group_commit` client: its current logical action, when it first
/// began, and the attempt in flight.
struct Client {
    plan: Option<Plan>,
    began: Instant,
    aid: Option<ActionId>,
}

fn group_window(h: &mut Harness, opts: &Opts, rng: &mut DetRng, pass: &mut Pass) -> BResult<()> {
    let zipf = Zipf::new(ACCOUNTS, THETA);
    let bytes0 = h.reg.counter("stable.file.bytes_written").get();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client {
            plan: None,
            began: Instant::now(),
            aid: None,
        })
        .collect();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut checkpointed = false;
    let mut round = 0usize;
    while start.elapsed() - paused < opts.seconds || !checkpointed {
        // Rotate who goes first, so a retried action cannot starve behind
        // the same client's hot account round after round.
        let order: Vec<usize> = (0..CLIENTS).map(|j| (round + j) % CLIENTS).collect();
        for &c in &order {
            let client = &mut clients[c];
            if client.plan.is_none() {
                client.plan = Some(mixed_plan(rng, &zipf));
                client.began = Instant::now();
            }
            let plan = client.plan.as_ref().expect("planned above");
            pass.attempts += 1;
            client.aid = h.begin_and_write(plan, &mut pass.spans)?;
            if client.aid.is_none() {
                pass.conflicts += 1;
            }
        }
        for &c in &order {
            if let (Some(aid), Some(plan)) = (clients[c].aid, &clients[c].plan) {
                h.commit_start(aid, plan.home, &mut pass.spans)?;
            }
        }
        for &c in &order {
            let Some(aid) = clients[c].aid.take() else {
                continue;
            };
            let plan = clients[c].plan.take().expect("an attempt has a plan");
            let outcome = h.commit_settle(aid, plan.home, &mut pass.spans)?;
            if outcome == Outcome::Committed {
                let lat = us(clients[c].began.elapsed());
                pass.commit_us.push(lat);
                if !plan.cross() {
                    pass.orgs[plan.home].commit_us.push(lat);
                }
                pass.attempted += 1;
                pass.commits += 1;
                pass.cross += u64::from(plan.cross());
                h.apply(&plan);
            } else {
                // Refused at prepare: retry the same logical action.
                clients[c].plan = Some(plan.clone());
            }
            let passes = h.housekeep(&plan, &mut pass.spans)?;
            pass.hk_passes += passes;
        }
        round += 1;
        // Checkpoint between rounds, when no attempt is in flight.
        if !checkpointed && pass.commits >= opts.workload.count_window() {
            checkpointed = true;
            let t = Instant::now();
            checkpoint(h, rng, pass, opts, bytes0)?;
            paused += t.elapsed();
        }
    }
    // Actions still being retried when the window closed are neither
    // attempted nor failed: the closed loop was cut, not the action.
    pass.window_s = (start.elapsed() - paused).as_secs_f64();
    Ok(())
}

fn restart_window(h: &mut Harness, opts: &Opts, rng: &mut DetRng, pass: &mut Pass) -> BResult<()> {
    if opts.plant {
        plant(h);
    }
    let bytes0 = h.reg.counter("stable.file.bytes_written").get();
    let mut timed = Duration::ZERO;
    let mut cycles = 0u64;
    while timed < opts.seconds || cycles < opts.workload.count_window() {
        let dt = cycle(h, rng, pass, true)?;
        pass.restart_ms.push(dt.as_secs_f64() * 1e3);
        timed += dt;
        cycles += 1;
        if cycles == opts.workload.count_window() {
            checkpoint(h, rng, pass, opts, bytes0)?;
        }
    }
    pass.window_s = timed.as_secs_f64();
    Ok(())
}

/// Plants one wrong expectation: the model's first object on the first
/// guardian is changed without the program knowing.
fn plant(h: &mut Harness) {
    h.model[0][0] = match &h.model[0][0] {
        Value::Int(x) => Value::Int(x + 1),
        _ => Value::Bytes(vec![0xAB; VALUE_BYTES + 1]),
    };
}

/// Runs one pass of the workload: set-up (`setups` times, keeping the
/// last), the timed window with its checkpoint, and a last crash, restart
/// and check of every object.
pub fn run_pass(opts: &Opts, traced: bool, setups: usize) -> BResult<Pass> {
    let mut pass = Pass::new(traced);
    let mut setup_s = Vec::new();
    let mut harness = None;
    for _ in 0..setups.max(1) {
        drop(harness.take());
        let t = Instant::now();
        harness = Some(setup(opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut h = harness.expect("at least one set-up");
    pass.setup_s = median(&setup_s);
    let mut rng = DetRng::new(opts.seed);

    let before = Counts::take(&h.reg);
    match opts.workload {
        Workload::SerialCommit => serial_window(&mut h, opts, &mut rng, &mut pass)?,
        Workload::GroupCommit => group_window(&mut h, opts, &mut rng, &mut pass)?,
        Workload::Restart => restart_window(&mut h, opts, &mut rng, &mut pass)?,
    }
    pass.counts = Counts::take(&h.reg).minus(&before).minus(&pass.excluded);
    pass.disk_at_end = disk_usage(&h);
    h.crash_and_restart(&mut pass.spans, &mut RestartLedger::default())?;
    h.check()?;
    Ok(pass)
}

/// Crashes every guardian, peels each from a copy of its directory, then
/// restarts them all and checks every object.
fn peel_all(h: &mut Harness, opts: &Opts, pass: &mut Pass) -> BResult<()> {
    for &g in &h.gids {
        h.world.crash(g);
    }
    let scratch = work_dir(&opts.root, "peel")?;
    for (i, (kind, org)) in ORGS.iter().enumerate() {
        let expected: Vec<(String, Value)> = h
            .names
            .iter()
            .cloned()
            .zip(h.model[i].iter().cloned())
            .collect();
        let mut runs = Vec::new();
        for rep in 0..PEELS {
            let t = Instant::now();
            let dst = scratch.path().join(format!("{org}-{rep}"));
            runs.push(peel(*kind, &h.guardian_dir(i), &dst, &expected)?);
            pass.spans.record("peel", i, t, Instant::now(), rep as u64);
        }
        let med = |f: fn(&PeelTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        pass.peel[i] = PeelTimes {
            read_all_us: med(|p| p.read_all_us),
            scan_us: med(|p| p.scan_us),
            recover_us: med(|p| p.recover_us),
            records: runs[0].records,
        };
    }
    h.crash_and_restart(&mut pass.spans, &mut RestartLedger::default())?;
    h.check()
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        m(
            "commits_per_s",
            "1/s",
            ratio(pass.commits as f64, pass.window_s),
        ),
        m("commit_us.p50", "us", quantile(&pass.commit_us, 0.5)),
        m("commit_us.p90", "us", quantile(&pass.commit_us, 0.9)),
        m(
            "attempts_per_commit",
            "ratio",
            ratio(pass.attempts as f64, pass.commits as f64),
        ),
        m("write_bytes_per_commit", "B/commit", pass.count_window.0),
        m("space_amp", "ratio", pass.count_window.1),
        m("restart_ms.mean", "ms", mean(&pass.restart_ms)),
        m("restart_ms.p90", "ms", quantile(&pass.restart_ms, 0.9)),
        m("setup_s", "s", pass.setup_s),
    ]
}

/// The per-layer metrics of a traced pass. `sync_us` is the device
/// calibration; `overhead` the tracing overhead on the headline latency.
pub fn per_layer(pass: &Pass, sync_us: f64, overhead: f64) -> Vec<Metric> {
    let commits = pass.commits as f64;
    let d = |name: &str| pass.counts.get(name);
    let per_commit = |name: &str| ratio(d(name), commits);
    let spans = &pass.spans;
    let (begin_us, _) = spans.total_us("begin", false);
    let (submit_us, _) = spans.total_us("submit_write_atomic", false);
    let (start_us, starts) = spans.total_us("commit_start", false);
    let (settle_us, settles) = spans.total_us("commit_settle", false);
    let (hk_us, hk_calls) = spans.total_us("maybe_housekeep", false);
    let r = &pass.restarts;
    let per_org_restarts = r.restarts as f64 / ORGS.len() as f64;
    let (hits, misses) = (r.totals[2], r.totals[3]);

    let mut out = vec![
        m(
            "guardian.begin_write_us",
            "us",
            ratio(begin_us + submit_us, pass.attempts as f64),
        ),
        m(
            "guardian.commit_start_us",
            "us",
            ratio(start_us, starts as f64),
        ),
        m(
            "guardian.commit_settle_us",
            "us",
            ratio(settle_us, settles as f64),
        ),
        m(
            "guardian.sched_polls_per_commit",
            "count/commit",
            per_commit("world.sched.polls"),
        ),
        m(
            "guardian.msgs_per_commit",
            "count/commit",
            per_commit("net.delivered"),
        ),
        m("guardian.housekeep_us", "us", ratio(hk_us, hk_calls as f64)),
        m("guardian.hk_passes", "count", pass.hk_passes as f64),
    ];
    for (i, (_, org)) in ORGS.iter().enumerate() {
        out.push(m(
            format!("guardian.restart_us.{org}"),
            "us",
            mean(&r.restart_us[i]),
        ));
    }
    out.push(m(
        "guardian.first_commit_us",
        "us",
        mean(&pass.first_commit_us),
    ));
    out.push(m(
        "cc.conflicts_per_commit",
        "count/commit",
        ratio(pass.conflicts as f64, commits),
    ));
    out.push(m(
        "twopc.coord_started_per_commit",
        "count/commit",
        per_commit("twopc.coord.started"),
    ));
    out.push(m(
        "twopc.prepares_per_commit",
        "count/commit",
        per_commit("twopc.part.prepares"),
    ));
    out.push(m(
        "twopc.cross_share",
        "ratio",
        ratio(pass.cross as f64, commits),
    ));
    for (i, (_, org)) in ORGS.iter().enumerate() {
        let o = &pass.orgs[i];
        out.push(m(
            format!("core.commit_us.p50.{org}"),
            "us",
            median(&o.commit_us),
        ));
        out.push(m(
            format!("core.syncs_per_commit.{org}"),
            "count/commit",
            ratio(o.fsyncs, o.alone as f64),
        ));
        out.push(m(
            format!("core.write_bytes_per_commit.{org}"),
            "B/commit",
            ratio(o.bytes, o.alone as f64),
        ));
        out.push(m(
            format!("core.stored_bytes.{org}"),
            "B",
            pass.disk_at_checkpoint[i].1,
        ));
    }
    out.push(m(
        "core.hk_entries_reclaimed",
        "count",
        d("core.hk.entries_reclaimed"),
    ));
    for (i, (_, org)) in ORGS.iter().enumerate() {
        out.push(m(
            format!("core.recover_us.{org}"),
            "us",
            pass.peel[i].recover_us,
        ));
        let [examined, data, hops] = r.per_org[i];
        out.push(m(
            format!("core.entries_examined_per_restart.{org}"),
            "count/restart",
            ratio(examined, per_org_restarts),
        ));
        out.push(m(
            format!("core.data_entries_read_per_restart.{org}"),
            "count/restart",
            ratio(data, per_org_restarts),
        ));
        out.push(m(
            format!("core.chain_hops_per_restart.{org}"),
            "count/restart",
            ratio(hops, per_org_restarts),
        ));
    }
    out.push(m(
        "slog.forces_per_commit",
        "count/commit",
        per_commit("slog.forces"),
    ));
    out.push(m("slog.batch_size.mean", "count", pass.counts.batch_mean()));
    out.push(m(
        "slog.append_bytes_per_commit",
        "B/commit",
        per_commit("slog.append_bytes"),
    ));
    out.push(m(
        "slog.entry_reads_per_restart",
        "count/restart",
        ratio(r.totals[0], r.restarts as f64),
    ));
    out.push(m(
        "slog.backward_hops_per_restart",
        "count/restart",
        ratio(r.totals[1], r.restarts as f64),
    ));
    for (i, (_, org)) in ORGS.iter().enumerate() {
        out.push(m(format!("slog.scan_us.{org}"), "us", pass.peel[i].scan_us));
    }
    out.push(m(
        "stable.fsyncs_per_commit",
        "count/commit",
        per_commit("stable.file.fsyncs"),
    ));
    out.push(m("stable.sync_us", "us", sync_us));
    out.push(m(
        "stable.bytes_written_per_commit",
        "B/commit",
        per_commit("stable.file.bytes_written"),
    ));
    out.push(m(
        "stable.cache_hit_rate_restart",
        "ratio",
        ratio(hits, hits + misses),
    ));
    out.push(m(
        "stable.readahead_per_restart",
        "count/restart",
        ratio(r.totals[4], r.restarts as f64),
    ));
    out.push(m(
        "stable.page_reads_per_restart",
        "count/restart",
        ratio(r.totals[5], r.restarts as f64),
    ));
    for (i, (_, org)) in ORGS.iter().enumerate() {
        out.push(m(
            format!("stable.read_all_us.{org}"),
            "us",
            pass.peel[i].read_all_us,
        ));
    }
    out.push(m("trace.overhead_share", "ratio", overhead));
    out
}
