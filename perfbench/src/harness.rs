//! The four-organization world the workloads drive, with the benchmark's own
//! model of every committed value and the crash/restart oracle.

use crate::ledger::Spans;
use argus_cc::CcOutcome;
use argus_guardian::{MediaKind, Outcome, RsKind, World, WorldConfig};
use argus_objects::{ActionId, GuardianId, Heap, HeapId, ObjRef, Value};
use argus_obs::{Counter, Registry, ScopedRegistry};
use argus_sim::CostModel;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The four storage organizations, one guardian each, in guardian-id order.
pub const ORGS: [(RsKind, &str); 4] = [
    (RsKind::Simple, "simple"),
    (RsKind::Hybrid, "hybrid"),
    (RsKind::Shadow, "shadow"),
    (RsKind::Redo, "redo"),
];

/// Every failure the benchmark can meet, as a message for standard error.
pub type BResult<T> = Result<T, String>;

/// Adds what was being done to an error.
pub trait Ctx<T> {
    /// Maps the error to `"{what}: {error}"`.
    fn ctx(self, what: &str) -> BResult<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> BResult<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// A directory the benchmark owns for one world: created empty, removed on
/// drop. A non-empty directory is refused, because `FileProvider::new`
/// resumes whatever log generations it finds there and would silently mix
/// two runs.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `path` (and its parents) as an empty directory.
    pub fn fresh(path: PathBuf) -> BResult<Self> {
        if let Ok(mut entries) = std::fs::read_dir(&path) {
            if entries.next().is_some() {
                return Err(format!(
                    "refusing to reuse non-empty directory {}",
                    path.display()
                ));
            }
        }
        std::fs::create_dir_all(&path).ctx(&format!("create {}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of all regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Every stable variable of a heap by name: the root's `(name, value)`
/// pairs, read in one pass (`Guardian::stable_value` rescans the root per
/// name). The first binding of a name wins, as in `stable_value`.
pub fn stable_bindings(heap: &Heap) -> BResult<HashMap<String, Value>> {
    let root = heap.stable_root().ok_or("the heap has no stable root")?;
    let mut out = HashMap::new();
    if let Value::Seq(pairs) = heap.read_value(root, None).ctx("stable root")? {
        for pair in pairs {
            if let Value::Seq(kv) = pair {
                if let [Value::Str(name), value] = kv.as_slice() {
                    out.entry(name.clone()).or_insert_with(|| value.clone());
                }
            }
        }
    }
    Ok(out)
}

/// A fresh directory under the benchmark's work root for one world.
pub fn work_dir(root: &Path, tag: &str) -> BResult<WorkDir> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    WorkDir::fresh(root.join(format!("{tag}-{}-{n}", std::process::id())))
}

/// One write of an action's plan.
#[derive(Debug, Clone)]
pub enum Op {
    /// Add to an integer balance (the program applies the delta).
    Add(i64),
    /// Replace the value.
    Set(Value),
}

impl Op {
    fn mutation(&self) -> impl FnOnce(&mut Value) + 'static {
        let op = self.clone();
        move |v| match op {
            Op::Add(d) => {
                if let Value::Int(b) = v {
                    *b += d;
                }
            }
            Op::Set(x) => *v = x,
        }
    }

    fn apply(&self, v: &mut Value) {
        self.mutation()(v)
    }
}

/// One write: object `obj` on guardian index `g`.
#[derive(Debug, Clone)]
pub struct Write {
    /// Guardian index into [`ORGS`].
    pub g: usize,
    /// Object index into the harness's names.
    pub obj: usize,
    /// What to write.
    pub op: Op,
}

/// A logical action: begun (and coordinated) at `home`, then its writes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Guardian index the action begins at.
    pub home: usize,
    /// The writes, in submission order.
    pub writes: Vec<Write>,
    /// Whether it takes a seat (reservations, for seat conservation).
    pub reservation: bool,
}

impl Plan {
    /// Whether the action writes at more than one guardian (two-phase
    /// commit across guardians).
    pub fn cross(&self) -> bool {
        self.writes.iter().any(|w| w.g != self.home)
    }
}

/// Balance conservation: the first `accounts` objects of every guardian are
/// integer balances summing to `total`; with `seats`, object `seats.0` of
/// every guardian counts seats that sum to `seats.1` minus the committed
/// reservations.
#[derive(Debug, Clone, Copy)]
pub struct Conservation {
    /// Leading balance objects per guardian.
    pub accounts: usize,
    /// Their total over the world.
    pub total: i64,
    /// Seat-counter object index and the world's initial seat total.
    pub seats: Option<(usize, i64)>,
}

/// Counter handles read around each restart to attribute recovery work to
/// one organization.
#[derive(Debug, Clone)]
struct RestartCounters {
    list: Vec<Counter>,
}

/// Counters read around each guardian restart, in [`RestartLedger::totals`]
/// order after the three per-organization ones.
const RESTART_COUNTERS: [&str; 8] = [
    "core.recover.entries_examined",
    "core.recover.data_entries_read",
    "core.recover.chain_hops",
    "slog.entry_reads",
    "slog.backward_hops",
    "stable.cache.hit",
    "stable.cache.miss",
    "stable.cache.readahead",
];

impl RestartCounters {
    fn resolve(reg: &Registry) -> Self {
        Self {
            list: RESTART_COUNTERS.iter().map(|n| reg.counter(n)).collect(),
        }
    }

    fn read(&self) -> [u64; 8] {
        let mut out = [0; 8];
        for (o, c) in out.iter_mut().zip(&self.list) {
            *o = c.get();
        }
        out
    }
}

/// Recovery work per restart, attributed to organizations.
#[derive(Debug, Default, Clone)]
pub struct RestartLedger {
    /// Wall µs of each `World::restart` call, per organization.
    pub restart_us: [Vec<f64>; 4],
    /// Entries examined, data entries read and chain hops, summed per
    /// organization.
    pub per_org: [[f64; 3]; 4],
    /// `slog.entry_reads`, `slog.backward_hops`, cache hits, misses,
    /// read-ahead pages and device page reads, summed over restarts.
    pub totals: [f64; 6],
    /// Guardian restarts recorded.
    pub restarts: usize,
}

/// A world of four guardians, one per organization, on real files, with
/// the benchmark's model of every committed value.
pub struct Harness {
    /// The world (dropped first, so its files close before the directory
    /// is removed).
    pub world: World,
    /// The registry every layer of this world records into.
    pub reg: Registry,
    /// Guardian ids in [`ORGS`] order.
    pub gids: Vec<GuardianId>,
    /// Object names, the same on every guardian.
    pub names: Vec<String>,
    /// Committed value of every object, per guardian.
    pub model: Vec<Vec<Value>>,
    /// Balance and seat conservation, checked after each restart.
    pub conservation: Option<Conservation>,
    /// Committed reservations (seats taken).
    pub reservations: i64,
    handles: Vec<Vec<HeapId>>,
    restart_counters: RestartCounters,
    dir: WorkDir,
    _scope: ScopedRegistry,
}

impl Harness {
    /// Builds the world in `dir` under a fresh registry, creating every
    /// named object on every guardian with `initial(index)`.
    pub fn new(
        dir: WorkDir,
        names: Vec<String>,
        initial: impl Fn(usize) -> Value,
    ) -> BResult<Self> {
        // A fresh registry per world, entered before the world exists, so
        // every layer's counters land here and not in the global registry.
        let reg = Registry::new();
        let scope = reg.enter();
        let base: &'static str =
            Box::leak(dir.path().to_string_lossy().into_owned().into_boxed_str());
        let cfg = WorldConfig {
            media: MediaKind::File { dir: Some(base) },
            ..WorldConfig::default()
        };
        let mut world = World::with_config(CostModel::fast(), cfg);
        let mut gids = Vec::new();
        let mut handles = Vec::new();
        for (kind, org) in ORGS {
            let g = world.add_guardian(kind).ctx(org)?;
            let mut hs = Vec::with_capacity(names.len());
            for chunk in (0..names.len()).collect::<Vec<_>>().chunks(512) {
                let aid = world.begin(g).ctx("setup begin")?;
                for &i in chunk {
                    let h = world.create_atomic(g, aid, initial(i)).ctx("create")?;
                    world
                        .set_stable(g, aid, &names[i], Value::heap_ref(h))
                        .ctx("bind")?;
                    hs.push(h);
                }
                if world.commit(aid).ctx("setup commit")? != Outcome::Committed {
                    return Err(format!("{org}: setup action did not commit"));
                }
            }
            gids.push(g);
            handles.push(hs);
        }
        let model = (0..ORGS.len())
            .map(|_| (0..names.len()).map(&initial).collect())
            .collect();
        let restart_counters = RestartCounters::resolve(&reg);
        Ok(Self {
            world,
            reg,
            gids,
            names,
            model,
            conservation: None,
            reservations: 0,
            handles,
            restart_counters,
            dir,
            _scope: scope,
        })
    }

    /// The world's directory.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// The directory of guardian index `g` (one subdirectory per guardian).
    pub fn guardian_dir(&self, g: usize) -> PathBuf {
        self.dir.path().join(format!("g{}", self.gids[g].0))
    }

    /// Live user bytes in the model: 8 per balance, the payload length per
    /// byte string.
    pub fn live_bytes(&self) -> u64 {
        self.model
            .iter()
            .flatten()
            .map(|v| match v {
                Value::Bytes(b) => b.len() as u64,
                _ => 8,
            })
            .sum()
    }

    /// Begins `plan` at its home guardian and submits every write. Returns
    /// `None` when concurrency control refused a write: the attempt is
    /// aborted and the caller retries it.
    pub fn begin_and_write(&mut self, plan: &Plan, spans: &mut Spans) -> BResult<Option<ActionId>> {
        let home = self.gids[plan.home];
        let world = &mut self.world;
        let aid = spans
            .time("begin", plan.home, || world.begin(home))
            .ctx("begin")?;
        for w in &plan.writes {
            let (g, h) = (self.gids[w.g], self.handles[w.g][w.obj]);
            let f = w.op.mutation();
            let out = spans
                .time("submit_write_atomic", w.g, || {
                    world.submit_write_atomic(g, aid, h, f)
                })
                .ctx("submit_write_atomic")?;
            match out {
                CcOutcome::Done => {}
                CcOutcome::Conflict => {
                    world.abort_local(aid);
                    return Ok(None);
                }
                CcOutcome::Parked => return Err("a write parked under conflict-abort".into()),
            }
        }
        Ok(Some(aid))
    }

    /// `World::commit_start` inside a span.
    pub fn commit_start(&mut self, aid: ActionId, lane: usize, spans: &mut Spans) -> BResult<()> {
        let world = &mut self.world;
        spans
            .time("commit_start", lane, || world.commit_start(aid))
            .ctx("commit_start")
    }

    /// `World::commit_settle` inside a span.
    pub fn commit_settle(
        &mut self,
        aid: ActionId,
        lane: usize,
        spans: &mut Spans,
    ) -> BResult<Outcome> {
        let world = &mut self.world;
        spans
            .time("commit_settle", lane, || world.commit_settle(aid))
            .ctx("commit_settle")
    }

    /// Records a committed plan in the model.
    pub fn apply(&mut self, plan: &Plan) {
        for w in &plan.writes {
            w.op.apply(&mut self.model[w.g][w.obj]);
        }
        if plan.reservation {
            self.reservations += 1;
        }
    }

    /// Runs `plan` alone to commit: no other action is in flight, so it
    /// can neither conflict nor share a force. Returns the wall time from
    /// `begin` to the `Committed` acknowledgement.
    pub fn run_alone(&mut self, plan: &Plan, spans: &mut Spans) -> BResult<Duration> {
        let t0 = Instant::now();
        let aid = self
            .begin_and_write(plan, spans)?
            .ok_or("a lone action met a lock conflict")?;
        self.commit_start(aid, plan.home, spans)?;
        match self.commit_settle(aid, plan.home, spans)? {
            Outcome::Committed => {}
            other => return Err(format!("a lone action ended {other:?}")),
        }
        let dt = t0.elapsed();
        self.apply(plan);
        Ok(dt)
    }

    /// Applies the housekeeping policy at every participant of a settled
    /// `plan`, as `World::commit` does after each commit; the split commit
    /// path never does it. Returns the passes that ran.
    pub fn housekeep(&mut self, plan: &Plan, spans: &mut Spans) -> BResult<u64> {
        let mut gs: Vec<usize> = plan.writes.iter().map(|w| w.g).collect();
        gs.push(plan.home);
        gs.sort_unstable();
        gs.dedup();
        let mut passes = 0;
        for g in gs {
            let t = Instant::now();
            let ran = self
                .world
                .maybe_housekeep(self.gids[g])
                .ctx("maybe_housekeep")?;
            spans.record("maybe_housekeep", g, t, Instant::now(), u64::from(ran));
            passes += u64::from(ran);
        }
        Ok(passes)
    }

    /// Crashes every guardian, then restarts each, attributing recovery
    /// work to its organization in `ledger`.
    pub fn crash_and_restart(
        &mut self,
        spans: &mut Spans,
        ledger: &mut RestartLedger,
    ) -> BResult<()> {
        for (i, &g) in self.gids.iter().enumerate() {
            let world = &mut self.world;
            spans.time("crash", i, || world.crash(g));
        }
        for (i, &g) in self.gids.iter().enumerate() {
            let before = self.restart_counters.read();
            let reads0 = self
                .world
                .guardian(g)
                .ctx("guardian")?
                .log_stats()
                .device
                .reads();
            let t = Instant::now();
            self.world
                .restart(g)
                .ctx(&format!("restart {}", ORGS[i].1))?;
            let end = Instant::now();
            spans.record("restart", i, t, end, 0);
            let after = self.restart_counters.read();
            let reads1 = self
                .world
                .guardian(g)
                .ctx("guardian")?
                .log_stats()
                .device
                .reads();
            let d: Vec<f64> = after
                .iter()
                .zip(before)
                .map(|(a, b)| (a - b) as f64)
                .collect();
            ledger.restart_us[i].push(end.duration_since(t).as_secs_f64() * 1e6);
            for (sum, x) in ledger.per_org[i].iter_mut().zip(&d[..3]) {
                *sum += x;
            }
            for (sum, x) in ledger.totals.iter_mut().zip(&d[3..]) {
                *sum += x;
            }
            ledger.totals[5] += reads1.saturating_sub(reads0) as f64;
            ledger.restarts += 1;
        }
        Ok(())
    }

    /// Re-resolves every object by its stable name — heap ids mean nothing
    /// across a crash — then compares every committed value with the model
    /// and checks conservation. Failures read `oracle: ...`.
    pub fn check(&mut self) -> BResult<()> {
        self.check_all().map_err(|e| format!("oracle: {e}"))
    }

    fn check_all(&mut self) -> BResult<()> {
        for (gi, &g) in self.gids.iter().enumerate() {
            let bound = stable_bindings(&self.world.guardian(g).ctx("guardian")?.heap)?;
            for (i, name) in self.names.iter().enumerate() {
                let h = match bound.get(name.as_str()).cloned() {
                    Some(Value::Ref(ObjRef::Heap(h))) => h,
                    // After an on-demand recovery the binding names a uid
                    // still on the log; the heap-miss path materializes it.
                    Some(Value::Ref(ObjRef::Uid(u))) => self
                        .world
                        .demand(g, u)
                        .ctx("demand")?
                        .ok_or_else(|| format!("{}: {name} dangling (uid {u:?})", ORGS[gi].1))?,
                    other => return Err(format!("{}: {name} unresolved: {other:?}", ORGS[gi].1)),
                };
                self.handles[gi][i] = h;
                let got = self
                    .world
                    .guardian(g)
                    .ctx("guardian")?
                    .heap
                    .read_value(h, None)
                    .ctx(name)?;
                if *got != self.model[gi][i] {
                    return Err(format!(
                        "{}: {name} holds {got:?}, the model expects {:?}",
                        ORGS[gi].1, self.model[gi][i]
                    ));
                }
            }
        }
        if let Some(c) = self.conservation {
            let int = |v: &Value| match v {
                Value::Int(x) => *x,
                _ => 0,
            };
            let mut total = 0;
            let mut seats = 0;
            for (gi, &g) in self.gids.iter().enumerate() {
                let heap = &self.world.guardian(g).ctx("guardian")?.heap;
                for i in 0..c.accounts {
                    total += int(heap.read_value(self.handles[gi][i], None).ctx("balance")?);
                }
                if let Some((s, _)) = c.seats {
                    seats += int(heap.read_value(self.handles[gi][s], None).ctx("seats")?);
                }
            }
            if total != c.total {
                return Err(format!("balances sum to {total}, not {}", c.total));
            }
            if let Some((_, initial)) = c.seats {
                if seats + self.reservations != initial {
                    return Err(format!(
                        "{seats} seats left after {} reservations of {initial}",
                        self.reservations
                    ));
                }
            }
        }
        Ok(())
    }
}
