//! What the benchmark records from outside the program: wall-clock spans
//! around its own `World` calls, and snapshots of the program's `obs`
//! counters taken around each timed window.

use argus_obs::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One wall-clock span around a public call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call: `begin`, `submit_write_atomic`, `commit_start`, ...
    pub name: &'static str,
    /// Guardian index the call addressed (the trace lane).
    pub lane: u32,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// A call-specific value: 1 when `maybe_housekeep` ran a pass.
    pub arg: u64,
}

/// Spans kept in memory and written out when the run ends. Recording is off
/// in untraced runs, so end-to-end numbers carry no tracing cost.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` on `lane`.
    pub fn time<T>(&mut self, name: &'static str, lane: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, lane, start, Instant::now(), 0);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        lane: usize,
        start: Instant,
        end: Instant,
        arg: u64,
    ) {
        if !self.on {
            return;
        }
        self.list.push(Span {
            name,
            lane: lane as u32,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            arg,
        });
    }

    /// Total µs and count of the spans named `name` (those with `arg == 1`
    /// only, when `ran_only`).
    pub fn total_us(&self, name: &str, ran_only: bool) -> (f64, usize) {
        self.list
            .iter()
            .filter(|s| s.name == name && (!ran_only || s.arg == 1))
            .fold((0.0, 0), |(us, n), s| (us + s.dur_ns as f64 / 1e3, n + 1))
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// The spans as a Chrome trace-event document (load it in Perfetto or
    /// `chrome://tracing`); one thread lane per guardian.
    pub fn to_chrome_json(&self, lane_names: &[&str]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, name) in lane_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for (i, s) in self.list.iter().enumerate() {
            let sep = if i + 1 == self.list.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"arg\":{}}}}}{sep}",
                s.lane,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.arg
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Every counter in a registry plus the group-commit batch histogram's
/// count and sum: a snapshot, or the difference of two.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    counters: BTreeMap<String, u64>,
    batch: (u64, u64),
}

impl Counts {
    /// Snapshots `reg`.
    pub fn take(reg: &Registry) -> Self {
        let report = reg.report();
        let batch = report
            .hists
            .iter()
            .find(|(name, _)| name == "slog.force.batch_size")
            .map(|(_, h)| (h.count, h.sum))
            .unwrap_or_default();
        Self {
            counters: report.counters.into_iter().collect(),
            batch,
        }
    }

    /// Counter `name` (0 when it was never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Counter-wise `self - earlier`: how far every counter advanced since
    /// the `earlier` snapshot, or a delta with a stretch taken out.
    pub fn minus(&self, earlier: &Counts) -> Counts {
        let get = |name: &str| earlier.counters.get(name).copied().unwrap_or(0);
        Counts {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| (name.clone(), v.saturating_sub(get(name))))
                .collect(),
            batch: (
                self.batch.0.saturating_sub(earlier.batch.0),
                self.batch.1.saturating_sub(earlier.batch.1),
            ),
        }
    }

    /// Mean group-commit batch size of a delta.
    pub fn batch_mean(&self) -> f64 {
        crate::stats::ratio(self.batch.1 as f64, self.batch.0 as f64)
    }
}
