//! `perfbench`: wall-clock benchmark of durable commits and
//! crash-to-first-commit on one world of four guardians, one per storage
//! organization (simple log, hybrid log, shadowing, REDO-only log), on real
//! files with the default `WorldConfig`: group commit, fsync durability, the
//! 128-page cache and conflict-abort concurrency control.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serial_commit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Worlds live in fresh directories under `.perfbench/work` in the current
//! directory and are removed afterwards. Provenance and a readable table go
//! to standard output; its last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs an untraced and then a traced pass and reports
//! the per-layer metrics, the tracing overhead, and writes the spans to
//! `.perfbench/trace/`. `--self-test` plants one wrong expectation in the
//! model: the oracle must then reject the run (exit status 2).

mod harness;
mod ledger;
mod peel;
mod stats;
mod workloads;

use harness::{work_dir, BResult, Ctx, ORGS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{end_to_end, per_layer, run_pass, Metric, Opts, Workload};

/// Parsed command line.
struct Args {
    opts: Opts,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <serial_commit|group_commit|restart> --seed <n> \
     --seconds <s> --trace <0|1> [--self-test]"
        .into()
}

fn parse_args(root: PathBuf) -> BResult<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plant = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            plant = true;
            continue;
        }
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(usage)?),
            "--seed" => seed = Some(value.parse::<u64>().ctx("--seed")?),
            "--seconds" => seconds = Some(value.parse::<u64>().ctx("--seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(usage()),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(usage());
    };
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1 to 120".into());
    }
    Ok(Args {
        opts: Opts {
            workload,
            seed,
            seconds: Duration::from_secs(seconds),
            root,
            plant,
        },
        trace,
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unavailable (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that contains it.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fs = *fields.get(sep + 1)?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Device calibration: median µs of a one-page write plus sync through the
/// durable file store, on the filesystem the worlds use.
fn calibrate_sync(root: &Path) -> BResult<f64> {
    use argus_stable::{DurabilityMode, DurableFileStore, Page, PageStore};
    let dir = work_dir(root, "calibrate")?;
    let reg = argus_obs::Registry::new();
    let _scope = reg.enter();
    let mut store = DurableFileStore::open_with(
        &dir.path().join("sync.argus"),
        argus_sim::SimClock::new(),
        argus_sim::CostModel::fast(),
        DurabilityMode::default(),
    )
    .ctx("calibration store")?;
    let mut samples = Vec::new();
    for i in 0..200u32 {
        let page = Page::from_bytes(&i.to_le_bytes());
        let t = std::time::Instant::now();
        store.write_page(0, &page).ctx("calibration write")?;
        store.sync().ctx("calibration sync")?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&samples))
}

fn provenance(args: &Args, sync_us: f64) {
    let cfg = argus_guardian::WorldConfig::default();
    let o = &args.opts;
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        o.workload.name(),
        o.seed,
        o.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!("# git rev: {}", git_rev());
    println!("# rustc: {}", rustc_version());
    println!(
        "# nproc: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# filesystem of {}: {}", o.root.display(), fs_type(&o.root));
    println!(
        "# flush policy: {:?} durability, group commit {:?}; page cache {:?}; cc {:?}",
        argus_stable::DurabilityMode::default(),
        cfg.force,
        cfg.cache,
        cfg.cc
    );
    println!("# organizations: {}", ORGS.map(|(_, n)| n).join(", "));
    println!("# device calibration: one-page write + sync = {sync_us:.1} us (median of 200)");
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> BResult<(u64, Vec<Metric>)> {
    let o = &args.opts;
    let sync_us = calibrate_sync(&o.root)?;
    provenance(args, sync_us);
    if !args.trace {
        let pass = run_pass(o, false, o.workload.setups())?;
        let c = &pass.commit_us;
        println!(
            "# samples: {} commits ({} beyond p90; p99 {:.1} us with {} beyond), {} restarts ({} beyond p90)",
            c.len(),
            stats::beyond(c, 0.9),
            stats::quantile(c, 0.99),
            stats::beyond(c, 0.99),
            pass.restart_ms.len(),
            stats::beyond(&pass.restart_ms, 0.9)
        );
        for (i, (_, org)) in ORGS.iter().enumerate() {
            let ((f0, b0), (f1, b1)) = (pass.disk_at_checkpoint[i], pass.disk_at_end[i]);
            println!(
                "# {org} on disk: {f0} files, {:.1} MB at the checkpoint; {f1} files, {:.1} MB at the end",
                b0 / 1e6,
                b1 / 1e6
            );
        }
        return Ok((pass.attempted, end_to_end(&pass)));
    }
    let plain = run_pass(o, false, 1)?;
    let traced = run_pass(o, true, 1)?;
    let (a, b) = (plain.headline(o.workload), traced.headline(o.workload));
    let overhead = stats::ratio(b - a, a);
    println!(
        "# tracing overhead on the headline latency: untraced {a:.1}, traced {b:.1} ({:+.2}%)",
        overhead * 100.0
    );
    for (i, (_, org)) in ORGS.iter().enumerate() {
        let p = traced.peel[i];
        println!(
            "# peel {org}: read_all {:.0} us <= scan {:.0} us ({} records) ; recover {:.0} us ; restart {:.0} us",
            p.read_all_us,
            p.scan_us,
            p.records,
            p.recover_us,
            stats::mean(&traced.restarts.restart_us[i])
        );
    }
    let (hk_us, _) = traced.spans.total_us("maybe_housekeep", true);
    println!(
        "# housekeeping passes: {} counted by the benchmark, {} by core.hk.passes; {:.0} us per pass",
        traced.hk_passes,
        traced.counts.get("core.hk.passes"),
        stats::ratio(hk_us, traced.hk_passes as f64)
    );
    let dir = Path::new(".perfbench/trace");
    std::fs::create_dir_all(dir).ctx("create trace dir")?;
    let file = dir.join(format!("{}-seed{}.json", o.workload.name(), o.seed));
    let lanes: Vec<&str> = ORGS.iter().map(|(_, n)| *n).collect();
    std::fs::write(&file, traced.spans.to_chrome_json(&lanes)).ctx("write trace")?;
    println!(
        "# spans: {} written to {}",
        traced.spans.len(),
        file.display()
    );
    Ok((
        plain.attempted + traced.attempted,
        per_layer(&traced, sync_us, overhead),
    ))
}

fn main() -> ExitCode {
    let root = PathBuf::from(".perfbench/work");
    let args = match parse_args(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(64);
        }
    };
    match run(&args) {
        Ok((attempted, metrics)) => {
            for m in &metrics {
                println!("# {:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            if args.opts.plant {
                eprintln!("self-test: the planted expectation went undetected");
                return ExitCode::from(1);
            }
            println!("{}", json(true, attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) if e.starts_with("oracle:") => {
            eprintln!("{e}");
            if args.opts.plant {
                eprintln!("self-test: the oracle rejected the planted expectation, as it must");
            }
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
