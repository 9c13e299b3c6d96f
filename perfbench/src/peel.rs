//! The restart layer peel: on a copy of a crashed guardian's directory, time
//! each layer of the recovery path on its own — the stable store reading
//! every page, the stable log walking and decoding every record, and the
//! organization's full `open` + `recover`.

use crate::harness::{stable_bindings, BResult, Ctx};
use argus_core::providers::{CachedProvider, FileProvider};
use argus_core::{HybridLogRs, RecoverySystem, RedoRs, SimpleLogRs};
use argus_guardian::{RsKind, WorldConfig};
use argus_objects::{Heap, ObjRef, Value};
use argus_obs::Registry;
use argus_shadow::ShadowRs;
use argus_slog::StableLog;
use argus_stable::{PageCache, PageStore};
use std::path::Path;
use std::time::Instant;

/// Wall µs of the three peel steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelTimes {
    /// Every page of the active log file read through the stable store.
    pub read_all_us: f64,
    /// `StableLog::open` plus a backward walk decoding every record.
    pub scan_us: f64,
    /// The organization's `open` plus `recover` into a fresh heap.
    pub recover_us: f64,
    /// Records the walk decoded.
    pub records: u64,
}

/// Copies the flat directory `src` into a new directory `dst`.
fn copy_dir(src: &Path, dst: &Path) -> BResult<()> {
    std::fs::create_dir_all(dst).ctx("create peel copy")?;
    for entry in std::fs::read_dir(src).ctx("read guardian dir")? {
        let entry = entry.ctx("read guardian dir")?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).ctx("copy log file")?;
    }
    Ok(())
}

/// Walks the whole log backwards, decoding every record with `decode`.
fn walk<S: PageStore, T, E: std::fmt::Display>(
    log: &mut StableLog<S>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> BResult<u64> {
    let mut n = 0;
    for item in log.read_backward(None) {
        let (_addr, _seq, payload) = item.ctx("backward walk")?;
        std::hint::black_box(decode(&payload).ctx("decode")?);
        n += 1;
    }
    Ok(n)
}

/// Peels one crashed guardian: copies `live` into `scratch` (the live
/// world's files are never opened), runs the three steps on the copy, and
/// checks the peel's recovered state against `expected`.
pub fn peel(
    kind: RsKind,
    live: &Path,
    scratch: &Path,
    expected: &[(String, Value)],
) -> BResult<PeelTimes> {
    copy_dir(live, scratch)?;
    // The peel's stores record into their own registry, never the world's.
    let reg = Registry::new();
    let _scope = reg.enter();
    let cache = WorldConfig::default().cache;
    let mut provider = FileProvider::new(scratch).ctx("open peel copy")?;
    let generation = provider.active_generation().ctx("active generation")?;

    let t = Instant::now();
    let mut store = provider.open_store(generation).ctx("open store")?;
    for pno in 0..store.page_count() {
        std::hint::black_box(store.read_page(pno).ctx("read page")?);
    }
    let read_all_us = t.elapsed().as_secs_f64() * 1e6;
    drop(store);

    // Log organizations read through the page cache, as their guardians do;
    // shadowing reads its store directly.
    let t = Instant::now();
    let store = provider.open_store(generation).ctx("open store")?;
    let records = if kind == RsKind::Shadow {
        walk(
            &mut StableLog::open(store).ctx("open log")?,
            argus_shadow::decode_record,
        )?
    } else {
        let mut log = StableLog::open(PageCache::new(store, cache)).ctx("open log")?;
        walk(&mut log, argus_core::decode_entry)?
    };
    let scan_us = t.elapsed().as_secs_f64() * 1e6;

    let store = provider.open_store(generation).ctx("open store")?;
    let mut heap = Heap::new();
    let t = Instant::now();
    let cached = |p| CachedProvider::new(p, cache);
    match kind {
        RsKind::Simple => SimpleLogRs::open(cached(provider), PageCache::new(store, cache))
            .ctx("open")?
            .recover(&mut heap),
        RsKind::Hybrid => HybridLogRs::open(cached(provider), PageCache::new(store, cache))
            .ctx("open")?
            .recover(&mut heap),
        RsKind::Redo => RedoRs::open(cached(provider), PageCache::new(store, cache))
            .ctx("open")?
            .recover(&mut heap),
        RsKind::Shadow => ShadowRs::open(provider, store)
            .ctx("open")?
            .recover(&mut heap),
    }
    .ctx("peel recover")?;
    let recover_us = t.elapsed().as_secs_f64() * 1e6;

    let bound = stable_bindings(&heap)?;
    for (name, value) in expected {
        let got = match bound.get(name) {
            Some(Value::Ref(ObjRef::Heap(h))) => heap.read_value(*h, None).ok(),
            _ => None,
        };
        if got != Some(value) {
            return Err(format!(
                "oracle: peel of {kind:?}: {name} recovered as {got:?}, the model expects {value:?}"
            ));
        }
    }
    std::fs::remove_dir_all(scratch).ctx("remove peel copy")?;
    Ok(PeelTimes {
        read_all_us,
        scan_us,
        recover_us,
        records,
    })
}
