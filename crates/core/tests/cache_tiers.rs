//! Two-tier cache guarantees under concurrency and a full memory tier.
//!
//! The memory tier may admit or turn away entries at any moment, from any
//! thread — but it must never *invent* data: a `Hit` is always the exact
//! value stored under that key, residency never exceeds the configured cap,
//! and figure output stays byte-identical whichever values the tier holds.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use serde::Value;
use xtsim::report::Scale;
use xtsim::sweep::{
    obj, run_figure, CacheLookup, DiskCache, JobKey, PreparedKey, SweepConfig,
};

/// Fresh directory per call (cases in one process must not share entries).
fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xtsim-tiers-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one true value for key `i`: any `Hit` serving anything else is a torn
/// or mismatched read. Padded so a handful of entries fills the cap and the
/// rest are served from disk.
fn value_for(i: usize) -> Value {
    obj(vec![
        ("i", (i as i64).into()),
        ("pad", Value::Str(format!("{i:03}").repeat(140))),
    ])
}

fn keys_for(n: usize) -> Vec<PreparedKey> {
    (0..n)
        .map(|i| JobKey::new("tier-prop", None, None, Scale::Quick).with("i", i as i64).prepare())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of load/store across 4 threads, under a cap
    /// tight enough that the tier fills: every `Hit` must carry exactly the
    /// value stored under its key (never a torn or foreign one), and
    /// residency must stay under the cap throughout.
    #[test]
    fn interleaved_ops_never_serve_torn_or_mismatched_values(
        ops in prop::collection::vec((0usize..24, 0u8..4), 64..200),
        cap_kib in 4u64..32,
    ) {
        let dir = unique_dir("prop");
        let cap = cap_kib * 1024;
        let cache = DiskCache::with_mem_cap(&dir, cap).unwrap();
        let keys = keys_for(24);
        let chunk = ops.len().div_ceil(4);
        std::thread::scope(|s| {
            for ops in ops.chunks(chunk) {
                let cache = &cache;
                let keys = &keys;
                s.spawn(move || {
                    for &(ki, op) in ops {
                        if op == 0 {
                            cache.store(&keys[ki], &value_for(ki)).unwrap();
                        } else {
                            match cache.load(&keys[ki]) {
                                CacheLookup::Hit(v) => assert_eq!(
                                    v,
                                    value_for(ki),
                                    "hit for key {ki} served a torn/foreign value"
                                ),
                                CacheLookup::Miss => {}
                                CacheLookup::KeyMismatch => {
                                    panic!("key mismatch for key {ki} under interleaved ops")
                                }
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        prop_assert!(
            stats.mem_bytes <= cap,
            "memory residency {} exceeds the {cap}-byte cap", stats.mem_bytes
        );
        prop_assert_eq!(stats.mem_cap_bytes, cap);
        prop_assert_eq!(stats.tmp_files, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A full memory tier must be invisible in figure bytes: fig02 regenerated
/// through a cache whose tier is far too small to hold the sweep is
/// byte-identical to an uncached run, cold and warm. The tier admits
/// nothing once full, so the warm run reads the rest from disk and
/// residency stays bounded by the cap.
#[test]
fn a_full_tier_keeps_figures_byte_identical() {
    let fig02 = || xtsim::figures::figure("fig02").unwrap();
    let (reference, _) = run_figure(fig02().spec(Scale::Quick), &SweepConfig::serial());
    let reference = serde_json::to_string_pretty(&reference).unwrap();

    let dir = unique_dir("full");
    // Room for one or two ~1 KiB fig02 entries.
    let cap = 2 * 1024;
    let cache = DiskCache::with_mem_cap(&dir, cap).unwrap();
    let cfg = SweepConfig::threads(4).with_cache(cache.clone());
    let (cold_fig, cold) = run_figure(fig02().spec(Scale::Quick), &cfg);
    assert_eq!(cold.computed, cold.total_jobs);
    assert_eq!(
        serde_json::to_string_pretty(&cold_fig).unwrap(),
        reference,
        "cold cached run diverged from uncached output"
    );
    let full = cache.stats();
    assert!(full.mem_bytes <= cap, "residency {} exceeds the {cap}-byte cap", full.mem_bytes);
    assert!(full.mem_entries >= 1, "the tier admitted nothing");
    assert!(full.mem_entries < cold.total_jobs as u64, "the tier held the whole sweep");

    let (warm_fig, warm) = run_figure(fig02().spec(Scale::Quick), &cfg);
    assert_eq!(warm.computed, 0, "warm run recomputed jobs");
    assert_eq!(
        serde_json::to_string_pretty(&warm_fig).unwrap(),
        reference,
        "warm run through a full tier diverged from uncached output"
    );
    let stats = cache.stats();
    assert_eq!(
        (stats.mem_entries, stats.mem_bytes),
        (full.mem_entries, full.mem_bytes),
        "a full tier admitted more"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
