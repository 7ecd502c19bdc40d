//! The memory-tier gauges `xtsim_cache_mem_entries` and
//! `xtsim_cache_mem_bytes` read the sum over every live tier in the
//! process. They are process-wide, so this binary holds the only test that
//! opens a cache.

use serde::Value;
use xtsim::report::Scale;
use xtsim::sweep::{obj, CacheLookup, DiskCache, JobKey, PreparedKey};

fn key(i: u32) -> PreparedKey {
    JobKey::new("gauge", None, None, Scale::Quick).with("i", i).prepare()
}

fn value(i: u32) -> Value {
    obj(vec![("y", i.into())])
}

/// The two gauges: (entries, bytes).
fn gauges() -> (u64, u64) {
    let snap = xtsim_obs::snapshot();
    let read = |name| snap.gauge_value(name).unwrap_or(0);
    (read("xtsim_cache_mem_entries"), read("xtsim_cache_mem_bytes"))
}

#[test]
fn gauges_sum_over_live_tiers_and_drop_with_them() {
    let dir = std::env::temp_dir().join(format!("xtsim-gauges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let a = DiskCache::new(&dir).unwrap();
    for i in 0..10 {
        a.store(&key(i), &value(i)).unwrap();
    }
    // A second open of the same directory has a tier of its own; one disk
    // hit promotes one entry into it.
    let b = DiskCache::new(&dir).unwrap();
    assert!(matches!(b.load(&key(0)), CacheLookup::Hit(v) if v == value(0)));
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!((sa.mem_entries, sb.mem_entries), (10, 1));
    assert_eq!(gauges(), (11, sa.mem_bytes + sb.mem_bytes));

    // Re-storing a resident key replaces its entry: no double count.
    a.store(&key(3), &value(3)).unwrap();
    assert_eq!(gauges(), (11, sa.mem_bytes + sb.mem_bytes));

    drop(a);
    assert_eq!(gauges(), (1, sb.mem_bytes));
    drop(b);
    assert_eq!(gauges(), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
