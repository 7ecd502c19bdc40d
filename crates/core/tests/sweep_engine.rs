//! Engine-level guarantees: parallel execution is byte-identical to serial
//! across the whole quick registry, and the disk cache answers reruns without
//! recomputation (until the engine version moves).

use xtsim::ablations::all_ablations;
use xtsim::figures::all_figures;
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, DiskCache, SweepConfig};

fn tmp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xtsim-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole acceptance gate: every figure and ablation, rebuilt at quick
/// scale, serializes to the exact same JSON whether its jobs ran on one
/// thread or eight. Worker scheduling must never leak into output.
#[test]
fn parallel_output_is_byte_identical_to_serial() {
    for fig in all_figures().into_iter().chain(all_ablations()) {
        let serial = run_figure(fig.spec(Scale::Quick), &SweepConfig::serial()).0;
        let parallel = run_figure(fig.spec(Scale::Quick), &SweepConfig::threads(8)).0;
        assert_eq!(
            serde_json::to_string_pretty(&serial).unwrap(),
            serde_json::to_string_pretty(&parallel).unwrap(),
            "{}: parallel output diverged from serial",
            fig.id
        );
    }
}

/// Every generator sets a dispatch cost hint on every job, at both scales,
/// so no new sweep silently falls back to job order (which starts an
/// ascending sweep's longest job last).
#[test]
fn every_job_carries_a_cost_hint() {
    for scale in [Scale::Quick, Scale::Full] {
        for fig in all_figures().into_iter().chain(all_ablations()) {
            for (i, job) in fig.spec(scale).jobs.iter().enumerate() {
                assert!(
                    job.cost >= 1,
                    "{} ({}) job {i} ({}) has no cost hint",
                    fig.id,
                    scale.label(),
                    job.key.kind
                );
            }
        }
    }
}

/// Second run over a warm cache computes nothing and reproduces the figure
/// byte-for-byte; fig03 then reuses fig02's netbench runs outright.
#[test]
fn warm_cache_skips_recomputation() {
    let dir = tmp_cache_dir("warm");
    let fig02 = || xtsim::figures::figure("fig02").unwrap();

    let cfg = SweepConfig::threads(4).with_cache(DiskCache::new(&dir).unwrap());
    let (cold_fig, cold) = run_figure(fig02().spec(Scale::Quick), &cfg);
    assert_eq!(cold.cached, 0);
    assert_eq!(cold.computed, cold.total_jobs);
    assert!(cold.total_jobs > 0);

    let cfg = SweepConfig::threads(4).with_cache(DiskCache::new(&dir).unwrap());
    let (warm_fig, warm) = run_figure(fig02().spec(Scale::Quick), &cfg);
    assert_eq!(warm.computed, 0, "warm run recomputed jobs");
    assert_eq!(warm.cached, cold.total_jobs);
    assert_eq!(
        serde_json::to_string_pretty(&cold_fig).unwrap(),
        serde_json::to_string_pretty(&warm_fig).unwrap(),
        "cached rerun changed the figure"
    );

    // fig03 extracts bandwidth from the same netbench runs fig02 cached.
    let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
    let (_, shared) = run_figure(xtsim::figures::figure("fig03").unwrap().spec(Scale::Quick), &cfg);
    assert_eq!(shared.computed, 0, "fig03 should ride fig02's cache entries");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Equal keys cache equal outputs whichever generator built them: the
/// abl-openmp CAM jobs share keys with fig16's, so a cache the ablation
/// filled must still give fig16 every field it reads.
#[test]
fn shared_job_keys_cache_the_same_output() {
    let dir = tmp_cache_dir("shared");
    let fig16 = xtsim::figures::figure("fig16").unwrap();
    let openmp = all_ablations().into_iter().find(|f| f.id == "abl-openmp").unwrap();
    let cfg = || SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
    run_figure(openmp.spec(Scale::Quick), &cfg());
    let (from_cache, stats) = run_figure(fig16.spec(Scale::Quick), &cfg());
    assert!(stats.cached > 0, "fig16 no longer shares a job with abl-openmp");
    assert_eq!(
        serde_json::to_string_pretty(&from_cache).unwrap(),
        serde_json::to_string_pretty(&fig16.run(Scale::Quick)).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumping the engine version changes every digest, so stale entries miss.
#[test]
fn engine_version_bump_invalidates_cache() {
    let dir = tmp_cache_dir("version");
    let fig05 = || xtsim::figures::figure("fig05").unwrap();

    let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
    let (_, cold) = run_figure(fig05().spec(Scale::Quick), &cfg);
    assert_eq!(cold.computed, cold.total_jobs);

    // Same engine version: full hit.
    let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
    let (_, warm) = run_figure(fig05().spec(Scale::Quick), &cfg);
    assert_eq!(warm.computed, 0);

    // Simulate an engine-semantics change by bumping the version on every
    // job key: nothing may hit.
    let mut spec = fig05().spec(Scale::Quick);
    for job in &mut spec.jobs {
        job.key.engine_version += 1;
    }
    let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
    let (_, bumped) = run_figure(spec, &cfg);
    assert_eq!(bumped.cached, 0, "stale engine version hit the cache");
    assert_eq!(bumped.computed, bumped.total_jobs);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt cache entries are treated as misses, not errors. The memory
/// tier is disabled throughout: this test is about the *disk* tier's
/// handling of on-disk damage (with the hot tier on, verified in-memory
/// copies would legitimately keep serving — covered elsewhere).
#[test]
fn corrupt_cache_entries_are_recomputed() {
    let dir = tmp_cache_dir("corrupt");
    let fig05 = || xtsim::figures::figure("fig05").unwrap();
    let cfg = SweepConfig::serial().with_cache(DiskCache::with_mem_cap(&dir, 0).unwrap());
    let (_, cold) = run_figure(fig05().spec(Scale::Quick), &cfg);
    assert_eq!(cold.computed, cold.total_jobs);

    // Entries live in two-hex-prefix subdirectories; clobber every file in
    // the tree.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            for sub in std::fs::read_dir(&path).unwrap() {
                std::fs::write(sub.unwrap().path(), "{ not json").unwrap();
            }
        } else {
            std::fs::write(path, "{ not json").unwrap();
        }
    }
    let cfg = SweepConfig::serial().with_cache(DiskCache::with_mem_cap(&dir, 0).unwrap());
    let (fig, stats) = run_figure(fig05().spec(Scale::Quick), &cfg);
    assert_eq!(stats.computed, stats.total_jobs, "corrupt entries must miss");
    assert!(!fig.series.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
