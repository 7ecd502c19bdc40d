//! Criterion benches over the simulator itself: event throughput, message
//! rate, collective cost, and end-to-end figure regeneration at quick scale.
//! These guard the harness against performance regressions (a full figure
//! run schedules tens of millions of events).

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use xtsim::des::{FluidPool, LinkId, Sim, SimDuration, SimTime};
use xtsim::hpcc::util::job;
use xtsim::machine::{fit_dims, presets, ExecMode};
use xtsim::mpi::{simulate, CollectiveMode, Message, ReduceOp, WorldConfig};
use xtsim::net::{ContentionModel, PlatformConfig};

/// `XTSIM_BENCH_QUICK=1` shrinks the stress benches so CI can smoke them in
/// seconds (see `scripts/bench.sh --quick`).
fn quick() -> bool {
    std::env::var_os("XTSIM_BENCH_QUICK").is_some_and(|v| v == "1")
}

/// Many pools completing at one instant: `pools` single-link fluid pools,
/// each running two equal transfers per round for `rounds` rounds. The pools
/// run in lockstep, so every round's completions from all of them share one
/// instant, as POP's per-node memory pools do when its ranks finish a
/// compute phase together. The executor then holds one flow lane per pool
/// at that instant; picking the next lane must not cost O(pools).
fn flow_lanes(pools: usize, rounds: usize) -> SimTime {
    let mut sim = Sim::new(0);
    for _ in 0..pools {
        let pool = FluidPool::new(sim.handle());
        let link = pool.add_link(1.0e9);
        for _ in 0..2 {
            let pool = pool.clone();
            sim.spawn(async move {
                for _ in 0..rounds {
                    pool.transfer(&[link], 1.0e6, None).await;
                }
            });
        }
    }
    sim.run()
}

/// Raw event throughput of the DES core, and same-instant completion
/// ordering across many fluid pools.
fn bench_event_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_events");
    let events = 100_000u64;
    g.throughput(Throughput::Elements(events));
    g.bench_function("sleep_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..events {
                    h.sleep(SimDuration::from_ns(10)).await;
                }
            });
            sim.run()
        });
    });
    let (pools, rounds) = (if quick() { 2_000 } else { 4_000 }, 10);
    g.throughput(Throughput::Elements((pools * 2 * rounds) as u64));
    g.bench_function("flow_lanes_4k", |b| {
        b.iter(|| flow_lanes(pools, rounds));
    });
    g.finish();
}

/// Simulated message rate (eager path, 2 ranks).
fn bench_message_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpi_messages");
    let msgs = 2_000u64;
    g.throughput(Throughput::Elements(msgs));
    g.bench_function("pingpong_2k", |b| {
        b.iter(|| {
            let mut spec = presets::xt4();
            spec.torus_dims = [2, 1, 1];
            let cfg = xtsim::mpi::WorldConfig::new(xtsim::net::PlatformConfig::new(
                spec,
                ExecMode::SN,
                2,
            ));
            simulate(0, cfg, move |mpi| async move {
                for i in 0..msgs {
                    if mpi.rank() == 0 {
                        mpi.send(1, i, Message::of_bytes(64)).await;
                        mpi.recv(Some(1), Some(i)).await;
                    } else {
                        mpi.recv(Some(0), Some(i)).await;
                        mpi.send(0, i, Message::of_bytes(64)).await;
                    }
                }
            })
            .end_time
        });
    });
    g.finish();
}

/// Algorithmic allreduce cost across rank counts.
fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpi_allreduce");
    g.sample_size(10);
    for &ranks in &[16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                let cfg = job(
                    &presets::xt4(),
                    ExecMode::SN,
                    ranks,
                    CollectiveMode::Algorithmic,
                );
                simulate(0, cfg, |mpi| async move {
                    mpi.comm().allreduce(vec![1.0; 8], ReduceOp::Sum).await;
                })
                .end_time
            });
        });
    }
    g.finish();
}

/// End-to-end: one quick-scale figure regeneration (the S3D weak-scaling
/// figure exercises platform + MPI + compute model together).
fn bench_figure_quick(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_regeneration");
    g.sample_size(10);
    g.bench_function("s3d_64ranks", |b| {
        b.iter(|| {
            xtsim::apps::s3d::s3d(&presets::xt4(), ExecMode::VN, 64).cost_us_per_point
        });
    });
    g.finish();
}

/// Synthetic fluid-pool stress: `flows` concurrent transfers over short
/// overlapping routes on a 512-link pool. Exercises exactly the rebalance
/// hot path (flow add → rate recompute → completion) with high concurrency.
fn fluid_pool_stress(flows: usize) -> f64 {
    let n_links = 512usize;
    let mut sim = Sim::new(7);
    let pool = FluidPool::new(sim.handle());
    let links: Vec<LinkId> = (0..n_links).map(|_| pool.add_link(1.0e9)).collect();
    for i in 0..flows {
        let pool = pool.clone();
        let h = sim.handle();
        // Two links per route; the stride keeps components overlapping but
        // not fully global, like real torus traffic.
        let route = [links[i % n_links], links[(i * 7 + 3) % n_links]];
        let volume = 100_000.0 + (i % 97) as f64 * 1_000.0;
        let delay = SimDuration::from_ns((i % 64) as u64 * 500);
        sim.spawn(async move {
            h.sleep(delay).await;
            pool.transfer(&route, volume, None).await;
        });
    }
    sim.run().as_secs_f64()
}

fn bench_fluid_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_pool");
    g.sample_size(10);
    let sizes: &[(usize, &str)] = if quick() {
        &[(200, "flows_1k"), (500, "flows_10k")]
    } else {
        &[(1_000, "flows_1k"), (10_000, "flows_10k")]
    };
    for &(flows, label) in sizes {
        g.bench_function(label, |b| {
            b.iter(|| fluid_pool_stress(flows));
        });
    }
    g.finish();
}

/// Pairwise-exchange alltoall on a compact torus partition with **exact
/// fluid contention** (the model the paper-scale sweeps want to use): the
/// worst case for the rebalancer — every rank keeps one wire flow in
/// flight for `ranks - 1` consecutive steps.
fn alltoall_fluid(ranks: usize, bytes: u64) -> f64 {
    let mut spec = presets::xt4();
    spec.torus_dims = fit_dims(ranks);
    let mut platform = PlatformConfig::new(spec, ExecMode::SN, ranks);
    platform.contention = ContentionModel::Fluid;
    let mut cfg = WorldConfig::new(platform);
    cfg.collectives = CollectiveMode::Algorithmic;
    simulate(0, cfg, move |mpi| async move {
        let p = mpi.comm().size();
        let msgs = (0..p).map(|_| Message::of_bytes(bytes)).collect();
        mpi.comm().alltoall(msgs).await;
    })
    .end_time
    .as_secs_f64()
}

fn bench_alltoall_fluid(c: &mut Criterion) {
    let mut g = c.benchmark_group("alltoall_fluid");
    g.sample_size(10);
    let sizes: &[(usize, &str)] = if quick() {
        &[(32, "ranks_256"), (64, "ranks_1024")]
    } else {
        &[(256, "ranks_256"), (1_024, "ranks_1024")]
    };
    for &(ranks, label) in sizes {
        g.bench_function(label, |b| {
            b.iter(|| alltoall_fluid(ranks, 64 * 1024));
        });
    }
    g.finish();
}

/// Pairwise-exchange alltoall on the conservative parallel-DES engine
/// (`xtsim::apps::pdes`): the wall-clock headline for `--des-threads`.
/// Serial (1 shard / 1 thread) vs partitioned (4 shards / 4 threads) on the
/// same scenario — the results are byte-identical (see
/// `tests/pdes_equivalence.rs`), so this measures speedup only.
fn pdes_alltoall(ranks: usize, shards: usize, threads: usize) -> f64 {
    use xtsim::apps::pdes::{alltoall, PdesScenario};
    let mut sc = PdesScenario::new(presets::xt4(), ExecMode::VN, ranks);
    if shards > 1 || threads > 1 {
        sc = sc.sharded(shards, threads);
    }
    alltoall(&sc, 64 * 1024).time_s
}

fn bench_pdes_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("pdes_alltoall");
    g.sample_size(10);
    let ranks = if quick() { 128 } else { 1_024 };
    for &(shards, threads, label) in &[
        (1usize, 1usize, "ranks_1024/threads_1"),
        (4, 4, "ranks_1024/threads_4"),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| pdes_alltoall(ranks, shards, threads));
        });
    }
    g.finish();
}

// ------------------------------------------------------------------- cache

/// A synthetic figure spec exercising the cache path: `n_jobs` jobs whose
/// closures are trivially cheap and whose outputs carry a payload of
/// `floats` numbers each, so a run's cost is dominated by cache machinery
/// (lookup, verification, parse/serialize, store) — exactly what this
/// group measures.
fn cache_spec(n_jobs: usize, floats: usize) -> xtsim::sweep::FigureSpec {
    use xtsim::report::{FigureResult, Scale, Series};
    use xtsim::sweep::{num, obj, FigureSpec, JobKey};
    let mut spec = FigureSpec::new("bench-cache", move |outs| {
        let mut s = Series::new("sum");
        for (i, o) in outs.iter().enumerate() {
            s.push(i as f64, num(o, "sum"));
        }
        FigureResult::new("bench-cache", "cache bench").with_series(s)
    });
    for i in 0..n_jobs {
        let key = JobKey::new("bench-cache", None, None, Scale::Quick).with("i", i as i64);
        spec.push_job(key, move || {
            let payload: Vec<serde::Value> = (0..floats)
                .map(|k| serde::Value::Float((i * floats + k) as f64 * 0.5))
                .collect();
            obj(vec![
                ("sum", (((i * floats) as f64) * 0.5).into()),
                ("payload", serde::Value::Array(payload)),
            ])
        });
    }
    spec
}

/// Two-tier cache path costs: cold miss (compute + store), warm disk hit
/// (read + parse + verify, hot tier off), warm memory hit (shard lookup +
/// verify only), and an 8-thread concurrent mixed load/store. The
/// acceptance gate for the hot tier is `warm_memory_hit` at least 2x
/// faster than `warm_disk_hit` — checked by `scripts/ci.sh` against the
/// medians this group prints.
fn bench_cache(c: &mut Criterion) {
    use xtsim::sweep::{run_figure, DiskCache, SweepConfig};
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let (n_jobs, floats) = if quick() { (32, 128) } else { (128, 128) };
    let root = std::env::temp_dir().join(format!("xtsim-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut g = c.benchmark_group("cache");
    g.sample_size(10);

    // Cold: every iteration gets a fresh directory (and, because hot tiers
    // are registered per directory, a fresh empty memory tier): all misses,
    // compute + store both tiers.
    g.bench_function("cold_miss", |b| {
        b.iter(|| {
            let dir = root.join(format!("cold-{}", UNIQ.fetch_add(1, Ordering::Relaxed)));
            let cfg = SweepConfig::serial()
                .with_cache(DiskCache::with_mem_cap(&dir, 64 * 1024 * 1024).unwrap());
            run_figure(cache_spec(n_jobs, floats), &cfg).0
        });
    });

    // Warm disk: entries on disk, hot tier disabled (cap 0) — every lookup
    // reads and parses the entry file. The cache handle is built once
    // outside the timed loop so open-time work (migration scan, tmp sweep)
    // doesn't dilute the lookup cost being measured.
    let disk_dir = root.join("warm-disk");
    {
        let cfg = SweepConfig::serial()
            .with_cache(DiskCache::with_mem_cap(&disk_dir, 0).unwrap());
        run_figure(cache_spec(n_jobs, floats), &cfg); // populate
    }
    let disk_cfg =
        SweepConfig::serial().with_cache(DiskCache::with_mem_cap(&disk_dir, 0).unwrap());
    g.bench_function("warm_disk_hit", |b| {
        b.iter(|| run_figure(cache_spec(n_jobs, floats), &disk_cfg).0);
    });

    // Warm memory: same corpus, hot tier enabled and pre-promoted — every
    // lookup is a shard probe + key comparison, no filesystem or parse.
    let mem_dir = root.join("warm-mem");
    {
        let cfg = SweepConfig::serial()
            .with_cache(DiskCache::with_mem_cap(&mem_dir, 64 * 1024 * 1024).unwrap());
        run_figure(cache_spec(n_jobs, floats), &cfg); // populate + promote
    }
    let mem_cfg = SweepConfig::serial()
        .with_cache(DiskCache::with_mem_cap(&mem_dir, 64 * 1024 * 1024).unwrap());
    g.bench_function("warm_memory_hit", |b| {
        b.iter(|| run_figure(cache_spec(n_jobs, floats), &mem_cfg).0);
    });

    // 8 threads hammering one shared cache with a 3:1 load:store mix across
    // all shards: the shard-contention figure for concurrent serve traffic.
    let mixed_dir = root.join("mixed");
    let mixed = DiskCache::with_mem_cap(&mixed_dir, 64 * 1024 * 1024).unwrap();
    let keys: Vec<xtsim::sweep::PreparedKey> = {
        use xtsim::report::Scale;
        use xtsim::sweep::JobKey;
        (0..n_jobs)
            .map(|i| {
                JobKey::new("bench-cache-mixed", None, None, Scale::Quick)
                    .with("i", i as i64)
                    .prepare()
            })
            .collect()
    };
    let payload = xtsim::sweep::obj(vec![(
        "payload",
        serde::Value::Array((0..floats).map(|k| serde::Value::Float(k as f64)).collect()),
    )]);
    for k in &keys {
        mixed.store(k, &payload).unwrap();
    }
    g.bench_function("concurrent_mixed_8t", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 0..8usize {
                    let mixed = &mixed;
                    let keys = &keys;
                    let payload = &payload;
                    s.spawn(move || {
                        for round in 0..64usize {
                            let i = (t * 31 + round * 7) % keys.len();
                            if round % 4 == 0 {
                                mixed.store(&keys[i], payload).unwrap();
                            } else {
                                std::hint::black_box(mixed.load(&keys[i]));
                            }
                        }
                    });
                }
            });
        });
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    simulator,
    bench_event_loop,
    bench_message_rate,
    bench_allreduce,
    bench_figure_quick,
    bench_fluid_pool,
    bench_alltoall_fluid,
    bench_pdes_alltoall,
    bench_cache
);
criterion_main!(simulator);
