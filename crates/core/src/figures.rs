//! The figure registry: one generator per table/figure of the paper.
//!
//! Every generator decomposes its experiment into independent sweep-point
//! jobs (see [`crate::sweep`]): `build` returns a [`FigureSpec`] whose jobs
//! each construct their own single-threaded simulation world, and whose
//! `assemble` step reattaches the outputs to the paper's series **in job
//! order** — so the rendered figure is identical whether the jobs ran
//! serially, on eight threads, or straight out of the result cache.
//! `Scale::Quick` shrinks the sweeps for CI; `Scale::Full` uses the paper's
//! ranges. Every job carries the number of MPI ranks it simulates as its
//! dispatch cost hint ([`Job::cost`]).

use serde::Value;
use xtsim_apps::{aorsa, cam, namd, pop, s3d};
use xtsim_hpcc::{bidir, global, local, netbench};
use xtsim_lustre::{run_ior, IorConfig, LustreConfig};
use xtsim_machine::{presets, ExecMode, MachineSpec};

use crate::report::{FigureResult, Scale, Series};
use crate::sweep::{num, obj, FigureSpec, Job, JobKey};

/// A registered figure generator.
pub struct Figure {
    /// Identifier, e.g. "fig08".
    pub id: &'static str,
    /// Caption from the paper.
    pub title: &'static str,
    /// Decompose the figure into sweep-point jobs at `scale`.
    pub build: fn(Scale) -> FigureSpec,
}

impl Figure {
    /// Decompose into a job list without running anything.
    pub fn spec(&self, scale: Scale) -> FigureSpec {
        (self.build)(scale)
    }

    /// Regenerate the figure serially with no cache (the behaviour of the
    /// original harness; tests and doc examples use this).
    pub fn run(&self, scale: Scale) -> FigureResult {
        crate::sweep::run_figure(self.spec(scale), &crate::sweep::SweepConfig::serial()).0
    }
}

/// All tables and figures, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        Figure { id: "table1", title: "Comparison of XT3, XT3 dual core, and XT4 systems", build: table1 },
        Figure { id: "fig01", title: "Lustre filesystem architecture (IOR demonstration)", build: fig01 },
        Figure { id: "fig02", title: "Network latency", build: fig02 },
        Figure { id: "fig03", title: "Network bandwidth", build: fig03 },
        Figure { id: "fig04", title: "SP/EP Fast Fourier Transform (FFT)", build: fig04 },
        Figure { id: "fig05", title: "SP/EP Matrix Multiply (DGEMM)", build: fig05 },
        Figure { id: "fig06", title: "SP/EP Random Access (RA)", build: fig06 },
        Figure { id: "fig07", title: "SP/EP Memory Bandwidth (Streams)", build: fig07 },
        Figure { id: "fig08", title: "Global High Performance LINPACK (HPL)", build: fig08 },
        Figure { id: "fig09", title: "Global Fast Fourier Transform (MPI-FFT)", build: fig09 },
        Figure { id: "fig10", title: "Global Matrix Transpose (PTRANS)", build: fig10 },
        Figure { id: "fig11", title: "Global Random Access (MPI-RA)", build: fig11 },
        Figure { id: "fig12", title: "Bidirectional MPI bandwidth (small-message emphasis)", build: fig12 },
        Figure { id: "fig13", title: "Bidirectional MPI bandwidth (large-message emphasis)", build: fig13 },
        Figure { id: "fig14", title: "CAM throughput on XT4 vs XT3", build: fig14 },
        Figure { id: "fig15", title: "CAM throughput on XT4 relative to previous results", build: fig15 },
        Figure { id: "fig16", title: "CAM performance by computational phase", build: fig16 },
        Figure { id: "fig17", title: "POP throughput on XT4 vs XT3", build: fig17 },
        Figure { id: "fig18", title: "POP throughput on XT4 relative to previous results", build: fig18 },
        Figure { id: "fig19", title: "POP performance by computational phase", build: fig19 },
        Figure { id: "fig20", title: "NAMD performance on XT4 vs XT3", build: fig20 },
        Figure { id: "fig21", title: "NAMD performance impact of SN vs VN", build: fig21 },
        Figure { id: "fig22", title: "S3D parallel performance", build: fig22 },
        Figure { id: "fig23", title: "AORSA parallel performance", build: fig23 },
    ]
}

/// Look up one figure by id.
pub fn figure(id: &str) -> Option<Figure> {
    all_figures().into_iter().find(|f| f.id == id)
}

// ------------------------------------------------------------ plan builder

/// One output series described as `(x, job index, field)` triples: point `k`
/// is `(x, outputs[job][field])`, skipped when the job returned `Null`
/// (infeasible configurations, e.g. a CAM decomposition that doesn't exist).
struct SeriesPlan {
    name: String,
    points: Vec<(f64, usize, &'static str)>,
}

/// Declarative figure assembly: jobs plus a plan mapping job outputs to
/// series points. Covers every figure whose notes don't depend on outputs.
struct PlanBuilder {
    id: &'static str,
    title: String,
    axes: (String, String),
    jobs: Vec<Job>,
    plan: Vec<SeriesPlan>,
    notes: Vec<String>,
}

impl PlanBuilder {
    fn new(
        id: &'static str,
        title: impl Into<String>,
        x: impl Into<String>,
        y: impl Into<String>,
    ) -> PlanBuilder {
        PlanBuilder {
            id,
            title: title.into(),
            axes: (x.into(), y.into()),
            jobs: Vec::new(),
            plan: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn job(&mut self, job: Job) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    fn series(&mut self, name: impl Into<String>) -> usize {
        self.plan.push(SeriesPlan { name: name.into(), points: Vec::new() });
        self.plan.len() - 1
    }

    fn point(&mut self, series: usize, x: f64, job: usize, field: &'static str) {
        self.plan[series].points.push((x, job, field));
    }

    fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn build(self) -> FigureSpec {
        let PlanBuilder { id, title, axes, jobs, plan, notes } = self;
        let mut spec = FigureSpec::new(id, move |outputs: &[Value]| {
            let mut fig = FigureResult::new(id, title).axes(axes.0, axes.1);
            for sp in plan {
                let mut s = Series::new(sp.name);
                for (x, job, field) in sp.points {
                    if matches!(outputs[job], Value::Null) {
                        continue;
                    }
                    s.push(x, num(&outputs[job], field));
                }
                fig.series.push(s);
            }
            fig.notes = notes;
            fig
        });
        spec.jobs = jobs;
        spec
    }
}

// --------------------------------------------------------------------- jobs
//
// Constructors for the job kinds several figures (and the ablations) build:
// a kind's key, its output fields and its cost hint live in one place, so
// equal keys always cache equal outputs.

pub(crate) fn cam_job(m: &MachineSpec, mode: ExecMode, tasks: usize, threads: usize, scale: Scale) -> Job {
    let key = JobKey::new("cam", Some(m), Some(mode), scale)
        .with("tasks", tasks)
        .with("threads", threads);
    let m = m.clone();
    Job::new(key, move || match cam::cam(&m, mode, tasks, threads) {
        None => Value::Null,
        Some(r) => obj(vec![
            ("years_per_day", r.years_per_day.into()),
            ("dynamics_secs_per_day", r.dynamics_secs_per_day.into()),
            ("physics_secs_per_day", r.physics_secs_per_day.into()),
            ("mpi_fraction", r.mpi_fraction.into()),
        ]),
    })
    .with_cost(tasks)
}

fn pop_job(m: &MachineSpec, mode: ExecMode, tasks: usize, solver: pop::Solver, scale: Scale) -> Job {
    let key = JobKey::new("pop", Some(m), Some(mode), scale)
        .with("tasks", tasks)
        .with("solver", format!("{solver:?}"));
    let m = m.clone();
    Job::new(key, move || match pop::pop(&m, mode, tasks, solver) {
        None => Value::Null,
        Some(r) => obj(vec![
            ("years_per_day", r.years_per_day.into()),
            ("baroclinic_secs_per_day", r.baroclinic_secs_per_day.into()),
            ("barotropic_secs_per_day", r.barotropic_secs_per_day.into()),
        ]),
    })
    .with_cost(tasks)
}

pub(crate) fn local_job(m: &MachineSpec, mode: ExecMode, kernel: local::LocalKernel, scale: Scale) -> Job {
    let key = JobKey::new("local", Some(m), Some(mode), scale).with("kernel", kernel.label());
    let ranks = m.ranks_per_node(mode);
    let m = m.clone();
    Job::new(key, move || {
        let r = local::local_bench(&m, mode, kernel);
        obj(vec![("sp", r.sp.into()), ("ep", r.ep.into())])
    })
    .with_cost(ranks)
}

pub(crate) fn bidir_job(m: &MachineSpec, mode: ExecMode, pairs: usize, bytes: u64, scale: Scale) -> Job {
    let key = JobKey::new("bidir", Some(m), Some(mode), scale)
        .with("pairs", pairs)
        .with("bytes", bytes);
    let m = m.clone();
    Job::new(key, move || {
        let p = bidir::bidir_point(&m, mode, pairs, bytes);
        obj(vec![
            ("bytes", p.bytes.into()),
            ("bandwidth_mbs", p.bandwidth_mbs.into()),
            ("latency_us", p.latency_us.into()),
        ])
    })
    .with_cost(2 * pairs)
}

pub(crate) fn global_job(
    m: &MachineSpec,
    mode: ExecMode,
    bench_name: &str,
    bench: fn(&MachineSpec, ExecMode, usize) -> f64,
    sockets: usize,
    scale: Scale,
) -> Job {
    let key = JobKey::new(format!("global/{bench_name}"), Some(m), Some(mode), scale)
        .with("sockets", sockets);
    let ranks = sockets * m.ranks_per_node(mode);
    let m = m.clone();
    Job::new(key, move || {
        let p = global::sweep(&m, mode, &[sockets], bench).remove(0);
        obj(vec![
            ("sockets", p.sockets.into()),
            ("cores", p.cores.into()),
            ("value", p.value.into()),
        ])
    })
    .with_cost(ranks)
}

/// S3D in VN mode, the only mode its callers run.
pub(crate) fn s3d_job(m: &MachineSpec, cores: usize, scale: Scale) -> Job {
    let key = JobKey::new("s3d", Some(m), Some(ExecMode::VN), scale).with("cores", cores);
    let m = m.clone();
    Job::new(key, move || {
        let r = s3d::s3d(&m, ExecMode::VN, cores);
        obj(vec![
            ("secs_per_step", r.secs_per_step.into()),
            ("cost_us_per_point", r.cost_us_per_point.into()),
        ])
    })
    .with_cost(cores)
}

// ------------------------------------------------------------------ figures

fn table1(scale: Scale) -> FigureSpec {
    // Pure spec formatting — nothing to simulate, so no jobs; assembly does
    // all the work. Still routed through the engine for uniformity.
    let _ = scale;
    FigureSpec::new("table1", |_outputs| {
        let xt3 = presets::xt3_single();
        let xt3d = presets::xt3_dual();
        let xt4 = presets::xt4();
        FigureResult::new("table1", "Comparison of XT3, XT3 dual core, and XT4 systems at ORNL")
            .note(xtsim_machine::table::system_comparison(&[&xt3, &xt3d, &xt4]))
            .note("\nDerived balance ratios (the quantities §1/§7 reason in):\n")
            .note(xtsim_machine::balance::balance_table(&[&xt3, &xt3d, &xt4]))
    })
}

fn fig01(scale: Scale) -> FigureSpec {
    let clients = match scale {
        Scale::Quick => 16,
        Scale::Full => 64,
    };
    let mut b = PlanBuilder::new(
        "fig01",
        "Lustre filesystem architecture — IOR on the model",
        "stripe count",
        "aggregate write GB/s",
    );
    let w = b.series("IOR write");
    let r = b.series("IOR read");
    for stripes in [1usize, 2, 4, 8, 16] {
        let key = JobKey::new("ior", None, None, scale)
            .with("seed", 7)
            .with("clients", clients)
            .with("block_size", 32u64 << 20)
            .with("transfer_size", 4u64 << 20)
            .with("stripe_count", stripes)
            .with("file_per_process", true);
        let job = b.job(Job::new(key, move || {
            let out = run_ior(
                7,
                LustreConfig::default(),
                IorConfig {
                    clients,
                    block_size: 32 << 20,
                    transfer_size: 4 << 20,
                    stripe_count: stripes,
                    file_per_process: true,
                },
            );
            obj(vec![("write_gbs", out.write_gbs.into()), ("read_gbs", out.read_gbs.into())])
        })
        .with_cost(clients));
        b.point(w, stripes as f64, job, "write_gbs");
        b.point(r, stripes as f64, job, "read_gbs");
    }
    b.note("One MDS (FIFO), 9 OSS × 4 OST; clients stripe files round-robin (paper Figure 1).");
    b.build()
}

/// The three system configurations of Figures 2–11.
fn micro_systems() -> Vec<(String, MachineSpec, ExecMode)> {
    vec![
        ("XT3".into(), presets::xt3_single(), ExecMode::SN),
        ("XT4-SN".into(), presets::xt4(), ExecMode::SN),
        ("XT4-VN".into(), presets::xt4(), ExecMode::VN),
    ]
}

fn net_sockets(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 32,
        Scale::Full => 256,
    }
}

const NETBENCH_LAT: [&str; 5] = ["pp_min_us", "pp_avg_us", "pp_max_us", "nat_ring_us", "rand_ring_us"];
const NETBENCH_BW: [&str; 5] = ["pp_min_bw", "pp_avg_bw", "pp_max_bw", "nat_ring_bw", "rand_ring_bw"];

/// Figures 2 and 3 share their jobs (one netbench run per system); only the
/// extracted fields differ, so with a warm cache the second figure is free.
fn netbench_fig(id: &'static str, title: &str, y: &str, fields: [&'static str; 5], scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(
        id,
        title,
        "pattern (1=PPmin 2=PPavg 3=PPmax 4=Nat.Ring 5=Rand.Ring)",
        y,
    );
    let sockets = net_sockets(scale);
    for (name, m, mode) in micro_systems() {
        let key = JobKey::new("netbench", Some(&m), Some(mode), scale).with("sockets", sockets);
        let ranks = sockets * m.ranks_per_node(mode);
        let job = b.job(Job::new(key, move || {
            let r = netbench::network_bench(&m, mode, sockets);
            obj(vec![
                ("pp_min_us", r.pp_min_us.into()),
                ("pp_avg_us", r.pp_avg_us.into()),
                ("pp_max_us", r.pp_max_us.into()),
                ("nat_ring_us", r.nat_ring_us.into()),
                ("rand_ring_us", r.rand_ring_us.into()),
                ("pp_min_bw", r.pp_min_bw.into()),
                ("pp_avg_bw", r.pp_avg_bw.into()),
                ("pp_max_bw", r.pp_max_bw.into()),
                ("nat_ring_bw", r.nat_ring_bw.into()),
                ("rand_ring_bw", r.rand_ring_bw.into()),
            ])
        })
        .with_cost(ranks));
        let s = b.series(name);
        for (i, field) in fields.into_iter().enumerate() {
            b.point(s, (i + 1) as f64, job, field);
        }
    }
    b.build()
}

fn fig02(scale: Scale) -> FigureSpec {
    netbench_fig("fig02", "Network latency", "latency (us)", NETBENCH_LAT, scale)
}

fn fig03(scale: Scale) -> FigureSpec {
    netbench_fig("fig03", "Network bandwidth", "bandwidth (GB/s)", NETBENCH_BW, scale)
}

fn local_fig(id: &'static str, title: &str, kernel: local::LocalKernel, scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(id, title, "system (bar)", kernel.label());
    let sp = b.series("SP");
    let ep = b.series("EP");
    for (i, (_name, m, mode)) in micro_systems().into_iter().enumerate() {
        let job = b.job(local_job(&m, mode, kernel, scale));
        b.point(sp, (i + 1) as f64, job, "sp");
        b.point(ep, (i + 1) as f64, job, "ep");
    }
    b.note("bars: 1=XT3, 2=XT4-SN, 3=XT4-VN");
    b.build()
}

fn fig04(s: Scale) -> FigureSpec {
    local_fig("fig04", "SP/EP Fast Fourier Transform", local::LocalKernel::Fft, s)
}
fn fig05(s: Scale) -> FigureSpec {
    local_fig("fig05", "SP/EP Matrix Multiply (DGEMM)", local::LocalKernel::Dgemm, s)
}
fn fig06(s: Scale) -> FigureSpec {
    local_fig("fig06", "SP/EP Random Access", local::LocalKernel::RandomAccess, s)
}
fn fig07(s: Scale) -> FigureSpec {
    local_fig("fig07", "SP/EP Memory Bandwidth (Streams)", local::LocalKernel::StreamTriad, s)
}

fn global_sockets(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![16, 32, 64, 128],
        Scale::Full => global::default_sweep_sockets(),
    }
}

fn global_fig(
    id: &'static str,
    title: &str,
    y: &str,
    scale: Scale,
    bench_name: &str,
    bench: fn(&MachineSpec, ExecMode, usize) -> f64,
) -> FigureSpec {
    let sockets = global_sockets(scale);
    let mut b = PlanBuilder::new(id, title, "cores/sockets", y);
    // Series exactly as in the paper: XT3 and XT4-SN against sockets (= cores),
    // XT4-VN against both cores and sockets.
    let xt3 = presets::xt3_single();
    let xt4 = presets::xt4();
    for (name, m, mode) in [("XT3", &xt3, ExecMode::SN), ("XT4-SN", &xt4, ExecMode::SN)] {
        let s = b.series(name);
        for &n in &sockets {
            let job = b.job(global_job(m, mode, bench_name, bench, n, scale));
            b.point(s, n as f64, job, "value");
        }
    }
    let by_cores = b.series("XT4-VN (cores)");
    let by_sockets = b.series("XT4-VN (sockets)");
    for &n in &sockets {
        let job = b.job(global_job(&xt4, ExecMode::VN, bench_name, bench, n, scale));
        // x = cores for the first series needs the job's own cores output;
        // GlobalPoint computes cores = ranks, which for a socket-count sweep
        // in VN mode is sockets × cores/socket — known at build time.
        let cores = n * xt4.processor.cores_per_socket as usize;
        b.point(by_cores, cores as f64, job, "value");
        b.point(by_sockets, n as f64, job, "value");
    }
    b.build()
}

fn fig08(scale: Scale) -> FigureSpec {
    global_fig("fig08", "Global HPL", "TFLOPS", scale, "hpl", global::hpl)
}
fn fig09(scale: Scale) -> FigureSpec {
    global_fig("fig09", "Global MPI-FFT", "GFLOPS", scale, "mpi_fft", global::mpi_fft)
}
fn fig10(scale: Scale) -> FigureSpec {
    global_fig("fig10", "Global PTRANS", "GB/s", scale, "ptrans", global::ptrans)
}
fn fig11(scale: Scale) -> FigureSpec {
    global_fig("fig11", "Global MPI-RandomAccess", "GUPS", scale, "mpi_ra", global::mpi_ra)
}

fn bidir_systems() -> Vec<(String, MachineSpec, ExecMode, usize)> {
    // The paper's single-core XT3 curves were measured two years before the
    // rest ("performance differences are likely, at least partly, due to
    // changes in the system software"): model the stale 2005 stack with a
    // higher per-message software overhead. Large-message peaks are
    // unaffected, small-message latency is much worse — exactly the shape
    // of Figures 12–13.
    let mut xt3_sc_2005 = presets::xt3_single();
    xt3_sc_2005.nic.sw_overhead_us = 12.0;
    vec![
        ("0-1 internode XT3-SC".into(), xt3_sc_2005, ExecMode::SN, 1),
        ("0-1 internode XT3-DC".into(), presets::xt3_dual(), ExecMode::VN, 1),
        ("0-1 internode XT4".into(), presets::xt4(), ExecMode::VN, 1),
        ("i-(i+2) i=0,1 XT3-DC (VN)".into(), presets::xt3_dual(), ExecMode::VN, 2),
        ("i-(i+2) i=0,1 XT4 (VN)".into(), presets::xt4(), ExecMode::VN, 2),
    ]
}

/// Figures 12 and 13 are the same sweep replotted, so they share every job.
fn bidir_fig(id: &'static str, title: &str, scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(id, title, "message bytes", "per-pair bidirectional MB/s");
    for (name, m, mode, pairs) in bidir_systems() {
        let s = b.series(name);
        for bytes in bidir::sweep_sizes() {
            let job = b.job(bidir_job(&m, mode, pairs, bytes, scale));
            b.point(s, bytes as f64, job, "bandwidth_mbs");
        }
    }
    b.build()
}

fn fig12(s: Scale) -> FigureSpec {
    bidir_fig("fig12", "Bidirectional MPI bandwidth (log-log: small messages)", s)
}
fn fig13(s: Scale) -> FigureSpec {
    let mut spec = bidir_fig("fig13", "Bidirectional MPI bandwidth (log-linear: large messages)", s);
    let inner = std::mem::replace(&mut spec.assemble, Box::new(|_| unreachable!()));
    spec.assemble = Box::new(move |outputs| {
        inner(outputs).note("same data as fig12; the paper replots it with a linear y-axis")
    });
    spec
}

fn cam_tasks(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![32, 64, 120, 240],
        Scale::Full => vec![32, 64, 96, 120, 240, 336, 504, 672, 960],
    }
}

fn fig14(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new("fig14", "CAM throughput, XT4 vs XT3", "MPI tasks", "simulated years/day");
    let systems: Vec<(&str, MachineSpec, ExecMode)> = vec![
        ("XT3 (single-core)", presets::xt3_single(), ExecMode::SN),
        ("XT3-DC VN", presets::xt3_dual(), ExecMode::VN),
        ("XT4 SN", presets::xt4(), ExecMode::SN),
        ("XT4 VN", presets::xt4(), ExecMode::VN),
    ];
    for (name, m, mode) in systems {
        let s = b.series(name);
        for &t in &cam_tasks(scale) {
            let job = b.job(cam_job(&m, mode, t, 1, scale));
            b.point(s, t as f64, job, "years_per_day");
        }
    }
    b.build()
}

fn fig15(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(
        "fig15",
        "CAM throughput across platforms",
        "processors",
        "simulated years/day",
    );
    let platforms: Vec<(&str, MachineSpec, ExecMode)> = vec![
        ("XT4 SN", presets::xt4(), ExecMode::SN),
        ("XT4 VN", presets::xt4(), ExecMode::VN),
        ("Cray X1E", presets::x1e(), ExecMode::SN),
        ("Earth Simulator", presets::earth_simulator(), ExecMode::SN),
        ("IBM p690", presets::p690(), ExecMode::SN),
        ("IBM p575", presets::p575(), ExecMode::SN),
        ("IBM SP", presets::ibm_sp(), ExecMode::SN),
    ];
    for (name, m, mode) in platforms {
        let s = b.series(name);
        for &t in &cam_tasks(scale) {
            if t > m.core_count() {
                continue;
            }
            let key = JobKey::new("cam_best", Some(&m), Some(mode), scale).with("processors", t);
            let m2 = m.clone();
            let job = b.job(
                Job::new(key, move || match cam::cam_best(&m2, mode, t) {
                    None => Value::Null,
                    Some(r) => obj(vec![("years_per_day", r.years_per_day.into())]),
                })
                .with_cost(t),
            );
            b.point(s, t as f64, job, "years_per_day");
        }
    }
    b.note("each point optimized over OpenMP threads/task where the platform supports it");
    b.build()
}

fn fig16(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(
        "fig16",
        "CAM dynamics vs physics cost",
        "MPI tasks",
        "wall seconds per simulated day",
    );
    let systems: Vec<(&str, MachineSpec, ExecMode)> = vec![
        ("XT4 SN dynamics", presets::xt4(), ExecMode::SN),
        ("XT4 VN dynamics", presets::xt4(), ExecMode::VN),
        ("p575 dynamics", presets::p575(), ExecMode::SN),
    ];
    for (name, m, mode) in systems {
        let dynamics = b.series(name);
        let physics = b.series(name.replace("dynamics", "physics"));
        for &t in &cam_tasks(scale) {
            if t > m.core_count() {
                continue;
            }
            let job = b.job(cam_job(&m, mode, t, 1, scale));
            b.point(dynamics, t as f64, job, "dynamics_secs_per_day");
            b.point(physics, t as f64, job, "physics_secs_per_day");
        }
    }
    b.build()
}

fn pop_tasks(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![256, 512, 1024, 2048],
        Scale::Full => vec![500, 1000, 2000, 4000, 5000, 8000, 10000, 16000, 22000],
    }
}

fn fig17(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new("fig17", "POP throughput, XT4 vs XT3", "MPI tasks", "simulated years/day");
    let systems: Vec<(&str, MachineSpec, ExecMode)> = vec![
        ("XT3 (single-core)", presets::xt3_single(), ExecMode::SN),
        ("XT3-DC VN", presets::xt3_dual(), ExecMode::VN),
        ("XT4 SN", presets::xt4(), ExecMode::SN),
        ("XT4 VN", presets::xt4(), ExecMode::VN),
    ];
    for (name, m, mode) in systems {
        let s = b.series(name);
        for &t in &pop_tasks(scale) {
            // Large runs use the combined XT3+XT4 machine like the paper.
            let machine = if t > 6_000 && name.starts_with("XT4") {
                presets::xt3_xt4_combined()
            } else {
                m.clone()
            };
            if t > machine.max_ranks(mode) {
                continue;
            }
            let job = b.job(pop_job(&machine, mode, t, pop::Solver::StandardCg, scale));
            b.point(s, t as f64, job, "years_per_day");
        }
    }
    b.build()
}

fn fig18(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(
        "fig18",
        "POP throughput across platforms (+ C-G variant)",
        "MPI tasks",
        "simulated years/day",
    );
    for (name, solver) in [
        ("XT4 VN", pop::Solver::StandardCg),
        ("XT4 VN (C-G allreduce-halving)", pop::Solver::ChronopoulosGear),
    ] {
        let s = b.series(name);
        for &t in &pop_tasks(scale) {
            let machine = if t > 6_000 {
                presets::xt3_xt4_combined()
            } else {
                presets::xt4()
            };
            let job = b.job(pop_job(&machine, ExecMode::VN, t, solver, scale));
            b.point(s, t as f64, job, "years_per_day");
        }
    }
    let s = b.series("Cray X1E");
    let x1e = presets::x1e();
    for &t in &pop_tasks(scale) {
        if t > x1e.max_ranks(ExecMode::SN) {
            continue;
        }
        let job = b.job(pop_job(&x1e, ExecMode::SN, t, pop::Solver::StandardCg, scale));
        b.point(s, t as f64, job, "years_per_day");
    }
    b.build()
}

fn fig19(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new(
        "fig19",
        "POP phase cost (baroclinic vs barotropic)",
        "MPI tasks",
        "wall seconds per simulated day",
    );
    let configs: Vec<(&str, ExecMode, pop::Solver)> = vec![
        ("SN", ExecMode::SN, pop::Solver::StandardCg),
        ("VN", ExecMode::VN, pop::Solver::StandardCg),
        ("VN C-G", ExecMode::VN, pop::Solver::ChronopoulosGear),
    ];
    for (name, mode, solver) in configs {
        let baro = b.series(format!("baroclinic {name}"));
        let barot = b.series(format!("barotropic {name}"));
        for &t in &pop_tasks(scale) {
            let machine = if t > 6_000 {
                presets::xt3_xt4_combined()
            } else {
                presets::xt4()
            };
            if t > machine.max_ranks(mode).max(24_000) {
                continue;
            }
            let job = b.job(pop_job(&machine, mode, t, solver, scale));
            b.point(baro, t as f64, job, "baroclinic_secs_per_day");
            b.point(barot, t as f64, job, "barotropic_secs_per_day");
        }
    }
    b.build()
}

fn namd_tasks(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![64, 256, 1024],
        Scale::Full => vec![64, 128, 256, 512, 1024, 2048, 4096, 8192, 12000],
    }
}

fn namd_job(m: &MachineSpec, mode: ExecMode, tasks: usize, sys: namd::System, scale: Scale) -> Job {
    let key = JobKey::new("namd", Some(m), Some(mode), scale)
        .with("tasks", tasks)
        .with("system", sys.label());
    let m = m.clone();
    Job::new(key, move || {
        let r = namd::namd(&m, mode, tasks, sys);
        obj(vec![("secs_per_step", r.secs_per_step.into()), ("pme_fraction", r.pme_fraction.into())])
    })
    .with_cost(tasks)
}

fn fig20(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new("fig20", "NAMD time/step, XT4 vs XT3", "MPI tasks", "seconds per step");
    for (sys, cap) in [(namd::System::Atoms1M, 8192usize), (namd::System::Atoms3M, 12000)] {
        for (mname, m) in [("XT3", presets::xt3_dual()), ("XT4", presets::xt4())] {
            let s = b.series(format!("{mname}({})", sys.label()));
            for &t in &namd_tasks(scale) {
                if t > cap {
                    continue;
                }
                let job = b.job(namd_job(&m, ExecMode::VN, t, sys, scale));
                b.point(s, t as f64, job, "secs_per_step");
            }
        }
    }
    b.build()
}

fn fig21(scale: Scale) -> FigureSpec {
    let mut b = PlanBuilder::new("fig21", "NAMD SN vs VN", "MPI tasks", "seconds per step");
    let m = presets::xt4();
    for (sys, cap) in [(namd::System::Atoms1M, 8192usize), (namd::System::Atoms3M, 12000)] {
        for mode in [ExecMode::SN, ExecMode::VN] {
            let s = b.series(format!("{}({})", sys.label(), mode));
            for &t in &namd_tasks(scale) {
                if t > cap || t > m.max_ranks(mode).max(12_000) {
                    continue;
                }
                // SN mode cannot exceed the socket count of the machine.
                if mode == ExecMode::SN && t > 6_400 {
                    continue;
                }
                let job = b.job(namd_job(&m, mode, t, sys, scale));
                b.point(s, t as f64, job, "secs_per_step");
            }
        }
    }
    b.build()
}

fn fig22(scale: Scale) -> FigureSpec {
    let cores: Vec<usize> = match scale {
        Scale::Quick => vec![1, 8, 64, 512],
        Scale::Full => vec![1, 8, 64, 512, 1728, 4096, 8000, 12000],
    };
    let mut b = PlanBuilder::new("fig22", "S3D weak-scaling cost", "cores", "cost per grid point per step (us)");
    // Both lines are 2007-era dual-core systems run in VN mode (only the
    // dual-core XT3 had ~10,000 cores).
    for (name, m) in [("XT3", presets::xt3_dual()), ("XT4", presets::xt4())] {
        let s = b.series(name);
        for &c in &cores {
            let job = b.job(s3d_job(&m, c, scale));
            b.point(s, c as f64, job, "cost_us_per_point");
        }
    }
    b.build()
}

fn fig23(scale: Scale) -> FigureSpec {
    let grid = 300;
    let configs: Vec<(&str, MachineSpec, usize)> = match scale {
        Scale::Quick => vec![
            ("4k XT3", presets::xt3_dual(), 4096),
            ("4k XT4", presets::xt4(), 4096),
            ("8k XT4", presets::xt4(), 8192),
        ],
        Scale::Full => vec![
            ("4k XT3", presets::xt3_dual(), 4096),
            ("4k XT4", presets::xt4(), 4096),
            ("8k XT4", presets::xt4(), 8192),
            ("16k XT3/4", presets::xt3_xt4_combined(), 16384),
            ("22.5k XT3/4", presets::xt3_xt4_combined(), 22500),
        ],
    };
    // Notes quote the solver TFLOPS out of each job, so fig23 assembles
    // by hand rather than through PlanBuilder.
    let names: Vec<&'static str> = configs.iter().map(|c| c.0).collect();
    let mut spec = FigureSpec::new("fig23", move |outputs: &[Value]| {
        let mut axb = Series::new("Ax=b");
        let mut ql = Series::new("Calc QL operator");
        let mut total = Series::new("Total");
        let mut fig = FigureResult::new("fig23", "AORSA grind time")
            .axes("configuration (bar)", "grind time (minutes)");
        for (i, (name, out)) in names.iter().zip(outputs).enumerate() {
            axb.push((i + 1) as f64, num(out, "axb_minutes"));
            ql.push((i + 1) as f64, num(out, "ql_minutes"));
            total.push((i + 1) as f64, num(out, "total_minutes"));
            fig = fig.note(format!(
                "bar {} = {}   (solver {:.1} TFLOPS)",
                i + 1,
                name,
                num(out, "solver_tflops")
            ));
        }
        fig.series.push(axb);
        fig.series.push(ql);
        fig.series.push(total);
        fig
    });
    for (_name, m, cores) in configs {
        let key = JobKey::new("aorsa", Some(&m), Some(ExecMode::VN), scale)
            .with("cores", cores)
            .with("grid", grid);
        spec.push(
            Job::new(key, move || {
                let r = aorsa::aorsa(&m, ExecMode::VN, cores, grid);
                obj(vec![
                    ("axb_minutes", r.axb_minutes.into()),
                    ("ql_minutes", r.ql_minutes.into()),
                    ("total_minutes", r.total_minutes.into()),
                    ("solver_tflops", r.solver_tflops.into()),
                ])
            })
            .with_cost(cores),
        );
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let figs = all_figures();
        assert_eq!(figs.len(), 24); // table1 + fig01..fig23
        for want in ["table1", "fig01", "fig12", "fig23"] {
            assert!(figs.iter().any(|f| f.id == want), "{want} missing");
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(figure("fig08").is_some());
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn table1_renders_key_values() {
        let t = figure("table1").unwrap().run(Scale::Quick).render();
        assert!(t.contains("SeaStar2"));
        assert!(t.contains("10.6GB/s"));
    }

    #[test]
    fn quick_local_figures_have_three_bars() {
        let f = figure("fig05").unwrap().run(Scale::Quick);
        assert_eq!(f.series.len(), 2); // SP + EP
        assert_eq!(f.series[0].points.len(), 3); // XT3, XT4-SN, XT4-VN
        // DGEMM EP ~ SP on every system.
        for (sp, ep) in f.series[0].points.iter().zip(&f.series[1].points) {
            assert!(ep.1 / sp.1 > 0.85);
        }
    }

    #[test]
    fn shared_sweeps_share_job_keys() {
        // fig12/fig13 are the same sweep; fig02/fig03 extract different
        // fields of the same runs. Their job digests must coincide so the
        // cache dedupes the work.
        for (a, b) in [("fig12", "fig13"), ("fig02", "fig03")] {
            let da: Vec<String> = figure(a).unwrap().spec(Scale::Quick).jobs.iter().map(|j| j.key.digest()).collect();
            let db: Vec<String> = figure(b).unwrap().spec(Scale::Quick).jobs.iter().map(|j| j.key.digest()).collect();
            assert_eq!(da, db, "{a} vs {b}");
        }
    }
}
