//! Ablation experiments for the design choices DESIGN.md calls out — these
//! go beyond the paper's figures and probe the model's levers directly.
//!
//! Like the main registry, every ablation decomposes into sweep-point jobs
//! (see [`crate::sweep`]), built by the registry's own job constructors; the
//! tweaked machines hash by content, so e.g. an eager-threshold variant never
//! collides with the stock preset in the cache.

use serde::Value;
use xtsim_hpcc::{global, local};
use xtsim_machine::{presets, ExecMode};

use crate::figures::{bidir_job, cam_job, global_job, local_job, s3d_job, Figure};
use crate::report::{FigureResult, Scale, Series};
use crate::sweep::{num, FigureSpec};

/// All ablation experiments.
pub fn all_ablations() -> Vec<Figure> {
    vec![
        Figure {
            id: "abl-eager",
            title: "Eager/rendezvous threshold sensitivity",
            build: eager_threshold,
        },
        Figure {
            id: "abl-memory",
            title: "Memory technology ladder (DDR-400 → DDR2-667 → DDR2-800)",
            build: memory_ladder,
        },
        Figure {
            id: "abl-quadcore",
            title: "Quad-core projection (the paper's future work)",
            build: quad_core,
        },
        Figure {
            id: "abl-vnstack",
            title: "VN software-stack maturity (paper's predicted improvement)",
            build: vn_stack,
        },
        Figure {
            id: "abl-openmp",
            title: "OpenMP on the XT4 (the paper's anticipated enhancement)",
            build: openmp_xt4,
        },
    ]
}

/// Sweep the NIC eager threshold and watch the mid-size-message latency step
/// move (Figures 12–13 carry this signature).
fn eager_threshold(scale: Scale) -> FigureSpec {
    let mut plans: Vec<(String, Vec<(f64, usize)>)> = Vec::new();
    let mut spec = FigureSpec::new("abl-eager", |_| unreachable!());
    for threshold in [16u64 << 10, 64 << 10, 256 << 10] {
        let mut m = presets::xt4();
        m.nic.eager_threshold_bytes = threshold;
        let mut pts = Vec::new();
        for bytes in [8u64 << 10, 32 << 10, 128 << 10, 512 << 10] {
            let job = spec.push(bidir_job(&m, ExecMode::SN, 1, bytes, scale));
            pts.push((bytes as f64, job));
        }
        plans.push((format!("threshold {}KiB", threshold >> 10), pts));
    }
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let mut fig = FigureResult::new("abl-eager", "Eager threshold sweep")
            .axes("message bytes", "one-way latency (us)");
        for (name, pts) in plans {
            let mut s = Series::new(name);
            for (x, job) in pts {
                s.push(x, num(&outputs[job], "latency_us"));
            }
            fig = fig.with_series(s);
        }
        fig.note("larger thresholds defer the rendezvous handshake cost to larger messages")
    });
    spec
}

/// STREAM and FFT across the DDR generations named in §2.
fn memory_ladder(scale: Scale) -> FigureSpec {
    let mut spec = FigureSpec::new("abl-memory", |_| unreachable!());
    let machines = [presets::xt3_single(), presets::xt4(), presets::xt4_ddr2_800()];
    let mut triad_jobs = Vec::new();
    let mut fft_jobs = Vec::new();
    for m in &machines {
        for (kernel, jobs) in [
            (local::LocalKernel::StreamTriad, &mut triad_jobs),
            (local::LocalKernel::Fft, &mut fft_jobs),
        ] {
            jobs.push(spec.push(local_job(m, ExecMode::SN, kernel, scale)));
        }
    }
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let mut fig = FigureResult::new("abl-memory", "Memory ladder")
            .axes("machine (1=XT3 DDR-400, 2=XT4 DDR2-667, 3=XT4 DDR2-800)", "value");
        let mut triad = Series::new("STREAM triad GB/s (SP)");
        let mut fft = Series::new("FFT GFLOPS (SP)");
        for (i, (&tj, &fj)) in triad_jobs.iter().zip(&fft_jobs).enumerate() {
            triad.push((i + 1) as f64, num(&outputs[tj], "sp"));
            fft.push((i + 1) as f64, num(&outputs[fj], "sp"));
        }
        fig.series.push(triad);
        fig.series.push(fft);
        fig
    });
    spec
}

/// Project the site-upgrade to quad-core sockets: per-core STREAM collapses
/// further, S3D VN-mode contention worsens — exactly the "multi-core is not
/// a universal answer" trend of §7.
fn quad_core(scale: Scale) -> FigureSpec {
    let mut spec = FigureSpec::new("abl-quadcore", |_| unreachable!());
    let mut rows = Vec::new(); // (cores_per_socket, stream job, s3d job)
    for m in [presets::xt4(), presets::xt4_quad()] {
        let stream = spec.push(local_job(&m, ExecMode::VN, local::LocalKernel::StreamTriad, scale));
        let s3d = spec.push(s3d_job(&m, 64, scale));
        rows.push((m.processor.cores_per_socket as f64, stream, s3d));
    }
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let mut fig = FigureResult::new("abl-quadcore", "Quad-core projection")
            .axes("cores per socket", "value");
        let mut stream = Series::new("per-core STREAM triad GB/s (EP)");
        let mut s3d_cost = Series::new("S3D cost us/point (VN)");
        for &(cores, sj, dj) in &rows {
            stream.push(cores, num(&outputs[sj], "ep"));
            s3d_cost.push(cores, num(&outputs[dj], "cost_us_per_point"));
        }
        fig.series.push(stream);
        fig.series.push(s3d_cost);
        fig
    });
    spec
}

/// Sweep the VN NIC-sharing penalty toward zero — the paper repeatedly
/// expects VN-mode results "to improve as the XT4 software stack matures".
fn vn_stack(scale: Scale) -> FigureSpec {
    let mut spec = FigureSpec::new("abl-vnstack", |_| unreachable!());
    let mut vn_points = Vec::new(); // (extra overhead, job)
    for extra in [4.2f64, 2.8, 1.4, 0.0] {
        let mut m = presets::xt4();
        m.nic.vn_extra_overhead_us = extra;
        let job = spec.push(global_job(&m, ExecMode::VN, "mpi_ra", global::mpi_ra, 64, scale));
        vn_points.push((extra, job));
    }
    let sn_job = spec.push(global_job(
        &presets::xt4(),
        ExecMode::SN,
        "mpi_ra",
        global::mpi_ra,
        64,
        scale,
    ));
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let mut fig = FigureResult::new("abl-vnstack", "VN software maturity")
            .axes("vn extra overhead (us)", "MPI-RA GUPS at 64 sockets (VN)");
        let mut s = Series::new("XT4-VN MPI-RA");
        for &(extra, job) in &vn_points {
            s.push(extra, num(&outputs[job], "value"));
        }
        let sn = num(&outputs[sn_job], "value");
        fig.series.push(s);
        fig.note(format!(
            "XT4-SN reference: {sn:.4} GUPS — a matured VN stack closes most of the gap"
        ))
    });
    spec
}

/// The paper (§6.1): "OpenMP is also expected to provide a performance
/// enhancement when it becomes available on the XT4 by allowing fewer MPI
/// tasks to be used and by allowing us to restrict MPI communication to a
/// single core per node." Run CAM with 1 vs 2 threads per task at the same
/// processor counts.
fn openmp_xt4(scale: Scale) -> FigureSpec {
    let mut spec = FigureSpec::new("abl-openmp", |_| unreachable!());
    let m = presets::xt4();
    let mut rows = Vec::new(); // (procs, mpi-only job, hybrid job)
    for procs in [240usize, 480, 960] {
        let mpi_job = spec.push(cam_job(&m, ExecMode::VN, procs, 1, scale));
        // 2 threads per task: half the MPI tasks, one rank per node (SN),
        // both cores driven by OpenMP.
        let hybrid_job = spec.push(cam_job(&m, ExecMode::SN, procs / 2, 2, scale));
        rows.push((procs as f64, mpi_job, hybrid_job));
    }
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let mut fig = FigureResult::new("abl-openmp", "CAM with OpenMP on XT4")
            .axes("processors", "simulated years/day");
        let mut mpi_only = Series::new("VN, MPI-only");
        let mut hybrid = Series::new("SN + 2 OpenMP threads/task");
        for &(procs, mj, hj) in &rows {
            if !matches!(outputs[mj], Value::Null) {
                mpi_only.push(procs, num(&outputs[mj], "years_per_day"));
            }
            if !matches!(outputs[hj], Value::Null) {
                hybrid.push(procs, num(&outputs[hj], "years_per_day"));
            }
        }
        fig.series.push(mpi_only);
        fig.series.push(hybrid);
        fig.note("hybrid mode halves the MPI task count and keeps the NIC single-owner")
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_figure, SweepConfig};

    fn run(spec: FigureSpec) -> FigureResult {
        run_figure(spec, &SweepConfig::serial()).0
    }

    #[test]
    fn memory_ladder_is_monotone() {
        let f = run(memory_ladder(Scale::Quick));
        for s in &f.series {
            assert!(s.points[1].1 > s.points[0].1, "{}: {:?}", s.name, s.points);
            assert!(s.points[2].1 > s.points[1].1, "{}: {:?}", s.name, s.points);
        }
    }

    #[test]
    fn quad_core_worsens_contention() {
        let f = run(quad_core(Scale::Quick));
        let stream = &f.series[0];
        assert!(stream.points[1].1 < stream.points[0].1, "{stream:?}");
        let s3d_cost = &f.series[1];
        assert!(s3d_cost.points[1].1 > s3d_cost.points[0].1, "{s3d_cost:?}");
    }

    #[test]
    fn vn_stack_maturity_recovers_gups() {
        let f = run(vn_stack(Scale::Quick));
        let pts = &f.series[0].points;
        // Lower penalty -> higher GUPS.
        assert!(pts.last().unwrap().1 > pts.first().unwrap().1, "{pts:?}");
    }
}
