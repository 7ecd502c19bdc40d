//! The benchmark's workloads: which figures each regenerates, at which
//! scale, and the seeded reordering that checks outputs do not depend on
//! job order.

use serde::Value;
use xtsim::figures::figure;
use xtsim::machine::ExecMode;
use xtsim::report::{FigureResult, Scale, Series};
use xtsim::sweep::{num, FigureSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PopScale,
    FullMix,
    ServeWarm,
}

pub const ALL: [Workload; 3] = [Workload::PopScale, Workload::FullMix, Workload::ServeWarm];

/// The largest POP task count `pop-scale` runs. The paper's ladder goes to
/// 22,000, but the 10k, 16k and 22k jobs alone take 27 s on one core, so a
/// measurement window could not hold the several repetitions a stable
/// median needs.
const POP_MAX_TASKS: i64 = 8000;

/// `full-mix`: every paper figure except POP (pop-scale's job), S3D and
/// AORSA (their large-rank profile is POP's) and the fig24 extension.
const FULL_MIX: [&str; 19] = [
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig20", "fig21",
];
const FULL_MIX_SMOKE: [&str; 8] = [
    "table1", "fig01", "fig02", "fig03", "fig08", "fig12", "fig13", "fig20",
];

/// `serve-warm`: the figures whose quick-scale cache can be filled in about
/// a second. Serving a cached figure costs the same whether it took 1 ms
/// or 5 s to simulate, so the slow CAM, POP and AORSA figures add set-up
/// time without changing what is measured.
const SERVE: [&str; 17] = [
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig20", "fig21", "fig22",
];
const SERVE_SMOKE: [&str; 4] = ["table1", "fig02", "fig03", "fig12"];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PopScale => "pop-scale",
            Workload::FullMix => "full-mix",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Scale of the regenerated figures. The smoke variant of every
    /// workload runs at quick scale.
    pub fn scale(self, smoke: bool) -> Scale {
        match (self, smoke) {
            (Workload::PopScale, false) => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Figure ids, in registry order. `pop-scale` is one synthetic figure
    /// of the same id built by [`pop_scale_spec`].
    pub fn figure_ids(self, smoke: bool) -> Vec<&'static str> {
        match (self, smoke) {
            (Workload::PopScale, _) => vec!["pop-scale"],
            (Workload::FullMix, false) => FULL_MIX.to_vec(),
            (Workload::FullMix, true) => FULL_MIX_SMOKE.to_vec(),
            (Workload::ServeWarm, false) => SERVE.to_vec(),
            (Workload::ServeWarm, true) => SERVE_SMOKE.to_vec(),
        }
    }

    /// The specs one repetition runs, built exactly as the `figures` CLI
    /// builds them, with the time each took to build.
    pub fn specs(self, smoke: bool) -> Vec<(FigureSpec, f64)> {
        let scale = self.scale(smoke);
        self.figure_ids(smoke)
            .into_iter()
            .map(|id| {
                let t0 = std::time::Instant::now();
                let spec = match id {
                    "pop-scale" => pop_scale_spec(scale),
                    _ => figure(id)
                        .unwrap_or_else(|| panic!("figure {id} is not registered"))
                        .spec(scale),
                };
                (spec, t0.elapsed().as_secs_f64())
            })
            .collect()
    }
}

/// The POP 0.1° "XT4 VN" standard-CG series of fig17/fig18 up to
/// [`POP_MAX_TASKS`]: fig18's own jobs (so the same `JobKey`s and the same
/// machine switch to the combined XT3+XT4 above 6,000 tasks), assembled
/// into one figure holding every field the jobs return.
pub fn pop_scale_spec(scale: Scale) -> FigureSpec {
    let mut src = figure("fig18").expect("fig18 is registered").spec(scale);
    let keep = |job: &xtsim::sweep::Job| {
        job.key.kind == "pop"
            && job.key.mode == Some(ExecMode::VN)
            && param(job, "solver").and_then(Value::as_str) == Some("StandardCg")
            && param(job, "tasks")
                .and_then(Value::as_i64)
                .is_some_and(|t| t <= POP_MAX_TASKS)
    };
    src.jobs.retain(keep);
    let tasks: Vec<f64> = src
        .jobs
        .iter()
        .map(|j| param(j, "tasks").and_then(Value::as_f64).unwrap_or(0.0))
        .collect();
    let mut spec = FigureSpec::new("pop-scale", move |outputs: &[Value]| {
        let mut fig = FigureResult::new(
            "pop-scale",
            "POP XT4 VN standard-CG ladder (fig17/fig18 jobs)",
        )
        .axes("MPI tasks", "per-field value");
        for field in [
            "years_per_day",
            "baroclinic_secs_per_day",
            "barotropic_secs_per_day",
        ] {
            let mut s = Series::new(field);
            for (x, out) in tasks.iter().zip(outputs) {
                s.push(*x, num(out, field));
            }
            fig.series.push(s);
        }
        fig
    });
    spec.jobs = src.jobs;
    spec
}

/// One sweep parameter of a job's key.
pub fn param<'a>(job: &'a xtsim::sweep::Job, name: &str) -> Option<&'a Value> {
    job.key.params.as_object().and_then(|o| o.get(name))
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend on
/// nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A permutation of `0..n`: the identity for seed 0, a Fisher-Yates
/// shuffle drawn from `rng` otherwise.
pub fn permutation(n: usize, seed: u64, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    if seed != 0 {
        for i in (1..n).rev() {
            p.swap(i, rng.below(i + 1));
        }
    }
    p
}

/// Inverse of a permutation: `inverse(p)[p[k]] == k`.
pub fn inverse(p: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; p.len()];
    for (k, &i) in p.iter().enumerate() {
        inv[i] = k;
    }
    inv
}

/// `v` reordered so that new element `k` is old element `p[k]`.
fn reorder<T>(v: Vec<T>, p: &[usize]) -> Vec<T> {
    let mut old: Vec<Option<T>> = v.into_iter().map(Some).collect();
    p.iter()
        .map(|&i| old[i].take().expect("p is a permutation"))
        .collect()
}

/// Reorder a spec's jobs by `p` and wrap its assembly so the outputs are
/// put back in the original order first: the figure must come out
/// identical.
pub fn permute_jobs(spec: &mut FigureSpec, p: &[usize]) {
    spec.jobs = reorder(std::mem::take(&mut spec.jobs), p);
    let inv = inverse(p);
    let inner = std::mem::replace(
        &mut spec.assemble,
        Box::new(|_| unreachable!("replaced below")),
    );
    spec.assemble = Box::new(move |outputs: &[Value]| {
        let original: Vec<Value> = inv.iter().map(|&k| outputs[k].clone()).collect();
        inner(&original)
    });
}

/// Apply `--seed`: shuffle the figure order and the job order inside each
/// figure (seed 0 keeps registry order).
pub fn apply_seed<T>(
    items: &mut Vec<T>,
    seed: u64,
    mut jobs_of: impl FnMut(&mut T) -> &mut FigureSpec,
) {
    let mut rng = Rng::new(seed);
    let order = permutation(items.len(), seed, &mut rng);
    *items = reorder(std::mem::take(items), &order);
    for item in items.iter_mut() {
        let spec = jobs_of(item);
        let p = permutation(spec.jobs.len(), seed, &mut rng);
        permute_jobs(spec, &p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtsim::sweep::{obj, run_figure, JobKey, SweepConfig};

    #[test]
    fn seed_zero_is_identity_and_others_are_bijections() {
        let mut rng = Rng::new(0);
        assert_eq!(permutation(6, 0, &mut rng), vec![0, 1, 2, 3, 4, 5]);
        for seed in 1..50 {
            let mut rng = Rng::new(seed);
            let p = permutation(9, seed, &mut rng);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..9).collect::<Vec<_>>());
            let inv = inverse(&p);
            for k in 0..9 {
                assert_eq!(inv[p[k]], k);
                assert_eq!(p[inv[k]], k);
            }
        }
        // Same seed, same permutation; some seed actually reorders.
        let draw = |s| permutation(9, s, &mut Rng::new(s));
        assert_eq!(draw(7), draw(7));
        assert!((1..10).any(|s| draw(s) != draw(0)));
    }

    fn counting_spec() -> FigureSpec {
        let mut spec = FigureSpec::new("figP", |outs: &[Value]| {
            let mut s = Series::new("y");
            for (i, o) in outs.iter().enumerate() {
                s.push(i as f64, num(o, "y"));
            }
            FigureResult::new("figP", "permutation probe").with_series(s)
        });
        for i in 0..7u32 {
            let key = JobKey::new("probe", None, None, Scale::Quick).with("i", i);
            spec.push_job(key, move || obj(vec![("y", (f64::from(i) * 1.5).into())]));
        }
        spec
    }

    #[test]
    fn permuted_jobs_assemble_to_the_same_figure() {
        let want =
            serde_json::to_string(&run_figure(counting_spec(), &SweepConfig::serial()).0).unwrap();
        for seed in 0..5 {
            let mut specs = vec![counting_spec(), counting_spec()];
            apply_seed(&mut specs, seed, |s| s);
            for spec in specs {
                let got = run_figure(spec, &SweepConfig::threads(2)).0;
                assert_eq!(serde_json::to_string(&got).unwrap(), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn pop_scale_keeps_the_xt4_vn_standard_cg_series() {
        let spec = pop_scale_spec(Scale::Full);
        let tasks: Vec<i64> = spec
            .jobs
            .iter()
            .map(|j| param(j, "tasks").and_then(Value::as_i64).unwrap())
            .collect();
        assert_eq!(tasks, vec![500, 1000, 2000, 4000, 5000, 8000]);
        let fig18 = figure("fig18").unwrap().spec(Scale::Full);
        for job in &spec.jobs {
            assert!(fig18
                .jobs
                .iter()
                .any(|j| j.key.digest() == job.key.digest()));
        }
        assert_eq!(pop_scale_spec(Scale::Quick).jobs.len(), 4);
    }
}
