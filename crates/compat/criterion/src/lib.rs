#![forbid(unsafe_code)]
//! Offline stand-in for `criterion`: enough API for this workspace's bench
//! targets (`benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, the `criterion_group!`/`criterion_main!`
//! macros). Each benchmark runs a short fixed schedule (1 timed warmup + up
//! to 16 timed iterations, capped at ~200 ms) and prints **median**
//! wall-clock time plus derived throughput — no statistics engine, no HTML
//! reports. A warmup that alone outlasts the budget is kept as the only
//! sample, so a bench whose iteration takes minutes runs once, not twice.
//!
//! Environment knobs (used by `scripts/bench.sh`):
//!
//! * `XTSIM_BENCH_ONESHOT=1` — run exactly one timed iteration per benchmark
//!   (for capturing baselines of very slow benches).

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of the standard black box.
pub use std::hint::black_box;

/// Top-level bench context.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Mirror of criterion's CLI hook; accepts and ignores arguments.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// Units processed per iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Display label for a parameterized benchmark.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Label from the parameter's `Display` form.
    pub fn from_parameter(p: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: p.to_string(),
        }
    }

    /// Label from a function name and a parameter.
    pub fn new(name: impl fmt::Display, p: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{p}"),
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set per-iteration throughput for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Accepted and ignored (the shim's schedule is fixed).
    pub fn sample_size(&mut self, _n: usize) {}

    /// Accepted and ignored.
    pub fn measurement_time(&mut self, _d: Duration) {}

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b);
        self.report(&id.to_string(), &b);
    }

    /// Run one benchmark against an input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        f(&mut b, input);
        self.report(&id.label, &b);
    }

    /// End the group (prints nothing; provided for API compatibility).
    pub fn finish(self) {}

    fn report(&self, id: &str, b: &Bencher) {
        if b.samples.is_empty() {
            println!("{}/{id}: no iterations", self.name);
            return;
        }
        let median = b.median().as_secs_f64();
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:.3e} elem/s", n as f64 / median)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:.3} MB/s", n as f64 / median / 1e6)
            }
            None => String::new(),
        };
        println!(
            "{}/{id}: {:.3} ms/iter (median of {} iters){rate}",
            self.name,
            median * 1e3,
            b.samples.len()
        );
    }
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
}

/// Wall-clock budget of the timed iterations after the warmup.
const BUDGET: Duration = Duration::from_millis(200);

impl Bencher {
    /// Run `f` on the shim schedule: one timed warmup, then timed iterations
    /// until 16 have run or `BUDGET` has elapsed. A warmup longer than the
    /// budget is kept as the only sample. With `XTSIM_BENCH_ONESHOT=1` the
    /// first iteration is always the only one.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let t0 = Instant::now();
        black_box(f());
        let warmup = t0.elapsed();
        if warmup > BUDGET || std::env::var_os("XTSIM_BENCH_ONESHOT").is_some_and(|v| v == "1") {
            self.samples.push(warmup);
            return;
        }
        let start = Instant::now();
        while self.samples.len() < 16 && start.elapsed() < BUDGET {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }

    /// Median of the timed iterations (zero when none ran).
    fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s.get(s.len() / 2).copied().unwrap_or(Duration::ZERO)
    }
}

/// Bundle bench functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(10));
        let mut count = 0u64;
        g.bench_function("counter", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        g.finish();
        assert!(count > 0);
    }

    #[test]
    fn a_closure_slower_than_the_budget_runs_once() {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| {
            calls += 1;
            std::thread::sleep(BUDGET + Duration::from_millis(20));
        });
        assert_eq!(calls, 1);
        assert_eq!(b.samples.len(), 1);
        assert!(
            b.samples[0] > BUDGET,
            "the warmup is the sample: {:?}",
            b.samples
        );
    }
}
