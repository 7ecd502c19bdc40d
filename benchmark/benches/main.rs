#![forbid(unsafe_code)]
//! `xtbench` — the repository benchmark: host cost of regenerating figures
//! and of serving them, with every output checked against pinned results.
//!
//! ```text
//! benchmark/run.sh --workload pop-scale|full-mix|serve-warm
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! benchmark/run.sh --smoke
//! benchmark/run.sh bless
//! ```
//!
//! A run measures for `--seconds`, prints every metric with its median,
//! quartiles and sample count, writes `benchmark/out/<workload>.json`, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `benchmark/README.md` for the workloads and metrics.

mod batch;
mod pins;
mod procfs;
mod prom;
mod rep;
mod report;
mod serve;
mod stats;
mod workload;

use std::time::Instant;

use workload::{Workload, ALL};

/// The benchmark's directory, relative to the repository root (the working
/// directory `run.sh` sets).
pub const BENCH_DIR: &str = "benchmark";

/// Default measurement window, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

/// A run stops starting repetitions after this long whatever the window,
/// so that it always ends well inside three minutes.
pub const HARD_STOP_S: f64 = 120.0;

/// Window of each workload in `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn usage() -> String {
    "usage: xtbench --workload pop-scale|full-mix|serve-warm [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      xtbench --smoke\n\
     \x20      xtbench bless"
        .to_string()
}

fn parse(args: &[String]) -> Result<(Option<Workload>, Opts), String> {
    let mut w = None;
    let mut o = Opts {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                w = Some(
                    Workload::parse(&v)
                        .ok_or_else(|| format!("unknown workload {v:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                o.seed = val()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?
            }
            "--seconds" => {
                o.seconds = val()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok((w, o))
}

/// Run one workload, print its table, write its results file, and return
/// the result line.
fn measure(w: Workload, opts: &Opts) -> Result<String, String> {
    let out = batch::out_dir(w);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let started = Instant::now();
    let outcome = match w {
        Workload::ServeWarm => serve::run(w, opts, &out)?,
        _ => batch::run(w, opts, &out)?,
    };
    print!("{}", report::table(&outcome, w.name(), opts.trace));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = out.with_extension("json");
    report::write_results(
        &results,
        &outcome,
        vec![
            ("workload", w.name().into()),
            ("seed", opts.seed.into()),
            ("seconds", opts.seconds.into()),
            ("trace", opts.trace.into()),
            ("smoke", opts.smoke.into()),
            ("nproc", nproc.into()),
            ("elapsed_s", started.elapsed().as_secs_f64().into()),
        ],
    )?;
    println!("# results: {}", results.display());
    if opts.trace {
        println!("# spans: {}", out.join("spans.json").display());
    }
    Ok(report::result_line(&outcome, opts.trace))
}

/// `--smoke`: the pin comparator's self-test, then every workload's
/// quick-scale variant, traced and untraced, at seeds 0, 1 and 2; each
/// result line is validated against `BENCHMARK.json` and every output
/// against the pins.
fn smoke(base: &Opts) -> Result<String, String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    pins::self_test()?;
    let mut last = String::new();
    for w in ALL {
        for (seed, trace) in [(0, false), (1, true), (2, false)] {
            let opts = Opts {
                seed,
                trace,
                smoke: true,
                seconds: SMOKE_SECONDS.min(base.seconds),
            };
            let line = measure(w, &opts)?;
            report::validate(&line, &spec, trace)
                .map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
            if !line.contains("\"correct\":true") {
                return Err(format!(
                    "{} seed {seed}: outputs differ from the pins",
                    w.name()
                ));
            }
            if trace && !batch::out_dir(w).join("spans.json").exists() {
                return Err(format!("{}: the traced run wrote no span file", w.name()));
            }
            last = line;
        }
    }
    println!("# smoke: all workloads valid at seeds 0, 1, 2");
    Ok(last)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => rep::main(&args[1..]).map(|()| None),
        Some("bless") => pins::bless().map(|()| None),
        _ => parse(&args).and_then(|(w, opts)| match (w, opts.smoke) {
            (_, true) => smoke(&opts).map(Some),
            (Some(w), false) => measure(w, &opts).map(Some),
            (None, false) => Err(usage()),
        }),
    };
    match result {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("xtbench: {e}");
            std::process::exit(2);
        }
    }
}
