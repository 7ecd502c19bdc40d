#![forbid(unsafe_code)]
//! Regenerate the paper's tables and figures on the simulated platform.
//!
//! ```text
//! figures [--full|--quick|--scale quick|full] [--only ID[,ID...]] [--all]
//!         [--ablations] [--jobs N] [--no-cache]
//!         [--cache-dir DIR] [--out DIR] [--trace DIR] [--metrics FILE]
//! ```
//!
//! Default scale is `--quick` (reduced sweeps, seconds per figure); `--full`
//! runs the paper's ranges (the large POP/AORSA figures take minutes).
//!
//! Figures are decomposed into sweep-point jobs and executed by the parallel
//! cached engine (`xtsim::sweep`): `--jobs N` runs N worker threads (default:
//! available parallelism), and results are cached content-addressed under
//! `results/cache/` (override with `--cache-dir`, disable with `--no-cache`)
//! so a rerun only recomputes what changed. The cache, opened once for all
//! figures, is two-tier: this run's in-memory tier over the on-disk store.
//! Output is byte-identical for any `--jobs` value, warm or cold.
//!
//! Results are printed and also written to `DIR` (default `results/`) as
//! `<id>.csv` and `<id>.json`. Output locations are created before the first
//! figure runs: one that cannot be created exits 2 naming its flag, and a
//! failed write exits 1 naming the file, never a panic.
//!
//! Observability: `--metrics FILE` writes the per-figure records the engine
//! returns for every run (cache hits/misses, wall-clock, and each job's cost
//! hint, start offset and wall time). `--trace DIR` is the one flag that
//! turns span capture on: it writes one Chrome trace-event JSON file per
//! *computed* job into `DIR` (load in Perfetto / `chrome://tracing`) and
//! fills the records' simulated-time breakdown by span category.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xtsim::ablations::all_ablations;
use xtsim::cli::{parse_positive, parse_scale, select_figures};
use xtsim::figures::{all_figures, Figure};
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, DiskCache, FigureMetrics, SweepConfig};

struct Args {
    scale: Scale,
    only: Option<Vec<String>>,
    ablations: bool,
    out: PathBuf,
    jobs: usize,
    cache: bool,
    cache_dir: PathBuf,
    trace_dir: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Quick,
        only: None,
        ablations: false,
        out: PathBuf::from("results"),
        jobs: default_jobs(),
        cache: true,
        cache_dir: DiskCache::default_dir(),
        trace_dir: None,
        metrics: None,
    };
    let mut it = std::env::args().skip(1);
    // A flag missing its value, or a bad token, exits 2 and names the flag
    // (never a panic); numeric flags share xtsim::cli validation with
    // xtsim-serve.
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.scale = Scale::Full,
            "--quick" => args.scale = Scale::Quick,
            "--scale" => {
                let v = need(&mut it, "--scale");
                args.scale = parse_scale(&v).unwrap_or_else(|| {
                    eprintln!("--scale needs quick|full, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--ablations" => args.ablations = true,
            // Explicit "everything" flag (the default set is also everything;
            // this exists so scripts can say what they mean).
            "--all" => args.only = None,
            "--only" => {
                let ids = need(&mut it, "--only");
                args.only = Some(ids.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--out" => args.out = PathBuf::from(need(&mut it, "--out")),
            "--jobs" => {
                let v = need(&mut it, "--jobs");
                args.jobs = parse_positive("--jobs", &v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--no-cache" => args.cache = false,
            "--cache-dir" => args.cache_dir = PathBuf::from(need(&mut it, "--cache-dir")),
            "--trace" => args.trace_dir = Some(PathBuf::from(need(&mut it, "--trace"))),
            "--metrics" => args.metrics = Some(PathBuf::from(need(&mut it, "--metrics"))),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--full|--quick|--scale quick|full] [--only ID[,ID...]] [--all]\n\
                     \x20              [--ablations] [--jobs N] [--no-cache]\n\
                     \x20              [--cache-dir DIR] [--out DIR] [--trace DIR] [--metrics FILE]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn make_config(args: &Args) -> SweepConfig {
    let mut cfg = SweepConfig::threads(args.jobs);
    if args.cache {
        match DiskCache::new(&args.cache_dir) {
            Ok(cache) => cfg = cfg.with_cache(cache),
            Err(e) => eprintln!(
                "warning: cannot open cache at {}: {e}; running uncached",
                args.cache_dir.display()
            ),
        }
    }
    if let Some(dir) = &args.trace_dir {
        cfg = cfg.with_trace_dir(dir.clone());
    }
    cfg
}

/// Create `dir` for `flag`'s output, or exit 2 naming the flag and the OS
/// error before any figure has run.
fn create_output_dir(flag: &str, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{flag}: cannot create directory {}: {e}", dir.display());
        std::process::exit(2);
    }
}

/// Write one output file, or exit 1 naming it and the OS error.
fn write_output(path: &Path, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let mut figures: Vec<Figure> = all_figures();
    if args.ablations {
        figures.extend(all_ablations());
    }
    if let Some(only) = &args.only {
        // Every requested id must match; a typo must not silently shrink
        // the run (xtsim-serve 404s on the same validation).
        figures = match select_figures(figures, only) {
            Ok(figures) => figures,
            Err(unknown) => {
                eprintln!(
                    "unknown figure id(s): {}{}",
                    unknown.join(", "),
                    if args.ablations { "" } else { " (ablation ids need --ablations)" }
                );
                std::process::exit(2);
            }
        };
    }
    create_output_dir("--out", &args.out);
    if let Some(parent) = args.metrics.as_deref().and_then(Path::parent) {
        if !parent.as_os_str().is_empty() {
            create_output_dir("--metrics", parent);
        }
    }
    let cfg = make_config(&args);
    println!(
        "# Cray XT4 evaluation reproduction — regenerating {} figure(s) at {} scale ({} worker{}, cache {})\n",
        figures.len(),
        args.scale.label(),
        args.jobs,
        if args.jobs == 1 { "" } else { "s" },
        if cfg.cache.is_some() { "on" } else { "off" },
    );
    let mut all_metrics: Vec<FigureMetrics> = Vec::new();
    let t_all = Instant::now();
    for fig in figures {
        let (result, m) = run_figure(fig.spec(args.scale), &cfg);
        println!("{}", result.render());
        println!(
            "({}: {} job(s), {} computed, {} cached, {:.1?})\n",
            fig.id,
            m.total_jobs,
            m.computed,
            m.cached,
            Duration::from_secs_f64(m.wall_secs)
        );
        if m.key_mismatches > 0 {
            eprintln!(
                "warning: {}: {} cache entr{} failed key verification (recomputed)",
                fig.id,
                m.key_mismatches,
                if m.key_mismatches == 1 { "y" } else { "ies" }
            );
        }
        all_metrics.push(m);
        let csv_path = args.out.join(format!("{}.csv", fig.id));
        write_output(&csv_path, result.to_csv().as_bytes());
        let json = serde_json::to_string_pretty(&result).expect("FigureResult serializes");
        write_output(&args.out.join(format!("{}.json", fig.id)), json.as_bytes());
    }
    if let Some(path) = &args.metrics {
        let record = xtsim::sweep::obj(vec![
            ("scale", args.scale.label().into()),
            ("jobs", (args.jobs as u32).into()),
            ("wall_secs", t_all.elapsed().as_secs_f64().into()),
            ("figures", serde_json::to_value(&all_metrics).expect("metrics serialize")),
        ]);
        let json = serde_json::to_string_pretty(&record).expect("metrics record serializes");
        write_output(path, json.as_bytes());
        println!("metrics record written to {}", path.display());
    }
    if let Some(dir) = &args.trace_dir {
        let n: usize = all_metrics.iter().map(|m| m.trace_files.len()).sum();
        println!("{n} trace file(s) written to {} (load in Perfetto)", dir.display());
    }
    println!(
        "results written to {} ({} job(s) computed, {} from cache, total {:.1?})",
        args.out.display(),
        all_metrics.iter().map(|m| m.computed).sum::<usize>(),
        all_metrics.iter().map(|m| m.cached).sum::<usize>(),
        t_all.elapsed()
    );
}
