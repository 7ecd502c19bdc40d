#![forbid(unsafe_code)]
//! `xtsim-serve` — serve figure sweeps over HTTP, or render the dashboard
//! one-shot.
//!
//! ```text
//! xtsim-serve [--port N] [--queue-cap N] [--max-concurrent N] [--jobs N]
//!             [--cache-dir DIR | --no-cache] [--registry-dir DIR]
//!             [--bench-root DIR] [--dashboard DIR] [--events FILE]
//! ```
//!
//! Server mode (default) binds `127.0.0.1:<port>` (`--port 0` picks an
//! ephemeral port) and prints one `listening on http://...` line for
//! scripts to parse. `--dashboard DIR` instead renders the static
//! dashboard from the registry and `BENCH_*.json` files into
//! `DIR/index.html` and exits.
//!
//! The result cache is opened once, before that split; every run, `/stats`
//! and the dashboard share that handle. A cache that cannot be opened is
//! one warning, and the service runs uncached.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use xtsim::sweep::DiskCache;
use xtsim_serve::queue::Scheduler;
use xtsim_serve::registry::Registry;
use xtsim_serve::dashboard;
use xtsim_serve::server::{figure_executor, serve, AppState};

struct Args {
    port: u16,
    queue_cap: usize,
    max_concurrent: usize,
    jobs: usize,
    cache: bool,
    cache_dir: PathBuf,
    registry_dir: PathBuf,
    bench_root: PathBuf,
    dashboard: Option<PathBuf>,
    events: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 8650,
        queue_cap: 16,
        max_concurrent: 2,
        jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        cache: true,
        cache_dir: DiskCache::default_dir(),
        registry_dir: Registry::default_dir(),
        bench_root: PathBuf::from("."),
        dashboard: None,
        events: None,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                args.port = need(&mut it, "--port").parse().unwrap_or_else(|_| {
                    eprintln!("--port needs a number (0 = ephemeral)");
                    std::process::exit(2);
                });
            }
            "--queue-cap" => {
                args.queue_cap = parse_positive(&need(&mut it, "--queue-cap"), "--queue-cap");
            }
            "--max-concurrent" => {
                args.max_concurrent =
                    parse_positive(&need(&mut it, "--max-concurrent"), "--max-concurrent");
            }
            "--jobs" => args.jobs = parse_positive(&need(&mut it, "--jobs"), "--jobs"),
            "--no-cache" => args.cache = false,
            "--cache-dir" => args.cache_dir = PathBuf::from(need(&mut it, "--cache-dir")),
            "--registry-dir" => args.registry_dir = PathBuf::from(need(&mut it, "--registry-dir")),
            "--bench-root" => args.bench_root = PathBuf::from(need(&mut it, "--bench-root")),
            "--dashboard" => args.dashboard = Some(PathBuf::from(need(&mut it, "--dashboard"))),
            "--events" => args.events = Some(PathBuf::from(need(&mut it, "--events"))),
            "--help" | "-h" => {
                println!(
                    "usage: xtsim-serve [--port N] [--queue-cap N] [--max-concurrent N] [--jobs N]\n\
                     \x20                  [--cache-dir DIR | --no-cache] [--registry-dir DIR]\n\
                     \x20                  [--bench-root DIR] [--dashboard DIR] [--events FILE]"
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

// Shared xtsim::cli validation (same messages as the figures CLI): a bad
// token exits 2 naming the flag and quoting the token.
fn parse_positive(v: &str, flag: &str) -> usize {
    xtsim::cli::parse_positive(flag, v).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.events {
        // Structured JSONL event log: all levels go to the file, WARN+
        // still mirrors to stderr either way.
        if let Err(e) = xtsim_obs::events::set_json_path(path) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let registry = match Registry::open(&args.registry_dir) {
        Ok(reg) => Some(Arc::new(reg)),
        Err(e) => {
            xtsim_obs::events::warn(
                "xtsim_serve::main",
                &format!(
                    "cannot open registry at {}: {e}; running without one",
                    args.registry_dir.display()
                ),
                &[("registry_dir", &args.registry_dir.display().to_string())],
            );
            None
        }
    };

    let opened = args.cache.then(|| DiskCache::new(&args.cache_dir));
    let cache = match opened {
        None => None,
        Some(Ok(cache)) => Some(cache),
        Some(Err(e)) => {
            xtsim_obs::events::warn(
                "xtsim_serve::main",
                &format!(
                    "cannot open cache at {}: {e}; running uncached",
                    args.cache_dir.display()
                ),
                &[("cache_dir", &args.cache_dir.display().to_string())],
            );
            None
        }
    };

    if let Some(dir) = &args.dashboard {
        // One-shot: render from durable state only (no live queue).
        let records = registry.as_ref().map(|r| r.replay().records).unwrap_or_default();
        let bench = dashboard::collect_bench_files(&args.bench_root);
        let cache = cache.as_ref().map(DiskCache::stats);
        let html = dashboard::render(&records, &bench, cache.as_ref(), None, None);
        match dashboard::write_to(dir, &html) {
            Ok(path) => println!("dashboard written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write dashboard to {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let exec = figure_executor(cache.clone(), registry.clone());
    let state = Arc::new(AppState {
        scheduler: Scheduler::new(args.queue_cap, args.max_concurrent, exec),
        registry,
        cache,
        bench_root: args.bench_root.clone(),
        default_jobs: args.jobs,
        started: Instant::now(),
    });

    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let addr = listener.local_addr().expect("bound listener has an address");
    // One parseable line for scripts (the CI smoke greps the port).
    println!("xtsim-serve listening on http://{addr}");
    println!(
        "  queue capacity {}, max {} concurrent run(s), {} sweep worker(s) per run, cache {}",
        args.queue_cap,
        args.max_concurrent,
        args.jobs,
        if state.cache.is_some() { "on" } else { "off" }
    );
    let Err(e) = serve(listener, state);
    eprintln!("error: cannot start a connection thread: {e}");
    std::process::exit(1);
}
