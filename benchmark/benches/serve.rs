//! `serve-warm`: drive the real `xtsim-serve` binary with two closed-loop
//! clients over a cache filled before the window.
//!
//! Each request is a `POST /runs` followed by polling
//! `GET /runs/:id/result` every 0.5 ms until it answers 200; the result
//! bytes are checked against the pins. Every job is a cache hit, so the
//! DES engine is bypassed and the window measures the HTTP and queue
//! layers, the memory-tier cache reads and JSON serialization.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serde::Value;
use xtsim::sweep::DiskCache;

use crate::batch::{fold, spawn_rep, ChildGuard};
use crate::rep::Mode;
use crate::report::Outcome;
use crate::workload::{Rng, Workload};
use crate::{pins, procfs, prom, stats, Opts};

const CLIENTS: u64 = 2;
const POLL: Duration = Duration::from_micros(500);
/// A request still unanswered after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The server keeps every run's record, so its memory grows with the
/// requests a window completes; its peak is read at this fixed load point
/// (or at the end of a window too short to reach it).
const RSS_AT_REQUESTS: u64 = 10_000;

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). Returns the status and body.
fn http(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without header end")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or("response without status")?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// Timings of one completed request, in seconds.
struct Sample {
    latency: f64,
    submit: f64,
    result: f64,
    polls: u64,
}

enum Failure {
    Rejected,
    Other(String),
}

/// Submit one run for `figure` and poll until its result arrives; check it
/// against the pin.
fn request(port: u16, figure: &str, pin: &str) -> Result<Sample, Failure> {
    let t0 = Instant::now();
    let body = format!("{{\"figure\": \"{figure}\", \"scale\": \"quick\"}}");
    let (status, reply) = http(port, "POST", "/runs", &body).map_err(Failure::Other)?;
    let submit = t0.elapsed().as_secs_f64();
    match status {
        202 => {}
        429 => return Err(Failure::Rejected),
        s => return Err(Failure::Other(format!("{figure}: POST /runs answered {s}"))),
    }
    let id = serde_json::from_str::<Value>(&String::from_utf8_lossy(&reply))
        .ok()
        .and_then(|v| {
            v.as_object()
                .and_then(|o| o.get("id"))
                .and_then(Value::as_i64)
        })
        .ok_or_else(|| Failure::Other(format!("{figure}: no run id in the 202 reply")))?;
    let path = format!("/runs/{id}/result");
    let mut polls = 0;
    loop {
        let t = Instant::now();
        let (status, reply) = http(port, "GET", &path, "").map_err(Failure::Other)?;
        polls += 1;
        match status {
            200 => {
                let text = String::from_utf8_lossy(&reply);
                pins::check_text(figure, &text, pin).map_err(Failure::Other)?;
                return Ok(Sample {
                    latency: t0.elapsed().as_secs_f64(),
                    submit,
                    result: t.elapsed().as_secs_f64(),
                    polls,
                });
            }
            202 if t0.elapsed() < REQUEST_TIMEOUT => std::thread::sleep(POLL),
            202 => {
                return Err(Failure::Other(format!(
                    "{figure}: no result after {REQUEST_TIMEOUT:?}"
                )))
            }
            s => return Err(Failure::Other(format!("{figure}: GET {path} answered {s}"))),
        }
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    rejected: u64,
    errors: Vec<String>,
}

/// Completed-request count shared by the clients, and the server's peak
/// memory once that count reaches [`RSS_AT_REQUESTS`].
struct Progress<'a> {
    done: AtomicU64,
    rss_mb: OnceLock<f64>,
    server_pid: &'a str,
}

fn client(
    port: u16,
    pins: &[(String, String)],
    rng: &mut Rng,
    until: Instant,
    progress: &Progress,
) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < until {
        let (figure, pin) = &pins[rng.below(pins.len())];
        log.attempted += 1;
        match request(port, figure, pin) {
            Ok(s) => {
                log.samples.push(s);
                if progress.done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
                    if let Some(mb) = procfs::peak_rss_mb(progress.server_pid) {
                        let _ = progress.rss_mb.set(mb);
                    }
                }
            }
            Err(Failure::Rejected) => log.rejected += 1,
            Err(Failure::Other(e)) => log.errors.push(e),
        }
    }
    log
}

/// A running `xtsim-serve`; killed and reaped on drop.
struct Server {
    child: ChildGuard,
    port: u16,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

fn serve_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let bin = exe.with_file_name("xtsim-serve");
    bin.exists()
        .then_some(bin)
        .ok_or_else(|| format!("xtsim-serve not built next to {}", exe.display()))
}

fn start_server(dir: &Path) -> Result<Server, String> {
    let mut cmd = Command::new(serve_binary()?);
    cmd.args(["--port", "0", "--jobs", "1", "--max-concurrent", "2"]);
    cmd.arg("--cache-dir").arg(dir.join("cache"));
    cmd.arg("--registry-dir").arg(dir.join("registry"));
    cmd.arg("--bench-root").arg(dir);
    let mut child = ChildGuard::new(
        cmd.stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn xtsim-serve: {e}"))?,
    );
    let mut stdout = BufReader::new(child.child().stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("read xtsim-serve banner: {e}"))?;
    let port = line
        .trim()
        .rsplit_once(':')
        .and_then(|(_, p)| p.parse().ok())
        .ok_or_else(|| format!("unexpected xtsim-serve banner {line:?}"))?;
    Ok(Server {
        child,
        port,
        _stdout: stdout,
    })
}

pub fn run(w: Workload, opts: &Opts, out: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let dir = out.join("serve");
    // Fill the cache the server will read, in the seed's figure and job
    // order. A traced run times and counts the engine layers on that fill
    // and on repeats of it in a scratch directory.
    let fill_mode = if opts.trace { Mode::Light } else { Mode::Plain };
    let fill = spawn_rep(w, opts.seed, fill_mode, &dir, opts.smoke, None)?;
    fill.record(&mut o);
    if opts.trace {
        let mut reps = vec![(Mode::Light, fill)];
        for mode in [Mode::Captured, Mode::Light, Mode::Captured] {
            let spans = (mode == Mode::Captured).then(|| out.join("spans.json"));
            let r = spawn_rep(
                w,
                opts.seed,
                mode,
                &out.join("rep"),
                opts.smoke,
                spans.as_deref(),
            )?;
            r.record(&mut o);
            reps.push((mode, r));
        }
        fold(&mut o, &reps);
        let _ = std::fs::remove_dir_all(out.join("rep"));
    }
    let pins = pins::load(w, opts.smoke)?;

    // Start-up: spawn until listening, then one warm-up request per figure
    // (moving every entry into the memory tier). The last server stays up.
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = start_server(&dir)?;
        for (figure, pin) in &pins {
            o.attempted += 1;
            if let Err(e) = request(s.port, figure, pin) {
                o.fail(match e {
                    Failure::Rejected => format!("{figure}: warm-up rejected"),
                    Failure::Other(e) => e,
                });
            }
        }
        o.add("setup_s", t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one setup");
    let pid = server.child.child().id().to_string();

    let progress = Progress {
        done: AtomicU64::new(0),
        rss_mb: OnceLock::new(),
        server_pid: &pid,
    };
    let cpu0 = procfs::cpu_secs(&pid).ok_or("cannot read the server's /proc stat")?;
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(opts.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let pins = &pins;
                let mut rng = Rng::new(opts.seed.wrapping_mul(CLIENTS).wrapping_add(k));
                let (port, progress) = (server.port, &progress);
                s.spawn(move || client(port, pins, &mut rng, until, progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_secs(&pid).ok_or("cannot read the server's /proc stat")? - cpu0;
    let rss = match progress.rss_mb.get() {
        Some(&mb) => mb,
        None => procfs::peak_rss_mb(&pid).ok_or("cannot read the server's /proc status")?,
    };
    let (status, page) = http(server.port, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let scrape = String::from_utf8_lossy(&page).into_owned();
    drop(server);

    let (mut latencies, mut submits, mut results) = (Vec::new(), Vec::new(), Vec::new());
    let (mut polls, mut rejected) = (0, 0);
    for log in logs {
        o.attempted += log.attempted;
        rejected += log.rejected;
        for _ in 0..log.rejected {
            o.fail("request rejected with 429".into());
        }
        for e in log.errors {
            o.fail(e);
        }
        for s in log.samples {
            latencies.push(s.latency);
            submits.push(s.submit);
            results.push(s.result);
            polls += s.polls;
        }
    }
    let done = latencies.len().max(1) as f64;
    if !latencies.is_empty() {
        o.add("latency_p50_ms", stats::median(&latencies) * 1e3);
        o.add(
            "serve.req_p99_ms",
            stats::percentile(&latencies, 99.0) * 1e3,
        );
        o.add("serve.submit_ms", stats::median(&submits) * 1e3);
        o.add("serve.result_ms", stats::median(&results) * 1e3);
    }
    o.add("throughput_per_s", latencies.len() as f64 / window);
    o.add("cpu_ms_per_req", cpu * 1e3 / done);
    o.add("peak_rss_mb", rss);
    o.add("serve.polls_per_req", polls as f64 / done);
    o.add("serve.rejected", rejected as f64);

    // Server-side layers, from the /metrics page after the window.
    for (name, family, scale) in [
        ("queue.wait_ms", "xtsim_queue_wait_seconds", 1e3),
        ("queue.service_ms", "xtsim_queue_service_seconds", 1e3),
        ("serve.http.server_ms", "xtsim_http_request_seconds", 1e3),
        ("core.cache.lookup_us", "xtsim_cache_lookup_seconds", 1e6),
    ] {
        o.samples.insert(
            name.into(),
            vec![prom::hist_mean(&scrape, family, &[]) * scale],
        );
    }
    let lookups = "xtsim_cache_lookups_total";
    for (name, tier) in [
        ("core.cache.mem_hits", "memory"),
        ("core.cache.disk_hits", "disk"),
    ] {
        o.samples.insert(
            name.into(),
            vec![prom::sum(
                &scrape,
                lookups,
                &[("result", "hit"), ("tier", tier)],
            )],
        );
    }
    if let Ok(cache) = DiskCache::new(dir.join("cache")) {
        let s = cache.stats();
        o.samples
            .insert("core.cache.entries".into(), vec![s.entries as f64]);
        o.samples
            .insert("core.cache.disk_bytes".into(), vec![s.bytes as f64]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(o)
}
