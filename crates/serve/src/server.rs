//! Route dispatch and service wiring: ties the HTTP layer to the
//! scheduler, registry, cache, and dashboard, and [`serve`]s connections
//! on a pool of reused threads.
//!
//! The figure-id validation is *shared* with the `figures` CLI
//! ([`xtsim::cli::select_figures`]): an id the CLI rejects with exit 2 is
//! exactly an id this service rejects with 404 — the two front ends cannot
//! drift.

use std::collections::HashMap;
use std::convert::Infallible;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Value;
use xtsim::ablations::all_ablations;
use xtsim::cli::{parse_scale, select_figures};
use xtsim::figures::{all_figures, Figure};
use xtsim::report::Scale;
use xtsim::sweep::{
    obj, run_figure_prepared, DiskCache, FigureMetrics, FigureSpec, PreparedKey, SweepConfig,
    ENGINE_VERSION,
};

use crate::dashboard;
use crate::http::{read_request, write_response, Request, Response};
use crate::queue::{
    Executor, Publish, Rejected, RunOutput, RunRecord, RunRequest, RunStatus, Scheduler,
};
use crate::registry::{make_record, Registry};

/// Everything a request handler needs; shared across connection threads.
pub struct AppState {
    /// Bounded-queue scheduler executing admitted runs.
    pub scheduler: Scheduler,
    /// Durable run registry, when enabled (shared with the executor).
    pub registry: Option<Arc<Registry>>,
    /// The process's result cache (for `/stats` and `/dashboard`), when
    /// caching is enabled; the executor runs on a clone of it.
    pub cache: Option<DiskCache>,
    /// Directory scanned for `BENCH_*.json` (the repo root).
    pub bench_root: PathBuf,
    /// Default sweep worker threads for requests that don't specify `jobs`.
    pub default_jobs: usize,
    /// Service start time, for `/stats` uptime.
    pub started: Instant,
}

/// The full figure catalog the service exposes: paper figures plus
/// ablations (the CLI gates ablations behind `--ablations`; the service
/// names them explicitly, so they are always addressable).
pub fn catalog() -> Vec<Figure> {
    let mut figs = all_figures();
    figs.extend(all_ablations());
    figs
}

/// Seconds since the Unix epoch (service-side timestamp for registry
/// records; never feeds simulated numbers).
pub fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Each (figure, scale)'s prepared job keys, from that figure's first run.
/// A figure's keys depend only on its id and scale, so they are fixed for
/// the life of the process, and serializing them again would be most of a
/// warm run's cost. At most one entry per catalog id and scale.
#[derive(Default)]
struct KeyMemo(Mutex<HashMap<FigureAtScale, Arc<[PreparedKey]>>>);

/// A catalog figure id and the scale it runs at.
type FigureAtScale = (&'static str, Scale);

impl KeyMemo {
    /// The keys of `spec`, the spec of figure `id` at `scale`: prepared on
    /// the first call for that pair (under the lock, so concurrent first
    /// runs prepare them once) and shared after.
    fn keys(&self, id: &'static str, scale: Scale, spec: &FigureSpec) -> Arc<[PreparedKey]> {
        let mut memo = self.0.lock().expect("key memo lock");
        Arc::clone(memo.entry((id, scale)).or_insert_with(|| spec.prepare_keys().into()))
    }
}

/// The production executor: run the figure through the cached sweep engine
/// exactly as the `figures` CLI does, publish the outcome, then append it
/// to the registry. The result JSON is `serde_json::to_string_pretty` of
/// the [`xtsim::report::FigureResult`] — byte-identical to the CLI's
/// `<id>.json` artifact for the same (figure, scale). Every run, and every
/// concurrent client, shares `cache`'s memory tier. A figure's job keys are
/// prepared on its first run at a scale and kept for the executor's
/// lifetime, so a warm run costs its verified lookups, assembly and
/// output; each run still looks up and verifies every job. The run's
/// record goes to the registry after the run is published, so clients
/// waiting for the result never wait for it; its line is promised first,
/// so a registry reader that saw the run finish finds the line. The run
/// table keeps only what its routes serve.
pub fn figure_executor(cache: Option<DiskCache>, registry: Option<Arc<Registry>>) -> Executor {
    let memo = KeyMemo::default();
    Arc::new(move |id: u64, req: &RunRequest, wait_secs: f64, publish: Publish<'_>| {
        let run = || -> Result<(String, FigureMetrics), String> {
            let fig = catalog()
                .into_iter()
                .find(|f| f.id == req.figure)
                .ok_or_else(|| format!("unknown figure id: {}", req.figure))?;
            let mut cfg = SweepConfig::threads(req.jobs);
            if let Some(cache) = &cache {
                cfg = cfg.with_cache(cache.clone());
            }
            let spec = fig.spec(req.scale);
            let keys = memo.keys(fig.id, req.scale, &spec);
            let (result, metrics) = run_figure_prepared(spec, &keys, &cfg);
            let result_json =
                serde_json::to_string_pretty(&result).map_err(|e| format!("serialize: {e:?}"))?;
            Ok((result_json, metrics))
        };
        let started = Instant::now();
        let outcome = run();
        let exec_secs = started.elapsed().as_secs_f64();
        if let Err(e) = &outcome {
            xtsim_obs::events::error(
                "xtsim_serve::executor",
                &format!("run {id} ({}) failed: {e}", req.figure),
                &[("run_id", &id.to_string()), ("figure", &req.figure)],
            );
        }
        let promise = registry.as_deref().map(Registry::promise);
        publish(
            outcome
                .as_ref()
                .map(|(result_json, m)| RunOutput {
                    result_json: result_json.as_str().into(),
                    wall_secs: m.wall_secs,
                    computed: m.computed,
                    cached: m.cached,
                })
                .map_err(String::clone),
        );
        if let Some(promise) = promise {
            // Record the outcome either way; a failed run is history too.
            let recorded = outcome.as_ref().map(|(_, m)| m).map_err(String::as_str);
            let record = make_record(id, req, recorded, wait_secs, exec_secs, unix_now());
            if let Err(e) = promise.keep(&record) {
                xtsim_obs::events::warn(
                    "xtsim_serve::executor",
                    &format!("registry append failed: {e}"),
                    &[("run_id", &id.to_string())],
                );
            }
        }
    })
}

// ------------------------------------------------------------------ routing

fn json_response(status: u16, v: &Value) -> Response {
    Response::json(status, serde_json::to_string_pretty(v).expect("value serializes"))
}

/// Public envelope for one run (the result body itself lives under
/// `/runs/<id>/result` so it can stay byte-identical to the CLI artifact).
fn run_envelope(rec: &RunRecord) -> Value {
    let mut fields = vec![
        ("id", rec.id.into()),
        ("figure", rec.request.figure.as_str().into()),
        ("scale", rec.request.scale.label().into()),
        ("jobs", rec.request.jobs.into()),
        ("status", rec.status.label().into()),
    ];
    if let Some(w) = rec.wait_secs {
        fields.push(("wait_secs", w.into()));
    }
    if let Some(e) = rec.exec_secs {
        fields.push(("exec_secs", e.into()));
    }
    if let Some(out) = &rec.output {
        fields.push(("wall_secs", out.wall_secs.into()));
        fields.push(("computed", out.computed.into()));
        fields.push(("cached", out.cached.into()));
        fields.push(("result", format!("/runs/{}/result", rec.id).into()));
    }
    if let Some(e) = &rec.error {
        fields.push(("error", e.as_str().into()));
    }
    obj(fields)
}

/// Parse and validate a `POST /runs` body into a [`RunRequest`].
fn parse_run_request(body: &[u8], default_jobs: usize) -> Result<RunRequest, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "body must be UTF-8 JSON"))?;
    let v = serde_json::from_str::<Value>(text)
        .map_err(|_| Response::error(400, "body must be a JSON object"))?;
    let o = v
        .as_object()
        .ok_or_else(|| Response::error(400, "body must be a JSON object"))?;

    let figure = o
        .get("figure")
        .and_then(Value::as_str)
        .ok_or_else(|| Response::error(400, "missing required field \"figure\""))?
        .to_string();
    // Same validation as `figures --only`: unknown ids are listed, 404.
    if let Err(unknown) = select_figures(catalog(), std::slice::from_ref(&figure)) {
        return Err(Response::error(
            404,
            &format!("unknown figure id(s): {}", unknown.join(", ")),
        ));
    }

    let scale = match o.get("scale") {
        None | Some(Value::Null) => Scale::Quick,
        Some(v) => v
            .as_str()
            .and_then(parse_scale)
            .ok_or_else(|| Response::error(400, "\"scale\" must be \"quick\" or \"full\""))?,
    };
    let jobs = match o.get("jobs") {
        None | Some(Value::Null) => default_jobs,
        Some(v) => match v.as_i64() {
            Some(n) if n >= 1 => n as usize,
            _ => return Err(Response::error(400, "\"jobs\" must be a positive integer")),
        },
    };
    Ok(RunRequest { figure, scale, jobs })
}

/// Normalized route pattern for metric labels: path parameters collapse to
/// `:id` so label cardinality stays bounded no matter how many runs exist.
fn route_label(method: &str, path: &str) -> &'static str {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segs.as_slice()) {
        ("GET", []) => "GET /",
        ("GET", ["figures"]) => "GET /figures",
        ("POST", ["runs"]) => "POST /runs",
        ("GET", ["runs"]) => "GET /runs",
        ("GET", ["runs", _]) => "GET /runs/:id",
        ("GET", ["runs", _, "result"]) => "GET /runs/:id/result",
        ("GET", ["registry"]) => "GET /registry",
        ("GET", ["stats"]) => "GET /stats",
        ("GET", ["metrics"]) => "GET /metrics",
        ("GET", ["dashboard"]) => "GET /dashboard",
        _ => "other",
    }
}

/// Dispatch one request against the service state, recording per-route
/// request count (by status class) and latency in the global registry.
pub fn handle(req: &Request, state: &AppState) -> Response {
    let route = route_label(req.method.as_str(), &req.path);
    let sw = xtsim_obs::Stopwatch::start();
    let resp = dispatch(req, state);
    xtsim_obs::histogram_with(
        "xtsim_http_request_seconds",
        "HTTP request handling latency by normalized route.",
        &[("route", route)],
    )
    .observe_since(&sw);
    let class: &str = match resp.status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    };
    xtsim_obs::counter_with(
        "xtsim_http_requests_total",
        "HTTP requests handled, by normalized route and status class.",
        &[("route", route), ("status", class)],
    )
    .inc();
    resp
}

fn dispatch(req: &Request, state: &AppState) -> Response {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", []) => json_response(
            200,
            &obj(vec![
                ("service", "xtsim-serve".into()),
                ("engine_version", ENGINE_VERSION.into()),
                (
                    "endpoints",
                    Value::Array(
                        [
                            "GET /figures",
                            "POST /runs",
                            "GET /runs",
                            "GET /runs/<id>",
                            "GET /runs/<id>/result",
                            "GET /registry",
                            "GET /stats",
                            "GET /metrics",
                            "GET /dashboard",
                        ]
                        .iter()
                        .map(|s| Value::Str((*s).to_string()))
                        .collect(),
                    ),
                ),
            ]),
        ),
        ("GET", ["figures"]) => {
            let figs: Vec<Value> = catalog()
                .iter()
                .map(|f| obj(vec![("id", f.id.into()), ("title", f.title.into())]))
                .collect();
            json_response(200, &Value::Array(figs))
        }
        ("POST", ["runs"]) => {
            let request = match parse_run_request(&req.body, state.default_jobs) {
                Ok(r) => r,
                Err(resp) => return resp,
            };
            match state.scheduler.submit(request) {
                Ok(id) => json_response(
                    202,
                    &obj(vec![
                        ("id", id.into()),
                        ("status", "queued".into()),
                        ("location", format!("/runs/{id}").into()),
                    ]),
                ),
                Err(Rejected::QueueFull) => {
                    Response::error(429, "run queue is full; retry after current runs drain")
                }
            }
        }
        ("GET", ["runs"]) => {
            let runs: Vec<Value> = state.scheduler.runs().iter().map(run_envelope).collect();
            json_response(200, &Value::Array(runs))
        }
        ("GET", ["runs", id]) => match id.parse::<u64>().ok().and_then(|id| state.scheduler.run(id)) {
            Some(rec) => json_response(200, &run_envelope(&rec)),
            None => Response::error(404, &format!("no such run: {id}")),
        },
        ("GET", ["runs", id, "result"]) => {
            match id.parse::<u64>().ok().and_then(|id| state.scheduler.run(id)) {
                Some(rec) => match (&rec.status, &rec.output) {
                    (RunStatus::Done, Some(out)) => {
                        // Raw pretty JSON: byte-identical to the CLI artifact.
                        Response::json(200, out.result_json.as_bytes())
                    }
                    (RunStatus::Failed, _) => Response::error(
                        500,
                        rec.error.as_deref().unwrap_or("run failed"),
                    ),
                    _ => json_response(202, &run_envelope(&rec)),
                },
                None => Response::error(404, &format!("no such run: {id}")),
            }
        }
        ("GET", ["registry"]) => match &state.registry {
            Some(reg) => {
                let replay = reg.replay();
                json_response(
                    200,
                    &obj(vec![
                        ("records", Value::Array(replay.records)),
                        ("skipped", replay.skipped.into()),
                    ]),
                )
            }
            None => Response::error(404, "registry disabled"),
        },
        ("GET", ["stats"]) => {
            let cache = state.cache.as_ref().map(DiskCache::stats);
            let registry = state.registry.as_ref().map(|reg| {
                let replay = reg.replay();
                obj(vec![
                    ("records", (replay.records.len() as u64).into()),
                    ("skipped", replay.skipped.into()),
                    ("path", reg.path().display().to_string().into()),
                ])
            });
            json_response(
                200,
                &obj(vec![
                    ("schema", "xtsim-serve-stats-v1".into()),
                    ("engine_version", ENGINE_VERSION.into()),
                    ("figures", (catalog().len() as u64).into()),
                    ("uptime_secs", state.started.elapsed().as_secs_f64().into()),
                    (
                        "queue",
                        serde_json::to_value(&state.scheduler.stats()).expect("stats serialize"),
                    ),
                    (
                        "cache",
                        match cache {
                            Some(c) => serde_json::to_value(&c).expect("cache stats serialize"),
                            None => Value::Null,
                        },
                    ),
                    (
                        "registry",
                        registry.unwrap_or(Value::Null),
                    ),
                ]),
            )
        }
        ("GET", ["metrics"]) => Response {
            status: 200,
            content_type: xtsim_obs::prom::CONTENT_TYPE,
            body: xtsim_obs::prom::render_global().into_bytes(),
        },
        ("GET", ["dashboard"]) => {
            let records = state.registry.as_ref().map(|r| r.replay().records).unwrap_or_default();
            let bench = dashboard::collect_bench_files(&state.bench_root);
            let cache = state.cache.as_ref().map(DiskCache::stats);
            let telemetry = xtsim_obs::snapshot();
            let html = dashboard::render(
                &records,
                &bench,
                cache.as_ref(),
                Some(&state.scheduler.stats()),
                Some(&telemetry),
            );
            Response::html(html)
        }
        (m, _) if m != "GET" && m != "POST" => Response::error(405, "method not allowed"),
        _ => Response::error(404, &format!("no such endpoint: {} {}", req.method, req.path)),
    }
}

/// Most pool threads that wait in `accept` at once: a thread that finishes
/// a connection while this many wait exits instead of waiting too.
const MAX_IDLE_THREADS: usize = 16;

/// `xtsim_http_threads_started_total`, registered once: connection
/// threads the accept pool started. Far fewer than the requests served
/// shows that threads are reused.
fn threads_started() -> &'static Arc<xtsim_obs::Counter> {
    static C: OnceLock<Arc<xtsim_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        xtsim_obs::counter(
            "xtsim_http_threads_started_total",
            "Connection threads started by the xtsim-serve accept pool.",
        )
    })
}

/// The leader/follower accept pool behind [`serve`]: every pool thread
/// takes turns in `accept` on the one listener and answers the connection
/// it accepted itself.
struct AcceptPool {
    listener: TcpListener,
    state: Arc<AppState>,
    /// Pool threads in `accept` or on their way to it. Kept exact by
    /// single read-modify-write operations; it publishes no other data.
    idle: AtomicUsize,
}

impl AcceptPool {
    /// Start one more pool thread, counted idle from the start.
    fn start_thread(self: &Arc<Self>) -> std::io::Result<()> {
        self.idle.fetch_add(1, Ordering::Relaxed);
        let pool = Arc::clone(self);
        match std::thread::Builder::new().name("xtsim-http".into()).spawn(move || pool.run()) {
            Ok(_) => {
                threads_started().inc();
                Ok(())
            }
            Err(e) => {
                self.idle.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// One pool thread: accept a connection and answer it, then wait in
    /// `accept` again unless [`MAX_IDLE_THREADS`] threads already do.
    fn run(self: Arc<Self>) {
        loop {
            let Ok((mut stream, _)) = self.listener.accept() else { continue };
            if self.idle.fetch_sub(1, Ordering::Relaxed) == 1 {
                // This thread took the last idle slot: start the next one
                // before reading, so a client that stalls for the whole
                // read timeout holds only this thread. A failed spawn is
                // not fatal: this thread accepts again once it is done.
                let _ = self.start_thread();
            }
            let resp = match read_request(&mut stream) {
                Some(req) => handle(&req, &self.state),
                None => Response::error(400, "malformed request"),
            };
            write_response(&mut stream, &resp);
            // Rejoin before the connection closes, so a client that
            // connects again as soon as it sees the close finds this
            // thread idle rather than making the pool start another.
            let rejoined = self.idle.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_IDLE_THREADS).then_some(n + 1)
            });
            if rejoined.is_err() {
                return;
            }
        }
    }
}

/// Serve `listener` on a leader/follower pool of connection threads. Each
/// pool thread loops `accept` → [`read_request`] → [`handle`] →
/// [`write_response`] on its own connection (one request per connection,
/// `Connection: close`; figure work runs on the scheduler's workers, never
/// here). A thread that takes the last idle slot first starts one more, so
/// a thread is always in `accept` and a stalled client blocks no one; a
/// thread that comes back while [`MAX_IDLE_THREADS`] wait exits.
///
/// The calling thread starts the first pool thread and then only blocks,
/// so a panicking handler ends its own thread and nothing else, and no
/// burst of connections can end `serve`. It returns only if that first
/// thread cannot be started.
pub fn serve(listener: TcpListener, state: Arc<AppState>) -> std::io::Result<Infallible> {
    let pool = Arc::new(AcceptPool { listener, state, idle: AtomicUsize::new(0) });
    pool.start_thread()?;
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::executor;
    use std::collections::BTreeMap as Map;

    fn stub_state() -> AppState {
        let exec = executor(|_id, req: &RunRequest, _wait: f64| {
            Ok(RunOutput {
                result_json: format!("{{\n  \"id\": \"{}\"\n}}", req.figure).into(),
                wall_secs: 0.01,
                computed: 2,
                cached: 1,
            })
        });
        AppState {
            scheduler: Scheduler::new(4, 1, exec),
            registry: None,
            cache: None,
            bench_root: PathBuf::from("."),
            default_jobs: 2,
            started: Instant::now(),
        }
    }

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), query: String::new(), body: vec![] }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_json(resp: &Response) -> Value {
        serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
        v.as_object().unwrap().get(name).unwrap()
    }

    fn wait_done(state: &AppState, id: u64) {
        for _ in 0..2000 {
            let rec = state.scheduler.run(id).unwrap();
            if rec.status == RunStatus::Done || rec.status == RunStatus::Failed {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("run {id} did not finish");
    }

    #[test]
    fn submit_poll_fetch_result_roundtrip() {
        let state = stub_state();
        let resp = handle(&post("/runs", "{\"figure\": \"fig02\"}"), &state);
        assert_eq!(resp.status, 202);
        let id = field(&body_json(&resp), "id").as_i64().unwrap() as u64;
        wait_done(&state, id);

        let resp = handle(&get(&format!("/runs/{id}")), &state);
        assert_eq!(resp.status, 200);
        let env = body_json(&resp);
        assert_eq!(field(&env, "status").as_str(), Some("done"));
        assert_eq!(field(&env, "figure").as_str(), Some("fig02"));
        // Defaults applied: jobs from state, scale quick.
        assert_eq!(field(&env, "jobs").as_i64(), Some(2));
        assert_eq!(field(&env, "scale").as_str(), Some("quick"));
        // Queue timing surfaces on the envelope once the run has run.
        assert!(field(&env, "wait_secs").as_f64().unwrap() >= 0.0);
        assert!(field(&env, "exec_secs").as_f64().unwrap() >= 0.0);

        // The result endpoint returns the executor's bytes verbatim.
        let resp = handle(&get(&format!("/runs/{id}/result")), &state);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\n  \"id\": \"fig02\"\n}");
    }

    /// A registry reader that starts once a run is published finds the
    /// run's line, although the executor writes it after publishing.
    #[test]
    fn a_published_run_is_in_the_registry() {
        let dir = std::env::temp_dir().join(format!("xtsim-published-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Arc::new(Registry::open(&dir).unwrap());
        let exec = figure_executor(None, Some(Arc::clone(&registry)));
        let req = RunRequest { figure: "figZZ".into(), scale: Scale::Quick, jobs: 1 };
        std::thread::scope(|s| {
            let mut reader = None;
            exec(1, &req, 0.0, &mut |outcome| {
                assert!(outcome.is_err(), "an unknown figure fails its run");
                let registry = Arc::clone(&registry);
                reader = Some(s.spawn(move || registry.replay().records.len()));
                // Time for a reader that did not wait to read too early.
                std::thread::sleep(std::time::Duration::from_millis(50));
            });
            assert_eq!(reader.expect("published").join().unwrap(), 1);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The memo hands every figure and ablation at both scales the keys a
    /// fresh spec prepares, one entry per (id, scale).
    #[test]
    fn memo_keys_equal_fresh_keys() {
        let memo = KeyMemo::default();
        let figs = catalog();
        let scales = [Scale::Quick, Scale::Full];
        for fig in &figs {
            for scale in scales {
                memo.keys(fig.id, scale, &fig.spec(scale));
            }
        }
        for fig in &figs {
            for scale in scales {
                let fresh = fig.spec(scale);
                let kept = memo.keys(fig.id, scale, &fresh);
                assert_eq!(kept.len(), fresh.jobs.len(), "{} {scale:?}", fig.id);
                for (k, job) in kept.iter().zip(&fresh.jobs) {
                    let want = job.key.prepare();
                    assert_eq!((&k.digest, &k.key_json), (&want.digest, &want.key_json));
                }
            }
        }
        assert_eq!(memo.0.lock().unwrap().len(), 2 * figs.len());
    }

    #[test]
    fn unknown_figure_is_404_with_ids_listed() {
        let state = stub_state();
        let resp = handle(&post("/runs", "{\"figure\": \"figZZ\"}"), &state);
        assert_eq!(resp.status, 404);
        let err = body_json(&resp);
        assert!(field(&err, "error").as_str().unwrap().contains("figZZ"));
        // Ablations are addressable without any --ablations analogue.
        let resp = handle(&post("/runs", "{\"figure\": \"abl-eager\"}"), &state);
        assert_eq!(resp.status, 202);
    }

    #[test]
    fn bad_requests_are_400() {
        let state = stub_state();
        for body in [
            "",                                     // not JSON
            "[1,2]",                                // not an object
            "{}",                                   // missing figure
            "{\"figure\": \"fig02\", \"scale\": \"huge\"}",
            "{\"figure\": \"fig02\", \"jobs\": 0}",
        ] {
            let resp = handle(&post("/runs", body), &state);
            assert_eq!(resp.status, 400, "body {body:?} must be rejected");
        }
        // Unknown keys are ignored, so bodies from older clients still run.
        let body = "{\"figure\": \"fig02\", \"threads\": -1}";
        assert_eq!(handle(&post("/runs", body), &state).status, 202);
        assert_eq!(handle(&get("/runs/999"), &state).status, 404);
        assert_eq!(handle(&get("/nope"), &state).status, 404);
        let del = Request {
            method: "DELETE".into(),
            path: "/runs".into(),
            query: String::new(),
            body: vec![],
        };
        assert_eq!(handle(&del, &state).status, 405);
    }

    /// A body nested past the JSON parser's depth cap is a 400, and the
    /// handler keeps serving: the parser must not recurse until the stack
    /// overflows and aborts the process.
    #[test]
    fn deeply_nested_body_is_400_and_serving_continues() {
        let state = stub_state();
        let body = "[".repeat(20_000) + &"]".repeat(20_000);
        assert_eq!(handle(&post("/runs", &body), &state).status, 400);
        assert_eq!(handle(&get("/figures"), &state).status, 200);
    }

    #[test]
    fn stats_and_figures_shapes() {
        let state = stub_state();
        let resp = handle(&get("/stats"), &state);
        assert_eq!(resp.status, 200);
        let stats = body_json(&resp);
        assert_eq!(field(&stats, "schema").as_str(), Some("xtsim-serve-stats-v1"));
        let queue = field(&stats, "queue").as_object().unwrap().clone();
        for k in ["queued", "running", "done", "failed", "rejected", "capacity", "workers"] {
            assert!(queue.contains_key(k), "queue stats missing {k}");
        }
        assert_eq!(field(&stats, "cache"), &Value::Null);
        assert_eq!(field(&stats, "registry"), &Value::Null);

        let resp = handle(&get("/figures"), &state);
        let figs = body_json(&resp);
        let ids: Map<&str, ()> = figs
            .as_array()
            .unwrap()
            .iter()
            .map(|f| (field(f, "id").as_str().unwrap(), ()))
            .collect();
        assert!(ids.contains_key("fig02") && ids.contains_key("table1"));
        assert!(ids.contains_key("abl-eager"), "ablations belong to the catalog");

        let resp = handle(&get("/dashboard"), &state);
        assert_eq!(resp.status, 200);
        assert!(std::str::from_utf8(&resp.body).unwrap().contains("<h1>"));
    }

    #[test]
    fn metrics_endpoint_exposes_http_and_queue_series() {
        let state = stub_state();
        // Drive one full run so queue histograms have observations, then a
        // known-404 so the 4xx class exists.
        let resp = handle(&post("/runs", "{\"figure\": \"fig02\"}"), &state);
        let id = field(&body_json(&resp), "id").as_i64().unwrap() as u64;
        wait_done(&state, id);
        let _ = handle(&get("/runs/999999"), &state);

        let resp = handle(&get("/metrics"), &state);
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain"));
        let text = std::str::from_utf8(&resp.body).unwrap();
        assert!(text.contains("# TYPE xtsim_http_requests_total counter"));
        assert!(text.contains("# TYPE xtsim_queue_wait_seconds histogram"));
        assert!(text.contains("# TYPE xtsim_queue_service_seconds histogram"));
        assert!(
            text.contains("route=\"POST /runs\""),
            "per-route series missing: {text}"
        );
        assert!(text.contains("route=\"GET /runs/:id\""), "path params must normalize");
        assert!(text.contains("status=\"4xx\""));
        // Histogram invariants hold in the served bytes.
        assert!(text.contains("xtsim_queue_wait_seconds_bucket{le=\"+Inf\"}"));
        assert!(text.contains("xtsim_queue_wait_seconds_count"));
    }
}
