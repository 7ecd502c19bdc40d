//! Route dispatch and service wiring: ties the HTTP layer to the
//! scheduler, registry, cache, and dashboard.
//!
//! The figure-id validation is *shared* with the `figures` CLI
//! ([`xtsim::cli::select_figures`]): an id the CLI rejects with exit 2 is
//! exactly an id this service rejects with 404 — the two front ends cannot
//! drift.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use serde::Value;
use xtsim::ablations::all_ablations;
use xtsim::cli::{parse_scale, select_figures};
use xtsim::figures::{all_figures, Figure};
use xtsim::report::Scale;
use xtsim::sweep::{obj, run_figure, DiskCache, FigureMetrics, SweepConfig, ENGINE_VERSION};

use crate::dashboard;
use crate::http::{read_request, write_response, Request, Response};
use crate::queue::{Executor, Rejected, RunOutput, RunRecord, RunRequest, RunStatus, Scheduler};
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

/// The production executor: run the figure through the cached sweep engine
/// exactly as the `figures` CLI does, then append the outcome to the
/// registry. The result JSON is `serde_json::to_string_pretty` of the
/// [`xtsim::report::FigureResult`] — byte-identical to the CLI's
/// `<id>.json` artifact for the same (figure, scale). Every run, and every
/// concurrent client, shares `cache`'s memory tier. The run's record goes
/// to the registry; the run table keeps only what its routes serve.
pub fn figure_executor(cache: Option<DiskCache>, registry: Option<Arc<Registry>>) -> Executor {
    Arc::new(move |id: u64, req: &RunRequest, wait_secs: f64| {
        let run = || -> Result<(String, FigureMetrics), String> {
            let fig = catalog()
                .into_iter()
                .find(|f| f.id == req.figure)
                .ok_or_else(|| format!("unknown figure id: {}", req.figure))?;
            let mut cfg = SweepConfig::threads(req.jobs);
            if let Some(cache) = &cache {
                cfg = cfg.with_cache(cache.clone());
            }
            let (result, metrics) = run_figure(fig.spec(req.scale), &cfg);
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
        if let Some(reg) = &registry {
            // Record the outcome either way; a failed run is history too.
            let recorded = outcome.as_ref().map(|(_, m)| m).map_err(String::as_str);
            let record = make_record(id, req, recorded, wait_secs, exec_secs, unix_now());
            if let Err(e) = reg.append(&record) {
                xtsim_obs::events::warn(
                    "xtsim_serve::executor",
                    &format!("registry append failed: {e}"),
                    &[("run_id", &id.to_string())],
                );
            }
        }
        outcome.map(|(result_json, m)| RunOutput {
            result_json,
            wall_secs: m.wall_secs,
            computed: m.computed,
            cached: m.cached,
        })
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
                        Response::json(200, out.result_json.clone())
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

/// Accept loop: one thread per connection (requests are small; figure work
/// happens on the scheduler's worker pool, never on connection threads).
pub fn serve(listener: TcpListener, state: Arc<AppState>) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            let resp = match read_request(&mut stream) {
                Some(req) => handle(&req, &state),
                None => Response::error(400, "malformed request"),
            };
            write_response(&mut stream, &resp);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    fn stub_state() -> AppState {
        let exec: Executor = Arc::new(|_id, req: &RunRequest, _wait: f64| {
            Ok(RunOutput {
                result_json: format!("{{\n  \"id\": \"{}\"\n}}", req.figure),
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
