//! One batch repetition, run in a fresh child process: build the specs,
//! regenerate every figure through the public sweep API exactly as the
//! `figures` CLI does, write the artifacts, then check them against the
//! pins and report what was measured on the last line of stdout.
//!
//! In the traced modes each job closure is wrapped in a benchmark span
//! (kind, worker thread, start and end); `Captured` additionally brackets
//! the job with the engine's span capture to count simulated operations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Value;
use xtsim::des::trace;
use xtsim::sweep::{
    obj, run_figure, CacheStats, DiskCache, FigureSpec, SweepConfig, DEFAULT_MEM_CAP,
};

use crate::workload::{apply_seed, Workload};
use crate::{pins, procfs, prom, stats};

/// Sweep workers per figure: the host has two cores, and a fixed count
/// keeps the schedule the same on every run.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation: what end-to-end metrics are measured on.
    Plain,
    /// Job closures wrapped in timing spans only.
    Light,
    /// Timing spans plus the engine's span capture around every job.
    Captured,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Light => "light",
            Mode::Captured => "captured",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Light, Mode::Captured]
            .into_iter()
            .find(|m| m.label() == s)
    }
}

/// What one job did, as seen from its wrapper.
#[derive(Debug, Clone, Default)]
struct JobRec {
    fig: usize,
    kind: String,
    start: f64,
    end: f64,
    thread: String,
    spans: u64,
    dropped: u64,
    counts: BTreeMap<String, u64>,
    rank_busy: f64,
}

/// Harness-level timings of one figure, in seconds from process start.
struct FigRec {
    id: &'static str,
    spec_s: f64,
    run: (f64, f64),
    render_s: f64,
    write_s: f64,
    computed: usize,
}

type JobLog = Arc<Mutex<Vec<JobRec>>>;

fn wrap_jobs(spec: &mut FigureSpec, fig: usize, capture: bool, log: &JobLog, epoch: Instant) {
    for job in &mut spec.jobs {
        let run = std::mem::replace(&mut job.run, Box::new(|| Value::Null));
        let kind = job.key.kind.clone();
        let log = Arc::clone(log);
        job.run = Box::new(move || {
            let start = epoch.elapsed().as_secs_f64();
            if capture {
                trace::capture_begin();
            }
            let out = run();
            let data = if capture { trace::capture_end() } else { None };
            let end = epoch.elapsed().as_secs_f64();
            let mut rec = JobRec {
                fig,
                kind: kind.clone(),
                start,
                end,
                thread: format!("{:?}", std::thread::current().id()),
                ..JobRec::default()
            };
            if let Some(data) = data {
                let s = data.summary();
                rec.spans = s.spans;
                rec.dropped = data.dropped;
                rec.counts = s.counts_by_category;
                rec.rank_busy = s.rank_busy_secs;
            }
            log.lock()
                .expect("job log lock poisoned by a panicking job")
                .push(rec);
            out
        });
    }
}

/// The layer a job kind belongs to, for per-kind metric names.
fn kind_layer(kind: &str) -> String {
    match kind {
        k if k.starts_with("global/") => format!("hpcc.global-{}", &k[7..]),
        "netbench" | "bidir" | "local" => format!("hpcc.{kind}"),
        "ior" => "lustre.ior".to_string(),
        _ => format!("apps.{kind}"),
    }
}

/// Per-layer numbers of one repetition. Job-level entries exist only in the
/// traced modes, operation counts only in `Captured`.
fn layers(
    figs: &[FigRec],
    jobs: &[JobRec],
    prom_text: &str,
    cache: Option<&CacheStats>,
    mode: Mode,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("core.figures.spec_s", figs.iter().map(|f| f.spec_s).sum());
    put(
        "core.report.render_s",
        figs.iter().map(|f| f.render_s).sum(),
    );
    put("core.report.write_s", figs.iter().map(|f| f.write_s).sum());
    put(
        "core.cache.lookup_us",
        prom::hist_mean(prom_text, "xtsim_cache_lookup_seconds", &[]) * 1e6,
    );
    let lookups = "xtsim_cache_lookups_total";
    put(
        "core.cache.mem_hits",
        prom::sum(prom_text, lookups, &[("result", "hit"), ("tier", "memory")]),
    );
    put(
        "core.cache.disk_hits",
        prom::sum(prom_text, lookups, &[("result", "hit"), ("tier", "disk")]),
    );
    if let Some(s) = cache {
        put("core.cache.entries", s.entries as f64);
        put("core.cache.disk_bytes", s.bytes as f64);
    }
    if mode == Mode::Plain {
        return m;
    }

    let (mut job_s, mut crit, mut idle, mut harness, mut wait) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (i, f) in figs.iter().enumerate() {
        let js: Vec<&JobRec> = jobs.iter().filter(|j| j.fig == i).collect();
        let durs: Vec<f64> = js.iter().map(|j| j.end - j.start).collect();
        let busy: f64 = durs.iter().sum();
        let intervals: Vec<(f64, f64)> = js.iter().map(|j| (j.start, j.end)).collect();
        harness += (f.run.1 - f.run.0) - stats::union_len(&intervals);
        if js.is_empty() {
            continue;
        }
        job_s += busy;
        crit += durs.iter().copied().fold(0.0, f64::max);
        let first = js.iter().map(|j| j.start).fold(f64::INFINITY, f64::min);
        let last = js.iter().map(|j| j.end).fold(0.0, f64::max);
        idle += (WORKERS.min(js.len()) as f64 * (last - first) - busy).max(0.0);
        wait += js.iter().map(|j| j.start - f.run.0).sum::<f64>();
    }
    let n = jobs.len().max(1) as f64;
    put("core.sweep.job_s", job_s);
    put("core.sweep.crit_job_s", crit);
    put("core.sweep.idle_worker_s", idle);
    put("core.sweep.harness_s", harness);
    put("queue.wait_ms", wait / n * 1e3);
    put("queue.service_ms", job_s / n * 1e3);

    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for j in jobs {
        by_kind
            .entry(kind_layer(&j.kind))
            .or_default()
            .push(j.end - j.start);
    }
    for (layer, durs) in by_kind {
        put(&format!("{layer}.s"), durs.iter().sum());
        put(&format!("{layer}.n"), durs.len() as f64);
        put(
            &format!("{layer}.max_s"),
            durs.iter().copied().fold(0.0, f64::max),
        );
    }

    if mode == Mode::Captured {
        let count = |cat: &str| {
            jobs.iter()
                .map(|j| j.counts.get(cat).copied().unwrap_or(0))
                .sum::<u64>() as f64
        };
        put(
            "des.spans",
            jobs.iter().map(|j| j.spans + j.dropped).sum::<u64>() as f64,
        );
        put(
            "des.dropped_spans",
            jobs.iter().map(|j| j.dropped).sum::<u64>() as f64,
        );
        put("mpi.p2p_ops", count("p2p"));
        put("mpi.collective_ops", count("collective"));
        put("machine.compute_ops", count("compute"));
        put("net.flows", count("flow"));
        put("lustre.io_ops", count("io"));
        put("sim.rank_busy_s", jobs.iter().map(|j| j.rank_busy).sum());
    }
    m
}

/// Chrome trace-event JSON of the benchmark's own spans: figure-level
/// phases on row 0, each job on the row of the worker thread that ran it.
fn spans_json(figs: &[FigRec], jobs: &[JobRec]) -> String {
    let us = |s: f64| Value::Float(s * 1e6);
    let event =
        |name: String, cat: &str, tid: usize, start: f64, dur: f64, args: Vec<(&str, Value)>| {
            obj(vec![
                ("name", name.into()),
                ("cat", cat.into()),
                ("ph", "X".into()),
                ("pid", 0u32.into()),
                ("tid", tid.into()),
                ("ts", us(start)),
                ("dur", us(dur)),
                ("args", obj(args)),
            ])
        };
    let mut events = Vec::new();
    for f in figs {
        let (a, b) = f.run;
        events.push(event(
            format!("{} run_figure", f.id),
            "figure",
            0,
            a,
            b - a,
            vec![("computed", f.computed.into())],
        ));
        events.push(event(
            format!("{} render", f.id),
            "render",
            0,
            b,
            f.render_s,
            vec![],
        ));
        events.push(event(
            format!("{} write", f.id),
            "write",
            0,
            b + f.render_s,
            f.write_s,
            vec![],
        ));
    }
    let mut threads: Vec<&str> = Vec::new();
    for j in jobs {
        let tid = match threads.iter().position(|t| *t == j.thread) {
            Some(i) => i + 1,
            None => {
                threads.push(&j.thread);
                threads.len()
            }
        };
        let args = vec![
            ("figure", figs[j.fig].id.into()),
            ("spans", j.spans.into()),
            ("dropped_spans", j.dropped.into()),
        ];
        events.push(event(
            j.kind.clone(),
            "job",
            tid,
            j.start,
            j.end - j.start,
            args,
        ));
    }
    serde_json::to_string(&obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", "ms".into()),
    ]))
    .expect("span JSON serializes")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Options of the internal `rep` subcommand.
struct RepArgs {
    workload: Workload,
    order: u64,
    mode: Mode,
    dir: PathBuf,
    smoke: bool,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<RepArgs, String> {
    let mut r = RepArgs {
        workload: Workload::PopScale,
        order: 0,
        mode: Mode::Plain,
        dir: PathBuf::new(),
        smoke: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                r.workload = Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--order" => {
                r.order = val()?
                    .parse()
                    .map_err(|_| "--order needs an integer".to_string())?
            }
            "--mode" => r.mode = Mode::parse(&val()?).ok_or("--mode needs plain|light|captured")?,
            "--dir" => r.dir = PathBuf::from(val()?),
            "--spans" => r.spans = Some(PathBuf::from(val()?)),
            "--smoke" => r.smoke = true,
            other => return Err(format!("unknown rep argument {other}")),
        }
    }
    Ok(r)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let epoch = Instant::now();
    let a = parse(args)?;
    let mut specs = a.workload.specs(a.smoke);
    apply_seed(&mut specs, a.order, |(spec, _)| spec);
    let log: JobLog = Arc::default();
    if a.mode != Mode::Plain {
        for (i, (spec, _)) in specs.iter_mut().enumerate() {
            wrap_jobs(spec, i, a.mode == Mode::Captured, &log, epoch);
        }
    }
    let cache_dir = a.dir.join("cache");
    let fig_dir = a.dir.join("figures");
    std::fs::create_dir_all(&fig_dir).map_err(|e| format!("create {}: {e}", fig_dir.display()))?;
    let open = || {
        DiskCache::with_mem_cap(&cache_dir, DEFAULT_MEM_CAP).map_err(|e| format!("open cache: {e}"))
    };
    open()?;
    let mut stdout = std::io::stdout();
    let signal =
        |out: &mut std::io::Stdout, line: &str| writeln!(out, "{line}").and_then(|()| out.flush());
    signal(&mut stdout, "ready").map_err(|e| e.to_string())?;

    let mut figs = Vec::new();
    let mut outputs = Vec::new();
    for (spec, spec_s) in specs {
        let id = spec.id;
        let cfg = SweepConfig::threads(WORKERS).with_cache(open()?);
        let t0 = epoch.elapsed().as_secs_f64();
        let (fig, stats) = run_figure(spec, &cfg);
        let t1 = epoch.elapsed().as_secs_f64();
        let text = fig.render();
        let csv = fig.to_csv();
        let json =
            serde_json::to_string_pretty(&fig).map_err(|e| format!("serialize {id}: {e:?}"))?;
        let t2 = epoch.elapsed().as_secs_f64();
        write_file(&fig_dir.join(format!("{id}.txt")), &text)?;
        write_file(&fig_dir.join(format!("{id}.csv")), &csv)?;
        write_file(&fig_dir.join(format!("{id}.json")), &json)?;
        let t3 = epoch.elapsed().as_secs_f64();
        figs.push(FigRec {
            id,
            spec_s,
            run: (t0, t1),
            render_s: t2 - t1,
            write_s: t3 - t2,
            computed: stats.computed,
        });
        outputs.push((id, json));
    }
    signal(&mut stdout, "done").map_err(|e| e.to_string())?;
    let cpu_s = procfs::cpu_secs("self").ok_or("cannot read /proc/self/stat")?;
    let peak_rss_mb = procfs::peak_rss_mb("self").ok_or("cannot read /proc/self/status")?;

    let pins: BTreeMap<String, String> = pins::load(a.workload, a.smoke)?.into_iter().collect();
    let failures: Vec<Value> = outputs
        .iter()
        .filter_map(|(id, json)| match pins.get(*id) {
            Some(want) => pins::check_text(id, json, want).err(),
            None => Some(format!("{id}: no pin")),
        })
        .map(Value::from)
        .collect();
    let jobs = log.lock().expect("job log lock").clone();
    if let Some(path) = &a.spans {
        write_file(path, &spans_json(&figs, &jobs))?;
    }
    let layer_map = layers(
        &figs,
        &jobs,
        &xtsim_obs::prom::render_global(),
        DiskCache::new(&cache_dir).map(|c| c.stats()).ok().as_ref(),
        a.mode,
    );
    let report = obj(vec![
        ("figures", figs.len().into()),
        ("failures", Value::Array(failures)),
        (
            "computed",
            figs.iter().map(|f| f.computed).sum::<usize>().into(),
        ),
        ("cpu_s", cpu_s.into()),
        ("peak_rss_mb", peak_rss_mb.into()),
        (
            "layers",
            Value::Object(
                layer_map
                    .into_iter()
                    .map(|(k, v)| (k, Value::Float(v)))
                    .collect(),
            ),
        ),
    ]);
    signal(
        &mut stdout,
        &serde_json::to_string(&report).expect("report serializes"),
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_kinds_map_to_layers() {
        assert_eq!(kind_layer("global/mpi_ra"), "hpcc.global-mpi_ra");
        assert_eq!(kind_layer("netbench"), "hpcc.netbench");
        assert_eq!(kind_layer("ior"), "lustre.ior");
        assert_eq!(kind_layer("cam_best"), "apps.cam_best");
        assert_eq!(kind_layer("pop"), "apps.pop");
    }

    fn job(fig: usize, start: f64, end: f64) -> JobRec {
        JobRec {
            fig,
            kind: "pop".into(),
            start,
            end,
            ..JobRec::default()
        }
    }

    #[test]
    fn sweep_layers_split_figure_time() {
        // Two workers: jobs [1,3] and [1,2] then [2,4]; run_figure spans [0.5, 4.5].
        let figs = [FigRec {
            id: "f",
            spec_s: 0.1,
            run: (0.5, 4.5),
            render_s: 0.2,
            write_s: 0.3,
            computed: 3,
        }];
        let jobs = [job(0, 1.0, 3.0), job(0, 1.0, 2.0), job(0, 2.0, 4.0)];
        let m = layers(&figs, &jobs, "", None, Mode::Light);
        assert_eq!(m["core.sweep.job_s"], 5.0);
        assert_eq!(m["core.sweep.crit_job_s"], 2.0);
        // 2 workers x 3 s window - 5 s busy.
        assert_eq!(m["core.sweep.idle_worker_s"], 1.0);
        // 4 s of run_figure minus the 3 s the jobs cover.
        assert_eq!(m["core.sweep.harness_s"], 1.0);
        assert_eq!(m["queue.wait_ms"], (0.5 + 0.5 + 1.5) / 3.0 * 1e3);
        assert_eq!(m["apps.pop.n"], 3.0);
        assert_eq!(m["apps.pop.max_s"], 2.0);
        assert!(!m.contains_key("des.spans"), "counts need a capture");
    }
}
