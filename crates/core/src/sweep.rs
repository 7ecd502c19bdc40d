//! Parallel, cached sweep execution for the figure registry.
//!
//! Every figure generator is decomposed into independent *sweep-point jobs*
//! (one simulated experiment each — a netbench run, one HPL point, one CAM
//! configuration). Jobs carry a content-addressed [`JobKey`]; the engine
//! executes whatever isn't already cached across a pool of worker threads and
//! then reassembles the figure **in job order**, so the output is
//! byte-identical whether it ran on 1 thread or 8, cold or warm.
//!
//! Threading model: the DES simulator underneath is single-threaded
//! (`Rc`/`RefCell` worlds). That is fine — each job *constructs its own
//! world* inside its closure, so nothing non-`Send` ever crosses a thread
//! boundary; only plain spec data goes in and a JSON [`Value`] comes out.
//! Workers claim cache misses off a shared atomic cursor over a dispatch
//! list sorted by each job's [`Job::cost`] hint, largest first (ties in job
//! order), so a sweep's longest jobs start first instead of last; the hint
//! moves only wall time, never an output byte.
//!
//! Record: [`run_figure`] returns a [`FigureMetrics`] with every figure —
//! job counts, cache hits and key mismatches, wall time, and per job its
//! digest, cost hint, start offset and wall time. Span capture
//! ([`xtsim_des::trace`]) is on only when [`SweepConfig::trace_dir`] is
//! set: each computed job then runs under capture, writes a Chrome trace
//! and fills the record's span fields. Otherwise those fields stay zero,
//! empty or null, and an instrumented operation costs one flag read.
//!
//! Caching: results live in the two-tier [`DiskCache`] (see
//! [`crate::cache`]) — the handle's in-memory tier over one JSON file per
//! job (its key, a digest of its value, and the value) in two-hex-prefix
//! subdirectories. A front end opens the cache once per process and hands
//! each [`SweepConfig`] that handle or a clone of it (a clone shares the
//! memory tier; a second open starts with an empty one). The digest hashes
//! the canonical JSON of the key — engine version, job kind, machine spec
//! content, execution mode, scale, and all sweep parameters — via two
//! independent FNV-1a passes ([`xtsim_machine::fingerprint`]). Each key is
//! serialized into a [`PreparedKey`] that lookup and store share:
//! [`run_figure`] prepares a spec's keys once per run, and a caller that
//! runs the same figure again (the `xtsim-serve` executor) keeps them and
//! passes them to [`run_figure_prepared`]. Bump [`ENGINE_VERSION`] whenever
//! simulator semantics change; every old entry then misses.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{impl_serde_struct, Value};
use xtsim_des::trace::{self, TraceData, TraceSummary};
use xtsim_machine::{ExecMode, MachineSpec};

use crate::report::{FigureResult, Scale};

pub use crate::cache::{CacheLookup, CacheStats, DiskCache, PreparedKey, DEFAULT_MEM_CAP};

/// Version of the simulation engine folded into every cache key. Bump on any
/// change that alters simulated numbers so stale cache entries stop hitting.
pub const ENGINE_VERSION: u32 = 1;

/// Content-addressed identity of one sweep-point job.
///
/// Everything that determines the job's output must be in here (the machine
/// by *content*, not name — a tweaked preset hashes differently) and nothing
/// else: the figure id is deliberately absent so figures sharing a
/// computation (fig12/fig13, fig02/fig03) share cache entries too.
#[derive(Debug, Clone)]
pub struct JobKey {
    /// [`ENGINE_VERSION`] at key-construction time.
    pub engine_version: u32,
    /// Generator family, e.g. `"netbench"`, `"global/hpl"`, `"cam"`.
    pub kind: String,
    /// The simulated machine, when the job targets one.
    pub machine: Option<MachineSpec>,
    /// Execution mode, when the job targets a machine.
    pub mode: Option<ExecMode>,
    /// Sweep scale the job belongs to.
    pub scale: Scale,
    /// Remaining kernel/app parameters, as a JSON object.
    pub params: Value,
}

impl_serde_struct!(JobKey { engine_version, kind, machine, mode, scale, params });

impl JobKey {
    /// Start a key for `kind` on `machine`/`mode` at `scale`.
    pub fn new(
        kind: impl Into<String>,
        machine: Option<&MachineSpec>,
        mode: Option<ExecMode>,
        scale: Scale,
    ) -> JobKey {
        JobKey {
            engine_version: ENGINE_VERSION,
            kind: kind.into(),
            machine: machine.cloned(),
            mode,
            scale,
            params: Value::Object(Default::default()),
        }
    }

    /// Add one sweep parameter (builder style).
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> JobKey {
        if let Value::Object(map) = &mut self.params {
            map.insert(name.to_string(), value.into());
        }
        self
    }

    /// Serialize this key once into its canonical JSON encoding plus the
    /// 128-bit hex digest derived from it. Canonical means: object keys
    /// sorted, integral floats rendered `x.0` — so the digest is independent
    /// of field declaration order and stable across processes. Both cache
    /// tiers address and verify by the result, so nothing re-serializes the
    /// key. Every call counts in `xtsim_sweep_keys_prepared_total`.
    pub fn prepare(&self) -> PreparedKey {
        keys_prepared().inc();
        let json = serde_json::to_string(self).expect("JobKey serializes");
        PreparedKey::from_canonical_json(json)
    }

    /// 128-bit hex digest of the canonical JSON encoding of this key
    /// (convenience wrapper over [`JobKey::prepare`]).
    pub fn digest(&self) -> String {
        self.prepare().digest
    }
}

/// `xtsim_sweep_keys_prepared_total`, registered once: a count of
/// [`JobKey::prepare`] calls that shows whether a warm caller reuses its
/// keys.
fn keys_prepared() -> &'static Arc<xtsim_obs::Counter> {
    static C: OnceLock<Arc<xtsim_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        xtsim_obs::counter(
            "xtsim_sweep_keys_prepared_total",
            "Job keys serialized and digested (JobKey::prepare calls).",
        )
    })
}

/// One schedulable sweep point: an identity, a predicted cost, and the
/// closure that computes it. The closure builds its own single-threaded
/// simulation world, so it is safe to run from any worker thread.
pub struct Job {
    /// Cache identity.
    pub key: JobKey,
    /// Predicted relative host cost; the figure generators use the number of
    /// MPI ranks the job simulates. [`run_figure`] dispatches cache misses
    /// largest cost first. It is deliberately not part of [`JobKey`], so
    /// digests, cache entries, traces and figures never see it: a wrong
    /// guess costs wall time, never bytes.
    pub cost: u64,
    /// The computation; returns the job's JSON-serializable output.
    pub run: Box<dyn Fn() -> Value + Send + Sync>,
}

impl Job {
    /// Package `run` under `key`, with cost 0 (dispatched after every job
    /// that carries a cost hint).
    pub fn new(key: JobKey, run: impl Fn() -> Value + Send + Sync + 'static) -> Job {
        Job { key, cost: 0, run: Box::new(run) }
    }

    /// Set the dispatch cost hint, conventionally the number of MPI ranks
    /// the job simulates (builder style).
    pub fn with_cost(mut self, cost: usize) -> Job {
        self.cost = cost as u64;
        self
    }
}

/// Boxed assembly step: job outputs, in job order, to the finished figure.
pub type AssembleFn = Box<dyn FnOnce(&[Value]) -> FigureResult + Send>;

/// A figure decomposed into jobs plus the (cheap, pure) assembly step that
/// turns the job outputs — supplied **in job order** — into the final
/// [`FigureResult`]. Assembly must not simulate anything; all cost lives in
/// the jobs so it can be parallelized and cached.
pub struct FigureSpec {
    /// Figure identifier, e.g. `"fig08"`.
    pub id: &'static str,
    /// The sweep points, in deterministic order.
    pub jobs: Vec<Job>,
    /// Reassembles outputs (`outputs[i]` is `jobs[i]`'s value) into the figure.
    pub assemble: AssembleFn,
}

impl FigureSpec {
    /// New spec with no jobs yet.
    pub fn new(
        id: &'static str,
        assemble: impl FnOnce(&[Value]) -> FigureResult + Send + 'static,
    ) -> FigureSpec {
        FigureSpec { id, jobs: Vec::new(), assemble: Box::new(assemble) }
    }

    /// Append a job with cost 0, returning its index (for use inside
    /// `assemble`).
    pub fn push_job(
        &mut self,
        key: JobKey,
        run: impl Fn() -> Value + Send + Sync + 'static,
    ) -> usize {
        self.push(Job::new(key, run))
    }

    /// Append a built job, returning its index (for use inside `assemble`).
    pub fn push(&mut self, job: Job) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Every job's [`PreparedKey`], in job order: what
    /// [`run_figure_prepared`] takes. A figure's keys depend only on its id
    /// and scale, so a caller may keep them for later runs of the same
    /// figure.
    pub fn prepare_keys(&self) -> Vec<PreparedKey> {
        self.jobs.iter().map(|j| j.key.prepare()).collect()
    }
}

/// Engine configuration for one figure run.
pub struct SweepConfig {
    /// Worker threads; `1` executes jobs inline on the calling thread.
    pub jobs: usize,
    /// Result cache; `None` recomputes everything.
    pub cache: Option<DiskCache>,
    /// Directory receiving one Chrome trace-event JSON file per *computed*
    /// job. Setting it is what turns span capture on; without it the
    /// record's span fields stay zero, empty or null.
    pub trace_dir: Option<PathBuf>,
}

impl SweepConfig {
    /// Serial, uncached — the behaviour of the pre-engine harness.
    pub fn serial() -> SweepConfig {
        SweepConfig::threads(1)
    }

    /// `n` worker threads, no cache.
    pub fn threads(n: usize) -> SweepConfig {
        SweepConfig { jobs: n.max(1), cache: None, trace_dir: None }
    }

    /// Attach a cache.
    pub fn with_cache(mut self, cache: DiskCache) -> SweepConfig {
        self.cache = Some(cache);
        self
    }

    /// Capture spans and export per-job Chrome traces into `dir`.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> SweepConfig {
        self.trace_dir = Some(dir.into());
        self
    }
}

/// Per-job entry of a [`FigureMetrics`] record.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Job index within the figure spec.
    pub index: usize,
    /// Generator family of the job's key.
    pub kind: String,
    /// Cache digest of the job's key.
    pub digest: String,
    /// Whether the job was answered from the cache (no trace then).
    pub cached: bool,
    /// The job's [`Job::cost`] dispatch hint.
    pub cost: u64,
    /// Seconds from the start of [`run_figure`] until the job's closure
    /// began (0 for cache hits).
    pub start_secs: f64,
    /// Host seconds spent inside the job's closure (0 for cache hits).
    pub wall_secs: f64,
    /// Span aggregate of a computed job when the run was traced.
    pub trace: Option<TraceSummary>,
}

impl_serde_struct!(JobMetrics { index, kind, digest, cached, cost, start_secs, wall_secs, trace });

/// What one figure run did: what ran, what hit the cache, when each job ran
/// and, for a traced run, where simulated time went (categories from
/// [`xtsim_des::trace::SpanCategory`]). [`run_figure`] returns one for every
/// run.
#[derive(Debug, Clone, Default)]
pub struct FigureMetrics {
    /// Figure id, e.g. `"fig08"`.
    pub figure: String,
    /// Total sweep-point jobs.
    pub total_jobs: usize,
    /// Jobs executed this run.
    pub computed: usize,
    /// Jobs answered from the cache.
    pub cached: usize,
    /// Cache entries whose embedded key did not match the requesting key
    /// (treated as misses and recomputed).
    pub key_mismatches: usize,
    /// Wall-clock seconds for the whole figure (lookup, execute, assemble).
    pub wall_secs: f64,
    /// Simulated seconds per span category, summed over computed jobs.
    pub sim_secs_by_category: BTreeMap<String, f64>,
    /// Sum of the *rank-time* categories (compute/p2p/collective/io) — the
    /// figure's total attributed simulated busy time. Flow spans overlap
    /// rank spans and are excluded.
    pub sim_total_secs: f64,
    /// Span count per category, summed over computed jobs.
    pub span_counts_by_category: BTreeMap<String, u64>,
    /// Total spans captured.
    pub spans: u64,
    /// Spans discarded by the per-job capture limit.
    pub dropped_spans: u64,
    /// Chrome trace files written (relative to the trace directory).
    pub trace_files: Vec<String>,
    /// Per-job detail, in job order.
    pub jobs: Vec<JobMetrics>,
}

impl_serde_struct!(FigureMetrics {
    figure,
    total_jobs,
    computed,
    cached,
    key_mismatches,
    wall_secs,
    sim_secs_by_category,
    sim_total_secs,
    span_counts_by_category,
    spans,
    dropped_spans,
    trace_files,
    jobs,
});

/// One computed job's result: its output value, the spans captured around
/// it (traced runs only), and when it ran.
struct JobOutcome {
    value: Value,
    trace: Option<TraceData>,
    /// Seconds from the start of [`run_figure`] until the closure began.
    start_secs: f64,
    /// Host seconds inside the closure.
    wall_secs: f64,
}

/// Execute a figure spec under `cfg`: cache-lookup every job (verifying the
/// embedded key), run the misses on the worker pool — largest [`Job::cost`]
/// first, under span capture when `cfg.trace_dir` is set — then persist
/// fresh results, export traces, and assemble, all in job order. Returns
/// the figure and the run's [`FigureMetrics`]. Prepares the spec's keys
/// once ([`FigureSpec::prepare_keys`]) and runs [`run_figure_prepared`].
pub fn run_figure(spec: FigureSpec, cfg: &SweepConfig) -> (FigureResult, FigureMetrics) {
    let keys = spec.prepare_keys();
    run_figure_prepared(spec, &keys, cfg)
}

/// [`run_figure`] with the spec's keys already prepared: `keys[i]` must be
/// `spec.jobs[i].key.prepare()`, as [`FigureSpec::prepare_keys`] returns
/// them. Both cache tiers address by each prepared digest and verify
/// against its canonical JSON; the timing in the record covers the run,
/// not the preparation.
pub fn run_figure_prepared(
    spec: FigureSpec,
    keys: &[PreparedKey],
    cfg: &SweepConfig,
) -> (FigureResult, FigureMetrics) {
    assert_eq!(keys.len(), spec.jobs.len(), "one prepared key per job of {}", spec.id);
    let t0 = Instant::now();
    let n = spec.jobs.len();
    let mut m = FigureMetrics {
        figure: spec.id.to_string(),
        total_jobs: n,
        jobs: spec
            .jobs
            .iter()
            .enumerate()
            .map(|(index, job)| JobMetrics {
                index,
                kind: String::new(),
                digest: String::new(),
                cached: false,
                cost: job.cost,
                start_secs: 0.0,
                wall_secs: 0.0,
                trace: None,
            })
            .collect(),
        ..FigureMetrics::default()
    };

    // Slot per job; verified cache hits fill immediately, misses queue up.
    let mut slots: Vec<Option<Value>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    for i in 0..n {
        match cfg.cache.as_ref().map(|c| c.load(&keys[i])) {
            Some(CacheLookup::Hit(v)) => {
                slots[i] = Some(v);
                m.jobs[i].cached = true;
            }
            Some(CacheLookup::KeyMismatch) => {
                m.key_mismatches += 1;
                let digest = keys[i].digest.as_str();
                xtsim_obs::events::warn(
                    "xtsim::sweep",
                    &format!(
                        "cache entry {digest} does not match job {i} ({}); recomputing",
                        spec.jobs[i].key.kind
                    ),
                    &[
                        ("figure", spec.id),
                        ("digest", digest),
                        ("job_index", &i.to_string()),
                        ("kind", &spec.jobs[i].key.kind),
                    ],
                );
                pending.push(i);
            }
            Some(CacheLookup::Miss) | None => pending.push(i),
        }
    }
    m.computed = pending.len();
    m.cached = n - pending.len();
    let capture = cfg.trace_dir.is_some();

    // Dispatch order over the misses: largest cost hint first, ties in job
    // order (the sort is stable). Sweeps list their points in ascending
    // size, so job order would start a figure's longest job last and leave
    // the other workers idle while it runs.
    let mut dispatch: Vec<usize> = (0..pending.len()).collect();
    dispatch.sort_by_key(|&k| std::cmp::Reverse(spec.jobs[pending[k]].cost));

    // Execute misses: worker threads pull dispatch positions off a shared
    // atomic cursor (cheap work-stealing); results land in per-job mutexed
    // slots and are read back in job order, so scheduling order never leaks
    // into output. Each job runs single-threaded on whichever worker claims
    // it, so thread-local span capture brackets exactly that job's
    // simulation.
    let workers = cfg.jobs.max(1).min(pending.len().max(1));
    let job_exec_seconds = xtsim_obs::histogram(
        "xtsim_sweep_job_exec_seconds",
        "Wall-clock execution time of one sweep-point job (cache misses only).",
    );
    let exec = |i: usize| -> JobOutcome {
        let start = t0.elapsed();
        if capture {
            trace::capture_begin();
        }
        let value = (spec.jobs[i].run)();
        let trace = if capture { trace::capture_end() } else { None };
        // One reading feeds both the histogram and the metrics record.
        let wall_secs = t0.elapsed().saturating_sub(start).as_secs_f64();
        job_exec_seconds.observe(wall_secs);
        JobOutcome { value, trace, start_secs: start.as_secs_f64(), wall_secs }
    };
    let fresh: Vec<Mutex<Option<JobOutcome>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();
    if workers <= 1 {
        for &k in &dispatch {
            *fresh[k].lock().unwrap() = Some(exec(pending[k]));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let exec_ref = &exec;
        let dispatch_ref = &dispatch;
        let pending_ref = &pending;
        let fresh_ref = &fresh;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some(&k) = dispatch_ref.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let v = exec_ref(pending_ref[k]);
                        *fresh_ref[k].lock().unwrap() = Some(v);
                    }
                });
            }
        });
    }

    xtsim_obs::counter(
        "xtsim_sweep_jobs_computed_total",
        "Sweep-point jobs executed (cache misses).",
    )
    .add(m.computed as u64);
    xtsim_obs::counter(
        "xtsim_sweep_jobs_cached_total",
        "Sweep-point jobs answered from the verified cache.",
    )
    .add(m.cached as u64);

    if let Some(dir) = &cfg.trace_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    for (slot, &i) in fresh.iter().zip(&pending) {
        let out = slot.lock().unwrap().take().expect("worker filled every slot");
        if let Some(cache) = &cfg.cache {
            // Cache write failure is not a figure failure; drop the entry.
            let _ = cache.store(&keys[i], &out.value);
        }
        m.jobs[i].start_secs = out.start_secs;
        m.jobs[i].wall_secs = out.wall_secs;
        if let Some(dir) = &cfg.trace_dir {
            let td = out.trace.unwrap_or_default();
            let digest = keys[i].digest.as_str();
            let fname = format!("{}-job{:03}-{}.trace.json", spec.id, i, &digest[..8]);
            let json = td.to_chrome_json(&[
                ("figure", Value::Str(spec.id.to_string())),
                ("jobIndex", Value::Int(i as i64)),
                ("kind", Value::Str(spec.jobs[i].key.kind.clone())),
                ("digest", Value::Str(digest.to_string())),
            ]);
            match std::fs::write(dir.join(&fname), json) {
                Ok(()) => m.trace_files.push(fname),
                Err(e) => xtsim_obs::events::warn(
                    "xtsim::sweep",
                    &format!("failed to write trace {fname}: {e}"),
                    &[("figure", spec.id), ("file", &fname)],
                ),
            }
            let s = td.summary();
            for (cat, secs) in &s.secs_by_category {
                *m.sim_secs_by_category.entry(cat.clone()).or_insert(0.0) += secs;
            }
            for (cat, count) in &s.counts_by_category {
                *m.span_counts_by_category.entry(cat.clone()).or_insert(0) += count;
            }
            m.sim_total_secs += s.rank_busy_secs;
            m.spans += s.spans;
            m.dropped_spans += td.dropped;
            m.jobs[i].trace = Some(s);
        }
        slots[i] = Some(out.value);
    }

    let values: Vec<Value> = slots.into_iter().map(|s| s.expect("all slots filled")).collect();
    let fig = (spec.assemble)(&values);
    // Nothing reads the jobs after assembly: move their kinds into the
    // record instead of copying them.
    for ((j, job), key) in m.jobs.iter_mut().zip(spec.jobs).zip(keys) {
        j.kind = job.key.kind;
        j.digest = key.digest.clone();
    }
    m.wall_secs = t0.elapsed().as_secs_f64();
    (fig, m)
}

/// Build a JSON object from `(name, value)` pairs — the conventional shape of
/// a job output.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Read numeric field `name` out of a job-output object (panics on absence —
/// job outputs are produced by this same binary, so a missing field is a bug,
/// not bad input).
pub fn num(v: &Value, name: &str) -> f64 {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("job output missing numeric field {name:?}: {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Series;
    use std::sync::Arc;
    use std::time::Duration;
    use xtsim_machine::presets;

    fn tiny_spec(mult: f64) -> FigureSpec {
        let mut spec = FigureSpec::new("figT", move |outs| {
            let mut s = Series::new("line");
            for (i, o) in outs.iter().enumerate() {
                s.push(i as f64, num(o, "y"));
            }
            FigureResult::new("figT", "tiny").with_series(s)
        });
        for i in 0..5u32 {
            let key = JobKey::new("tiny", None, None, Scale::Quick).with("i", i);
            spec.push_job(key, move || obj(vec![("y", (f64::from(i) * mult).into())]));
        }
        spec
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (serial, s1) = run_figure(tiny_spec(2.0), &SweepConfig::serial());
        let (par, s8) = run_figure(tiny_spec(2.0), &SweepConfig::threads(8));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&par).unwrap()
        );
        assert_eq!(s1.computed, 5);
        assert_eq!(s8.computed, 5);
    }

    /// `tiny_spec` with the given cost hints, each job logging its index
    /// when it starts.
    fn logged_spec(costs: [usize; 5], log: &Arc<Mutex<Vec<usize>>>) -> FigureSpec {
        let mut spec = tiny_spec(2.0);
        for (i, (job, cost)) in spec.jobs.iter_mut().zip(costs).enumerate() {
            let run = std::mem::replace(&mut job.run, Box::new(|| Value::Null));
            let log = Arc::clone(log);
            job.run = Box::new(move || {
                log.lock().unwrap().push(i);
                run()
            });
            job.cost = cost as u64;
        }
        spec
    }

    #[test]
    fn misses_dispatch_largest_cost_first_ties_in_job_order() {
        let json = |f: &FigureResult| serde_json::to_string(f).unwrap();
        let (plain, _) = run_figure(tiny_spec(2.0), &SweepConfig::serial());

        // Jobs 1 and 3 tie on the largest cost.
        let log = Arc::new(Mutex::new(Vec::new()));
        let (fig, m) = run_figure(logged_spec([20, 50, 5, 50, 30], &log), &SweepConfig::serial());
        assert_eq!(*log.lock().unwrap(), [1, 3, 4, 0, 2]);
        assert_eq!(json(&fig), json(&plain), "dispatch order leaked into the figure");
        // The metrics record stays in job order and shows the schedule.
        let costs: Vec<u64> = m.jobs.iter().map(|j| j.cost).collect();
        assert_eq!(costs, [20, 50, 5, 50, 30]);
        let starts: Vec<f64> = [1, 3, 4, 0, 2].iter().map(|&i| m.jobs[i].start_secs).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "start times {starts:?}");

        // Without hints every job ties: job order.
        let log = Arc::new(Mutex::new(Vec::new()));
        let (fig, _) = run_figure(logged_spec([0; 5], &log), &SweepConfig::serial());
        assert_eq!(*log.lock().unwrap(), [0, 1, 2, 3, 4]);
        assert_eq!(json(&fig), json(&plain));
    }

    #[test]
    fn kept_keys_serve_a_fresh_spec() {
        let dir = std::env::temp_dir().join(format!("xtsim-kept-keys-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
        let keys = tiny_spec(3.0).prepare_keys();
        let (cold_fig, cold) = run_figure(tiny_spec(3.0), &cfg);
        let (warm_fig, warm) = run_figure_prepared(tiny_spec(3.0), &keys, &cfg);
        assert_eq!((warm.computed, warm.cached), (0, 5));
        assert_eq!(serde_json::to_string(&warm_fig).unwrap(), serde_json::to_string(&cold_fig).unwrap());
        for ((w, c), k) in warm.jobs.iter().zip(&cold.jobs).zip(&keys) {
            assert_eq!((&w.digest, &w.kind), (&c.digest, &c.kind));
            assert_eq!(w.digest, k.digest);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "one prepared key per job of figT")]
    fn keys_of_another_spec_are_refused() {
        let keys = tiny_spec(1.0).prepare_keys();
        run_figure_prepared(tiny_spec(1.0), &keys[1..], &SweepConfig::serial());
    }

    #[test]
    fn digest_ignores_param_insertion_order() {
        let a = JobKey::new("k", Some(&presets::xt4()), Some(ExecMode::VN), Scale::Quick)
            .with("alpha", 1)
            .with("beta", 2.5);
        let b = JobKey::new("k", Some(&presets::xt4()), Some(ExecMode::VN), Scale::Quick)
            .with("beta", 2.5)
            .with("alpha", 1);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_separates_kind_machine_mode_scale_params() {
        let base = || JobKey::new("k", Some(&presets::xt4()), Some(ExecMode::VN), Scale::Quick).with("p", 1);
        let d0 = base().digest();
        assert_ne!(d0, { let mut k = base(); k.kind = "k2".into(); k.digest() });
        assert_ne!(d0, JobKey::new("k", Some(&presets::xt3_dual()), Some(ExecMode::VN), Scale::Quick).with("p", 1).digest());
        assert_ne!(d0, JobKey::new("k", Some(&presets::xt4()), Some(ExecMode::SN), Scale::Quick).with("p", 1).digest());
        assert_ne!(d0, JobKey::new("k", Some(&presets::xt4()), Some(ExecMode::VN), Scale::Full).with("p", 1).digest());
        assert_ne!(d0, base().with("p", 2).digest());
        assert_ne!(d0, { let mut k = base(); k.engine_version += 1; k.digest() });
    }

    #[test]
    fn mismatched_cache_key_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("xtsim-mismatch-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir).unwrap();
        // Poison job 0's digest slot with an entry recorded under a
        // *different* key (as a digest collision or corruption would).
        let key0 = JobKey::new("tiny", None, None, Scale::Quick).with("i", 0u32).prepare();
        // A foreign key filed under key0's digest — exactly what a digest
        // collision (or corruption) would leave behind.
        let foreign = PreparedKey {
            digest: key0.digest.clone(),
            key_json: JobKey::new("tiny", None, None, Scale::Quick).with("i", 7u32).prepare().key_json,
        };
        cache.store(&foreign, &obj(vec![("y", 999.0.into())])).unwrap();
        assert!(matches!(cache.load(&key0), CacheLookup::KeyMismatch));
        assert!(matches!(cache.load(&foreign), CacheLookup::Hit(_)));

        // The engine must recompute the poisoned job, not serve 999.
        let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
        let (fig, stats) = run_figure(tiny_spec(2.0), &cfg);
        assert_eq!(stats.key_mismatches, 1);
        assert_eq!(stats.computed, 5);
        assert_eq!(fig.series[0].points[0].1, 0.0, "served a mismatched entry");
        // The recompute overwrote the poisoned entry with a verified one.
        assert!(matches!(
            DiskCache::new(&dir).unwrap().load(&key0),
            CacheLookup::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_never_tear_entries() {
        let dir = std::env::temp_dir().join(format!("xtsim-racestore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = JobKey::new("race", None, None, Scale::Quick).with("p", 1u32).prepare();
        // Writers hammer the same digest with two alternating payloads while
        // readers continuously load-and-verify; a torn or misnamed temp file
        // would surface as a corrupt (Miss) or mismatched entry.
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let dir = dir.clone();
                let key = key.clone();
                s.spawn(move || {
                    let cache = DiskCache::new(&dir).unwrap();
                    for round in 0..50u32 {
                        let y = f64::from((w + round) % 2);
                        cache.store(&key, &obj(vec![("y", y.into())])).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let dir = dir.clone();
                let key = key.clone();
                s.spawn(move || {
                    let cache = DiskCache::new(&dir).unwrap();
                    for _ in 0..200 {
                        match cache.load(&key) {
                            CacheLookup::Hit(v) => {
                                let y = num(&v, "y");
                                assert!(y == 0.0 || y == 1.0, "torn value {y}");
                            }
                            CacheLookup::Miss => {} // not yet written / mid-rename
                            CacheLookup::KeyMismatch => panic!("key mismatch from torn write"),
                        }
                    }
                });
            }
        });
        // Every temp file was renamed away (check the whole tree — entries
        // and their temp files live in prefix subdirectories); the entry is
        // whole and verified.
        assert_eq!(DiskCache::new(&dir).unwrap().stats().tmp_files, 0, "stray temp files");
        assert!(matches!(
            DiskCache::new(&dir).unwrap().load(&key),
            CacheLookup::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept() {
        let dir = std::env::temp_dir().join(format!("xtsim-tmpsweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let digest = "a".repeat(32);
        // `store` writes its temp files into the entry's prefix directory.
        let sub = dir.join(&digest[..2]);
        std::fs::create_dir_all(&sub).unwrap();

        // A temp file whose recorded writer is dead: spawn a process, let it
        // exit, and stamp its (now free) pid into the name.
        let dead = std::process::Command::new("true").spawn().ok().map(|mut child| {
            let pid = child.id();
            child.wait().unwrap();
            let path = sub.join(format!(".{digest}.{pid}.0.tmp"));
            std::fs::write(&path, b"{\"torn\":").unwrap();
            path
        });
        // A fresh temp file from a *live* writer (our own pid): must survive.
        let live = sub.join(format!(".{digest}.{}.1.tmp", std::process::id()));
        std::fs::write(&live, b"{\"inflight\":").unwrap();

        let cache = DiskCache::new(&dir).unwrap(); // sweeps on open
        if let Some(dead) = &dead {
            assert!(!dead.exists(), "dead writer's temp file not swept");
        }
        assert!(live.exists(), "live writer's fresh temp file was yanked");
        assert_eq!(cache.stats().tmp_files, 1);

        // Age-based fallback: with a zero max-age even the live file is
        // past the threshold (covers platforms without /proc).
        assert_eq!(cache.sweep_stale_tmp(Duration::ZERO), 1);
        assert!(!live.exists());
        assert_eq!(cache.stats().tmp_files, 0);

        // Committed entries are never touched by the sweep.
        let key = JobKey::new("tiny", None, None, Scale::Quick).with("i", 1u32).prepare();
        cache.store(&key, &obj(vec![("y", 1.0.into())])).unwrap();
        DiskCache::new(&dir).unwrap().sweep_stale_tmp(Duration::ZERO);
        assert!(matches!(cache.load(&key), CacheLookup::Hit(_)));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.tmp_files), (1, 0));
        assert!(stats.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_roundtrip_and_stats() {
        let dir = std::env::temp_dir().join(format!("xtsim-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::serial().with_cache(DiskCache::new(&dir).unwrap());
        let (_, cold) = run_figure(tiny_spec(3.0), &cfg);
        assert_eq!((cold.computed, cold.cached), (5, 0));
        let cfg = SweepConfig::threads(4).with_cache(DiskCache::new(&dir).unwrap());
        let (warm_fig, warm) = run_figure(tiny_spec(3.0), &cfg);
        assert_eq!((warm.computed, warm.cached), (0, 5));
        assert_eq!(warm_fig.series[0].points[4].1, 12.0);
        // Every job is in the record, in job order, with no spans.
        assert!(warm.jobs.iter().enumerate().all(|(i, j)| j.index == i && j.cached));
        assert!(warm.jobs.iter().all(|j| j.wall_secs == 0.0 && j.trace.is_none()));
        assert_eq!(warm.jobs[4].digest, cold.jobs[4].digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
