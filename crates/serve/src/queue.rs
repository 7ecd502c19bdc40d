//! Bounded run queue with admission control and a fixed worker pool.
//!
//! The service must protect the machine it runs on: a burst of clients may
//! not queue unbounded work (memory) nor run unbounded figures at once
//! (CPU). [`Scheduler::submit`] therefore rejects — the HTTP layer turns
//! that into a 429 — once `queue_capacity` runs are waiting, and at most
//! `workers` figure runs execute concurrently.
//!
//! The run table is bounded too: it keeps queued and running runs plus the
//! `KEEP_FINISHED` runs that finished last, so a long-lived service does
//! not grow with every request it has answered.
//!
//! The executor is injected as a closure so tests can drive admission
//! control with a blocking stub instead of real multi-second figure runs.
//! It publishes a run's outcome through a callback ([`Publish`]): the run
//! is served as finished from then on, while the executor may still work
//! on it, and its worker takes the next run only when the executor
//! returns.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::impl_serde_struct;
use xtsim::report::Scale;

/// Queue telemetry handles (process-wide, registered once). Wall-clock
/// only — the queue is pure harness, nothing here touches simulated time.
struct QueueMetrics {
    wait_seconds: Arc<xtsim_obs::Histogram>,
    service_seconds: Arc<xtsim_obs::Histogram>,
    rejected: Arc<xtsim_obs::Counter>,
}

fn queue_metrics() -> &'static QueueMetrics {
    static M: OnceLock<QueueMetrics> = OnceLock::new();
    M.get_or_init(|| QueueMetrics {
        wait_seconds: xtsim_obs::histogram(
            "xtsim_queue_wait_seconds",
            "Time a run sat in the bounded queue before a worker claimed it.",
        ),
        service_seconds: xtsim_obs::histogram(
            "xtsim_queue_service_seconds",
            "Time a worker spent executing a claimed run.",
        ),
        rejected: xtsim_obs::counter(
            "xtsim_queue_rejected_total",
            "Submissions turned away by admission control (HTTP 429).",
        ),
    })
}

/// Finished runs the run table keeps. When one more finishes, the one that
/// finished first leaves the table: its id then answers 404, though its
/// registry line stays.
const KEEP_FINISHED: usize = 1024;

/// One scenario request: which figure, at what scale, on how many workers.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Figure or ablation id, e.g. `"fig02"` (validated before submit).
    pub figure: String,
    /// Sweep scale.
    pub scale: Scale,
    /// Sweep worker threads for this run.
    pub jobs: usize,
}

/// Lifecycle of a submitted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Waiting in the bounded queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the result JSON is available.
    Done,
    /// The executor reported an error.
    Failed,
}

impl RunStatus {
    /// Lower-case label used in API responses and registry records.
    pub fn label(self) -> &'static str {
        match self {
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Done => "done",
            RunStatus::Failed => "failed",
        }
    }
}

/// What the executor hands back for a completed run: exactly what
/// `GET /runs/<id>` and `GET /runs/<id>/result` serve. The full per-figure
/// record goes to the registry, not into the run table.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Pretty-printed figure JSON, byte-identical to the `figures` CLI's
    /// `<id>.json` artifact for the same request. Shared, so a snapshot of
    /// the run table ([`Scheduler::run`], [`Scheduler::runs`]) never copies
    /// a body.
    pub result_json: Arc<str>,
    /// Wall-clock seconds for the figure run.
    pub wall_secs: f64,
    /// Jobs executed this run.
    pub computed: usize,
    /// Jobs answered from the cache.
    pub cached: usize,
}

/// Full state of one run as tracked by the scheduler.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Monotonic run id (scoped to this service process).
    pub id: u64,
    /// The request as admitted.
    pub request: RunRequest,
    /// Current lifecycle state.
    pub status: RunStatus,
    /// Executor output once `status` is `Done`.
    pub output: Option<RunOutput>,
    /// Error text once `status` is `Failed`.
    pub error: Option<String>,
    /// Seconds the run sat queued before a worker claimed it (set when the
    /// run leaves `Queued`).
    pub wait_secs: Option<f64>,
    /// Seconds the executor spent on the run until it published the
    /// outcome (set then, for `Done` and `Failed` alike).
    pub exec_secs: Option<f64>,
}

/// Queue-level counters for `/stats`.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Runs waiting in the queue right now.
    pub queued: u64,
    /// Runs executing right now.
    pub running: u64,
    /// Runs finished successfully since startup.
    pub done: u64,
    /// Runs failed since startup.
    pub failed: u64,
    /// Submissions rejected by admission control since startup.
    pub rejected: u64,
    /// Queue capacity (admission-control threshold).
    pub capacity: u64,
    /// Concurrent-run cap (worker count).
    pub workers: u64,
}

impl_serde_struct!(QueueStats { queued, running, done, failed, rejected, capacity, workers });

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is full — retry later (HTTP 429).
    QueueFull,
}

/// Hands a run's outcome to the scheduler: from then on the run's status
/// and result are served. An executor calls it once per run and may keep
/// working after it (the production executor writes the run's registry
/// line then, off the path of clients waiting for the result).
pub type Publish<'a> = &'a mut dyn FnMut(Result<RunOutput, String>);

/// The run executor: performs the actual figure run for an admitted
/// request and publishes its outcome. Receives the run id (to stamp
/// registry records) and the measured queue wait in seconds (so records
/// can carry `wait_secs` — the scheduler is the only party that knows
/// it). A run whose executor returns without publishing is marked failed.
pub type Executor = Arc<dyn Fn(u64, &RunRequest, f64, Publish<'_>) + Send + Sync>;

/// An executor that publishes what `run` returns and does nothing after.
pub fn executor(
    run: impl Fn(u64, &RunRequest, f64) -> Result<RunOutput, String> + Send + Sync + 'static,
) -> Executor {
    Arc::new(move |id, req: &RunRequest, wait: f64, publish: Publish<'_>| {
        publish(run(id, req, wait))
    })
}

struct State {
    queue: VecDeque<u64>,
    /// Submission instants for queued runs, keyed by id; consumed when a
    /// worker claims the run to produce `wait_secs`.
    submitted: BTreeMap<u64, Instant>,
    runs: BTreeMap<u64, RunRecord>,
    /// Ids of finished runs still in `runs`, in finishing order.
    finished: VecDeque<u64>,
    next_id: u64,
    running: u64,
    done: u64,
    failed: u64,
    rejected: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
}

/// Bounded-queue scheduler over a fixed worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
    capacity: usize,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Start `workers` worker threads servicing a queue of at most
    /// `capacity` waiting runs, executing admitted requests with `exec`.
    pub fn new(capacity: usize, workers: usize, exec: Executor) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                submitted: BTreeMap::new(),
                runs: BTreeMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
                running: 0,
                done: 0,
                failed: 0,
                rejected: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || worker_loop(&shared, &exec))
            })
            .collect();
        Scheduler { shared, capacity: capacity.max(1), workers: handles }
    }

    /// Admit `request` if the queue has room; returns its run id.
    pub fn submit(&self, request: RunRequest) -> Result<u64, Rejected> {
        let mut st = self.shared.state.lock().unwrap();
        if st.queue.len() >= self.capacity {
            st.rejected += 1;
            queue_metrics().rejected.inc();
            return Err(Rejected::QueueFull);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.runs.insert(
            id,
            RunRecord {
                id,
                request,
                status: RunStatus::Queued,
                output: None,
                error: None,
                wait_secs: None,
                exec_secs: None,
            },
        );
        st.submitted.insert(id, Instant::now());
        st.queue.push_back(id);
        drop(st);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Snapshot of one run's state.
    pub fn run(&self, id: u64) -> Option<RunRecord> {
        self.shared.state.lock().unwrap().runs.get(&id).cloned()
    }

    /// Snapshot of every run in the table, in id (submission) order.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.shared.state.lock().unwrap().runs.values().cloned().collect()
    }

    /// Queue counters for `/stats`.
    pub fn stats(&self) -> QueueStats {
        let st = self.shared.state.lock().unwrap();
        QueueStats {
            queued: st.queue.len() as u64,
            running: st.running,
            done: st.done,
            failed: st.failed,
            rejected: st.rejected,
            capacity: self.capacity as u64,
            workers: self.workers.len() as u64,
        }
    }

    /// Stop accepting queued work and join the workers. Queued-but-unstarted
    /// runs stay `Queued` forever; callers only use this on process exit and
    /// in tests.
    pub fn shutdown(mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, exec: &Executor) {
    loop {
        let (id, request, wait) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    st.running += 1;
                    let wait = st
                        .submitted
                        .remove(&id)
                        .map(|t| t.elapsed().as_secs_f64())
                        .unwrap_or(0.0);
                    queue_metrics().wait_seconds.observe(wait);
                    let rec = st.runs.get_mut(&id).expect("queued run exists");
                    rec.status = RunStatus::Running;
                    rec.wait_secs = Some(wait);
                    break (id, rec.request.clone(), wait);
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let started = Instant::now();
        let mut published = false;
        exec(id, &request, wait, &mut |outcome| {
            if !published {
                published = true;
                finish(shared, id, outcome, started.elapsed().as_secs_f64());
            }
        });
        if !published {
            let outcome = Err("the executor published no outcome".to_string());
            finish(shared, id, outcome, started.elapsed().as_secs_f64());
        }
    }
}

/// Publish run `id`'s outcome after `exec_secs` of execution: mark it done
/// or failed and keep the run table within its bound.
fn finish(shared: &Shared, id: u64, outcome: Result<RunOutput, String>, exec_secs: f64) {
    queue_metrics().service_seconds.observe(exec_secs);
    let mut st = shared.state.lock().unwrap();
    st.running -= 1;
    let rec = st.runs.get_mut(&id).expect("running run exists");
    rec.exec_secs = Some(exec_secs);
    match outcome {
        Ok(out) => {
            rec.status = RunStatus::Done;
            rec.output = Some(out);
            st.done += 1;
        }
        Err(e) => {
            rec.status = RunStatus::Failed;
            rec.error = Some(e);
            st.failed += 1;
        }
    }
    st.finished.push_back(id);
    if st.finished.len() > KEEP_FINISHED {
        let oldest = st.finished.pop_front().expect("finished runs");
        st.runs.remove(&oldest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn wait_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached within 10s");
    }

    fn instant_exec() -> Executor {
        executor(|_id, req: &RunRequest, _wait: f64| {
            Ok(RunOutput {
                result_json: format!("{{\"id\":\"{}\"}}", req.figure).into(),
                wall_secs: 0.0,
                computed: 1,
                cached: 0,
            })
        })
    }

    fn req(figure: &str) -> RunRequest {
        RunRequest { figure: figure.into(), scale: Scale::Quick, jobs: 1 }
    }

    #[test]
    fn runs_complete_and_keep_results() {
        let sched = Scheduler::new(8, 2, instant_exec());
        let a = sched.submit(req("fig01")).unwrap();
        let b = sched.submit(req("fig02")).unwrap();
        assert_ne!(a, b);
        wait_until(|| {
            [a, b].iter().all(|id| sched.run(*id).unwrap().status == RunStatus::Done)
        });
        let rec = sched.run(b).unwrap();
        assert_eq!(&*rec.output.unwrap().result_json, "{\"id\":\"fig02\"}");
        assert!(rec.wait_secs.is_some(), "completed run must expose queue wait");
        assert!(rec.exec_secs.is_some(), "completed run must expose exec time");
        assert!(rec.wait_secs.unwrap() >= 0.0 && rec.exec_secs.unwrap() >= 0.0);
        let stats = sched.stats();
        assert_eq!((stats.done, stats.failed, stats.queued), (2, 0, 0));
        sched.shutdown();
    }

    #[test]
    fn snapshots_share_the_stored_result_body() {
        let body: Arc<str> = Arc::from("{\"id\":\"fig01\"}");
        let exec: Executor = {
            let body = Arc::clone(&body);
            executor(move |_id, _: &RunRequest, _wait: f64| {
                Ok(RunOutput { result_json: Arc::clone(&body), wall_secs: 0.0, computed: 0, cached: 1 })
            })
        };
        let sched = Scheduler::new(4, 1, exec);
        let id = sched.submit(req("fig01")).unwrap();
        wait_until(|| sched.run(id).unwrap().status == RunStatus::Done);
        let one = sched.run(id).unwrap().output.unwrap();
        assert!(Arc::ptr_eq(&one.result_json, &body), "GET /runs/:id copied the body");
        let all = sched.runs();
        let listed = all[0].output.as_ref().unwrap();
        assert!(Arc::ptr_eq(&listed.result_json, &body), "GET /runs copied the body");
        sched.shutdown();
    }

    #[test]
    fn queue_full_rejects_then_drains_and_accepts() {
        // Executor blocks until released, so the queue fills deterministically.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let exec: Executor = {
            let release_rx = Arc::clone(&release_rx);
            executor(move |_id, req: &RunRequest, _wait: f64| {
                release_rx.lock().unwrap().recv().map_err(|e| e.to_string())?;
                Ok(RunOutput {
                    result_json: req.figure.as_str().into(),
                    wall_secs: 0.0,
                    computed: 0,
                    cached: 0,
                })
            })
        };
        let sched = Scheduler::new(2, 1, exec);
        // One run occupies the worker; wait for it to leave the queue.
        let running = sched.submit(req("r0")).unwrap();
        wait_until(|| sched.run(running).unwrap().status == RunStatus::Running);
        // Two more fill the bounded queue...
        sched.submit(req("q1")).unwrap();
        sched.submit(req("q2")).unwrap();
        // ...and the next submission is turned away (HTTP 429).
        assert_eq!(sched.submit(req("q3")), Err(Rejected::QueueFull));
        assert_eq!(sched.stats().rejected, 1);
        assert_eq!(sched.stats().queued, 2);

        // Release every blocked/queued run; the queue drains...
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        wait_until(|| sched.stats().done == 3);
        // ...and admission opens back up.
        let id = sched.submit(req("q4")).unwrap();
        release_tx.send(()).unwrap();
        wait_until(|| sched.run(id).unwrap().status == RunStatus::Done);
        sched.shutdown();
    }

    #[test]
    fn the_run_table_keeps_the_newest_finished_runs() {
        let extra = 3;
        let total = (KEEP_FINISHED + extra) as u64;
        let sched = Scheduler::new(KEEP_FINISHED + extra, 1, instant_exec());
        let ids: Vec<u64> = (0..total).map(|_| sched.submit(req("fig01")).unwrap()).collect();
        wait_until(|| sched.stats().done == total);
        for &id in &ids[..extra] {
            assert!(sched.run(id).is_none(), "run {id} outlived the bound");
        }
        for &id in &ids[extra..] {
            assert_eq!(sched.run(id).map(|r| r.status), Some(RunStatus::Done), "run {id}");
        }
        assert_eq!(sched.runs().len(), KEEP_FINISHED);
        let stats = sched.stats();
        assert_eq!((stats.done, stats.failed, stats.queued, stats.running), (total, 0, 0, 0));
        sched.shutdown();
    }

    #[test]
    fn executor_errors_mark_runs_failed() {
        let exec = executor(|_id, _: &RunRequest, _wait: f64| Err("boom".to_string()));
        let sched = Scheduler::new(4, 1, exec);
        let id = sched.submit(req("fig01")).unwrap();
        wait_until(|| sched.run(id).unwrap().status == RunStatus::Failed);
        assert_eq!(sched.run(id).unwrap().error.as_deref(), Some("boom"));
        assert!(sched.run(id).unwrap().exec_secs.is_some(), "failed runs are timed too");
        assert_eq!(sched.stats().failed, 1);
        sched.shutdown();
    }

    /// A run is served as done from the moment its executor publishes,
    /// while the executor is still at work on it; an executor that returns
    /// without publishing fails its run.
    #[test]
    fn runs_finish_when_published() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let exec: Executor = Arc::new(move |_id, req: &RunRequest, _wait: f64, publish: Publish<'_>| {
            if req.figure == "silent" {
                return;
            }
            publish(Ok(RunOutput {
                result_json: req.figure.as_str().into(),
                wall_secs: 0.0,
                computed: 0,
                cached: 0,
            }));
            release_rx.lock().unwrap().recv().unwrap();
        });
        let sched = Scheduler::new(4, 1, exec);
        let id = sched.submit(req("fig01")).unwrap();
        wait_until(|| sched.run(id).unwrap().status == RunStatus::Done);
        let queued = sched.submit(req("silent")).unwrap();
        assert_eq!(sched.run(queued).unwrap().status, RunStatus::Queued, "worker still busy");
        release_tx.send(()).unwrap();
        wait_until(|| sched.run(queued).unwrap().status == RunStatus::Failed);
        let error = sched.run(queued).unwrap().error;
        assert_eq!(error.as_deref(), Some("the executor published no outcome"));
        sched.shutdown();
    }
}
