//! Batch workloads (`pop-scale`, `full-mix`): repeat the figure
//! regeneration in fresh child processes for the measurement window.
//!
//! The first repetition runs the figures and jobs in the seed's shuffled
//! order and only checks outputs (and warms the page cache); the timed
//! repetitions keep registry order. With two workers the job order sets
//! the schedule, and a shuffled schedule moves the wall time of a few-job
//! figure by up to 40 %, which would swamp the regression bounds.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Instant;

use serde::Value;

use crate::rep::Mode;
use crate::report::{is_time_unit, unit_of, Outcome};
use crate::workload::Workload;
use crate::Opts;

/// Timed repetitions a run makes even when the window is already over.
const MIN_REPS: usize = 3;

/// Kills and reaps a child process however the parent leaves scope.
pub struct ChildGuard(Option<Child>);

impl ChildGuard {
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard(Some(child))
    }

    pub fn child(&mut self) -> &mut Child {
        self.0
            .as_mut()
            .expect("child is reaped only by wait, which consumes the guard")
    }

    pub fn wait(mut self) -> std::io::Result<ExitStatus> {
        self.child().wait()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            // A child that already exited makes kill fail; wait still reaps it.
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One repetition as the parent saw it.
pub struct Rep {
    /// Spawn until the child finished building specs and opening the cache.
    pub setup_s: f64,
    /// From then until the last artifact was written.
    pub wall_s: f64,
    /// The child's report line.
    pub report: Value,
}

impl Rep {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.report.as_object().and_then(|o| o.get(key))
    }

    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    pub fn layers(&self) -> impl Iterator<Item = (&String, f64)> {
        self.get("layers")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| Some((k, v.as_f64()?)))
    }

    /// Count the repetition's figures as attempted and its mismatches as
    /// failed.
    pub fn record(&self, o: &mut Outcome) {
        o.attempted += self.num("figures") as u64;
        for f in self
            .get("failures")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            o.fail(f.as_str().unwrap_or("?").to_string());
        }
    }
}

/// Run one repetition of `w` in a child process under `dir` (emptied
/// first).
pub fn spawn_rep(
    w: Workload,
    order: u64,
    mode: Mode,
    dir: &Path,
    smoke: bool,
    spans: Option<&Path>,
) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(dir);
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "rep",
        "--workload",
        w.name(),
        "--order",
        &order.to_string(),
        "--mode",
        mode.label(),
    ]);
    cmd.arg("--dir").arg(dir);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let t0 = Instant::now();
    let mut child = ChildGuard::new(
        cmd.stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn rep: {e}"))?,
    );
    let stdout = child.child().stdout.take().expect("stdout is piped");
    let (mut ready, mut done, mut report) = (None, None, None);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read rep output: {e}"))?;
        match line.as_str() {
            "ready" => ready = Some(t0.elapsed().as_secs_f64()),
            "done" => done = Some(t0.elapsed().as_secs_f64()),
            l if l.starts_with('{') => report = serde_json::from_str::<Value>(l).ok(),
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("wait for rep: {e}"))?;
    match (status.success(), ready, done, report) {
        (true, Some(r), Some(d), Some(report)) => Ok(Rep {
            setup_s: r,
            wall_s: d - r,
            report,
        }),
        _ => Err(format!(
            "{} repetition ({}) failed: {status}",
            w.name(),
            mode.label()
        )),
    }
}

pub fn run(w: Workload, opts: &Opts, out: &Path) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut o = Outcome::default();
    let rep_dir = out.join("rep");
    let spans = out.join("spans.json");
    let first = spawn_rep(w, opts.seed, Mode::Plain, &rep_dir, opts.smoke, None)?;
    first.record(&mut o);
    o.add("setup_s", first.setup_s);

    let mut reps: Vec<(Mode, Rep)> = Vec::new();
    let count = |reps: &[(Mode, Rep)], m: Mode| reps.iter().filter(|r| r.0 == m).count();
    loop {
        let enough = if opts.trace {
            count(&reps, Mode::Light) >= 1 && count(&reps, Mode::Captured) >= 1
        } else {
            count(&reps, Mode::Plain) >= MIN_REPS
        };
        let elapsed = start.elapsed().as_secs_f64();
        if (enough && elapsed >= opts.seconds) || elapsed >= crate::HARD_STOP_S {
            break;
        }
        let mode = match (opts.trace, reps.len() % 2) {
            (false, _) => Mode::Plain,
            (true, 0) => Mode::Light,
            (true, _) => Mode::Captured,
        };
        let span_file = (mode == Mode::Captured).then_some(spans.as_path());
        let rep = spawn_rep(w, 0, mode, &rep_dir, opts.smoke, span_file)?;
        rep.record(&mut o);
        o.add("setup_s", rep.setup_s);
        reps.push((mode, rep));
    }
    let _ = std::fs::remove_dir_all(&rep_dir);
    fold(&mut o, &reps);
    Ok(o)
}

/// Fold timed repetitions into `o`: end-to-end samples from the plain
/// ones, per-layer samples from the light and captured ones. Operation
/// counts come from the last capture, host times from the light runs (the
/// capture itself slows the jobs it counts).
pub fn fold(o: &mut Outcome, reps: &[(Mode, Rep)]) {
    // Peak memory is the largest of the repetitions' peaks: which big jobs
    // happen to overlap on the two workers decides a single repetition's
    // peak, so a median would flip between the overlapping and the
    // non-overlapping value from run to run.
    let peak = reps
        .iter()
        .filter(|r| r.0 == Mode::Plain)
        .map(|r| r.1.num("peak_rss_mb"))
        .reduce(f64::max);
    if let Some(peak) = peak {
        o.add("peak_rss_mb", peak);
    }
    for (mode, r) in reps {
        match mode {
            Mode::Plain => {
                o.add("latency_p50_ms", r.wall_s * 1e3);
                o.add("throughput_per_s", r.num("computed") / r.wall_s);
                o.add("cpu_ms_per_req", r.num("cpu_s") * 1e3);
            }
            Mode::Light => {
                for (k, v) in r.layers() {
                    o.add(k, v);
                }
                o.add("light_wall_s", r.wall_s);
            }
            Mode::Captured => o.add("captured_wall_s", r.wall_s),
        }
    }
    if let Some((_, c)) = reps.iter().rev().find(|r| r.0 == Mode::Captured) {
        for (k, v) in c.layers() {
            if !is_time_unit(unit_of(k)) && !o.samples.contains_key(k) {
                o.add(k, v);
            }
        }
        let spans = c
            .layers()
            .find(|(k, _)| *k == "des.spans")
            .map_or(0.0, |(_, v)| v);
        if spans > 0.0 {
            let per_op: Vec<f64> = o
                .samples
                .get("core.sweep.job_s")
                .into_iter()
                .flatten()
                .map(|s| s / spans * 1e9)
                .collect();
            o.samples.insert("des.ns_per_op".into(), per_op);
        }
    }
    if let (Some(t), Some(u)) = (
        o.samples.remove("captured_wall_s"),
        o.samples.remove("light_wall_s"),
    ) {
        o.add(
            "trace.overhead_frac",
            crate::stats::median(&t) / crate::stats::median(&u) - 1.0,
        );
    }
}

/// Directory for one workload's artifacts under `benchmark/out/`.
pub fn out_dir(w: Workload) -> PathBuf {
    PathBuf::from(crate::BENCH_DIR).join("out").join(w.name())
}
