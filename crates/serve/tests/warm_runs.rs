//! A warm `figure_executor` run reuses the job keys its figure's first run
//! prepared: it returns the same result bytes and records the same job
//! digests, and adds nothing to `xtsim_sweep_keys_prepared_total`. The
//! counter is process-wide, so this binary holds only this test.

use std::sync::Arc;

use serde::Value;
use xtsim::figures::figure;
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, DiskCache, SweepConfig};
use xtsim_serve::queue::{Executor, RunOutput, RunRequest};
use xtsim_serve::registry::Registry;
use xtsim_serve::server::figure_executor;

fn keys_prepared() -> u64 {
    xtsim_obs::snapshot().counter_sum("xtsim_sweep_keys_prepared_total", &[])
}

/// Run `req` as run `id` and return the outcome `exec` published.
fn run(exec: &Executor, id: u64, req: &RunRequest) -> RunOutput {
    let mut published = None;
    exec(id, req, 0.0, &mut |outcome| published = Some(outcome));
    published.expect("the executor publishes").unwrap()
}

/// The job digests of a registry record, in job order.
fn digests(record: &Value) -> Vec<String> {
    let jobs = record.as_object().and_then(|r| r.get("metrics")).and_then(|m| m.as_object());
    let jobs = jobs.and_then(|m| m.get("jobs")).and_then(Value::as_array).expect("record lists jobs");
    jobs.iter()
        .map(|j| j.as_object().unwrap().get("digest").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn a_warm_run_prepares_no_keys_and_returns_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("xtsim-warm-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::new(dir.join("cache")).unwrap();
    let registry = Arc::new(Registry::open(dir.join("registry")).unwrap());
    let exec = figure_executor(Some(cache), Some(Arc::clone(&registry)));
    let req = RunRequest { figure: "fig02".into(), scale: Scale::Quick, jobs: 1 };
    let jobs = figure("fig02").unwrap().spec(Scale::Quick).jobs.len() as u64;

    let before = keys_prepared();
    let cold = run(&exec, 1, &req);
    assert_eq!(keys_prepared() - before, jobs, "the first run prepares each key once");
    let warm = run(&exec, 2, &req);
    assert_eq!(keys_prepared() - before, jobs, "the warm run prepared keys again");
    assert_eq!((warm.computed, warm.cached), (0, jobs as usize));
    assert_eq!(warm.result_json, cold.result_json);

    // The CLI's path, which prepares its own keys, writes the same bytes.
    let (fig, _) = run_figure(figure("fig02").unwrap().spec(Scale::Quick), &SweepConfig::serial());
    assert_eq!(&*warm.result_json, serde_json::to_string_pretty(&fig).unwrap());

    let records = registry.replay().records;
    assert_eq!(records.len(), 2);
    assert_eq!(digests(&records[0]), digests(&records[1]));
    assert_eq!(digests(&records[1]).len() as u64, jobs);
    let _ = std::fs::remove_dir_all(&dir);
}
