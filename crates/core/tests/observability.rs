//! End-to-end checks of the observability layer: a traced figure run must
//! emit valid Chrome trace-event JSON whose per-category durations agree
//! with the figure's metrics record, and the rank-time categories must sum
//! to the record's reported total simulated time. An untraced run returns
//! the same record with no spans.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Value;
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, SweepConfig};

const RANK_TIME_CATEGORIES: [&str; 4] = ["compute", "p2p", "collective", "io"];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtsim-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traced_run_matches_metrics_record() {
    let trace_dir = tmp_dir("trace");
    let cfg = SweepConfig::threads(2).with_trace_dir(&trace_dir);
    let spec = xtsim::figures::figure("fig02").unwrap().spec(Scale::Quick);
    let (_, m) = run_figure(spec, &cfg);

    assert_eq!(m.computed, m.total_jobs);
    assert_eq!(m.trace_files.len(), m.computed, "one trace per computed job");
    assert!(m.spans > 0, "network figure produced no spans");
    assert_eq!(m.dropped_spans, 0);
    assert!(m.jobs.iter().filter(|j| !j.cached).all(|j| j.trace.is_some()));

    // Re-derive per-category totals from the exported trace files and compare
    // against the metrics record (trace timestamps are microseconds).
    let mut from_traces: BTreeMap<String, f64> = BTreeMap::new();
    for fname in &m.trace_files {
        let text = std::fs::read_to_string(trace_dir.join(fname)).expect("trace file exists");
        let v: Value = serde_json::from_str(&text).expect("trace file is valid JSON");
        let top = v.as_object().expect("trace is an object");
        assert_eq!(
            top.get("figure").and_then(Value::as_str),
            Some("fig02"),
            "trace meta names its figure"
        );
        let events = top
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        for ev in events {
            let ev = ev.as_object().expect("event object");
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
            let cat = ev.get("cat").and_then(Value::as_str).expect("event category");
            let dur = ev.get("dur").and_then(Value::as_f64).expect("event duration");
            assert!(dur >= 0.0);
            *from_traces.entry(cat.to_string()).or_insert(0.0) += dur * 1e-6;
        }
    }
    for (cat, secs) in &m.sim_secs_by_category {
        let t = from_traces.get(cat).copied().unwrap_or(0.0);
        assert!(
            (t - secs).abs() <= 1e-9 + 1e-6 * secs.abs(),
            "category {cat}: traces say {t}, metrics say {secs}"
        );
    }

    // The acceptance invariant: rank-time categories partition the figure's
    // reported total simulated time (flows overlap and are excluded).
    let rank_time: f64 = RANK_TIME_CATEGORIES
        .iter()
        .filter_map(|c| from_traces.get(*c))
        .sum();
    assert!(
        (rank_time - m.sim_total_secs).abs() <= 1e-9 + 1e-6 * m.sim_total_secs,
        "rank-time sum {rank_time} != reported total {}",
        m.sim_total_secs
    );
    assert!(m.sim_total_secs > 0.0, "figure attributed no simulated time");

    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn untraced_run_collects_no_metrics_and_same_figure() {
    let trace_dir = tmp_dir("off");
    let (plain_fig, plain) = run_figure(
        xtsim::figures::figure("fig05").unwrap().spec(Scale::Quick),
        &SweepConfig::serial(),
    );
    let (traced_fig, traced) = run_figure(
        xtsim::figures::figure("fig05").unwrap().spec(Scale::Quick),
        &SweepConfig::serial().with_trace_dir(&trace_dir),
    );
    // Without a trace directory the record has its jobs but no spans.
    assert_eq!(plain.computed, plain.total_jobs);
    assert_eq!(plain.jobs.len(), plain.total_jobs);
    assert!(plain.jobs.iter().all(|j| j.trace.is_none() && j.wall_secs > 0.0));
    assert_eq!((plain.spans, plain.dropped_spans, plain.sim_total_secs), (0, 0, 0.0));
    assert!(plain.sim_secs_by_category.is_empty() && plain.span_counts_by_category.is_empty());
    assert!(plain.trace_files.is_empty());
    // With one, every computed job carries a summary and a trace file.
    assert!(traced.jobs.iter().all(|j| j.trace.is_some()));
    assert_eq!(traced.trace_files.len(), traced.computed);
    // Capture must not perturb simulated results.
    assert_eq!(
        serde_json::to_string(&plain_fig).unwrap(),
        serde_json::to_string(&traced_fig).unwrap()
    );
    let _ = std::fs::remove_dir_all(&trace_dir);
}
