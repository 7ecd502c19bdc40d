//! The metrics a run reports, the result line printed last on stdout,
//! the human-readable table before it, and the results file.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;
use xtsim::sweep::obj;

use crate::stats::summarize;

/// End-to-end metrics and their units. Every workload reports all of them
/// with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports in a traced run. Layers a
/// workload bypasses read 0; workload-specific extras (per job kind, serve
/// client and HTTP timings) are printed and written to the results file
/// but kept out of this list.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("des.ns_per_op", "ns"),
    ("des.spans", "count"),
    ("des.dropped_spans", "count"),
    ("mpi.p2p_ops", "count"),
    ("mpi.collective_ops", "count"),
    ("machine.compute_ops", "count"),
    ("net.flows", "count"),
    ("lustre.io_ops", "count"),
    ("sim.rank_busy_s", "sim_s"),
    ("core.sweep.job_s", "s"),
    ("core.sweep.crit_job_s", "s"),
    ("core.sweep.idle_worker_s", "s"),
    ("core.sweep.harness_s", "s"),
    ("core.figures.spec_s", "s"),
    ("core.report.render_s", "s"),
    ("core.report.write_s", "s"),
    ("core.cache.lookup_us", "us"),
    ("core.cache.mem_hits", "count"),
    ("core.cache.disk_hits", "count"),
    ("core.cache.entries", "count"),
    ("core.cache.disk_bytes", "bytes"),
    ("queue.wait_ms", "ms"),
    ("queue.service_ms", "ms"),
    ("serve.polls_per_req", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Unit of a metric: from the tables above, else from its name's suffix.
pub fn unit_of(name: &str) -> &'static str {
    if let Some((_, u)) = END_TO_END.iter().chain(&PER_LAYER).find(|m| m.0 == name) {
        return u;
    }
    match name {
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us") => "us",
        n if n.ends_with(".s") || n.ends_with("_s") => "s",
        _ => "count",
    }
}

pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the reader.
    pub errors: Vec<String>,
    /// Samples per metric: one per repetition, request, or run.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    pub fn add(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Median of a metric's samples; 0 for a layer the run never reached.
    pub fn value(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| crate::stats::median(v))
    }
}

/// The metric names the result line carries in this mode.
pub fn declared(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

fn metric_json(o: &Outcome, name: &str) -> Value {
    let mut fields = vec![
        ("value", o.value(name).into()),
        ("unit", unit_of(name).into()),
    ];
    if let Some(s) = o.samples.get(name).filter(|v| !v.is_empty()) {
        let s = summarize(s);
        fields.extend([("q1", s.q1.into()), ("q3", s.q3.into()), ("n", s.n.into())]);
    }
    obj(fields)
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every declared metric of this mode.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics = declared(trace)
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                obj(vec![
                    ("value", o.value(n).into()),
                    ("unit", unit_of(n).into()),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&obj(vec![
        ("correct", (o.failed == 0).into()),
        ("attempted", o.attempted.max(1).into()),
        ("failed", o.failed.into()),
        ("metrics", Value::Object(metrics)),
    ]))
    .expect("result line serializes")
}

/// Human-readable table: every metric with median, quartiles and n.
pub fn table(o: &Outcome, workload: &str, trace: bool) -> String {
    let mut out = format!(
        "# {workload}: {} attempted, {} failed{}\n",
        o.attempted,
        o.failed,
        if trace {
            " (traced run: per-layer metrics)"
        } else {
            ""
        }
    );
    for e in &o.errors {
        out.push_str(&format!("#   failure: {e}\n"));
    }
    let declared = declared(trace);
    let extras = o
        .samples
        .keys()
        .map(String::as_str)
        .filter(|n| !declared.contains(n) && !END_TO_END.iter().any(|m| m.0 == *n));
    for name in declared.iter().copied().chain(extras) {
        let unit = unit_of(name);
        match o.samples.get(name).filter(|v| !v.is_empty()) {
            Some(v) => {
                let s = summarize(v);
                out.push_str(&format!(
                    "{name:<28} {:>14.6} {unit:<6} q1 {:.6}  q3 {:.6}  n {}\n",
                    s.median, s.q1, s.q3, s.n
                ));
            }
            None => out.push_str(&format!(
                "{name:<28} {:>14} {unit:<6} (layer not exercised)\n",
                0
            )),
        }
    }
    out
}

/// Write the full results (every metric with its samples) as JSON.
pub fn write_results(path: &Path, o: &Outcome, header: Vec<(&str, Value)>) -> Result<(), String> {
    let metrics: BTreeMap<String, Value> = o
        .samples
        .keys()
        .map(|n| {
            let mut m = metric_json(o, n);
            if let Value::Object(map) = &mut m {
                map.insert(
                    "samples".into(),
                    Value::Array(o.samples[n].iter().map(|&v| v.into()).collect()),
                );
            }
            (n.clone(), m)
        })
        .collect();
    let mut fields = header;
    fields.extend([
        ("correct", (o.failed == 0).into()),
        ("attempted", o.attempted.into()),
        ("failed", o.failed.into()),
        (
            "errors",
            Value::Array(o.errors.iter().map(|e| e.as_str().into()).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ]);
    let text = serde_json::to_string_pretty(&obj(fields)).expect("results serialize");
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Check a result line against `BENCHMARK.json`: the same metric names
/// with the same units, and numbers everywhere.
pub fn validate(line: &str, benchmark_json: &str, trace: bool) -> Result<(), String> {
    let spec: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let got: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e:?}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let want = spec
        .as_object()
        .and_then(|o| o.get(section))
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {section}"))?;
    let top = got.as_object().ok_or("result line is not an object")?;
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result line keys {keys:?}"));
    }
    let metrics = top["metrics"]
        .as_object()
        .ok_or("metrics is not an object")?;
    if metrics.len() != want.len() {
        return Err(format!(
            "{} metrics reported, BENCHMARK.json declares {}",
            metrics.len(),
            want.len()
        ));
    }
    for m in want {
        let field = |k: &str| {
            m.as_object()
                .and_then(|o| o.get(k))
                .and_then(Value::as_str)
                .unwrap_or("")
        };
        let (name, unit) = (field("name"), field("unit"));
        let got = metrics
            .get(name)
            .and_then(Value::as_object)
            .ok_or(format!("metric {name} missing"))?;
        if got.get("unit").and_then(Value::as_str) != Some(unit) {
            return Err(format!(
                "metric {name}: unit differs from BENCHMARK.json's {unit}"
            ));
        }
        if got.get("value").and_then(Value::as_f64).is_none() {
            return Err(format!("metric {name}: value is not a number"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.add("latency_p50_ms", 10.0);
        o.add("latency_p50_ms", 30.0);
        o.add("apps.pop.s", 1.0);
        let line = result_line(&o, false);
        let v: Value = serde_json::from_str(&line).unwrap();
        let m = v.as_object().unwrap()["metrics"]
            .as_object()
            .unwrap()
            .clone();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["latency_p50_ms"].as_object().unwrap()["value"].as_f64(),
            Some(20.0)
        );
        assert!(!m.contains_key("apps.pop.s"));
        let bench = format!(
            "{{\"end_to_end\": [{}], \"per_layer\": []}}",
            END_TO_END
                .iter()
                .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"}}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(validate(&line, &bench, false), Ok(()));
        assert!(validate(&line.replace("\"ms\"", "\"s\""), &bench, false).is_err());
    }

    #[test]
    fn units_come_from_tables_then_suffixes() {
        assert_eq!(unit_of("throughput_per_s"), "1/s");
        assert_eq!(unit_of("sim.rank_busy_s"), "sim_s");
        assert_eq!(unit_of("apps.cam.s"), "s");
        assert_eq!(unit_of("serve.submit_ms"), "ms");
        assert_eq!(unit_of("apps.cam.n"), "count");
    }
}
