//! Pinned outputs: every figure a workload produces is checked against the
//! JSON blessed into `benchmark/expected/<scale>/<id>.json`, with the same
//! tolerances as the repository's golden-figure gate.

use std::path::PathBuf;

use serde::Value;
use xtsim::report::Scale;
use xtsim::sweep::{run_figure, SweepConfig};

use crate::workload::{Workload, ALL};

/// The engine is deterministic, so pins normally match byte for byte; the
/// tolerance only absorbs libm-level differences across toolchains.
const RTOL: f64 = 1e-9;
const ATOL: f64 = 1e-12;

pub fn expected_path(scale: Scale, id: &str) -> PathBuf {
    PathBuf::from(crate::BENCH_DIR)
        .join("expected")
        .join(scale.label())
        .join(format!("{id}.json"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ATOL + RTOL * a.abs().max(b.abs())
}

/// Structural comparison with numeric tolerance; the error names the path
/// of the first mismatch.
pub fn compare(path: &str, got: &Value, want: &Value) -> Result<(), String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            if !g.keys().eq(w.keys()) {
                return Err(format!("{path}: keys differ"));
            }
            g.iter()
                .zip(w.values())
                .try_for_each(|((k, gv), wv)| compare(&format!("{path}.{k}"), gv, wv))
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Err(format!("{path}: length {} != {}", g.len(), w.len()));
            }
            g.iter()
                .zip(w)
                .enumerate()
                .try_for_each(|(i, (gv, wv))| compare(&format!("{path}[{i}]"), gv, wv))
        }
        _ => match (got.as_f64(), want.as_f64()) {
            (Some(g), Some(w)) if close(g, w) => Ok(()),
            (Some(g), Some(w)) => Err(format!("{path}: {g} != {w}")),
            _ if got == want => Ok(()),
            _ => Err(format!("{path}: {got:?} != {want:?}")),
        },
    }
}

/// Check one figure's pretty JSON against its pin: byte equality first,
/// the tolerance comparison only when the bytes differ.
pub fn check_text(id: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let parse = |t: &str| {
        serde_json::from_str::<Value>(t).map_err(|e| format!("{id}: unparseable JSON: {e:?}"))
    };
    compare(id, &parse(got)?, &parse(want)?)
}

/// Load the pins of one workload, keyed by figure id.
pub fn load(w: Workload, smoke: bool) -> Result<Vec<(String, String)>, String> {
    let scale = w.scale(smoke);
    w.figure_ids(smoke)
        .into_iter()
        .map(|id| {
            let path = expected_path(scale, id);
            std::fs::read_to_string(&path)
                .map(|text| (id.to_string(), text))
                .map_err(|e| {
                    format!(
                        "missing pin {}: {e} (run `benchmark/run.sh bless`)",
                        path.display()
                    )
                })
        })
        .collect()
}

/// `xtbench bless`: regenerate every pinned figure in registry order and
/// write it under `benchmark/expected/`. Pins record what this commit
/// computes; they make no claim of accuracy against the paper.
pub fn bless() -> Result<(), String> {
    let mut written = std::collections::BTreeSet::new();
    for w in ALL {
        for smoke in [false, true] {
            let scale = w.scale(smoke);
            for (spec, _) in w.specs(smoke) {
                let path = expected_path(scale, spec.id);
                if !written.insert(path.clone()) {
                    continue;
                }
                let fig = run_figure(spec, &SweepConfig::threads(2)).0;
                let text =
                    serde_json::to_string_pretty(&fig).map_err(|e| format!("serialize: {e:?}"))?;
                std::fs::create_dir_all(path.parent().expect("pin path has a parent"))
                    .and_then(|()| std::fs::write(&path, text))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("blessed {}", path.display());
            }
        }
    }
    Ok(())
}

/// Self-test on real pins: a pinned value perturbed by one part in a
/// million must be caught, and every pin must match itself.
pub fn self_test() -> Result<(), String> {
    fn perturb(v: &mut Value) -> bool {
        match v {
            Value::Float(f) if *f != 0.0 => {
                *f *= 1.0 + 1e-6;
                true
            }
            Value::Array(items) => items.iter_mut().any(perturb),
            Value::Object(fields) => fields.values_mut().any(perturb),
            _ => false,
        }
    }
    for (id, text) in load(Workload::PopScale, true)? {
        check_text(&id, &text, &text)?;
        let mut v: Value = serde_json::from_str(&text).map_err(|e| format!("{id}: {e:?}"))?;
        if !perturb(&mut v) {
            return Err(format!("{id}: pin holds no number to perturb"));
        }
        let bent = serde_json::to_string_pretty(&v).expect("Value serializes");
        if check_text(&id, &bent, &text).is_ok() {
            return Err(format!(
                "{id}: a value perturbed by 1e-6 passed the comparator"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn tolerance_comparator_catches_perturbed_values() {
        let a = v(r#"{"series": [{"name": "s", "points": [[1.0, 2.0]]}]}"#);
        assert!(compare("t", &a, &a.clone()).is_ok());
        let perturbed = v(r#"{"series": [{"name": "s", "points": [[1.0, 2.0000001]]}]}"#);
        let err = compare("t", &perturbed, &a).unwrap_err();
        assert!(err.contains("t.series[0].points[0][1]"), "{err}");
        let within = v(r#"{"series": [{"name": "s", "points": [[1.0, 2.0000000000000004]]}]}"#);
        assert!(compare("t", &within, &a).is_ok());
        assert!(compare("t", &v(r#"{"x": "a"}"#), &v(r#"{"x": "b"}"#)).is_err());
        assert!(compare("t", &v(r#"{"x": 1}"#), &v(r#"{"y": 1}"#)).is_err());
        assert!(compare("t", &v("[1, 2]"), &v("[1]")).is_err());
    }

    #[test]
    fn text_check_falls_back_to_tolerance() {
        assert!(check_text("f", "{\n  \"x\": 1.0\n}", "{\"x\": 1.0}").is_ok());
        assert!(check_text("f", "{\"x\": 1.5}", "{\"x\": 1.0}").is_err());
        assert!(check_text("f", "{\"x\": ", "{\"x\": 1.0}").is_err());
    }
}
