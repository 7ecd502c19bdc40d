//! Golden-figure regression gate: twenty-four quick-scale outputs (the
//! system table, the Lustre IOR demonstration, network microbenchmarks,
//! single-node and global HPCC sweeps, the bidirectional bandwidth sweep,
//! application figures and the five ablations) are pinned as JSON under
//! `tests/goldens/` and every regeneration must match them within a tight
//! numeric tolerance.
//!
//! When a *deliberate* model change shifts the numbers, regenerate with:
//!
//! ```text
//! cargo run --release -p xtsim-bench --bin figures -- \
//!     --quick --no-cache --ablations \
//!     --only table1,fig01,fig02,fig03,fig04,fig05,fig06,fig07,fig08,fig09,fig10,fig11,fig12,fig13,fig16,fig20,fig21,fig22,fig23,abl-eager,abl-memory,abl-quadcore,abl-vnstack,abl-openmp \
//!     --out tests/goldens
//! rm tests/goldens/*.csv
//! ```
//!
//! and bump `xtsim::sweep::ENGINE_VERSION` so stale cache entries stop
//! hitting. Unexplained drift here means simulator semantics changed.

use serde::Value;
use xt4_repro::xtsim::ablations::all_ablations;
use xt4_repro::xtsim::figures::all_figures;
use xt4_repro::xtsim::report::Scale;
use xt4_repro::xtsim::sweep::{run_figure, SweepConfig};

const GOLDEN_IDS: [&str; 24] = [
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig16", "fig20", "fig21", "fig22", "fig23", "abl-eager",
    "abl-memory", "abl-quadcore", "abl-vnstack", "abl-openmp",
];

/// Relative tolerance for numeric comparison. The engine is deterministic,
/// so goldens normally match exactly; the headroom only absorbs libm-level
/// differences across toolchains.
const RTOL: f64 = 1e-9;
const ATOL: f64 = 1e-12;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ATOL + RTOL * a.abs().max(b.abs())
}

/// Structural comparison with numeric tolerance; returns the path of the
/// first mismatch.
fn compare(path: &str, got: &Value, want: &Value) -> Result<(), String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            let gk: Vec<_> = g.keys().collect();
            let wk: Vec<_> = w.keys().collect();
            if gk != wk {
                return Err(format!("{path}: keys {gk:?} != {wk:?}"));
            }
            for (k, gv) in g {
                compare(&format!("{path}.{k}"), gv, &w[k])?;
            }
            Ok(())
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Err(format!("{path}: length {} != {}", g.len(), w.len()));
            }
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                compare(&format!("{path}[{i}]"), gv, wv)?;
            }
            Ok(())
        }
        _ => match (got.as_f64(), want.as_f64()) {
            (Some(g), Some(w)) => {
                if close(g, w) {
                    Ok(())
                } else {
                    Err(format!("{path}: {g} != {w} (beyond tolerance)"))
                }
            }
            _ => {
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{path}: {got:?} != {want:?}"))
                }
            }
        },
    }
}

#[test]
fn quick_figures_match_goldens() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let mut catalog = all_figures();
    catalog.extend(all_ablations());
    for id in GOLDEN_IDS {
        let fig = catalog.iter().find(|f| f.id == id).expect(id);
        let golden_text = std::fs::read_to_string(golden_dir.join(format!("{id}.json")))
            .unwrap_or_else(|e| panic!("missing golden for {id}: {e}"));
        let want: Value = serde_json::from_str(&golden_text)
            .unwrap_or_else(|e| panic!("unparseable golden for {id}: {e:?}"));
        let cfg = SweepConfig::serial();
        let got = serde_json::to_value(&run_figure(fig.spec(Scale::Quick), &cfg).0).unwrap();
        if let Err(diff) = compare(id, &got, &want) {
            panic!(
                "{id} drifted from its golden: {diff}\n\
                 If the change is intentional, regenerate tests/goldens/ (see file header) \
                 and bump ENGINE_VERSION."
            );
        }
    }
}

#[test]
fn tolerance_comparator_flags_real_differences() {
    let a: Value = serde_json::from_str(r#"{"x": [1.0, 2.0]}"#).unwrap();
    let b: Value = serde_json::from_str(r#"{"x": [1.0, 2.0000001]}"#).unwrap();
    assert!(compare("t", &a, &a.clone()).is_ok());
    assert!(compare("t", &a, &b).is_err());
    // Within tolerance passes.
    let c: Value = serde_json::from_str(r#"{"x": [1.0, 2.0000000000000004]}"#).unwrap();
    assert!(compare("t", &a, &c).is_ok());
}
