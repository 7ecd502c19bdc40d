//! Reporting: human text, machine JSON, and the committed baseline.
//!
//! The baseline (`lint-baseline.json`) grandfathers findings that predate a
//! rule. Entries are keyed `(file, rule, snippet)` where `snippet` is the
//! trimmed source line, so the match survives line-number drift; each entry
//! suppresses at most one finding, and entries that no longer match any
//! finding are reported as stale so the baseline only ever shrinks.
//!
//! JSON in and out goes through the workspace `serde`/`serde_json` shims,
//! so object keys come out sorted and a baseline nested deeper than the
//! shim's cap is a parse error, not a stack overflow. The emitted document
//! is `xtsim-lint-v2` (v1 plus per-finding witness call chains), validated
//! structurally by `scripts/ci.sh`. Baselines are written as
//! `xtsim-lint-baseline-v2` (adds an optional `function` key so
//! interprocedural findings baseline per-function); the v1 baseline format
//! is still accepted on read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize, Value};

use crate::graph::{CallGraph, Unresolved};
use crate::rules::{ChainHop, Finding, Severity};

/// Why a finding is not being acted on.
#[derive(Debug, Clone)]
pub enum SuppressedHow {
    /// Inline `// xtsim-lint: allow(rule, "reason")`.
    Allow { reason: String },
    /// Matched an entry of `lint-baseline.json`.
    Baseline,
}

/// A finding plus its suppression.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub finding: Finding,
    pub how: SuppressedHow,
}

/// One committed baseline entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    pub file: String,
    pub rule: String,
    pub snippet: String,
    /// For interprocedural findings: the flagged function (first chain hop),
    /// so one baselined function doesn't excuse its whole file. `None` for
    /// token findings and for every v1-format entry.
    pub function: Option<String>,
}

/// The whole run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the paths are relative to.
    pub root: String,
    pub files_scanned: usize,
    /// Actionable findings (not suppressed), sorted.
    pub findings: Vec<Finding>,
    /// Findings suppressed by allow comments or the baseline.
    pub suppressed: Vec<Suppressed>,
    /// `unsafe` token count per crate directory.
    pub unsafe_inventory: BTreeMap<String, usize>,
    /// Baseline entries that matched nothing (candidates for deletion).
    pub stale_baseline: Vec<BaselineEntry>,
    /// The workspace call graph the interprocedural rules ran on
    /// (`--call-graph` serializes it via [`callgraph_json`]).
    pub call_graph: CallGraph,
}

impl Report {
    /// Count of actionable findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Does the run fail? Errors always do; warnings only under
    /// `--deny warnings`. Notes never fail.
    pub fn is_fatal(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warn) > 0)
    }

    /// Render the human report. Notes are summarized (full detail lives in
    /// the JSON output) unless `verbose`.
    pub fn human(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.severity == Severity::Note && !verbose {
                continue;
            }
            let _ = writeln!(
                out,
                "{}: [{}] {}:{}:{}: {}",
                f.severity.as_str(),
                f.rule,
                f.file,
                f.line,
                f.col,
                f.message
            );
            let _ = writeln!(out, "    = help: {}", f.suggestion);
            for (i, h) in f.chain.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    = chain[{i}]: {} ({}:{})",
                    h.function, h.file, h.line
                );
            }
        }
        let notes = self.count(Severity::Note);
        if notes > 0 && !verbose {
            let _ = writeln!(out, "note: {notes} informational finding(s) — see --json output");
        }
        if !self.stale_baseline.is_empty() {
            let _ = writeln!(
                out,
                "note: {} stale baseline entr{} (fixed findings still listed in \
                 lint-baseline.json — delete them):",
                self.stale_baseline.len(),
                if self.stale_baseline.len() == 1 { "y" } else { "ies" },
            );
            for e in &self.stale_baseline {
                let _ = write!(out, "    {} [{}] `{}`", e.file, e.rule, e.snippet);
                if let Some(function) = &e.function {
                    let _ = write!(out, " in fn {function}");
                }
                out.push('\n');
            }
        }
        let _ = writeln!(
            out,
            "xtsim-lint: {} file(s), {} error(s), {} warning(s), {} note(s); \
             {} allowed, {} baselined",
            self.files_scanned,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            notes,
            self.suppressed
                .iter()
                .filter(|s| matches!(s.how, SuppressedHow::Allow { .. }))
                .count(),
            self.suppressed
                .iter()
                .filter(|s| matches!(s.how, SuppressedHow::Baseline))
                .count(),
        );
        out
    }

    /// Render the `xtsim-lint-v2` JSON document.
    pub fn json(&self) -> String {
        let allowed = self
            .suppressed
            .iter()
            .filter(|s| matches!(s.how, SuppressedHow::Allow { .. }))
            .count();
        let summary = obj(vec![
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warn).into()),
            ("notes", self.count(Severity::Note).into()),
            ("allowed", allowed.into()),
            ("baselined", (self.suppressed.len() - allowed).into()),
            ("stale_baseline", self.stale_baseline.len().into()),
        ]);
        to_json(obj(vec![
            ("schema", "xtsim-lint-v2".into()),
            ("root", self.root.to_value()),
            ("files_scanned", self.files_scanned.into()),
            ("findings", self.findings.to_value()),
            ("suppressed", self.suppressed.to_value()),
            ("unsafe_inventory", self.unsafe_inventory.to_value()),
            ("stale_baseline", self.stale_baseline.to_value()),
            ("summary", summary),
        ]))
    }

    /// Render a fresh baseline holding every *fatal-grade* finding of this
    /// run (the `--write-baseline` workflow). Notes are informational and
    /// never gate CI, so they stay visible rather than baselined.
    pub fn baseline_json(&self) -> String {
        let mut entries: Vec<BaselineEntry> = self
            .findings
            .iter()
            .filter(|f| f.severity >= Severity::Warn)
            .map(|f| BaselineEntry {
                file: f.file.clone(),
                rule: f.rule.to_string(),
                snippet: f.snippet.clone(),
                function: f.chain.first().map(|h| h.function.clone()),
            })
            .collect();
        entries.sort();
        to_json(obj(vec![
            ("schema", "xtsim-lint-baseline-v2".into()),
            ("findings", entries.to_value()),
        ]))
    }
}

/// Render the `--call-graph` artifact (`xtsim-callgraph-v1`): every function
/// the parser indexed, its resolved edges (by function id), the unresolved
/// calls with their reasons, and honesty counters for what resolution
/// skipped.
pub fn callgraph_json(g: &CallGraph) -> String {
    let functions = g
        .fns
        .iter()
        .zip(&g.edges)
        .enumerate()
        .map(|(id, (f, edges))| {
            let calls = edges
                .iter()
                .map(|e| obj(vec![("to", e.to.into()), ("line", e.line.into())]))
                .collect();
            obj(vec![
                ("id", id.into()),
                ("function", f.display().into()),
                ("module", f.module.join("::").into()),
                ("file", f.file.to_value()),
                ("line", f.line.into()),
                ("calls", Value::Array(calls)),
            ])
        })
        .collect();
    let stats = obj(vec![
        ("functions", g.fns.len().into()),
        ("edges", g.edges.iter().map(Vec::len).sum::<usize>().into()),
        ("unresolved", g.unresolved.len().into()),
        ("external_calls", g.external_calls.into()),
        ("denylisted_method_calls", g.denylisted_method_calls.into()),
    ]);
    to_json(obj(vec![
        ("schema", "xtsim-callgraph-v1".into()),
        ("functions", Value::Array(functions)),
        ("unresolved", g.unresolved.to_value()),
        ("stats", stats),
    ]))
}

/// Parse `lint-baseline.json`. Both the current `xtsim-lint-baseline-v2`
/// format and the legacy v1 format are accepted; v1 entries simply carry no
/// `function` key (they predate the interprocedural rules, whose findings
/// are the only ones that set it).
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let value = serde_json::from_str::<Value>(text).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("baseline root must be an object")?;
    match obj.get("schema").and_then(Value::as_str) {
        Some("xtsim-lint-baseline-v1" | "xtsim-lint-baseline-v2") => {}
        other => return Err(format!("unsupported baseline schema {other:?}")),
    }
    let findings = obj.get("findings").ok_or("baseline missing `findings` array")?;
    Vec::from_value(findings).map_err(|e| e.context("findings").to_string())
}

// ---------------------------------------------------------------------------
// JSON forms

/// A JSON object from `(key, value)` pairs; the shim writes keys sorted.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Compact JSON text plus a trailing newline.
fn to_json(doc: Value) -> String {
    serde_json::to_string(&doc).expect("a JSON value always serializes") + "\n"
}

serde::impl_serde_struct!(ChainHop { function, file, line });
serde::impl_serde_struct!(Unresolved { from, name, line, reason });

/// The fields of a finding, shared by `findings` and `suppressed` entries.
fn finding_fields(f: &Finding) -> Vec<(&'static str, Value)> {
    vec![
        ("file", f.file.to_value()),
        ("line", f.line.into()),
        ("col", f.col.into()),
        ("rule", f.rule.into()),
        ("severity", f.severity.as_str().into()),
        ("message", f.message.to_value()),
        ("suggestion", f.suggestion.to_value()),
        ("snippet", f.snippet.to_value()),
        ("chain", f.chain.to_value()),
    ]
}

impl Serialize for Finding {
    fn to_value(&self) -> Value {
        obj(finding_fields(self))
    }
}

impl Serialize for Suppressed {
    fn to_value(&self) -> Value {
        let mut fields = finding_fields(&self.finding);
        match &self.how {
            SuppressedHow::Allow { reason } => {
                fields.push(("how", "allow".into()));
                fields.push(("reason", reason.to_value()));
            }
            SuppressedHow::Baseline => fields.push(("how", "baseline".into())),
        }
        obj(fields)
    }
}

/// The `function` key is written only when set, so token findings keep the
/// v1 entry shape.
impl Serialize for BaselineEntry {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("file", self.file.to_value()),
            ("rule", self.rule.to_value()),
            ("snippet", self.snippet.to_value()),
        ];
        if let Some(function) = &self.function {
            fields.push(("function", function.to_value()));
        }
        obj(fields)
    }
}

impl Deserialize for BaselineEntry {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let f = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("baseline finding must be an object"))?;
        let get = |k: &str| f.get(k).and_then(Value::as_str).map(str::to_string);
        let need = |k: &str| {
            let why = || serde::Error::msg(format!("baseline finding missing string `{k}`"));
            get(k).ok_or_else(why)
        };
        Ok(BaselineEntry {
            file: need("file")?,
            rule: need("rule")?,
            snippet: need("snippet")?,
            function: get("function"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let mut report = Report::default();
        report.findings.push(Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            rule: "panic-in-hot-path",
            severity: Severity::Warn,
            message: "m".into(),
            suggestion: "s".into(),
            snippet: "let x = v.pop().expect(\"non-empty\");".into(),
            chain: Vec::new(),
        });
        let text = report.baseline_json();
        let entries = parse_baseline(&text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, "crates/x/src/a.rs");
        assert_eq!(entries[0].rule, "panic-in-hot-path");
        assert_eq!(entries[0].snippet, "let x = v.pop().expect(\"non-empty\");");
        assert_eq!(entries[0].function, None);
    }

    #[test]
    fn baseline_v1_still_parses() {
        let v1 = r#"{"schema": "xtsim-lint-baseline-v1", "findings": [
            {"file": "a.rs", "rule": "panic-in-hot-path", "snippet": "x.unwrap();"}
        ]}"#;
        let entries = parse_baseline(v1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].function, None);
    }

    #[test]
    fn baseline_v2_function_roundtrips() {
        let mut report = Report::default();
        report.findings.push(Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            rule: "panic-propagation",
            severity: Severity::Warn,
            message: "m".into(),
            suggestion: "s".into(),
            snippet: "fn dispatch(&mut self) {".into(),
            chain: vec![crate::rules::ChainHop {
                function: "Engine::dispatch".into(),
                file: "crates/x/src/a.rs".into(),
                line: 4,
            }],
        });
        let text = report.baseline_json();
        assert!(text.contains("xtsim-lint-baseline-v2"));
        let entries = parse_baseline(&text).unwrap();
        assert_eq!(entries[0].function.as_deref(), Some("Engine::dispatch"));
    }

    #[test]
    fn stale_entry_keeps_its_function() {
        let v2 = r#"{"schema": "xtsim-lint-baseline-v2", "findings": [
            {"file": "a.rs", "rule": "panic-propagation", "snippet": "fn f() {", "function": "gone"}
        ]}"#;
        let report = Report { stale_baseline: parse_baseline(v2).unwrap(), ..Report::default() };
        let doc = serde_json::from_str::<Value>(&report.json()).unwrap();
        let stale = doc.as_object().unwrap().get("stale_baseline").unwrap();
        assert_eq!(Vec::<BaselineEntry>::from_value(stale).unwrap(), report.stale_baseline);
        assert!(report.human(false).contains("`fn f() {` in fn gone"), "{}", report.human(false));
    }

    #[test]
    fn deeply_nested_baseline_is_an_error_not_a_stack_overflow() {
        let err = parse_baseline(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_baseline(r#"{"schema": "nope", "findings": []}"#).is_err());
    }
}
