//! Structured event tracing for the simulation stack.
//!
//! Instrumented components ([`xtsim_mpi`] sends/receives/collectives, the
//! network platform's wire flows, the Lustre I/O phases) emit [`Span`]
//! records carrying a [`SpanCategory`], the rank/node involved, precise
//! start/end times, and numeric payload fields. Spans are collected per
//! thread through the [`capture_begin`] / [`capture_end`] API, summarized
//! into per-category sim-time totals ([`TraceData::summary`]), and exported
//! as Chrome trace-event JSON ([`TraceData::to_chrome_json`]) loadable in
//! Perfetto or `chrome://tracing`.
//!
//! Capture is thread-local because a sweep worker runs one single-threaded
//! simulation at a time: everything a job's world emits lands in that
//! worker's capture, and nothing crosses threads. Instrumentation sites
//! guard on [`capture_active`] (a thread-local flag read), so a run without
//! capture pays one branch per instrumented operation and allocates nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use serde::Value;

use crate::time::SimTime;

/// What kind of activity a [`Span`] measures.
///
/// The first four categories are *rank-exclusive*: at any instant a rank is
/// in at most one of them, so their per-rank durations add up to that rank's
/// busy time (the same accounting `RankProfile` uses — p2p issued inside a
/// collective is charged to the collective). [`SpanCategory::Flow`] spans
/// describe wire-level activity *underneath* those and overlap them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCategory {
    /// A compute work packet executing on a core.
    Compute,
    /// Application-level point-to-point MPI (send/recv/raw transfer).
    P2p,
    /// A collective operation (everything inside accrues here).
    Collective,
    /// A filesystem I/O phase (open storm, write, read).
    Io,
    /// A wire-level flow: one message's traversal of NIC + route.
    Flow,
    /// Anything else (component-specific milestones).
    Other,
}

impl SpanCategory {
    /// Every category, in a fixed order.
    pub const ALL: [SpanCategory; 6] = [
        SpanCategory::Compute,
        SpanCategory::P2p,
        SpanCategory::Collective,
        SpanCategory::Io,
        SpanCategory::Flow,
        SpanCategory::Other,
    ];

    /// Stable lower-case name (used in trace files and metrics records).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCategory::Compute => "compute",
            SpanCategory::P2p => "p2p",
            SpanCategory::Collective => "collective",
            SpanCategory::Io => "io",
            SpanCategory::Flow => "flow",
            SpanCategory::Other => "other",
        }
    }

    /// True for the rank-exclusive categories whose durations partition a
    /// rank's busy time (see the type-level docs).
    pub fn is_rank_time(self) -> bool {
        matches!(
            self,
            SpanCategory::Compute | SpanCategory::P2p | SpanCategory::Collective | SpanCategory::Io
        )
    }
}

/// One timed, typed interval of simulated activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Activity class.
    pub category: SpanCategory,
    /// Operation name, e.g. `"send"`, `"allreduce"`, `"flow"`, `"write"`.
    pub name: &'static str,
    /// Rank performing the activity, when rank-attributable.
    pub rank: Option<u32>,
    /// Node involved (source node for flows).
    pub node: Option<u32>,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval (`>= start`).
    pub end: SimTime,
    /// Numeric payload fields, e.g. `[("bytes", 4096.0), ("dst", 3.0)]`.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in simulated seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Everything one capture collected.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// The spans, in emission order.
    pub spans: Vec<Span>,
    /// Spans discarded because the capture limit was reached.
    pub dropped: u64,
}

/// Per-category aggregate of a [`TraceData`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total simulated seconds per category (keys from
    /// [`SpanCategory::as_str`]; absent category = 0).
    pub secs_by_category: BTreeMap<String, f64>,
    /// Span count per category.
    pub counts_by_category: BTreeMap<String, u64>,
    /// Sum of the rank-exclusive categories (compute + p2p + collective +
    /// io): the total attributed busy time across all ranks.
    pub rank_busy_secs: f64,
    /// Total spans summarized.
    pub spans: u64,
}

impl TraceData {
    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.dropped == 0
    }

    /// Aggregate into per-category totals.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for span in &self.spans {
            let key = span.category.as_str();
            let secs = span.secs();
            *s.secs_by_category.entry(key.to_string()).or_insert(0.0) += secs;
            *s.counts_by_category.entry(key.to_string()).or_insert(0) += 1;
            if span.category.is_rank_time() {
                s.rank_busy_secs += secs;
            }
            s.spans += 1;
        }
        s
    }

    /// Merge another capture's spans into this one (used when one job runs
    /// several simulations — e.g. a benchmark that simulates both machines).
    pub fn merge(&mut self, other: TraceData) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Render as Chrome trace-event JSON (the `traceEvents` array format),
    /// loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    ///
    /// Complete events (`"ph": "X"`) with microsecond timestamps; `tid` is
    /// the rank (flows without a rank use `1000 + node` so wire activity
    /// gets its own rows). `meta` entries are attached as top-level keys.
    pub fn to_chrome_json(&self, meta: &[(&str, Value)]) -> String {
        let mut events = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let mut ev = BTreeMap::new();
            ev.insert("name".to_string(), Value::Str(span.name.to_string()));
            ev.insert(
                "cat".to_string(),
                Value::Str(span.category.as_str().to_string()),
            );
            ev.insert("ph".to_string(), Value::Str("X".to_string()));
            ev.insert(
                "ts".to_string(),
                Value::Float(span.start.as_ps() as f64 / 1e6),
            );
            ev.insert(
                "dur".to_string(),
                Value::Float((span.end - span.start).as_ps() as f64 / 1e6),
            );
            ev.insert("pid".to_string(), Value::Int(0));
            let tid = match (span.rank, span.node) {
                (Some(r), _) => i64::from(r),
                (None, Some(n)) => 1000 + i64::from(n),
                (None, None) => 999,
            };
            ev.insert("tid".to_string(), Value::Int(tid));
            if !span.args.is_empty() || span.node.is_some() {
                let mut args = BTreeMap::new();
                if let Some(n) = span.node {
                    args.insert("node".to_string(), Value::Int(i64::from(n)));
                }
                for (k, v) in &span.args {
                    args.insert((*k).to_string(), Value::Float(*v));
                }
                ev.insert("args".to_string(), Value::Object(args));
            }
            events.push(Value::Object(ev));
        }
        let mut top = BTreeMap::new();
        top.insert("traceEvents".to_string(), Value::Array(events));
        top.insert(
            "displayTimeUnit".to_string(),
            Value::Str("ms".to_string()),
        );
        if self.dropped > 0 {
            top.insert(
                "droppedSpans".to_string(),
                Value::Int(self.dropped as i64),
            );
        }
        for (k, v) in meta {
            top.insert((*k).to_string(), v.clone());
        }
        serde_json::to_string(&Value::Object(top)).expect("trace serializes")
    }
}

serde::impl_serde_struct!(TraceSummary {
    secs_by_category,
    counts_by_category,
    rank_busy_secs,
    spans,
});

struct CaptureState {
    spans: Vec<Span>,
    dropped: u64,
    limit: usize,
}

thread_local! {
    static CAPTURE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

/// Default cap on retained spans per capture (excess increments `dropped`).
pub const DEFAULT_CAPTURE_LIMIT: usize = 1 << 20;

/// Start capturing spans on this thread (replacing any capture in
/// progress), retaining at most [`DEFAULT_CAPTURE_LIMIT`] spans.
pub fn capture_begin() {
    capture_begin_with_limit(DEFAULT_CAPTURE_LIMIT);
}

/// Start capturing with an explicit span retention cap.
pub fn capture_begin_with_limit(limit: usize) {
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureState {
            spans: Vec::new(),
            dropped: 0,
            limit: limit.max(1),
        });
    });
    CAPTURE_ACTIVE.with(|a| a.set(true));
}

/// Is a capture active on this thread? Instrumentation sites branch on this
/// before doing any formatting or allocation.
#[inline]
pub fn capture_active() -> bool {
    CAPTURE_ACTIVE.with(|a| a.get())
}

/// Stop capturing and return the collected data (`None` if no capture was
/// active on this thread).
pub fn capture_end() -> Option<TraceData> {
    CAPTURE_ACTIVE.with(|a| a.set(false));
    CAPTURE.with(|c| c.borrow_mut().take()).map(|st| TraceData {
        spans: st.spans,
        dropped: st.dropped,
    })
}

/// Record a completed span into this thread's active capture (no-op when
/// capture is inactive).
///
/// One thread-local access: the [`capture_active`] fast-path flag is for
/// instrumentation sites to branch on *before* constructing a [`Span`];
/// checking it again here would just be a second TLS hit.
pub fn emit_span(span: Span) {
    CAPTURE.with(|c| {
        if let Some(st) = c.borrow_mut().as_mut() {
            if st.spans.len() >= st.limit {
                st.dropped += 1;
            } else {
                st.spans.push(span);
            }
        }
    });
}

/// Convenience wrapper around [`emit_span`] for instrumentation sites.
#[allow(clippy::too_many_arguments)]
pub fn span(
    category: SpanCategory,
    name: &'static str,
    rank: Option<u32>,
    node: Option<u32>,
    start: SimTime,
    end: SimTime,
    args: Vec<(&'static str, f64)>,
) {
    emit_span(Span {
        category,
        name,
        rank,
        node,
        start,
        end,
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    fn mk_span(cat: SpanCategory, name: &'static str, rank: u32, a: u64, b: u64) -> Span {
        Span {
            category: cat,
            name,
            rank: Some(rank),
            node: None,
            start: t(a),
            end: t(b),
            args: vec![("bytes", 64.0)],
        }
    }

    #[test]
    fn capture_collects_spans_and_stops() {
        assert!(!capture_active());
        capture_begin();
        assert!(capture_active());
        emit_span(mk_span(SpanCategory::Compute, "compute", 0, 0, 1_000_000));
        emit_span(mk_span(SpanCategory::P2p, "send", 1, 500, 2_000_000));
        let data = capture_end().expect("capture was active");
        assert!(!capture_active());
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[0].name, "compute");
        // Emitting after capture ends is a silent no-op.
        emit_span(mk_span(SpanCategory::P2p, "send", 1, 0, 1));
        assert!(capture_end().is_none());
    }

    #[test]
    fn capture_limit_counts_drops() {
        capture_begin_with_limit(2);
        for i in 0..5u64 {
            emit_span(mk_span(SpanCategory::Flow, "flow", 0, i, i + 1));
        }
        let data = capture_end().unwrap();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.dropped, 3);
    }

    #[test]
    fn summary_partitions_rank_time() {
        let ps = |secs: f64| (secs * 1e12) as u64;
        capture_begin();
        emit_span(mk_span(SpanCategory::Compute, "compute", 0, 0, ps(2.0)));
        emit_span(mk_span(SpanCategory::P2p, "send", 0, ps(2.0), ps(3.0)));
        emit_span(mk_span(SpanCategory::Collective, "allreduce", 0, ps(3.0), ps(3.5)));
        // Flow underneath the send: must not count toward rank busy time.
        emit_span(mk_span(SpanCategory::Flow, "flow", 0, ps(2.0), ps(2.9)));
        let s = capture_end().unwrap().summary();
        assert!((s.rank_busy_secs - 3.5).abs() < 1e-9, "{}", s.rank_busy_secs);
        assert!((s.secs_by_category["compute"] - 2.0).abs() < 1e-9);
        assert!((s.secs_by_category["flow"] - 0.9).abs() < 1e-9);
        assert_eq!(s.counts_by_category["p2p"], 1);
        assert_eq!(s.spans, 4);
    }

    #[test]
    fn chrome_json_parses_and_carries_fields() {
        capture_begin();
        emit_span(Span {
            category: SpanCategory::Flow,
            name: "flow",
            rank: None,
            node: Some(3),
            start: t(1_000_000),
            end: t(2_500_000),
            args: vec![("bytes", 4096.0), ("hops", 2.0)],
        });
        let data = capture_end().unwrap();
        let json = data.to_chrome_json(&[("jobKind", Value::Str("netbench".into()))]);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let top = v.as_object().unwrap();
        assert_eq!(top["jobKind"].as_str(), Some("netbench"));
        let evs = top["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 1);
        let ev = evs[0].as_object().unwrap();
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert_eq!(ev["cat"].as_str(), Some("flow"));
        assert_eq!(ev["tid"].as_i64(), Some(1003));
        assert!((ev["ts"].as_f64().unwrap() - 1.0).abs() < 1e-9); // 1 us
        assert!((ev["dur"].as_f64().unwrap() - 1.5).abs() < 1e-9);
        let args = ev["args"].as_object().unwrap();
        assert_eq!(args["bytes"].as_f64(), Some(4096.0));
        assert_eq!(args["node"].as_i64(), Some(3));
    }

    #[test]
    fn summary_serializes() {
        capture_begin();
        emit_span(mk_span(SpanCategory::Io, "write", 2, 0, 1_000));
        let s = capture_end().unwrap().summary();
        let j = serde_json::to_string(&s).unwrap();
        assert!(j.contains("\"io\""));
        let back: TraceSummary = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
