//! Process-wide metrics registry: named counters, gauges, and log-linear
//! histograms behind cheap atomic handles.
//!
//! Registration returns an `Arc` handle; callers cache it (usually in a
//! `OnceLock`) and every subsequent update is a single atomic operation —
//! no locks, no allocation. Re-registering the same `(name, labels)` pair
//! returns the *same* underlying metric, so independent call sites
//! accumulate into one series. The registry itself is only locked during
//! registration and [`Registry::snapshot`].
//!
//! Histograms use a fixed log-linear bucket ladder — `{1, 2, 5} × 10^k`
//! seconds from 100 ns to 500 s (HDR-style: linear subdivision within each
//! decade, ≤ 2.5× relative error) — chosen so every latency this workspace
//! measures (cache lookups to full-scale figure runs) lands on a readable
//! boundary in the Prometheus exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ------------------------------------------------------------------ handles

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Instantaneous (or high-water) value.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `n`.
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `n` if `n` is larger (high-water tracking).
    pub fn set_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Raise the gauge by `n` (one contributor's share grew).
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the gauge by `n`, which the caller earlier added.
    pub fn sub(&self, n: u64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Upper bounds (seconds) of the log-linear bucket ladder, excluding `+Inf`.
pub const BUCKET_BOUNDS: [f64; 30] = [
    1e-7, 2e-7, 5e-7, 1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
];

/// Log-linear latency histogram (seconds domain).
///
/// Bucket counts are stored per-bucket (not cumulative); the last slot is
/// the overflow (`+Inf`) bucket. The sum is an `f64` maintained with a CAS
/// loop over its bit pattern, so `observe` never takes a lock.
#[derive(Debug)]
pub struct Histogram {
    /// `BUCKET_BOUNDS.len() + 1` slots; the final slot is `+Inf`.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..=BUCKET_BOUNDS.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Record one observation of `secs` (negative or NaN values count as 0).
    pub fn observe(&self, secs: f64) {
        let v = if secs.is_finite() && secs > 0.0 { secs } else { 0.0 };
        let idx = BUCKET_BOUNDS.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record the elapsed time of `sw` as one observation.
    pub fn observe_since(&self, sw: &Stopwatch) {
        self.observe(sw.elapsed_secs());
    }

    /// Start a guard that records the elapsed time when dropped.
    pub fn start_timer(self: &Arc<Histogram>) -> HistogramTimer {
        HistogramTimer { hist: Arc::clone(self), sw: Stopwatch::start() }
    }

    /// Point-in-time copy of this histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        // Count derived from the buckets, not kept separately: the
        // exposition invariant `+Inf cumulative == _count` then holds by
        // construction even under concurrent observers.
        let count = counts.iter().sum();
        HistogramSnapshot {
            bucket_counts: counts,
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Wall-clock stopwatch for harness-side latency measurement. Simulation
/// crates must not construct one — `xtsim-lint` flags `Stopwatch` tokens
/// outside the allowlisted harness paths.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Drop guard from [`Histogram::start_timer`].
#[derive(Debug)]
pub struct HistogramTimer {
    hist: Arc<Histogram>,
    sw: Stopwatch,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.observe_since(&self.sw);
    }
}

// ----------------------------------------------------------------- registry

/// What a metric family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Latency histogram.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` label.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the canonical (sorted) label set.
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A namespace of metric families. Most callers use the process-global one
/// via [`counter`]/[`gauge`]/[`histogram`]; tests construct private
/// registries to assert exposition without cross-test interference.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn canon_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T, F, G>(&self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)], make: F, cast: G) -> Arc<T>
    where
        F: FnOnce() -> Handle,
        G: Fn(&Handle) -> Option<Arc<T>>,
    {
        let mut fams = self.families.lock().expect("metrics registry lock");
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric {name:?} registered as {} but requested as {}",
            fam.kind.as_str(),
            kind.as_str()
        );
        let handle = fam.series.entry(canon_labels(labels)).or_insert_with(make);
        cast(handle).expect("family kind matches handle kind")
    }

    /// Counter handle for `(name, labels)`, registering on first use.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            MetricKind::Counter,
            labels,
            || Handle::Counter(Arc::new(Counter::default())),
            |h| match h {
                Handle::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Unlabeled counter handle.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gauge handle for `(name, labels)`, registering on first use.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            MetricKind::Gauge,
            labels,
            || Handle::Gauge(Arc::new(Gauge::default())),
            |h| match h {
                Handle::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Unlabeled gauge handle.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Histogram handle for `(name, labels)`, registering on first use.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            MetricKind::Histogram,
            labels,
            || Handle::Histogram(Arc::new(Histogram::default())),
            |h| match h {
                Handle::Histogram(hh) => Some(Arc::clone(hh)),
                _ => None,
            },
        )
    }

    /// Unlabeled histogram handle.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Point-in-time copy of every registered series, families and series
    /// in lexicographic order (so renderings are deterministic for a given
    /// state).
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.lock().expect("metrics registry lock");
        Snapshot {
            families: fams
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name: name.clone(),
                    help: fam.help.clone(),
                    kind: fam.kind,
                    series: fam
                        .series
                        .iter()
                        .map(|(labels, handle)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match handle {
                                Handle::Counter(c) => SeriesValue::Counter(c.get()),
                                Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
                                Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------- snapshots

/// Point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Families in name order.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Find a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of every counter series under `name` whose labels include all of
    /// `labels` (convenience for ratio panels).
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(fam) = self.family(name) else { return 0 };
        fam.series
            .iter()
            .filter(|s| {
                labels.iter().all(|(k, v)| {
                    s.labels.iter().any(|(sk, sv)| sk == k && sv == v)
                })
            })
            .map(|s| match s.value {
                SeriesValue::Counter(n) => n,
                _ => 0,
            })
            .sum()
    }

    /// Value of the first gauge series under `name` (gauge families used by
    /// the dashboard are single-series; convenience for residency tiles).
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.family(name)?.series.iter().find_map(|s| match s.value {
            SeriesValue::Gauge(n) => Some(n),
            _ => None,
        })
    }
}

/// One family (all series sharing a name) in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Series in canonical label order.
    pub series: Vec<SeriesSnapshot>,
}

/// One series (a label set) in a [`FamilySnapshot`].
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Sorted `(key, value)` labels.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SeriesValue,
}

/// Value of one series.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; index `i` pairs with
    /// [`BUCKET_BOUNDS`]`[i]`, the final slot is the `+Inf` overflow.
    pub bucket_counts: Vec<u64>,
    /// Total observations (== sum of `bucket_counts`).
    pub count: u64,
    /// Sum of observed values (seconds).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }
}

// ------------------------------------------------------------------- global

/// The process-global registry backing [`counter`]/[`gauge`]/[`histogram`]
/// and `GET /metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Unlabeled counter in the global registry.
pub fn counter(name: &str, help: &str) -> Arc<Counter> {
    global().counter(name, help)
}

/// Labeled counter in the global registry.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter_with(name, help, labels)
}

/// Unlabeled gauge in the global registry.
pub fn gauge(name: &str, help: &str) -> Arc<Gauge> {
    global().gauge(name, help)
}

/// Labeled gauge in the global registry.
pub fn gauge_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    global().gauge_with(name, help, labels)
}

/// Unlabeled histogram in the global registry.
pub fn histogram(name: &str, help: &str) -> Arc<Histogram> {
    global().histogram(name, help)
}

/// Labeled histogram in the global registry.
pub fn histogram_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram_with(name, help, labels)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_metric() {
        let reg = Registry::new();
        let a = reg.counter_with("x_total", "help", &[("k", "v")]);
        let b = reg.counter_with("x_total", "other help ignored", &[("k", "v")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        // Different labels are a different series.
        let c = reg.counter_with("x_total", "help", &[("k", "w")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        let a = reg.counter_with("y_total", "h", &[("a", "1"), ("b", "2")]);
        let b = reg.counter_with("y_total", "h", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1, "label insertion order must not split series");
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("z", "h");
        let _ = reg.gauge("z", "h");
    }

    #[test]
    fn gauge_high_water() {
        let g = Gauge::default();
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn gauge_sums_deltas() {
        let g = Gauge::default();
        g.add(10);
        g.add(1);
        g.sub(10);
        assert_eq!(g.get(), 1);
        g.sub(1);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::default();
        h.observe(1.5e-7); // second bucket (2e-7)
        h.observe(0.15); // le=0.2
        h.observe(1e9); // overflow -> +Inf
        h.observe(-3.0); // clamped to 0 -> first bucket
        h.observe(f64::NAN); // clamped to 0 -> first bucket
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.bucket_counts[0], 2, "0-clamped observations in first bucket");
        assert_eq!(s.bucket_counts[1], 1);
        assert_eq!(s.bucket_counts[BUCKET_BOUNDS.len()], 1, "overflow lands in +Inf");
        let le_02 = BUCKET_BOUNDS.iter().position(|&b| b == 0.2).unwrap();
        assert_eq!(s.bucket_counts[le_02], 1);
        assert!((s.sum - (1.5e-7 + 0.15 + 1e9)).abs() < 1e-6);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn boundary_value_lands_in_its_own_bucket() {
        // le is inclusive in Prometheus: observe(0.2) must count under
        // bucket le="0.2", not the next one up.
        let h = Histogram::default();
        h.observe(0.2);
        let s = h.snapshot();
        let le_02 = BUCKET_BOUNDS.iter().position(|&b| b == 0.2).unwrap();
        assert_eq!(s.bucket_counts[le_02], 1);
    }

    #[test]
    fn ladder_is_strictly_increasing() {
        for w in BUCKET_BOUNDS.windows(2) {
            assert!(w[0] < w[1], "ladder must be sorted: {} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn timer_guard_observes_on_drop() {
        let h = Arc::new(Histogram::default());
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn concurrent_histogram_observations_are_all_counted() {
        let h = Arc::new(Histogram::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.observe(0.003);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert!((snap.sum - 8000.0 * 0.003).abs() < 1e-6, "CAS sum lost updates: {}", snap.sum);
    }
}
