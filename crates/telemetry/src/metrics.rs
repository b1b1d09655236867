//! A process-local metrics registry: named counters, gauges and
//! histograms with Prometheus-style text exposition and JSON export.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! updated with atomic operations — hot paths never lock. The registry
//! mutex is touched only at registration and exposition time. Registering
//! a name twice returns a handle to the same underlying metric (so the
//! server, the operator and user code can all say
//! `registry.counter("gofmm_pool_created_total", ...)` and agree);
//! registering an existing name as a *different* metric type panics, since
//! that is always a programming error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A monotonically increasing counter (u64).
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter not attached to any registry (useful in
    /// tests and as a struct field default).
    pub fn detached() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous `f64` value that can move both ways.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A free-standing gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing;
    /// an implicit `+Inf` bucket catches the rest.
    bounds: Vec<f64>,
    /// One count per finite bound plus the `+Inf` overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, as f64 bits (CAS-updated).
    sum_bits: AtomicU64,
    total: AtomicU64,
}

/// A histogram over fixed, named buckets (inclusive upper bounds plus an
/// implicit `+Inf` bucket), with `sum` and `count` like Prometheus.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A free-standing histogram with the given inclusive upper bounds
    /// (must be strictly increasing).
    pub fn detached(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                total: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket (non-cumulative) counts: one per finite bound, then the
    /// `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The inclusive upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A shareable registry of named metrics.
///
/// Clones share state. Exposition order is the lexicographic order of the
/// metric names (a `BTreeMap` underneath), so snapshots diff cleanly.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<BTreeMap<String, Entry>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter. Panics if `name` is already
    /// registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut entries = self.entries.lock();
        match entries.get(name) {
            Some(Entry {
                metric: Metric::Counter(c),
                ..
            }) => c.clone(),
            Some(e) => panic!(
                "metric `{name}` already registered as a {}",
                e.metric.type_name()
            ),
            None => {
                let c = Counter::detached();
                entries.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Counter(c.clone()),
                    },
                );
                c
            }
        }
    }

    /// Register (or look up) a gauge. Panics if `name` is already
    /// registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut entries = self.entries.lock();
        match entries.get(name) {
            Some(Entry {
                metric: Metric::Gauge(g),
                ..
            }) => g.clone(),
            Some(e) => panic!(
                "metric `{name}` already registered as a {}",
                e.metric.type_name()
            ),
            None => {
                let g = Gauge::detached();
                entries.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Gauge(g.clone()),
                    },
                );
                g
            }
        }
    }

    /// Register (or look up) a histogram with the given inclusive upper
    /// bucket bounds. Panics if `name` is already registered as a
    /// different metric type. When the name exists, the existing bounds
    /// win (the `bounds` argument is ignored).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        let mut entries = self.entries.lock();
        match entries.get(name) {
            Some(Entry {
                metric: Metric::Histogram(h),
                ..
            }) => h.clone(),
            Some(e) => panic!(
                "metric `{name}` already registered as a {}",
                e.metric.type_name()
            ),
            None => {
                let h = Histogram::detached(bounds);
                entries.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Histogram(h.clone()),
                    },
                );
                h
            }
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, histograms as cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::new();
        for (name, entry) in entries.iter() {
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            let _ = writeln!(out, "# TYPE {name} {}", entry.metric.type_name());
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, bound) in h.bounds().iter().enumerate() {
                        cum += counts[i];
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                    }
                    cum += counts.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// JSON export: an object keyed by metric name, each value carrying
    /// `type`, `help` and the current reading.
    pub fn to_json(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::from("{");
        for (i, (name, entry)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"type\":\"{}\",\"help\":\"{}\"",
                escape(name),
                entry.metric.type_name(),
                escape(&entry.help)
            );
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", json_f64(g.get()));
                }
                Metric::Histogram(h) => {
                    let _ = write!(out, ",\"bounds\":[");
                    for (j, b) in h.bounds().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", json_f64(*b));
                    }
                    let _ = write!(out, "],\"counts\":[");
                    for (j, c) in h.bucket_counts().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    let _ = write!(
                        out,
                        "],\"sum\":{},\"count\":{}",
                        json_f64(h.sum()),
                        h.count()
                    );
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Format an f64 so the output is always valid JSON (NaN/inf have no JSON
/// representation; clamp them to null-adjacent sentinels).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like "3" are valid JSON numbers already.
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("gofmm_requests_total", "requests admitted");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same counter.
        let c2 = reg.counter("gofmm_requests_total", "requests admitted");
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("gofmm_queue_depth", "live queue depth");
        g.set(3.0);
        g.add(-1.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn histogram_buckets_and_exposition() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("gofmm_batch_width", "columns per batch", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert!((h.sum() - 15.0).abs() < 1e-12);

        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE gofmm_batch_width histogram"));
        assert!(text.contains("gofmm_batch_width_bucket{le=\"2\"} 3"));
        assert!(text.contains("gofmm_batch_width_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("gofmm_batch_width_count 5"));
    }

    #[test]
    fn json_export_is_valid_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "a").inc();
        reg.gauge("b_gauge", "b").set(1.25);
        reg.histogram("c_hist", "c", &[1.0, 10.0]).observe(3.0);
        let json = reg.to_json();
        // Reuse the chrome-trace JSON machinery for a syntax check.
        let wrapped = format!("{{\"traceEvents\":[{{\"ph\":\"M\",\"ts\":0}}],\"m\":{json}}}");
        assert!(
            crate::json::validate_chrome_trace(&wrapped).is_ok(),
            "{json}"
        );
        assert!(json.contains("\"a_total\""));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "x");
        reg.gauge("x", "x");
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shared_total", "");
        let reg2 = reg.clone();
        reg2.counter("shared_total", "").add(7);
        assert_eq!(c.get(), 7);
        assert!(Arc::ptr_eq(&reg.entries, &reg2.entries));
    }
}
