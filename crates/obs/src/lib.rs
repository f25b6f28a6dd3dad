//! Observability primitives shared by the granlog runtime crates.
//!
//! Two independent facilities live here:
//!
//! * a [`Registry`] of named metrics — lock-free [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s with a Prometheus-style text exposition
//!   ([`Registry::render`]) and bucket-based quantile estimation — and
//! * a [`Tracer`] — a bounded ring buffer of timestamped structured events
//!   that can be dumped as JSONL for offline inspection.
//!
//! Both are plain instances rather than process globals: tests routinely run
//! several servers inside one process, and each owns its own registry and
//! trace ring. Handles returned by the registry (`Arc<Counter>` etc.) are
//! cheap to clone and update without taking any lock; the registry's internal
//! mutex is touched only at registration and render time.
//!
//! The design constraint inherited from the engine is *zero perturbation when
//! off*: none of these types are wired into hot loops directly. Callers hold
//! an `Option` of a handle and skip the whole facility on `None`; the tracer
//! additionally gates [`Tracer::emit`] on a relaxed atomic load so a disabled
//! tracer costs one branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
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

/// An instantaneous signed value (queue depths, open sessions, bytes held).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Replace the current value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram.
///
/// Bucket upper bounds are set at registration and never change; an implicit
/// `+Inf` bucket catches everything above the last bound. Observations update
/// one bucket counter, the total count, and a bit-CAS'd `f64` sum — all
/// lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// One slot per finite bound plus a final `+Inf` slot.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// `f64` bits, updated by compare-exchange.
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: sorted.into_boxed_slice(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
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
    }

    /// Record a duration in fractional milliseconds.
    pub fn observe_duration_ms(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64() * 1e3);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }

    /// Estimated quantile (`0.0..=1.0`); see [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// Point-in-time copy of a [`Histogram`], used for reporting and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one extra trailing slot for the implicit `+Inf`.
    pub counts: Vec<u64>,
    /// Total observation count.
    pub count: u64,
    /// Sum of all finite observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation inside
    /// the bucket that holds the target rank. Observations landing in the
    /// `+Inf` bucket are reported as the largest finite bound (a deliberate
    /// underestimate — the data needed for better is not retained).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += c;
            if cumulative >= rank {
                if i >= self.bounds.len() {
                    // +Inf bucket: clamp to the largest finite bound.
                    return *self.bounds.last().expect("non-empty bounds");
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                if c == 0 {
                    return upper;
                }
                let into = (rank - prev) as f64 / c as f64;
                return lower + (upper - lower) * into;
            }
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

/// Default bucket bounds for latency histograms, in milliseconds.
///
/// Spans 50µs to ~16s in powers of two — wide enough for both the engine's
/// sub-millisecond queries and WAL fsyncs on slow disks.
pub const LATENCY_BUCKETS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    2048.0, 4096.0, 8192.0, 16384.0,
];

/// Default bucket bounds for step/heap-size histograms (dimensionless counts).
pub const WORK_BUCKETS: &[f64] = &[
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
];

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics with Prometheus-style text exposition.
///
/// Registration is idempotent: asking for an existing name of the same kind
/// returns the same handle, so independent subsystems can share a metric
/// without coordinating. Asking for an existing name with a *different* kind
/// is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name` with the given finite bucket
    /// upper bounds (an implicit `+Inf` bucket is always appended). Bounds
    /// are fixed by the first registration; later calls return the existing
    /// histogram regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Current value of counter `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        match metrics.get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Snapshot of histogram `name`, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        match metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Render every metric in Prometheus text exposition format, sorted by
    /// name. Histograms emit cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn render(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &bound) in snap.bounds.iter().enumerate() {
                        cumulative += snap.counts[i];
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum {}", render_f64(snap.sum));
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }
}

fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Structured tracing
// ---------------------------------------------------------------------------

/// A field value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values render as JSON `null`.
    F64(f64),
    /// Owned string.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::U64(v as u64)
    }
}

/// One timestamped event in the trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch.
    pub ts_us: u64,
    /// Event kind, e.g. `"query_begin"` or `"wal_fsync"`.
    pub kind: &'static str,
    /// Structured fields in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Render the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"ts_us\":{},\"kind\":", self.ts_us);
        push_json_string(&mut out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            match value {
                Value::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(v) => {
                    if v.is_finite() {
                        let _ = write!(out, "{v}");
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => push_json_string(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A bounded ring buffer of structured [`TraceEvent`]s.
///
/// `emit` is gated on a relaxed atomic flag, so a disabled tracer costs one
/// load and one branch. When the ring is full the oldest event is dropped and
/// counted; the drop count is reported by [`Tracer::dropped`] so consumers
/// can tell a quiet system from an overflowing one.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// Create an enabled tracer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// Create a disabled tracer (serve keeps one around and lets sessions
    /// switch it on).
    pub fn disabled(capacity: usize) -> Self {
        let t = Tracer::new(capacity);
        t.set_enabled(false);
        t
    }

    /// Whether [`Tracer::emit`] currently records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable event recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one event if enabled. `fields` render in the given order.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() >= ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(TraceEvent {
            ts_us,
            kind,
            fields,
        });
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped to ring overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace ring poisoned").dropped
    }

    /// Snapshot the retained events, oldest first, without draining.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.buf.iter().cloned().collect()
    }

    /// Render the retained events as JSONL (one object per line, oldest
    /// first). When `drain` is true the ring is emptied, so repeated dumps
    /// see only new events.
    pub fn jsonl(&self, drain: bool) -> String {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        let mut out = String::new();
        for event in ring.buf.iter() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        if drain {
            ring.buf.clear();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("granlog_queries_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter_value("granlog_queries_total"), Some(5));
        let g = reg.gauge("granlog_sessions");
        g.set(3);
        g.sub(1);
        assert_eq!(reg.gauge("granlog_sessions").get(), 2);
        // Re-registration returns the same handle.
        reg.counter("granlog_queries_total").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ms", &[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 7.0, 100.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.counts, vec![1, 2, 1, 1, 1]);
        assert!((snap.sum - 113.5).abs() < 1e-9);
        // Median rank 3 lands in the (1,2] bucket.
        let p50 = snap.quantile(0.5);
        assert!(p50 > 1.0 && p50 <= 2.0, "p50 = {p50}");
        // The +Inf observation clamps to the top finite bound.
        assert_eq!(snap.quantile(1.0), 8.0);
        assert_eq!(snap.quantile(0.0), 1.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let reg = Registry::new();
        reg.counter("granlog_a_total").add(2);
        reg.gauge("granlog_b").set(-7);
        reg.histogram("granlog_c_ms", &[1.0, 10.0]).observe(3.0);
        let text = reg.render();
        assert!(text.contains("# TYPE granlog_a_total counter\ngranlog_a_total 2\n"));
        assert!(text.contains("# TYPE granlog_b gauge\ngranlog_b -7\n"));
        assert!(text.contains("granlog_c_ms_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("granlog_c_ms_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("granlog_c_ms_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("granlog_c_ms_sum 3\n"));
        assert!(text.contains("granlog_c_ms_count 1\n"));
        // Every non-comment line is `name value` or `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn tracer_ring_caps_and_drops() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            t.emit("tick", vec![("i", Value::from(i))]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let events = t.events();
        assert_eq!(events[0].fields[0].1, Value::U64(2));
        assert_eq!(events[2].fields[0].1, Value::U64(4));
    }

    #[test]
    fn tracer_disabled_records_nothing() {
        let t = Tracer::disabled(8);
        t.emit("tick", vec![]);
        assert!(t.is_empty());
        t.set_enabled(true);
        t.emit("tick", vec![]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn jsonl_escapes_and_drains() {
        let t = Tracer::new(8);
        t.emit(
            "query_begin",
            vec![
                ("goal", Value::from("nrev(\"a\\b\",\nX)")),
                ("budget", Value::from(4096u64)),
                ("ratio", Value::from(0.5)),
                ("neg", Value::from(-1i64)),
            ],
        );
        let dump = t.jsonl(true);
        let line = dump.lines().next().expect("one line");
        assert!(line.starts_with("{\"ts_us\":"));
        assert!(line.contains("\"kind\":\"query_begin\""));
        assert!(line.contains("\"goal\":\"nrev(\\\"a\\\\b\\\",\\nX)\""));
        assert!(line.contains("\"budget\":4096"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"neg\":-1"));
        assert!(line.ends_with('}'));
        // Drained: a second dump is empty.
        assert!(t.jsonl(false).is_empty());
    }

    #[test]
    fn nonfinite_float_renders_null() {
        let event = TraceEvent {
            ts_us: 1,
            kind: "x",
            fields: vec![("v", Value::F64(f64::NAN))],
        };
        assert!(event.to_json().contains("\"v\":null"));
    }
}
