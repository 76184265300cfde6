//! Process-wide observability: metrics, scoped-span tracing and reporters.
//!
//! The paper's contribution is *measured* hardware efficiency — every
//! Table 5 / Fig. 10 number comes from knowing where time goes. This
//! module is the software twin of that instrumentation: a registry of
//! [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s (all updated
//! lock-free through atomics) plus a scoped-span tracer whose
//! thread-local buffers drain into a single timeline that exports to the
//! Chrome `trace_event` format (open it in Perfetto / `chrome://tracing`).
//!
//! ## Cost model
//!
//! Telemetry is **disabled by default** and designed to be ~zero-cost in
//! that state: every entry point first checks one relaxed atomic load and
//! returns immediately when off. Enable it with the `SKYNET_METRICS` /
//! `SKYNET_TRACE` environment variables (`1`, `true`, `on`) or at runtime
//! through [`Builder`]:
//!
//! ```
//! use skynet_tensor::telemetry;
//!
//! telemetry::Builder::new().metrics(true).trace(true).apply();
//! {
//!     let _span = telemetry::span("example.work");
//!     telemetry::record_call("example.calls", 1);
//! }
//! let spans = telemetry::drain_spans();
//! assert_eq!(spans.len(), 1);
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("example.calls"), Some(1));
//! # telemetry::Builder::new().metrics(false).trace(false).apply();
//! # telemetry::reset_metrics();
//! ```
//!
//! ## Determinism
//!
//! Snapshots list metrics in sorted-name order, counters are integer
//! sums, and histograms accumulate their sum in fixed-point micro-units —
//! integer addition commutes, so metrics fed with deterministic *values*
//! (call counts, FLOPs, losses) produce **bit-identical snapshots for any
//! thread count**. Metrics that measure the scheduler itself (the
//! `pool.*` family: per-thread task counts, idle time) and wall-clock
//! histograms are intentionally outside that guarantee — they exist to
//! observe nondeterminism, not to hide it. Within one thread, spans are
//! recorded strictly in completion order (monotonic sequence numbers);
//! the drained timeline orders by start time for display only.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable/disable state
// ---------------------------------------------------------------------------

/// Tri-state flag: 0 = uninitialized (read env on first use), 1 = off,
/// 2 = on.
const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static METRICS_STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);
static TRACE_STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether the on/off switch `var` is on: `1`, `true`, `on` or `yes`,
/// surrounding whitespace allowed. The one parser of the crate's boolean
/// environment switches.
pub(crate) fn env_truthy(var: &str) -> bool {
    matches!(
        std::env::var(var).as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on") | Ok("yes")
    )
}

fn state_enabled(state: &AtomicU8, env: &str) -> bool {
    match state.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = env_truthy(env);
            state.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Whether metric recording is currently enabled (`SKYNET_METRICS` or
/// [`Builder::metrics`]). One relaxed atomic load on the hot path.
#[inline]
pub fn metrics_enabled() -> bool {
    state_enabled(&METRICS_STATE, "SKYNET_METRICS")
}

/// Whether span tracing is currently enabled (`SKYNET_TRACE` or
/// [`Builder::trace`]). One relaxed atomic load on the hot path.
#[inline]
pub fn trace_enabled() -> bool {
    state_enabled(&TRACE_STATE, "SKYNET_TRACE")
}

/// Runtime configuration of the telemetry subsystem; overrides the
/// environment variables in both directions.
///
/// ```
/// skynet_tensor::telemetry::Builder::new().metrics(true).apply();
/// # skynet_tensor::telemetry::Builder::new().metrics(false).apply();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Builder {
    metrics: Option<bool>,
    trace: Option<bool>,
}

impl Builder {
    /// Starts a builder that changes nothing until [`Builder::apply`].
    pub fn new() -> Self {
        Builder::default()
    }

    /// Enables or disables metric recording.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = Some(on);
        self
    }

    /// Enables or disables span tracing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Applies the requested states. Fields not set keep their current
    /// (or environment-derived) value.
    pub fn apply(self) {
        if let Some(on) = self.metrics {
            METRICS_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
        }
        if let Some(on) = self.trace {
            TRACE_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonically increasing integer metric (calls, FLOPs, frames).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins floating-point metric (loss, learning rate, queue
/// depth).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (compare-and-swap loop; used for depth
    /// tracking where concurrent writers exist).
    #[inline]
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
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Fixed-bucket histogram: `bounds.len() + 1` buckets where bucket *i*
/// counts values `<= bounds[i]` (the last bucket is the overflow).
///
/// The sum is accumulated in fixed-point micro-units (`round(v · 1e6)`),
/// so concurrent recording of deterministic values yields a
/// bit-deterministic snapshot — integer addition commutes where float
/// addition does not.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micro: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
        }
    }

    /// Records a value.
    #[inline]
    pub fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micro = (v.max(0.0) * 1e6).round() as u64;
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (micro-unit resolution).
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_micro.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<std::collections::BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<std::collections::BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

/// Returns (registering on first use) the counter with this name.
///
/// Registration takes a mutex; updates on the returned handle are
/// lock-free. Hot call sites should cache the reference.
///
/// # Panics
///
/// Panics if the name is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().expect("telemetry registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::default()))))
    {
        Metric::Counter(c) => c,
        other => panic!("metric `{name}` already registered as a {}", other.kind()),
    }
}

/// Returns (registering on first use) the gauge with this name.
///
/// # Panics
///
/// Panics if the name is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().expect("telemetry registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::default()))))
    {
        Metric::Gauge(g) => g,
        other => panic!("metric `{name}` already registered as a {}", other.kind()),
    }
}

/// Returns (registering on first use) the fixed-bucket histogram with
/// this name. The bounds are fixed at first registration; later callers
/// get the existing histogram regardless of the bounds they pass.
///
/// # Panics
///
/// Panics if the name is already registered as a different metric kind,
/// or if `bounds` is not strictly increasing.
pub fn histogram(name: &str, bounds: &[f64]) -> &'static Histogram {
    let mut reg = registry().lock().expect("telemetry registry");
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds)))))
    {
        Metric::Histogram(h) => h,
        other => panic!("metric `{name}` already registered as a {}", other.kind()),
    }
}

/// Convenience: `counter(name).add(n)` guarded by [`metrics_enabled`] —
/// the pattern kernels use so the disabled path is one atomic load.
#[inline]
pub fn record_call(name: &str, n: u64) {
    if metrics_enabled() {
        counter(name).add(n);
    }
}

/// Convenience: `gauge(name).set(v)` guarded by [`metrics_enabled`].
#[inline]
pub fn record_gauge(name: &str, v: f64) {
    if metrics_enabled() {
        gauge(name).set(v);
    }
}

/// Default latency-histogram bucket bounds, in milliseconds.
pub const MS_BOUNDS: [f64; 12] = [
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
];

/// Zeroes every registered metric (the names stay registered). Used by
/// profilers and tests that compare before/after windows.
pub fn reset_metrics() {
    let reg = registry().lock().expect("telemetry registry");
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots & reporters
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper bucket bounds (the final overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (micro-unit resolution).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the fixed buckets by
    /// linear interpolation inside the bucket holding the target rank.
    /// The first bucket interpolates from 0; ranks landing in the
    /// overflow bucket are clamped to the last bound (the histogram does
    /// not know how far past it the values went). Returns `None` when
    /// nothing has been recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let last_bound = *self.bounds.last()?;
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && cum as f64 >= target {
                if i >= self.bounds.len() {
                    return Some(last_bound);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = ((target - prev as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        Some(last_bound)
    }
}

/// Deterministically ordered copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs in ascending name order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms in ascending name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Keeps only metrics whose name passes the filter — e.g. drop the
    /// scheduling-dependent `pool.*` family before a determinism
    /// comparison.
    pub fn retain(mut self, keep: impl Fn(&str) -> bool) -> Self {
        self.counters.retain(|(n, _)| keep(n));
        self.gauges.retain(|(n, _)| keep(n));
        self.histograms.retain(|h| keep(&h.name));
        self
    }
}

/// Captures every registered metric. Iteration follows the registry's
/// BTreeMap, so the order is the sorted name order — deterministic
/// regardless of registration or scheduling order.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().expect("telemetry registry");
    let mut snap = Snapshot::default();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.clone(), c.value())),
            Metric::Gauge(g) => snap.gauges.push((name.clone(), g.value())),
            Metric::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                name: name.clone(),
                bounds: h.bounds.clone(),
                counts: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count(),
                sum: h.sum(),
            }),
        }
    }
    snap
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Inf; report as null.
        "null".to_string()
    }
}

/// Machine-readable JSON rendering of [`snapshot`]:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}` with keys in
/// deterministic (sorted) order.
pub fn snapshot_json() -> String {
    let snap = snapshot();
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(name), json_f64(*v)));
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
        let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
        let quant = |q: f64| h.quantile(q).map(json_f64).unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "\"{}\":{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_escape(&h.name),
            bounds.join(","),
            counts.join(","),
            h.count,
            json_f64(h.sum),
            quant(0.50),
            quant(0.95),
            quant(0.99),
        ));
    }
    out.push_str("}}");
    out
}

/// Human-readable fixed-width table of every registered metric.
pub fn render_table() -> String {
    let snap = snapshot();
    let mut out = String::new();
    if !snap.counters.is_empty() {
        out.push_str("counters\n");
        let w = snap
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<w$}  {v}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges\n");
        let w = snap.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, v) in &snap.gauges {
            out.push_str(&format!("  {name:<w$}  {v:.6}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms\n");
        for h in &snap.histograms {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            match (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)) {
                (Some(p50), Some(p95), Some(p99)) => out.push_str(&format!(
                    "  {}  count={} sum={:.3} mean={:.4} p50={p50:.4} p95={p95:.4} p99={p99:.4}\n",
                    h.name, h.count, h.sum, mean
                )),
                _ => out.push_str(&format!(
                    "  {}  count={} sum={:.3} mean={:.4}\n",
                    h.name, h.count, h.sum, mean
                )),
            }
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let label = if i < h.bounds.len() {
                    format!("<= {}", h.bounds[i])
                } else {
                    "overflow".to_string()
                };
                out.push_str(&format!("    {label:<12} {c}\n"));
            }
        }
    }
    if crate::alloc::enabled() {
        let a = crate::alloc::stats();
        out.push_str("allocator (SKYNET_ALLOC_STATS)\n");
        out.push_str(&format!(
            "  alloc_calls    {}\n  alloc_bytes    {}\n  dealloc_calls  {}\n  dealloc_bytes  {}\n",
            a.alloc_calls, a.alloc_bytes, a.dealloc_calls, a.dealloc_bytes
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Scoped-span tracer
// ---------------------------------------------------------------------------

/// One completed span on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static: span creation must not allocate).
    pub name: &'static str,
    /// Ordinal of the recording thread (assigned at that thread's first
    /// span, in registration order).
    pub thread: u32,
    /// Per-thread completion sequence number, strictly increasing.
    pub seq: u64,
    /// Start offset from the process trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End offset from the trace epoch, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct ThreadBuf {
    thread: u32,
    seq: u64,
    spans: std::collections::VecDeque<SpanRecord>,
}

/// Per-thread span-buffer capacity: `SKYNET_TRACE_CAP` (default 65 536
/// spans ≈ 2.5 MiB/thread). When a buffer is full the **oldest** span is
/// dropped and `telemetry.spans.dropped` incremented — a long-running
/// process keeps the most recent window instead of growing unboundedly.
fn trace_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("SKYNET_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(65_536)
    })
}

/// Cached handle for the drop counter so the span hot path never takes
/// the registry lock after the first drop.
fn dropped_counter() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| counter("telemetry.spans.dropped"))
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_bufs() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_BUF: std::cell::OnceCell<Arc<Mutex<ThreadBuf>>> =
        const { std::cell::OnceCell::new() };
}

fn with_local_buf(f: impl FnOnce(&mut ThreadBuf)) {
    LOCAL_BUF.with(|cell| {
        let arc = cell.get_or_init(|| {
            let mut all = trace_bufs().lock().expect("trace buffers");
            let buf = Arc::new(Mutex::new(ThreadBuf {
                thread: all.len() as u32,
                seq: 0,
                spans: std::collections::VecDeque::new(),
            }));
            all.push(Arc::clone(&buf));
            buf
        });
        // Uncontended except while a drain holds the buffer briefly.
        f(&mut arc.lock().expect("thread trace buffer"));
    });
}

/// RAII guard produced by [`span`]: records a [`SpanRecord`] on drop.
/// Inert (no clock read, no allocation) when tracing is disabled.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(&'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            let epoch = trace_epoch();
            let start_ns = start.duration_since(epoch).as_nanos() as u64;
            let dur_ns = start.elapsed().as_nanos() as u64;
            with_local_buf(|buf| {
                let seq = buf.seq;
                buf.seq += 1;
                let thread = buf.thread;
                if buf.spans.len() >= trace_cap() {
                    buf.spans.pop_front();
                    dropped_counter().inc();
                }
                buf.spans.push_back(SpanRecord {
                    name,
                    thread,
                    seq,
                    start_ns,
                    dur_ns,
                });
            });
        }
    }
}

/// Opens a scoped span bound to the enclosing scope:
/// `let _s = span!("conv_fwd");`. Expands to [`telemetry::span`](span).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::span($name)
    };
}

/// Opens a scoped span: the returned guard records the elapsed interval
/// into this thread's trace buffer when it goes out of scope. When
/// tracing is disabled the guard is inert and the call costs one relaxed
/// atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if trace_enabled() {
        // Pin the epoch before the first span so offsets are in range.
        trace_epoch();
        SpanGuard {
            live: Some((name, Instant::now())),
        }
    } else {
        SpanGuard { live: None }
    }
}

/// Drains every thread's span buffer into a single timeline ordered by
/// `(start_ns, thread, seq)`. Within a thread the records preserve
/// completion order via their `seq` field (asserted by the determinism
/// tests); the global sort is for display.
pub fn drain_spans() -> Vec<SpanRecord> {
    let all = trace_bufs().lock().expect("trace buffers");
    let mut out = Vec::new();
    for buf in all.iter() {
        let mut buf = buf.lock().expect("thread trace buffer");
        out.extend(buf.spans.drain(..));
    }
    drop(all);
    out.sort_by_key(|s| (s.start_ns, s.thread, s.seq));
    out
}

/// Renders spans in the Chrome `trace_event` JSON format — load the
/// output in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
/// Each span becomes a complete (`"ph":"X"`) event with microsecond
/// timestamps; threads map to `tid`s.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
            json_escape(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.thread,
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Per-op profile aggregation
// ---------------------------------------------------------------------------

/// Aggregated statistics for one span name, produced by [`aggregate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStat {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub calls: u64,
    /// Total (inclusive) time, nanoseconds.
    pub total_ns: u64,
    /// Self time: total minus time spent in spans nested inside these
    /// spans on the same thread, nanoseconds. Self times of all ops sum
    /// to the union of traced intervals, so they partition wall time.
    pub self_ns: u64,
}

/// Folds a drained timeline into per-op totals with *self time* (time
/// not attributable to a nested span — e.g. `conv_fwd` minus the
/// `matmul` it calls). Nesting is reconstructed per thread from the
/// interval structure, which is exact for scoped guards. Results are
/// sorted by descending self time.
pub fn aggregate(spans: &[SpanRecord]) -> Vec<OpStat> {
    use std::collections::HashMap;
    // Per-thread, sorted so parents come before their children.
    let mut by_thread: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut stats: HashMap<&'static str, OpStat> = HashMap::new();
    for list in by_thread.values_mut() {
        list.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns().cmp(&a.end_ns()))
        });
        // Stack of open intervals; child durations are subtracted from
        // the innermost enclosing span's self time.
        let mut stack: Vec<(&'static str, u64)> = Vec::new(); // (name, end_ns)
        let mut self_sub: HashMap<usize, u64> = HashMap::new(); // stack depth -> nested ns
        for s in list.iter() {
            while let Some(&(_, end)) = stack.last() {
                if end <= s.start_ns {
                    pop_frame(&mut stack, &mut self_sub, &mut stats);
                } else {
                    break;
                }
            }
            let entry = stats.entry(s.name).or_insert(OpStat {
                name: s.name,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.calls += 1;
            entry.total_ns += s.dur_ns;
            entry.self_ns += s.dur_ns;
            if !stack.is_empty() {
                *self_sub.entry(stack.len() - 1).or_insert(0) += s.dur_ns;
            }
            stack.push((s.name, s.end_ns()));
        }
        while !stack.is_empty() {
            pop_frame(&mut stack, &mut self_sub, &mut stats);
        }
    }
    let mut out: Vec<OpStat> = stats.into_values().collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
}

fn pop_frame(
    stack: &mut Vec<(&'static str, u64)>,
    self_sub: &mut std::collections::HashMap<usize, u64>,
    stats: &mut std::collections::HashMap<&'static str, OpStat>,
) {
    let depth = stack.len() - 1;
    let (name, _) = stack.pop().expect("non-empty stack");
    if let Some(nested) = self_sub.remove(&depth) {
        if let Some(stat) = stats.get_mut(name) {
            stat.self_ns = stat.self_ns.saturating_sub(nested);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flags are process-global, so tests that toggle them
    /// must not interleave.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = test_lock();
        Builder::new().metrics(true).trace(true).apply();
        let out = f();
        Builder::new().metrics(false).trace(false).apply();
        out
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        with_telemetry(|| {
            reset_metrics();
            counter("test.z").add(3);
            counter("test.a").add(2);
            counter("test.a").inc();
            let snap = snapshot().retain(|n| n.starts_with("test."));
            assert_eq!(
                snap.counters,
                vec![("test.a".to_string(), 3), ("test.z".to_string(), 3)]
            );
        });
    }

    #[test]
    fn gauge_set_and_add() {
        with_telemetry(|| {
            let g = gauge("test.gauge");
            g.set(1.5);
            g.add(2.25);
            assert_eq!(g.value(), 3.75);
        });
    }

    #[test]
    fn histogram_buckets_and_fixed_point_sum() {
        with_telemetry(|| {
            let h = histogram("test.hist.ms", &[1.0, 10.0]);
            h.reset();
            h.record(0.5);
            h.record(5.0);
            h.record(50.0);
            let snap = snapshot();
            let hs = snap
                .histograms
                .iter()
                .find(|h| h.name == "test.hist.ms")
                .unwrap();
            assert_eq!(hs.counts, vec![1, 1, 1]);
            assert_eq!(hs.count, 3);
            assert!((hs.sum - 55.5).abs() < 1e-6);
        });
    }

    #[test]
    fn spans_record_and_nest() {
        with_telemetry(|| {
            drain_spans();
            {
                let _outer = span("test.outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span("test.inner");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let spans = drain_spans();
            let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
            let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
            assert!(outer.start_ns <= inner.start_ns);
            assert!(outer.end_ns() >= inner.end_ns());

            let stats = aggregate(&[outer.clone(), inner.clone()]);
            let o = stats.iter().find(|s| s.name == "test.outer").unwrap();
            let i = stats.iter().find(|s| s.name == "test.inner").unwrap();
            assert_eq!(o.calls, 1);
            // Outer self time excludes the inner span.
            assert_eq!(o.self_ns, outer.dur_ns - inner.dur_ns);
            assert_eq!(i.self_ns, inner.dur_ns);
        });
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let _guard = test_lock();
        Builder::new().metrics(false).trace(false).apply();
        drain_spans();
        {
            let _s = span("test.disabled");
        }
        record_call("test.disabled.calls", 7);
        assert!(drain_spans().is_empty());
        assert_eq!(snapshot().counter("test.disabled.calls"), None);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let spans = vec![
            SpanRecord {
                name: "a",
                thread: 0,
                seq: 0,
                start_ns: 1_000,
                dur_ns: 2_000,
            },
            SpanRecord {
                name: "b",
                thread: 1,
                seq: 0,
                start_ns: 1_500,
                dur_ns: 500,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        with_telemetry(|| {
            counter("test.json.calls").inc();
            gauge("test.json.gauge").set(2.5);
            let json = snapshot_json();
            assert!(json.starts_with("{\"counters\":{"));
            assert!(json.contains("\"test.json.calls\":"));
            assert!(json.contains("\"test.json.gauge\":2.5"));
            assert_eq!(json.matches('{').count(), json.matches('}').count());
        });
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let hs = HistogramSnapshot {
            name: "test.q".into(),
            bounds: vec![1.0, 2.0, 4.0],
            // 10 values <= 1, 10 in (1, 2], none in (2, 4], 5 overflow.
            counts: vec![10, 10, 0, 5],
            count: 25,
            sum: 0.0,
        };
        // Rank 12.5 lands 2.5/10 into the (1, 2] bucket.
        let p50 = hs.quantile(0.5).unwrap();
        assert!((p50 - 1.25).abs() < 1e-9, "p50 = {p50}");
        // Ranks past the last bound clamp to it.
        assert_eq!(hs.quantile(0.99), Some(4.0));
        // First-bucket ranks interpolate from zero.
        let p20 = hs.quantile(0.2).unwrap();
        assert!((p20 - 0.5).abs() < 1e-9, "p20 = {p20}");
        // Empty histogram has no quantiles.
        let empty = HistogramSnapshot {
            name: "test.q0".into(),
            bounds: vec![1.0],
            counts: vec![0, 0],
            count: 0,
            sum: 0.0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn json_and_table_surface_percentiles() {
        with_telemetry(|| {
            let h = histogram("test.pctl.ms", &[1.0, 10.0]);
            h.reset();
            h.record(0.5);
            h.record(5.0);
            assert!(snapshot_json().contains("\"p95\":"));
            assert!(render_table().contains("p95="));
        });
    }

    #[test]
    fn span_buffer_drops_oldest_at_cap() {
        // The cap is process-wide (OnceLock) so this test exercises the
        // drop path on a dedicated thread with a pre-filled buffer
        // instead of overriding the env: record `cap + extra` spans and
        // check the retention window.
        with_telemetry(|| {
            drain_spans();
            let before = snapshot().counter("telemetry.spans.dropped").unwrap_or(0);
            let cap = trace_cap();
            let extra = 16;
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..cap + extra {
                        let _s = span("test.capped");
                    }
                });
            });
            let spans = drain_spans();
            let mine: Vec<_> = spans.iter().filter(|s| s.name == "test.capped").collect();
            assert_eq!(mine.len(), cap, "buffer must hold exactly the cap");
            // The survivors are the newest: seq values are the tail.
            let min_seq = mine.iter().map(|s| s.seq).min().unwrap();
            assert_eq!(min_seq, extra as u64, "oldest spans must be dropped");
            let after = snapshot().counter("telemetry.spans.dropped").unwrap_or(0);
            assert_eq!(after - before, extra as u64);
        });
    }
}
