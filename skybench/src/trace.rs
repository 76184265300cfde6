//! The traced run: telemetry on, spans kept in memory, per-layer metrics
//! derived when the run ends.
//!
//! The benchmark opens its own `bench.*` spans around each public call
//! on the calling thread (they never nest), and turns on the spans and
//! counters the crates already record. A layer's self time is its span
//! time minus the time of spans nested in it on the same thread.

use crate::{stats, Segment, BUNDLES};
use skynet_tensor::alloc::{self, AllocStats};
use skynet_tensor::parallel;
use skynet_tensor::telemetry::{self, OpStat, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Spans kept for the Chrome trace: enough for the first few operations
/// on every thread, small enough to archive.
const CHROME_SPANS: usize = 600;

/// Bundle spans of the unfused eval and train walk (`SkyNet::forward`
/// without a plan).
const UNFUSED_BUNDLE_SPANS: [&str; 6] = [
    "skynet.bundle1",
    "skynet.bundle2",
    "skynet.bundle3",
    "skynet.bundle4",
    "skynet.bundle5",
    "skynet.bundle6",
];

/// Every per-layer metric with its unit, in report order. The traced
/// run reports all of them on every workload; a layer a workload does
/// not use reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("detector.forward_ms_p50", "ms"),
    ("detector.decode_ms_p50", "ms"),
    ("tensor.fused_fwd.self_ms", "ms"),
    ("tensor.matmul.self_ms", "ms"),
    ("tensor.dwconv_fwd.self_ms", "ms"),
    ("tensor.pool_fwd.self_ms", "ms"),
    ("skynet.reorg.self_ms", "ms"),
    ("skynet.concat.self_ms", "ms"),
    ("skynet.head.self_ms", "ms"),
    ("tensor.gflops", "GFLOP/s"),
    ("fusion.bundles_fused_ratio", "ratio"),
    ("fusion.plan_builds", "count"),
    ("fusion.fallback", "count"),
    ("tensor.qfused_fwd.self_ms", "ms"),
    ("tensor.qmatmul.self_ms", "ms"),
    ("int8.unspanned.self_ms", "ms"),
    ("quant.fused.bundles_ratio", "ratio"),
    ("quant.saturated", "count"),
    ("alloc.calls_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("scratch.miss_bytes", "B"),
    ("pool.idle_share", "ratio"),
    ("pool.tasks_per_op", "count"),
    ("train.gather_ms_p50", "ms"),
    ("train.fwd_bwd_ms_p50", "ms"),
    ("train.optim_ms_p50", "ms"),
    ("tensor.matmul_a_bt.self_ms", "ms"),
    ("tensor.matmul_at_b.self_ms", "ms"),
    ("tensor.dwconv_bwd.self_ms", "ms"),
    ("tensor.pool_bwd.self_ms", "ms"),
    ("serve.submit_us_p90", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.infer_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.slowdown_p50", "ratio"),
];

/// Span data accumulated over a traced segment.
pub struct Tracer {
    ops: BTreeMap<&'static str, OpStat>,
    /// Durations (ms) of the benchmark's own spans (see [`is_bench_span`]).
    bench_ms: BTreeMap<&'static str, Vec<f64>>,
    chrome: Vec<SpanRecord>,
    alloc_before: AllocStats,
}

/// Numbers a workload measured itself during the traced segment.
#[derive(Debug, Default)]
pub struct Extras {
    /// How late the load generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Requests answered at admission instead of queued.
    pub rejected: u64,
}

/// The outcome of a traced segment.
pub struct Layers {
    /// `(name, value, unit)` for every entry of [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-op self-time table (Markdown).
    pub table: String,
    /// Chrome `trace_event` JSON of the segment's first spans.
    pub chrome_json: String,
}

impl Tracer {
    /// Turns on spans, counters and the allocator tap, and starts from
    /// empty buffers and zeroed counters.
    pub fn start() -> Self {
        telemetry::Builder::new().metrics(true).trace(true).apply();
        alloc::enable(true);
        telemetry::drain_spans();
        telemetry::reset_metrics();
        Tracer {
            ops: BTreeMap::new(),
            bench_ms: BTreeMap::new(),
            chrome: Vec::new(),
            alloc_before: alloc::stats(),
        }
    }

    /// Moves the finished spans out of the per-thread buffers. Closed
    /// loops call this between operations, when no span is open, so the
    /// buffers never reach their cap.
    pub fn drain(&mut self) {
        let spans = telemetry::drain_spans();
        for s in telemetry::aggregate(&spans) {
            let acc = self.ops.entry(s.name).or_insert(OpStat {
                name: s.name,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            acc.calls += s.calls;
            acc.total_ns += s.total_ns;
            acc.self_ns += s.self_ns;
        }
        for s in &spans {
            if is_bench_span(s.name) {
                self.bench_ms
                    .entry(s.name)
                    .or_default()
                    .push(s.dur_ns as f64 / 1e6);
            }
        }
        let room = CHROME_SPANS.saturating_sub(self.chrome.len());
        self.chrome.extend(spans.into_iter().take(room));
    }

    /// Ends the segment: turns telemetry off and derives every
    /// [`PER_LAYER`] metric. The segment's `ops` count frames, training
    /// steps or requests; the two medians are the `latency_ms_p50` of the
    /// untraced and the traced segment, both in wall time.
    pub fn finish(
        mut self,
        seg: &Segment,
        untraced_p50_ms: f64,
        traced_p50_ms: f64,
    ) -> Result<Layers, String> {
        self.drain();
        let snap = telemetry::snapshot();
        let alloc_delta = alloc::stats().since(&self.alloc_before);
        telemetry::Builder::new()
            .metrics(false)
            .trace(false)
            .apply();
        alloc::enable(false);
        if let Some(dropped) = snap.counter("telemetry.spans.dropped").filter(|&d| d > 0) {
            return Err(format!("{dropped} spans dropped: raise the drain rate"));
        }

        let (wall, ops, extras) = (seg.elapsed, seg.ops, &seg.extras);
        let wall_ns = wall.as_nanos() as f64;
        let per_op = |v: f64| if ops == 0 { 0.0 } else { v / ops as f64 };
        let self_ms = |name: &str| per_op(self.ops.get(name).map_or(0, |s| s.self_ns) as f64 / 1e6);
        let calls = |name: &str| self.ops.get(name).map_or(0, |s| s.calls);
        let p50 = |name: &str| {
            self.bench_ms
                .get(name)
                .and_then(|v| stats::median(&stats::sorted(v.clone())))
                .unwrap_or(0.0)
        };
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let histogram = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name && h.count > 0)
        };
        let hist = |name: &str, q: f64| histogram(name).and_then(|h| h.quantile(q)).unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let counters_where = |keep: &dyn Fn(&str) -> bool| {
            snap.counters
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|&(_, v)| v)
                .sum::<u64>() as f64
        };
        let bench_ns = self
            .ops
            .values()
            .filter(|s| is_bench_span(s.name))
            .map(|s| s.total_ns)
            .sum::<u64>() as f64;
        let late = stats::sorted(extras.late_ms.clone());
        let submit_us = stats::sorted(
            self.bench_ms
                .get("bench.submit")
                .map_or(Vec::new(), |v| v.iter().map(|ms| ms * 1e3).collect()),
        );

        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let value = match name {
                "detector.forward_ms_p50" => p50("bench.forward"),
                "detector.decode_ms_p50" => p50("bench.decode"),
                "tensor.gflops" => ratio(counters_where(&|n| n.ends_with("_flops")), wall_ns),
                "fusion.bundles_fused_ratio" => {
                    let fused = counter("fusion.bundles_executed");
                    let unfused = UNFUSED_BUNDLE_SPANS.iter().map(|s| calls(s)).sum::<u64>() as f64;
                    ratio(fused, fused + unfused)
                }
                "fusion.plan_builds" => counter("fusion.plan_builds"),
                "fusion.fallback" => counter("fusion.fallback"),
                "int8.unspanned.self_ms" => self_ms("skynet.int8.forward"),
                "quant.fused.bundles_ratio" => ratio(
                    counter("quant.fused.bundles_executed"),
                    (BUNDLES as u64 * calls("skynet.int8.forward")) as f64,
                ),
                "quant.saturated" => {
                    counters_where(&|n| n.starts_with("quant.") && n.ends_with("saturated"))
                }
                "alloc.calls_per_op" => per_op(alloc_delta.alloc_calls as f64),
                "alloc.bytes_per_op" => per_op(alloc_delta.alloc_bytes as f64),
                "scratch.miss_bytes" => counter("scratch.miss_bytes"),
                "pool.idle_share" => {
                    let idle = counters_where(&|n| {
                        n.starts_with("pool.thread.") && n.ends_with(".idle_ns")
                    });
                    let workers = parallel::num_threads().saturating_sub(1) as f64;
                    ratio(idle, wall_ns * workers)
                }
                "pool.tasks_per_op" => per_op(counter("pool.tasks")),
                "train.gather_ms_p50" => p50("bench.gather"),
                "train.fwd_bwd_ms_p50" => p50("bench.fwd_bwd"),
                "train.optim_ms_p50" => p50("bench.optim"),
                "serve.submit_us_p90" => stats::percentile(&submit_us, 90.0).unwrap_or(0.0),
                "serve.queue_wait_ms_p50" => hist("serve.queue_wait.ms", 0.50),
                "serve.queue_wait_ms_p90" => hist("serve.queue_wait.ms", 0.90),
                "serve.infer_ms_p50" => hist("serve.infer.ms", 0.50),
                "serve.batch_size_mean" => {
                    histogram("serve.batch.size").map_or(0.0, |h| h.sum / h.count as f64)
                }
                "serve.batches" => counter("serve.batches"),
                "serve.rejected" => extras.rejected as f64,
                "loadgen.late_ms_p90" => stats::percentile(&late, 90.0).unwrap_or(0.0),
                "loadgen.late_ms_max" => late.last().copied().unwrap_or(0.0),
                "trace.coverage" => ratio(bench_ns, wall_ns),
                "trace.slowdown_p50" => ratio(traced_p50_ms, untraced_p50_ms),
                // Every remaining name is `<span>.self_ms`.
                _ => self_ms(
                    name.strip_suffix(".self_ms")
                        .unwrap_or_else(|| panic!("per-layer metric {name} has no rule")),
                ),
            };
            metrics.push((name, value, unit));
        }

        Ok(Layers {
            metrics,
            table: self.table(wall, ops),
            chrome_json: telemetry::chrome_trace_json(&self.chrome),
        })
    }

    /// Markdown table of every span: calls, total and self time, self
    /// time per operation and as a share of wall time.
    fn table(&self, wall: Duration, ops: u64) -> String {
        let mut rows: Vec<&OpStat> = self.ops.values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        let wall_ns = wall.as_nanos() as f64;
        let mut out = String::from(
            "| span | calls | total ms | self ms | self ms/op | self % of wall |\n\
             |---|---:|---:|---:|---:|---:|\n",
        );
        for s in rows {
            let _ = writeln!(
                out,
                "| `{}` | {} | {:.3} | {:.3} | {:.4} | {:.1} % |",
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6 / ops.max(1) as f64,
                100.0 * s.self_ns as f64 / wall_ns,
            );
        }
        out
    }
}

/// The spans the benchmark opens itself, all on the calling thread.
fn is_bench_span(name: &str) -> bool {
    name.starts_with("bench.") || name.starts_with("loadgen.")
}
