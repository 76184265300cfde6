//! Per-op profile of a standard SkyNet forward (and backward) pass.
//!
//! Runs the model-C backbone (width ÷8, 160×320 input) with telemetry
//! enabled and reports where the time goes, four ways:
//!
//! 1. a **per-op self-time table** measured with all parallel regions
//!    forced serial (`parallel::serial`), so spans nest exactly and the
//!    self times partition wall time — the run fails if the table covers
//!    less than 90 % of wall time. The table carries an **allocations
//!    column** fed by the scratch-arena miss counters, and the run fails
//!    if the steady-state forward loop allocates any bytes from the
//!    arena's miss path after warm-up;
//! 2. the **metrics snapshot** (call counts, FLOPs → effective GFLOP/s)
//!    plus the global-allocator tap (`SKYNET_ALLOC_STATS` semantics,
//!    armed unconditionally here);
//! 3. a **training-step profile**: train-mode forward + backward with
//!    the per-layer `skynet.*.bwd` spans, attributing backward time per
//!    bundle;
//! 4. a **Chrome `trace_event` JSON** captured from a pooled run
//!    (`bench_results/profile_trace.json`) — open it in
//!    <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! The report is archived at `bench_results/profile.md` together with the
//! PR-3 baseline for a before/after comparison; under the full budget the
//! run fails unless the specialized kernels hold their speedup floors.
//! Use `SKYNET_BENCH_BUDGET=fast` for a smoke pass (CI).

use skynet_bench::Budget;
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_nn::{Act, Layer, Mode};
use skynet_tensor::{alloc, fusion, parallel, rng::SkyRng, simd, telemetry, Shape, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

/// PR-3 baseline (generic dwconv, per-call `vec!` buffers), measured by
/// this bin on the same machine with the full budget: serial
/// `tensor.dwconv_fwd` self time and end-to-end forward, ms/iter.
const BASE_DWCONV_SELF_MS: f64 = 320.668 / 40.0;
const BASE_E2E_MS: f64 = 12.03;

/// Scratch-arena checkout sites (the `op` tags in `tensor::scratch`).
const SCRATCH_OPS: [&str; 5] = [
    "tensor.conv_fwd",
    "tensor.conv_bwd",
    "tensor.dwconv_bwd",
    "tensor.matmul",
    "tensor.fused_fwd",
];

/// Sums `scratch.<op>.bytes_alloc` — bytes newly allocated because the
/// arena missed — across all checkout sites.
fn arena_miss_bytes(snap: &telemetry::Snapshot) -> u64 {
    snap.counter("scratch.miss_bytes").unwrap_or(0)
}

/// Renders the per-op self-time table with reuse/miss columns from the
/// scratch counters.
fn render_ops_table(
    stats: &[telemetry::OpStat],
    snap: &telemetry::Snapshot,
    wall_ns: u64,
) -> (String, u64) {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "| op | calls | total ms | self ms | self % of wall | arena reuse | arena miss B |"
    );
    let _ = writeln!(table, "|---|---:|---:|---:|---:|---:|---:|");
    let covered_ns: u64 = stats.iter().map(|s| s.self_ns).sum();
    for s in stats {
        let (reuse, miss) = if SCRATCH_OPS.contains(&s.name) {
            (
                snap.counter(&format!("scratch.{}.arena_reuse", s.name))
                    .unwrap_or(0),
                snap.counter(&format!("scratch.{}.bytes_alloc", s.name))
                    .unwrap_or(0),
            )
        } else {
            (0, 0)
        };
        let _ = writeln!(
            table,
            "| {} | {} | {:.3} | {:.3} | {:.1} % | {} | {} |",
            s.name,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / wall_ns as f64,
            reuse,
            miss,
        );
    }
    let _ = writeln!(
        table,
        "| **total** | | | {:.3} | {:.1} % | | |",
        covered_ns as f64 / 1e6,
        100.0 * covered_ns as f64 / wall_ns as f64
    );
    (table, covered_ns)
}

fn main() {
    // Telemetry + the allocator tap on via the builder APIs (env vars
    // also work; the bin must not depend on the caller setting them).
    telemetry::Builder::new().metrics(true).trace(true).apply();
    alloc::enable(true);
    let budget = Budget::from_env();
    let full = matches!(budget, Budget::Full);
    let iters = budget.pick(5, 40);
    let bwd_iters = budget.pick(3, 15);
    let trace_iters = budget.pick(2, 5);
    let shape = Shape::new(1, 3, 160, 320);

    let cfg = SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(8);
    let mut rng = SkyRng::new(42);
    let mut net = SkyNet::new(cfg, &mut rng);
    let x = Tensor::from_vec(
        shape,
        (0..shape.numel())
            .map(|i| ((i % 251) as f32 / 251.0) - 0.5)
            .collect(),
    )
    .expect("input tensor");

    // Warm up every phase's code path *and* thread arena: pooled forward
    // (pool spawn + worker arenas), serial forward and serial
    // train-forward+backward (this thread's arena, both directions),
    // fused and unfused. Everything after the reset below runs against
    // warm arenas.
    for fuse in [false, true] {
        fusion::force(fuse);
        for _ in 0..2 {
            net.forward(&x, Mode::Eval).expect("warmup forward");
        }
        parallel::serial(|| {
            for _ in 0..2 {
                net.forward(&x, Mode::Eval).expect("warmup serial forward");
                let y = net.forward(&x, Mode::Train).expect("warmup train forward");
                net.backward(&y).expect("warmup backward");
            }
        });
    }
    telemetry::drain_spans();
    telemetry::reset_metrics();

    // Phase 1 — serial forward, unfused. With every parallel region
    // inlined, all spans land on one thread and nest exactly, so per-op
    // self times partition the wall clock; the scratch counters must
    // show zero misses (the arena was warmed above). The unfused path is
    // profiled first because the PR-3 baseline (and its speedup floors)
    // predate the execution plan.
    fusion::force(false);
    let alloc_before = alloc::stats();
    let t0 = Instant::now();
    parallel::serial(|| {
        for _ in 0..iters {
            net.forward(&x, Mode::Eval).expect("profiled forward");
        }
    });
    let wall = t0.elapsed();
    let alloc_fwd = alloc::stats().since(&alloc_before);
    let spans = telemetry::drain_spans();
    let stats = telemetry::aggregate(&spans);
    let snap = telemetry::snapshot();

    let wall_ns = wall.as_nanos() as u64;
    let (table, covered_ns) = render_ops_table(&stats, &snap, wall_ns);
    let coverage = covered_ns as f64 / wall_ns as f64;
    let fwd_miss_bytes = arena_miss_bytes(&snap);

    let total_flops: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.ends_with("_flops"))
        .map(|&(_, v)| v)
        .sum();
    let gflops = total_flops as f64 / wall.as_secs_f64() / 1e9;
    let e2e_ms = wall.as_secs_f64() * 1e3 / iters as f64;
    let dwconv_self_ms = stats
        .iter()
        .find(|s| s.name == "tensor.dwconv_fwd")
        .map(|s| s.self_ns as f64 / 1e6 / iters as f64)
        .unwrap_or(0.0);

    // Phase 1b — serial forward through the fused execution plan
    // (`SKYNET_FUSION=on`, the default). Same invariants as phase 1: the
    // per-op table must still cover >= 90 % of wall time (the fused
    // spans `fused.bundleN` replace `skynet.bundleN`, never coexist with
    // it) and the steady-state loop must stay on the arena's hit path.
    telemetry::reset_metrics();
    fusion::force(true);
    let t0f = Instant::now();
    parallel::serial(|| {
        for _ in 0..iters {
            net.forward(&x, Mode::Eval).expect("profiled fused forward");
        }
    });
    let fused_wall = t0f.elapsed();
    let fused_spans = telemetry::drain_spans();
    let fused_stats = telemetry::aggregate(&fused_spans);
    let fused_snap = telemetry::snapshot();
    let fused_wall_ns = fused_wall.as_nanos() as u64;
    let (fused_table, fused_covered_ns) =
        render_ops_table(&fused_stats, &fused_snap, fused_wall_ns);
    let fused_coverage = fused_covered_ns as f64 / fused_wall_ns as f64;
    let fused_miss_bytes = arena_miss_bytes(&fused_snap);
    let fused_e2e_ms = fused_wall.as_secs_f64() * 1e3 / iters as f64;

    // Phase 2 — serial training step (train-mode forward + backward)
    // with the per-layer backward spans.
    telemetry::reset_metrics();
    let t1 = Instant::now();
    parallel::serial(|| {
        for _ in 0..bwd_iters {
            let y = net.forward(&x, Mode::Train).expect("train forward");
            net.backward(&y).expect("profiled backward");
        }
    });
    let bwd_wall = t1.elapsed();
    let bwd_spans = telemetry::drain_spans();
    let bwd_stats = telemetry::aggregate(&bwd_spans);
    let bwd_snap = telemetry::snapshot();
    let (bwd_table, _) = render_ops_table(&bwd_stats, &bwd_snap, bwd_wall.as_nanos() as u64);
    let bwd_miss_bytes = arena_miss_bytes(&bwd_snap);

    // Phase 3 — pooled run for the Chrome trace: same forward, default
    // pool, so the exported timeline shows work spread over the workers.
    let t2 = Instant::now();
    for _ in 0..trace_iters {
        net.forward(&x, Mode::Eval).expect("traced forward");
    }
    let pooled = t2.elapsed();
    let trace_spans = telemetry::drain_spans();
    let trace_json = telemetry::chrome_trace_json(&trace_spans);
    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/profile_trace.json", &trace_json).expect("write trace");

    let mut report = String::new();
    let _ = writeln!(report, "# Per-op profile: forward pass + training step\n");
    let _ = writeln!(
        report,
        "Model C (width ÷8), input {shape}, {iters} serial forward iterations \
         (pool size {} for the pooled trace capture). Active SIMD backend: \
         `{}`.\n",
        parallel::num_threads(),
        simd::active().name(),
    );
    let _ = writeln!(
        report,
        "Serial forward: {:.1} ms total, {e2e_ms:.2} ms/iter; effective {gflops:.2} GFLOP/s.\n",
        wall.as_secs_f64() * 1e3,
    );
    let _ = writeln!(report, "{table}");
    let _ = writeln!(
        report,
        "\nSteady-state forward allocations (global-allocator tap): {} calls / {} bytes \
         per iteration; **{fwd_miss_bytes} bytes from the scratch-arena miss path** \
         (asserted zero).\n",
        alloc_fwd.alloc_calls / iters as u64,
        alloc_fwd.alloc_bytes / iters as u64,
    );

    let _ = writeln!(
        report,
        "## Before/after vs the PR-3 baseline (full budget, same machine)\n"
    );
    let _ = writeln!(report, "| metric | PR 3 | now | speedup |");
    let _ = writeln!(report, "|---|---:|---:|---:|");
    let _ = writeln!(
        report,
        "| `tensor.dwconv_fwd` self ms/iter | {BASE_DWCONV_SELF_MS:.3} | {dwconv_self_ms:.3} | {:.2}x |",
        BASE_DWCONV_SELF_MS / dwconv_self_ms.max(1e-9),
    );
    let _ = writeln!(
        report,
        "| end-to-end forward ms/iter | {BASE_E2E_MS:.2} | {e2e_ms:.2} | {:.2}x |\n",
        BASE_E2E_MS / e2e_ms.max(1e-9),
    );

    let _ = writeln!(
        report,
        "## Fused execution plan (`SKYNET_FUSION=on`, serial forward)\n"
    );
    let _ = writeln!(
        report,
        "{fused_e2e_ms:.2} ms/iter through the fused plan \
         (BN epilogue + fused activation + cache-resident DW→PW bundle \
         tiles) vs {e2e_ms:.2} ms/iter unfused — **{:.2}x** — with \
         bit-identical output (see `fusion_bench`). The `fused.bundleN` \
         spans replace `skynet.bundleN`; coverage and the zero-arena-miss \
         invariant hold on the fused path too.\n",
        e2e_ms / fused_e2e_ms.max(1e-9),
    );
    let _ = writeln!(report, "{fused_table}");
    let _ = writeln!(report, "\n`fusion.*` counters over the fused phase:\n");
    let _ = writeln!(report, "```");
    for (name, v) in &fused_snap.counters {
        if name.starts_with("fusion.") {
            let _ = writeln!(report, "{name} = {v}");
        }
    }
    let _ = writeln!(report, "```\n");

    let _ = writeln!(
        report,
        "## Training step (train-mode forward + backward, {bwd_iters} serial iterations)\n"
    );
    let _ = writeln!(
        report,
        "{:.2} ms per training step; backward attributed per layer via the \
         `skynet.*.bwd` spans; {bwd_miss_bytes} bytes from the arena miss path.\n",
        bwd_wall.as_secs_f64() * 1e3 / bwd_iters as f64,
    );
    let _ = writeln!(report, "{bwd_table}");

    let _ = writeln!(
        report,
        "\nPooled forward ({trace_iters} iterations): {:.2} ms/iter — per-thread timeline in \
         `bench_results/profile_trace.json` ({} spans; open in <https://ui.perfetto.dev>).\n",
        pooled.as_secs_f64() * 1e3 / trace_iters as f64,
        trace_spans.len()
    );
    let _ = writeln!(report, "## Metrics snapshot (serial forward phase)\n");
    let _ = writeln!(report, "```");
    for (name, v) in &snap.counters {
        if !name.starts_with("pool.") {
            let _ = writeln!(report, "{name} = {v}");
        }
    }
    let _ = writeln!(report, "```");
    std::fs::write("bench_results/profile.md", &report).expect("write report");

    print!("{report}");

    assert!(
        trace_json.starts_with('{') && trace_json.contains("\"traceEvents\":["),
        "trace JSON malformed"
    );
    assert!(
        coverage >= 0.90,
        "per-op table covers only {:.1} % of wall time (need >= 90 %)",
        100.0 * coverage
    );
    assert_eq!(
        fwd_miss_bytes, 0,
        "steady-state forward allocated {fwd_miss_bytes} bytes from the arena miss path"
    );
    assert!(
        fused_coverage >= 0.90,
        "fused per-op table covers only {:.1} % of wall time (need >= 90 %)",
        100.0 * fused_coverage
    );
    assert_eq!(
        fused_miss_bytes, 0,
        "steady-state fused forward allocated {fused_miss_bytes} bytes from the arena miss path"
    );
    assert!(
        fused_stats.iter().any(|s| s.name == "fused.bundle1"),
        "fused phase produced no fused.bundleN spans — plan did not execute"
    );
    assert_eq!(
        bwd_miss_bytes, 0,
        "steady-state training step allocated {bwd_miss_bytes} bytes from the arena miss path"
    );
    assert!(
        bwd_stats.iter().any(|s| s.name == "skynet.bundle1.bwd"),
        "per-layer backward spans missing from the training-step profile"
    );
    if full {
        // The acceptance floors only bind on the machine that produced
        // the baseline; the fast (CI) budget checks behaviour, not speed.
        let dw_speedup = BASE_DWCONV_SELF_MS / dwconv_self_ms.max(1e-9);
        assert!(
            dw_speedup >= 2.0,
            "dwconv_fwd self time speedup {dw_speedup:.2}x < 2x floor"
        );
        let e2e_speedup = BASE_E2E_MS / e2e_ms.max(1e-9);
        assert!(
            e2e_speedup >= 1.5,
            "end-to-end forward speedup {e2e_speedup:.2}x < 1.5x floor"
        );
    }
    println!(
        "profile OK: {:.1} % of wall time attributed across {} ops; 0 arena-miss bytes",
        100.0 * coverage,
        stats.len()
    );
}
