//! End-to-end fused-vs-unfused forward benchmark.
//!
//! Runs the model-C backbone (width ÷8, 160×320 input — the same
//! configuration `profile` measures) in eval mode with the fused
//! execution plan on (`SKYNET_FUSION=on`: BN epilogue + fused activation +
//! cache-resident DW→PW bundle tiles) and off (the unfused
//! layer-by-layer oracle), pooled and forced-serial, and reports the
//! speedup. Before timing, the two paths' outputs are asserted
//! **CRC-identical** — the fusion bit-identity contract at the whole-net
//! level — and the `fusion.*` counters are checked to prove the plan
//! actually executed (no silent fallback).
//!
//! The report is archived at `bench_results/fusion_bench.md`. Under the
//! full budget the run fails if the pooled fused forward is slower than
//! the pooled unfused forward; `SKYNET_BENCH_BUDGET=fast` (CI) checks
//! behaviour, not speed.

use skynet_bench::Budget;
use skynet_core::skynet::{SkyNet, SkyNetConfig, Variant};
use skynet_nn::{Act, Layer, Mode};
use skynet_tensor::crc32::Crc32;
use skynet_tensor::{fusion, parallel, rng::SkyRng, simd, telemetry, Shape, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

fn crc(t: &Tensor) -> u32 {
    let mut h = Crc32::new();
    for v in t.as_slice() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finalize()
}

/// Best-of-`reps` ms/iter of `iters` forwards, with the reps interleaved
/// between the fused and unfused paths so a noise window hits both.
fn time_paths(net: &mut SkyNet, x: &Tensor, iters: usize, reps: usize, serial: bool) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (slot, fuse) in [(0usize, false), (1usize, true)] {
            fusion::force(fuse);
            let mut run = || {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(net.forward(x, Mode::Eval).expect("forward"));
                }
                t0.elapsed().as_secs_f64()
            };
            let secs = if serial { parallel::serial(run) } else { run() };
            best[slot] = best[slot].min(secs);
        }
    }
    (best[0] * 1e3 / iters as f64, best[1] * 1e3 / iters as f64)
}

fn main() {
    let budget = Budget::from_env();
    let full = matches!(budget, Budget::Full);
    let iters = budget.pick(3, 20);
    let reps = budget.pick(2, 5);
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

    // Bit-identity gate first, with the plan-execution counters armed so
    // a silent fallback to the unfused path cannot fake a pass.
    telemetry::Builder::new().metrics(true).trace(false).apply();
    telemetry::reset_metrics();
    fusion::force(false);
    let y_unfused = net.forward(&x, Mode::Eval).expect("unfused forward");
    fusion::force(true);
    let y_fused = net.forward(&x, Mode::Eval).expect("fused forward");
    let (crc_u, crc_f) = (crc(&y_unfused), crc(&y_fused));
    assert_eq!(crc_u, crc_f, "fused forward diverged from unfused");
    let snap = telemetry::snapshot();
    let bundles = snap.counter("fusion.bundles_executed").unwrap_or(0);
    assert_eq!(bundles, 6, "expected all 6 model-C bundles fused");
    assert_eq!(
        snap.counter("fusion.fallback").unwrap_or(0),
        0,
        "plan build fell back to the unfused path"
    );
    let dram_saved = snap.counter("fusion.dram_bytes_saved").unwrap_or(0);
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();

    // Warm both paths' code and both arena populations (pooled + serial).
    for fuse in [false, true] {
        fusion::force(fuse);
        net.forward(&x, Mode::Eval).expect("warmup");
        parallel::serial(|| net.forward(&x, Mode::Eval).expect("warmup serial"));
    }

    let (ser_unfused, ser_fused) = time_paths(&mut net, &x, iters, reps, true);
    let (par_unfused, par_fused) = time_paths(&mut net, &x, iters, reps, false);

    let mut report = String::new();
    let _ = writeln!(report, "# Fused vs unfused end-to-end forward\n");
    let _ = writeln!(
        report,
        "Model C (width ÷8), input {shape}, best of {reps} runs of {iters} \
         eval forwards per path per mode, reps interleaved. Active SIMD \
         backend: `{}`; pool size {}. Both paths produce CRC-identical \
         outputs (`{crc_u:08x}`), asserted before timing; the plan fused \
         all {bundles} bundles with zero fallbacks and skips \
         {dram_saved} bytes of intermediate DRAM traffic per forward.\n",
        simd::active().name(),
        parallel::num_threads(),
    );
    let _ = writeln!(report, "| mode | unfused ms | fused ms | speedup |");
    let _ = writeln!(report, "|---|---:|---:|---:|");
    let _ = writeln!(
        report,
        "| serial | {ser_unfused:.3} | {ser_fused:.3} | {:.2}x |",
        ser_unfused / ser_fused
    );
    let _ = writeln!(
        report,
        "| pooled | {par_unfused:.3} | {par_fused:.3} | {:.2}x |",
        par_unfused / par_fused
    );
    let _ = writeln!(
        report,
        "\nThe fused path eliminates the five per-bundle full-map \
         intermediates (DW output, two BN outputs, two activation \
         outputs): each bundle runs DW→BN→Act→PW→BN→Act over row bands \
         whose tiles stay in the thread-local scratch arena, with the BN \
         and activation epilogues folded into the producing kernels' \
         store loops.\n"
    );

    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/fusion_bench.md", &report).expect("write report");
    print!("{report}");

    if full {
        let speedup = par_unfused / par_fused;
        assert!(
            speedup >= 1.0,
            "pooled fused forward is slower than unfused ({speedup:.2}x)"
        );
    }
    println!(
        "fusion_bench OK: serial {:.2}x, pooled {:.2}x, outputs CRC-identical",
        ser_unfused / ser_fused,
        par_unfused / par_fused
    );
}
