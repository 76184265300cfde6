//! Micro-benchmark of the hot kernels across every available
//! `SKYNET_SIMD` backend, against the generic bounds-checked reference
//! (`dwconv::reference`) and against the scalar backend (the PR-4 scalar
//! kernels, which the scalar backend replays).
//!
//! Covers every DW-Conv3 shape the model-C (÷8) backbone instantiates on
//! a 160×320 input (plus stride-2 and border-heavy geometries where the
//! interior fast path covers the least area), the backbone's point-wise
//! convolutions, and the matmul shapes they lower to. For each case the
//! bin:
//!
//! 1. verifies the forward matches the reference (bit-identical off the
//!    lane path; rounding tolerance on it, where the balanced
//!    accumulation tree reorders the sums) and the lane-ordered backward
//!    is within rounding tolerance of it, on every backend (hard
//!    assertion — speed never buys accuracy);
//! 2. verifies every backend produces the **same CRC-32** over every
//!    output — the cross-ISA determinism contract, asserted on real
//!    workload shapes rather than property-test sizes; and
//! 3. times each backend (best-of-`reps`, all parallel regions forced
//!    serial so the numbers are scheduling-free) and reports per-backend
//!    speedups over the scalar backend.
//!
//! Two further lanes ride along: the **INT8 lane** times the
//! executable-INT8 kernels (`qint::dwconv3_i8`, `qint::matmul_i8`)
//! against their f32 counterparts on the same shapes — with every
//! backend's raw i32 accumulators asserted **CRC-identical** (each
//! backend's pair-`madd` body vs the scalar oracle, bitwise) — and the
//! **fused lane** times `fused::fused_bundle_forward` against the
//! unfused DW→BN→Act→PW→BN→Act layer sequence with the two paths
//! asserted bit-identical per backend. The **epilogue lane** times the
//! INT8 f32 epilogues (`qint::requant_i8`, `qint::quantize_i8`) on the
//! model's shapes, after asserting every backend's codes and saturation
//! count CRC-identical to the scalar oracle.
//!
//! The report is archived at `bench_results/kernel_bench.md`. The run
//! fails if the aggregate forward speedup of the widest backend over the
//! scalar backend drops below the budget's floor, for the backbone
//! DW-Conv3 shapes and for the matmul shapes independently — and if the
//! INT8 lane's aggregate speedup over f32 drops below its own floor
//! (1.8x at the full budget). `SKYNET_BENCH_BUDGET=fast` for CI.

use skynet_bench::Budget;
use skynet_tensor::conv::{conv2d, ConvGeometry};
use skynet_tensor::crc32::Crc32;
use skynet_tensor::dwconv::{dwconv2d, dwconv2d_backward, reference};
use skynet_tensor::fused::{fused_bundle_forward, BnAct};
use skynet_tensor::matmul::matmul_acc;
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::{ops, parallel, qint, Shape, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

struct Case {
    label: &'static str,
    shape: Shape,
    geo: ConvGeometry,
    /// Counts toward the aggregate-speedup gate (backbone shapes only —
    /// the border-heavy cases exist to watch the worst case, not to
    /// dilute the gate).
    gated: bool,
}

fn dw_cases() -> Vec<Case> {
    let g1 = ConvGeometry::new(3, 1, 1);
    let g2 = ConvGeometry::new(3, 2, 1);
    vec![
        // Model C ÷8 DW-Conv3 sites, 160×320 input.
        Case {
            label: "bundle1 3@160x320",
            shape: Shape::new(1, 3, 160, 320),
            geo: g1,
            gated: true,
        },
        Case {
            label: "bundle2 6@80x160",
            shape: Shape::new(1, 6, 80, 160),
            geo: g1,
            gated: true,
        },
        Case {
            label: "bundle3 12@40x80",
            shape: Shape::new(1, 12, 40, 80),
            geo: g1,
            gated: true,
        },
        Case {
            label: "bundle4 24@20x40",
            shape: Shape::new(1, 24, 20, 40),
            geo: g1,
            gated: true,
        },
        Case {
            label: "bundle5 48@20x40",
            shape: Shape::new(1, 48, 20, 40),
            geo: g1,
            gated: true,
        },
        Case {
            label: "bundle6 160@20x40",
            shape: Shape::new(1, 160, 20, 40),
            geo: g1,
            gated: true,
        },
        // Stride-2 (pooling-replacement geometry).
        Case {
            label: "stride2 12@40x80",
            shape: Shape::new(1, 12, 40, 80),
            geo: g2,
            gated: false,
        },
        Case {
            label: "stride2 48@20x40",
            shape: Shape::new(1, 48, 20, 40),
            geo: g2,
            gated: false,
        },
        // Border-heavy: tiny planes and fat padding — mostly border path.
        Case {
            label: "border 16@7x9 p2",
            shape: Shape::new(2, 16, 7, 9),
            geo: ConvGeometry::new(3, 1, 2),
            gated: false,
        },
        Case {
            label: "border 8@5x5 k5p2",
            shape: Shape::new(2, 8, 5, 5),
            geo: ConvGeometry::new(5, 1, 2),
            gated: false,
        },
    ]
}

/// Point-wise (1×1) convolutions of the model-C ÷8 backbone: channel
/// expansions after each DW stage plus the head's feature reduction.
/// `(ci, co, h, w)`.
fn pw_cases() -> Vec<(&'static str, usize, usize, usize, usize)> {
    vec![
        ("pw1 3->6@160x320", 3, 6, 160, 320),
        ("pw2 6->12@80x160", 6, 12, 80, 160),
        ("pw3 12->24@40x80", 12, 24, 40, 80),
        ("pw4 24->48@20x40", 24, 48, 20, 40),
        ("pw5 48->96@20x40", 48, 96, 20, 40),
        ("head 160->12@20x40", 160, 12, 20, 40),
    ]
}

/// Raw matmul shapes `(m, k, n)` the point-wise convolutions lower to
/// (`m = co`, `k = ci`, `n = h·w`), plus a generic square case. Gated
/// shapes keep `k` large enough that the timed per-rep output reset is
/// noise (< ~4 % of the multiply work).
fn mm_cases() -> Vec<(&'static str, usize, usize, usize, bool)> {
    vec![
        ("pw-lowered 48x24x800", 48, 24, 800, true),
        ("pw-lowered 96x48x800", 96, 48, 800, true),
        ("head 12x160x800", 12, 160, 800, true),
        ("square 256x256x256", 256, 256, 256, true),
        ("thin 6x3x51200", 6, 3, 51200, false),
        ("ragged 17x9x63", 17, 9, 63, false),
    ]
}

fn random_tensor(shape: Shape, rng: &mut SkyRng) -> Tensor {
    let data = (0..shape.numel()).map(|_| rng.range(-2.0, 2.0)).collect();
    Tensor::from_vec(shape, data).expect("length matches")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// CRC-32 over the raw little-endian bytes of `slices`, concatenated.
fn hash_f32(slices: &[&[f32]]) -> u32 {
    let mut h = Crc32::new();
    for s in slices {
        for v in *s {
            h.update(&v.to_le_bytes());
        }
    }
    h.finalize()
}

/// CRC-32 over raw i32 accumulators — the integer lane's bitwise
/// cross-backend witness (every pair-`madd` body vs the scalar oracle).
fn hash_i32(s: &[i32]) -> u32 {
    let mut h = Crc32::new();
    for v in s {
        h.update(&v.to_le_bytes());
    }
    h.finalize()
}

/// Rounding tolerance for the lane-ordered backward schedule vs the
/// reference summation order (a real kernel bug produces O(1) errors).
fn assert_close(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (&av, &bv)) in a.iter().zip(b).enumerate() {
        assert!(
            (av - bv).abs() <= 1e-3 * bv.abs().max(1.0),
            "{label}[{i}]: {av} vs {bv}"
        );
    }
}

/// Best-of-`reps` wall time of `f` under each backend, with the reps
/// *interleaved* across backends: a noise window (VM steal time, a
/// frequency shift) lands on every backend alike instead of poisoning
/// whichever one it happened to hit, which keeps the cross-backend
/// ratios honest on a loaded host. Returns one best time per backend,
/// in `backends` order. Leaves the forced backend dirty — callers
/// restore it.
/// One case of the epilogue lane: asserts every backend's `i8` codes and
/// saturation count CRC-identical to the scalar oracle's, then times the
/// oracle loop and each backend (serial) and appends the rows.
fn epilogue_case(
    report: &mut String,
    label: &str,
    len: usize,
    reps: usize,
    backends: &[Backend],
    oracle: impl Fn(&mut [i8]) -> u64,
    run: impl Fn(&mut [i8]) -> u64,
) {
    let hash = |codes: &[i8], sat: u64| {
        let mut h = Crc32::new();
        h.update(&codes.iter().map(|&q| q as u8).collect::<Vec<_>>());
        h.update(&sat.to_le_bytes());
        h.finalize()
    };
    let mut out = vec![0i8; len];
    let sat = oracle(&mut out);
    let want = hash(&out, sat);
    for &be in backends {
        simd::force(be);
        let sat = run(&mut out);
        assert_eq!(
            hash(&out, sat),
            want,
            "{label} [{}]: epilogue diverged from the scalar oracle",
            be.name()
        );
    }
    let (t_oracle, ts) = parallel::serial(|| {
        let t = time_backends(reps, &backends[..1], || oracle(&mut out))[0];
        (t, time_backends(reps, backends, || run(&mut out)))
    });
    let _ = writeln!(
        report,
        "| {label} | oracle loop | {:.3} | 1.00x | {want:08x} |",
        t_oracle * 1e3
    );
    for (&be, t) in backends.iter().zip(ts) {
        let _ = writeln!(
            report,
            "| {label} | {} | {:.3} | {:.2}x | {want:08x} |",
            be.name(),
            t * 1e3,
            t_oracle / t,
        );
    }
}

fn time_backends<T>(reps: usize, backends: &[Backend], mut f: impl FnMut() -> T) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; backends.len()];
    for _ in 0..reps {
        for (i, &be) in backends.iter().enumerate() {
            simd::force(be);
            let t0 = Instant::now();
            let out = f();
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
    }
    best
}

fn main() {
    let budget = Budget::from_env();
    let reps = budget.pick(3, 10);
    // Aggregate forward floors for the widest backend vs the scalar
    // backend. The full floors are the acceptance criteria measured on
    // the AVX2 dev machine; the fast floors only guard against the
    // vector path being wired out entirely (CI machines vary).
    //
    // Why the DW floor is 1.15x and not 2x: the "scalar" baseline is
    // the same balanced-tree kernel replayed one lane at a time, and
    // rustc auto-vectorizes it to the 4-wide SSE2 that baseline x86-64
    // guarantees — the denominator is already vector code. On top of
    // that the determinism contract forbids FMA (scalar and SSE2 can't
    // reproduce its single rounding), so the AVX2 kernel's 18 FP ops
    // per 8 pixels are port-bound at exactly 2.0x the 4-wide issue
    // rate; borders, short rows (20x40 maps) and memory-bound large
    // maps dilute that realized ~1.9x interior gain to the ~1.4x
    // aggregate measured here (floor set with margin below it).
    let dw_floor = budget.pick(1.02, 1.25);
    let mm_floor = budget.pick(1.02, 1.5);
    // INT8-vs-f32 aggregate floor on the widest backend. The full floor
    // is the PR-10 acceptance criterion for the pairwise-madd tier on
    // the AVX2 dev machine; the fast floor only proves the integer lane
    // still beats f32 at all on whatever CI hands us.
    let q_floor = budget.pick(1.05, 1.8);

    let backends = simd::available_backends();
    let widest = *backends.last().expect("scalar always available");
    let prev = simd::active();

    let mut rng = SkyRng::new(0xBE7C);
    let mut report = String::new();
    let _ = writeln!(report, "# Kernel micro-benchmark: SIMD backend sweep\n");
    let _ = writeln!(
        report,
        "Backends available on this host: {} (widest: {}). Best of {reps} \
         serial runs per case per backend, with the reps interleaved \
         across backends so noise hits them alike. Forward and backward \
         outputs \
         are asserted within rounding tolerance of the bounds-checked \
         reference (the lane path's balanced accumulation tree reorders \
         sums; off the lane path the forward is bit-identical), and every \
         backend's CRC-32 over every output is asserted equal — the \
         cross-ISA determinism contract on real workload shapes.\n",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
        widest.name(),
    );
    let _ = writeln!(
        report,
        "A note on the DW-Conv3 ratios: the `scalar` baseline replays \
         the same balanced accumulation tree one lane at a time, and \
         rustc auto-vectorizes that loop to the 4-wide SSE2 that \
         baseline x86-64 guarantees — so the denominator is itself \
         vector code, not naive scalar. The determinism contract also \
         forbids FMA (its single rounding is unreproducible on scalar \
         and SSE2), which caps the 8-wide AVX2 kernel at a port-bound \
         2.0x over that baseline on interior rows; borders, short rows \
         and memory-bound large maps dilute the aggregate further.\n",
    );

    // ---- DW-Conv3 sweep -------------------------------------------------
    let _ = writeln!(report, "## Depth-wise convolutions\n");
    let _ = writeln!(
        report,
        "| case | geo | backend | fwd ms | bwd ms | fwd vs scalar | bwd vs scalar | crc fwd | crc bwd |"
    );
    let _ = writeln!(report, "|---|---|---|---:|---:|---:|---:|---|---|");

    let mut dw_scalar_fwd = 0.0f64;
    let mut dw_widest_fwd = 0.0f64;
    for case in dw_cases() {
        let c = case.shape.c;
        let geo = case.geo;
        let x = random_tensor(case.shape, &mut rng);
        let w = random_tensor(Shape::new(c, 1, geo.kernel, geo.kernel), &mut rng);
        let b: Vec<f32> = (0..c).map(|_| rng.range(-1.0, 1.0)).collect();
        let os = geo.out_shape(case.shape, c);
        let go = random_tensor(os, &mut rng);

        let y_ref = reference::dwconv2d_ref(&x, &w, Some(&b), geo).expect("ref fwd");
        let g_ref = reference::dwconv2d_backward_ref(&x, &w, &go, geo).expect("ref bwd");

        let mut crc_fwd = None;
        let mut crc_bwd = None;
        for &be in &backends {
            simd::force(be);
            // Correctness gates, per backend.
            // Lane geometries (k3, strides 1-2) use the balanced
            // accumulation tree: rounding tolerance vs the reference
            // chain order, bitwise everywhere else.
            let y = dwconv2d(&x, &w, Some(&b), geo).expect("spec fwd");
            if case.geo.kernel == 3 && case.geo.stride <= 2 {
                assert_close(case.label, y.as_slice(), y_ref.as_slice());
            } else {
                assert_eq!(
                    bits(&y),
                    bits(&y_ref),
                    "{} [{}]: fwd bits diverged from reference",
                    case.label,
                    be.name()
                );
            }
            let g = dwconv2d_backward(&x, &w, &go, geo).expect("spec bwd");
            assert_close(case.label, g.input.as_slice(), g_ref.input.as_slice());
            assert_close(case.label, g.weight.as_slice(), g_ref.weight.as_slice());
            assert_close(case.label, &g.bias, &g_ref.bias);

            // Cross-backend hash gate.
            let hf = hash_f32(&[y.as_slice()]);
            let hb = hash_f32(&[g.input.as_slice(), g.weight.as_slice(), &g.bias]);
            assert_eq!(
                *crc_fwd.get_or_insert(hf),
                hf,
                "{} [{}]: fwd hash diverged across backends",
                case.label,
                be.name()
            );
            assert_eq!(
                *crc_bwd.get_or_insert(hb),
                hb,
                "{} [{}]: bwd hash diverged across backends",
                case.label,
                be.name()
            );
        }

        let (tfs, tbs) = parallel::serial(|| {
            let tfs = time_backends(reps, &backends, || dwconv2d(&x, &w, Some(&b), geo).unwrap());
            let tbs = time_backends(reps, &backends, || {
                dwconv2d_backward(&x, &w, &go, geo).unwrap()
            });
            (tfs, tbs)
        });
        let (hf, hb) = (crc_fwd.unwrap(), crc_bwd.unwrap());
        for (i, &be) in backends.iter().enumerate() {
            let (tf, tb) = (tfs[i], tbs[i]);
            if case.gated {
                if be == Backend::Scalar {
                    dw_scalar_fwd += tf;
                }
                if be == widest {
                    dw_widest_fwd += tf;
                }
            }
            let _ = writeln!(
                report,
                "| {} | k{} s{} p{} | {} | {:.3} | {:.3} | {:.2}x | {:.2}x | {:08x} | {:08x} |",
                case.label,
                geo.kernel,
                geo.stride,
                geo.pad,
                be.name(),
                tf * 1e3,
                tb * 1e3,
                tfs[0] / tf,
                tbs[0] / tb,
                hf,
                hb,
            );
        }
    }

    // ---- Point-wise convolutions ----------------------------------------
    let _ = writeln!(report, "\n## Point-wise (1×1) convolutions\n");
    let _ = writeln!(report, "| case | backend | fwd ms | vs scalar | crc |");
    let _ = writeln!(report, "|---|---|---:|---:|---|");
    for (label, ci, co, h, w) in pw_cases() {
        let geo = ConvGeometry::pointwise();
        let x = random_tensor(Shape::new(1, ci, h, w), &mut rng);
        let wt = random_tensor(Shape::new(co, ci, 1, 1), &mut rng);
        let b: Vec<f32> = (0..co).map(|_| rng.range(-1.0, 1.0)).collect();

        let mut crc = None;
        for &be in &backends {
            simd::force(be);
            let y = conv2d(&x, &wt, Some(&b), geo).expect("pw fwd");
            let hf = hash_f32(&[y.as_slice()]);
            assert_eq!(
                *crc.get_or_insert(hf),
                hf,
                "{label} [{}]: hash diverged across backends",
                be.name()
            );
        }
        let tfs = parallel::serial(|| {
            time_backends(reps, &backends, || conv2d(&x, &wt, Some(&b), geo).unwrap())
        });
        for (i, &be) in backends.iter().enumerate() {
            let _ = writeln!(
                report,
                "| {label} | {} | {:.3} | {:.2}x | {:08x} |",
                be.name(),
                tfs[i] * 1e3,
                tfs[0] / tfs[i],
                crc.unwrap(),
            );
        }
    }

    // ---- Raw matmul ------------------------------------------------------
    let _ = writeln!(report, "\n## Matmul (`matmul_acc`)\n");
    let _ = writeln!(report, "| case | backend | ms | vs scalar | crc |");
    let _ = writeln!(report, "|---|---|---:|---:|---|");
    let mut mm_scalar = 0.0f64;
    let mut mm_widest = 0.0f64;
    for (label, m, k, n, gated) in mm_cases() {
        let a: Vec<f32> = (0..m * k).map(|_| rng.range(-2.0, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.range(-2.0, 2.0)).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| rng.range(-1.0, 1.0)).collect();

        let mut crc = None;
        for &be in &backends {
            simd::force(be);
            let mut c = c0.clone();
            matmul_acc(&a, &b, &mut c, m, k, n);
            let hf = hash_f32(&[&c]);
            assert_eq!(
                *crc.get_or_insert(hf),
                hf,
                "{label} [{}]: hash diverged across backends",
                be.name()
            );
        }
        let mut c = c0.clone();
        let ts = parallel::serial(|| {
            time_backends(reps, &backends, || {
                c.copy_from_slice(&c0);
                matmul_acc(&a, &b, &mut c, m, k, n);
            })
        });
        for (i, &be) in backends.iter().enumerate() {
            let t = ts[i];
            if gated {
                if be == Backend::Scalar {
                    mm_scalar += t;
                }
                if be == widest {
                    mm_widest += t;
                }
            }
            let _ = writeln!(
                report,
                "| {label} | {} | {:.3} | {:.2}x | {:08x} |",
                be.name(),
                t * 1e3,
                ts[0] / t,
                crc.unwrap(),
            );
        }
    }

    // ---- INT8 kernels vs their f32 counterparts --------------------------
    let _ = writeln!(report, "\n## INT8 kernels vs f32 counterparts\n");
    let _ = writeln!(
        report,
        "The executable-INT8 lane: `qint::dwconv3_i8` / `qint::matmul_i8_acc` \
         against the f32 kernels on the same shapes, per backend (serial, \
         reps interleaved). The INT8 kernels return raw i32 accumulators; \
         the quantize/requantize epilogues have their own lane below, \
         so these ratios isolate the compute-kernel win. \
         The crc column hashes the i32 accumulators and is asserted equal \
         on every backend — each backend's pair-`madd` body must be \
         **bitwise** identical to the scalar oracle, not merely close.\n"
    );
    let _ = writeln!(
        report,
        "| case | backend | f32 ms | i8 ms | i8 speedup | crc |"
    );
    let _ = writeln!(report, "|---|---|---:|---:|---:|---|");
    let mut q_f32_widest = 0.0f64;
    let mut q_i8_widest = 0.0f64;
    for (label, c, h, w) in [
        ("dw bundle3 12@40x80", 12usize, 40usize, 80usize),
        ("dw bundle5 48@20x40", 48, 20, 40),
        ("dw bundle6 160@20x40", 160, 20, 40),
    ] {
        let geo = ConvGeometry::same3x3();
        let shape = Shape::new(1, c, h, w);
        let x = random_tensor(shape, &mut rng);
        let wt = random_tensor(Shape::new(c, 1, 3, 3), &mut rng);
        let mut xq = vec![0i8; shape.numel()];
        let mut wq = vec![0i8; c * 9];
        qint::quantize_i8(x.as_slice(), 1.0 / 32.0, &mut xq);
        qint::quantize_i8(wt.as_slice(), 1.0 / 64.0, &mut wq);
        let mut acc = vec![0i32; shape.numel()];
        let mut crc = None;
        for &be in &backends {
            simd::force(be);
            qint::dwconv3_i8(&xq, &wq, &mut acc, 1, c, h, w);
            let hq = hash_i32(&acc);
            assert_eq!(
                *crc.get_or_insert(hq),
                hq,
                "{label} [{}]: INT8 accumulator bits diverged across backends",
                be.name()
            );
        }
        let (tf, ti) = parallel::serial(|| {
            let tf = time_backends(reps, &backends, || dwconv2d(&x, &wt, None, geo).unwrap());
            let ti = time_backends(reps, &backends, || {
                qint::dwconv3_i8(&xq, &wq, &mut acc, 1, c, h, w)
            });
            (tf, ti)
        });
        for (i, &be) in backends.iter().enumerate() {
            if be == widest {
                q_f32_widest += tf[i];
                q_i8_widest += ti[i];
            }
            let _ = writeln!(
                report,
                "| {label} | {} | {:.3} | {:.3} | {:.2}x | {:08x} |",
                be.name(),
                tf[i] * 1e3,
                ti[i] * 1e3,
                tf[i] / ti[i],
                crc.unwrap(),
            );
        }
    }
    for (label, m, k, n) in [
        ("mm pw-lowered 48x24x800", 48usize, 24usize, 800usize),
        ("mm pw-lowered 96x48x800", 96, 48, 800),
        ("mm square 256x256x256", 256, 256, 256),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.range(-2.0, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.range(-2.0, 2.0)).collect();
        let mut aq = vec![0i8; m * k];
        let mut bq = vec![0i8; k * n];
        qint::quantize_i8(&a, 1.0 / 32.0, &mut aq);
        qint::quantize_i8(&b, 1.0 / 32.0, &mut bq);
        let mut c = vec![0.0f32; m * n];
        let mut cq = vec![0i32; m * n];
        let mut crc = None;
        for &be in &backends {
            simd::force(be);
            qint::matmul_i8(&aq, &bq, &mut cq, m, k, n);
            let hq = hash_i32(&cq);
            assert_eq!(
                *crc.get_or_insert(hq),
                hq,
                "{label} [{}]: INT8 accumulator bits diverged across backends",
                be.name()
            );
        }
        let (tf, ti) = parallel::serial(|| {
            let tf = time_backends(reps, &backends, || {
                c.fill(0.0);
                matmul_acc(&a, &b, &mut c, m, k, n);
            });
            let ti = time_backends(reps, &backends, || {
                qint::matmul_i8(&aq, &bq, &mut cq, m, k, n)
            });
            (tf, ti)
        });
        for (i, &be) in backends.iter().enumerate() {
            if be == widest {
                q_f32_widest += tf[i];
                q_i8_widest += ti[i];
            }
            let _ = writeln!(
                report,
                "| {label} | {} | {:.3} | {:.3} | {:.2}x | {:08x} |",
                be.name(),
                tf[i] * 1e3,
                ti[i] * 1e3,
                tf[i] / ti[i],
                crc.unwrap(),
            );
        }
    }
    let q_agg = q_f32_widest / q_i8_widest;
    let _ = writeln!(
        report,
        "\nRealized INT8 kernel speedup over f32 on `{}` (aggregate over \
         the shapes above): **{q_agg:.2}x** (floor {q_floor:.2}x under \
         this budget).\n",
        widest.name(),
    );

    // ---- INT8 f32 epilogues: requant and quantize --------------------------
    let _ = writeln!(report, "\n## INT8 epilogues (requant, quantize)\n");
    let _ = writeln!(
        report,
        "`qint::requant_i8` (one call per channel plane, ReLU6 clamp, as the \
         fused INT8 bundle issues them) and `qint::quantize_i8` (the \
         network input) on SkyNet C ÷8 shapes at 160×320, per backend \
         (serial, reps interleaved), against the scalar oracle loops \
         (`requant_i8_scalar` / `quantize_i8_scalar`, the pre-vector \
         code). The crc column hashes the `i8` codes and the saturation \
         count; every backend is asserted equal to the oracle before \
         timing.\n"
    );
    let _ = writeln!(
        report,
        "| case | backend | ms | speedup over oracle | crc |"
    );
    let _ = writeln!(report, "|---|---|---:|---:|---|");
    let (mult, bias, clamp, out_scale) = (1.0 / 2048.0, 0.3, Some((0.0, 6.0)), 0.05);
    for (label, c, plane) in [
        ("requant dw1 3@160x320", 3usize, 160usize * 320),
        ("requant pw1 6@160x320", 6, 160 * 320),
        ("requant pw2 12@80x160", 12, 80 * 160),
        ("requant dw6 160@20x40", 160, 20 * 40),
    ] {
        let acc: Vec<i32> = (0..c * plane)
            .map(|_| rng.range(-40_000.0, 40_000.0) as i32)
            .collect();
        epilogue_case(
            &mut report,
            label,
            acc.len(),
            reps,
            &backends,
            |out| qint::requant_i8_scalar(&acc, mult, bias, clamp, out_scale, out),
            |out| {
                acc.chunks(plane)
                    .zip(out.chunks_mut(plane))
                    .map(|(a, o)| qint::requant_i8(a, mult, bias, clamp, out_scale, o))
                    .sum()
            },
        );
    }
    let src: Vec<f32> = (0..3 * 160 * 320).map(|_| rng.range(-0.2, 1.2)).collect();
    epilogue_case(
        &mut report,
        "quantize input 3@160x320",
        src.len(),
        reps,
        &backends,
        |out| qint::quantize_i8_scalar(&src, 1.0 / 127.0, out),
        |out| qint::quantize_i8(&src, 1.0 / 127.0, out),
    );

    // ---- Fused bundle vs unfused layer sequence --------------------------
    let _ = writeln!(report, "\n## Fused bundle (DW→BN→Act→PW→BN→Act)\n");
    let _ = writeln!(
        report,
        "`fused::fused_bundle_forward` against the unfused layer sequence \
         it replaces (serial, reps interleaved). The CRC column is \
         asserted identical between the two paths on every backend — the \
         fusion bit-identity contract on real bundle shapes; `fusion_bench` \
         measures the end-to-end forward win.\n"
    );
    let _ = writeln!(
        report,
        "| case | backend | unfused ms | fused ms | speedup | crc |"
    );
    let _ = writeln!(report, "|---|---|---:|---:|---:|---|");
    for (label, c, c2, h, w) in [
        ("bundle2 6->12@80x160", 6usize, 12usize, 80usize, 160usize),
        ("bundle3 12->24@40x80", 12, 24, 40, 80),
        ("bundle5 48->96@20x40", 48, 96, 20, 40),
    ] {
        let geo = ConvGeometry::same3x3();
        let x = random_tensor(Shape::new(1, c, h, w), &mut rng);
        let dw_w = random_tensor(Shape::new(c, 1, 3, 3), &mut rng);
        let pw_w = random_tensor(Shape::new(c2, c, 1, 1), &mut rng);
        let mk_bn = |rng: &mut SkyRng, ch: usize| {
            BnAct::new(
                (0..ch).map(|_| rng.range(-0.5, 0.5)).collect(),
                &(0..ch).map(|_| rng.range(0.1, 1.1)).collect::<Vec<_>>(),
                1e-5,
                (0..ch).map(|_| rng.range(0.5, 1.5)).collect(),
                (0..ch).map(|_| rng.range(-0.5, 0.5)).collect(),
                Some(6.0),
            )
        };
        let bn1 = mk_bn(&mut rng, c);
        let bn2 = mk_bn(&mut rng, c2);
        let unfused = |x: &Tensor| {
            let t = dwconv2d(x, &dw_w, None, geo).unwrap();
            let s = t.shape();
            let mut u = Tensor::zeros(s);
            for ch in 0..s.c {
                let o = ch * s.plane();
                let (m, is, g, b, _) = bn1.channel(ch);
                simd::bn_apply_eval(
                    &t.as_slice()[o..o + s.plane()],
                    &mut u.as_mut_slice()[o..o + s.plane()],
                    m,
                    is,
                    g,
                    b,
                );
            }
            let t = ops::relu6(&u);
            let t = conv2d(&t, &pw_w, None, ConvGeometry::pointwise()).unwrap();
            let s = t.shape();
            let mut u = Tensor::zeros(s);
            for ch in 0..s.c {
                let o = ch * s.plane();
                let (m, is, g, b, _) = bn2.channel(ch);
                simd::bn_apply_eval(
                    &t.as_slice()[o..o + s.plane()],
                    &mut u.as_mut_slice()[o..o + s.plane()],
                    m,
                    is,
                    g,
                    b,
                );
            }
            ops::relu6(&u)
        };
        let mut crc = None;
        for &be in &backends {
            simd::force(be);
            let yu = unfused(&x);
            let yf = fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap();
            assert_eq!(
                bits(&yu),
                bits(&yf),
                "{label} [{}]: fused output diverged from unfused",
                be.name()
            );
            let h = hash_f32(&[yf.as_slice()]);
            assert_eq!(
                *crc.get_or_insert(h),
                h,
                "{label} [{}]: hash diverged across backends",
                be.name()
            );
        }
        let (tu, tf) = parallel::serial(|| {
            let tu = time_backends(reps, &backends, || unfused(&x));
            let tf = time_backends(reps, &backends, || {
                fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap()
            });
            (tu, tf)
        });
        for (i, &be) in backends.iter().enumerate() {
            let _ = writeln!(
                report,
                "| {label} | {} | {:.3} | {:.3} | {:.2}x | {:08x} |",
                be.name(),
                tu[i] * 1e3,
                tf[i] * 1e3,
                tu[i] / tf[i],
                crc.unwrap(),
            );
        }
    }

    simd::force(prev);

    let dw_agg = dw_scalar_fwd / dw_widest_fwd;
    let mm_agg = mm_scalar / mm_widest;
    let _ = writeln!(
        report,
        "\nAggregate forward speedup of `{}` over the scalar backend: \
         **{dw_agg:.2}x** on the backbone DW-Conv3 shapes (floor \
         {dw_floor:.2}x under this budget), **{mm_agg:.2}x** on the gated \
         matmul shapes (floor {mm_floor:.2}x).\n",
        widest.name(),
    );
    std::fs::create_dir_all("bench_results").expect("bench_results dir");
    std::fs::write("bench_results/kernel_bench.md", &report).expect("write report");
    print!("{report}");

    assert!(
        dw_agg >= dw_floor,
        "aggregate DW-Conv3 forward speedup {dw_agg:.2}x below the {dw_floor:.2}x floor"
    );
    assert!(
        mm_agg >= mm_floor,
        "aggregate matmul speedup {mm_agg:.2}x below the {mm_floor:.2}x floor"
    );
    assert!(
        q_agg >= q_floor,
        "aggregate INT8-vs-f32 speedup {q_agg:.2}x below the {q_floor:.2}x floor"
    );
    println!(
        "kernel_bench OK: {} vs scalar — {dw_agg:.2}x DW-Conv3, {mm_agg:.2}x matmul, \
         {q_agg:.2}x INT8 vs f32",
        widest.name()
    );
}
