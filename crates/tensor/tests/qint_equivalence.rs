//! The INT8 determinism contract: every available SIMD backend must be
//! **bit-identical** to the pair-replaying scalar oracle on the integer
//! kernels (`matmul_i8_acc`, `dwconv3_i8`) over random shapes and
//! values — including the `i8::MIN` corner and accumulators driven
//! through i32 wrap-around — on the worker pool and under
//! [`parallel::serial`]. The 8-lane f32 epilogues (`quantize_i8`,
//! `requant_i8`) must match their scalar oracles bitwise — codes and
//! saturation counts — on ties, ±0, ±∞, NaN and the `i32` extremes,
//! and the parallel data movement (`maxpool2d_i8`, `reorg_i8`) must
//! match a serial run.
//!
//! Unlike the f32 contract (which is engineered: no FMA, lane-ordered
//! tails), integer equality is *structural* — wrapping i32 addition is
//! associative and commutative, so any lane split or thread count must
//! produce the same bits. These tests pin that the implementations
//! don't break the structure (e.g. via a widening shortcut that
//! saturates instead of wrapping).
//!
//! Backend forcing is process-global, so every test serializes on a
//! mutex (same discipline as `simd_equivalence.rs`).

use proptest::prelude::*;
use skynet_tensor::parallel;
use skynet_tensor::qint::{
    dwconv3_i8, matmul_i8_acc, maxpool2d_i8, quantize_i8, quantize_i8_scalar, reorg_i8, requant_i8,
    requant_i8_scalar,
};
use skynet_tensor::rng::SkyRng;
use skynet_tensor::simd::{self, Backend};
use skynet_tensor::telemetry;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = simd::active();
    simd::force(be);
    let out = f();
    simd::force(prev);
    out
}

/// Random i8 buffer with the extremes planted at deterministic
/// positions so every run exercises `i8::MIN`/`i8::MAX`.
fn random_i8(len: usize, rng: &mut SkyRng) -> Vec<i8> {
    let mut v: Vec<i8> = (0..len)
        .map(|_| rng.range(-128.0, 128.0).floor().clamp(-128.0, 127.0) as i8)
        .collect();
    if len > 0 {
        v[0] = i8::MIN;
    }
    if len > 1 {
        v[len / 2] = i8::MAX;
    }
    v
}

/// Runs `f` under the scalar oracle and under every other available
/// backend (pooled and forced-serial), asserting exact i32 equality.
fn assert_backends_agree(label: &str, f: impl Fn() -> Vec<i32>) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = with_backend(Backend::Scalar, &f);
    let oracle_ser = with_backend(Backend::Scalar, || parallel::serial(&f));
    assert_eq!(oracle, oracle_ser, "{label}: scalar pooled vs serial");
    for be in simd::available_backends() {
        if be == Backend::Scalar {
            continue;
        }
        let got = with_backend(be, &f);
        assert_eq!(
            oracle,
            got,
            "{label}: {} diverged from scalar oracle (pooled)",
            be.name()
        );
        let got_ser = with_backend(be, || parallel::serial(&f));
        assert_eq!(
            oracle,
            got_ser,
            "{label}: {} diverged from scalar oracle (serial)",
            be.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_i8_backends_agree(
        m in 1usize..12,
        k in 1usize..24,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let mut rng = SkyRng::new(seed);
        let a = random_i8(m * k, &mut rng);
        let b = random_i8(k * n, &mut rng);
        // Pre-seeded accumulators: the kernel must add, not overwrite.
        let acc0: Vec<i32> = (0..m * n)
            .map(|_| rng.range(-1000.0, 1000.0) as i32)
            .collect();
        assert_backends_agree("matmul_i8", || {
            let mut c = acc0.clone();
            matmul_i8_acc(&a, &b, &mut c, m, k, n);
            c
        });
    }

    #[test]
    fn dwconv3_i8_backends_agree(
        n in 1usize..3,
        c in 1usize..5,
        h in 1usize..8,
        w in 1usize..72,
        seed in 0u64..1000,
    ) {
        let mut rng = SkyRng::new(seed);
        let x = random_i8(n * c * h * w, &mut rng);
        let wt = random_i8(c * 9, &mut rng);
        assert_backends_agree("dwconv3_i8", || {
            let mut out = vec![0i32; n * c * h * w];
            dwconv3_i8(&x, &wt, &mut out, n, c, h, w);
            out
        });
    }

    #[test]
    fn requant_saturation_is_exactly_counted(
        seed in 0u64..1000,
        mult in 0.001f32..2.0,
        bias in -5.0f32..5.0,
    ) {
        // Pin the active backend's clamp window and saturation count
        // against an independent formula on accumulators spanning the
        // i32 extremes (the backend sweeps below hold every backend to
        // the scalar oracle bitwise).
        let mut rng = SkyRng::new(seed);
        let mut acc: Vec<i32> = (0..64)
            .map(|_| rng.range(-3.0e4, 3.0e4) as i32)
            .collect();
        acc[0] = i32::MAX;
        acc[1] = i32::MIN;
        let mut out = vec![0i8; acc.len()];
        let sat = requant_i8(&acc, mult, bias, None, 0.05, &mut out);
        let expected_sat = acc
            .iter()
            .filter(|&&a| {
                let q = ((a as f32 * mult + bias) / 0.05).round();
                !(-127.0..=127.0).contains(&q)
            })
            .count() as u64;
        prop_assert_eq!(sat, expected_sat);
        // Symmetric grid: -128 is never produced.
        prop_assert!(out.iter().all(|&q| (-127..=127).contains(&q)));
        prop_assert_eq!(out[0], 127);
        prop_assert_eq!(out[1], -127);
    }

    #[test]
    fn quantize_never_emits_negative_128(
        seed in 0u64..1000,
        scale in 0.001f32..1.0,
    ) {
        let mut rng = SkyRng::new(seed);
        let mut src: Vec<f32> = (0..256).map(|_| rng.range(-300.0, 300.0) * scale).collect();
        src[0] = -1e30; // far past the clamp (finite; non-finite maps to 0)
        let mut dst = vec![0i8; src.len()];
        let _ = quantize_i8(&src, scale, &mut dst);
        prop_assert!(dst.iter().all(|&q| (-127..=127).contains(&q)));
        prop_assert_eq!(dst[0], -127);
    }
}

/// i32 wrap-around: k accumulation steps of (−128)² exceed i32::MAX
/// partway through; every backend and lane split must wrap identically
/// (two's-complement), not saturate.
#[test]
fn accumulator_wraps_identically_across_backends() {
    let k = 1usize << 18; // 2^18 · 16384 = 2^32: wraps past i32::MAX
    let n = 67; // four 16-column blocks + a scalar tail
    let a = vec![i8::MIN; k];
    let b = vec![i8::MIN; k * n];
    assert_backends_agree("matmul_i8 wrap", || {
        let mut c = vec![0i32; n];
        matmul_i8_acc(&a, &b, &mut c, 1, k, n);
        c
    });
    // And the wrapped value itself is pinned: 2^18 · 2^14 ≡ 0 (mod 2^32).
    let mut c = vec![0i32; n];
    matmul_i8_acc(&a, &b, &mut c, 1, k, n);
    assert!(c.iter().all(|&v| v == 0), "2^32 wraps to exactly zero");
}

/// `quant.<op>.lanes_used` counts the elements the one integer body
/// covers, each once, identically on every backend: the DW counter
/// takes every interior column once a plane has 16 of them (the
/// overlapping tail block included), and the matmul counter every
/// column of a full 16-column block.
#[test]
fn lanes_used_counts_what_the_blocks_cover_on_every_backend() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let lanes = |op: &str| telemetry::counter(&format!("quant.{op}.lanes_used")).value();
    telemetry::Builder::new().metrics(true).trace(false).apply();
    for be in simd::available_backends() {
        let name = be.name();
        with_backend(be, || {
            // (wd, interior columns per row the blocks cover): 20 → all
            // 18 via one block plus an overlapping tail; 40 → all 38;
            // 17 → 15 interior columns, too few for a block.
            for (wd, per_row) in [(20usize, 18u64), (40, 38), (17, 0)] {
                let (c, h) = (2, 3);
                let x = vec![1i8; c * h * wd];
                let mut out = vec![0i32; c * h * wd];
                telemetry::reset_metrics();
                dwconv3_i8(&x, &[1i8; 18], &mut out, 1, c, h, wd);
                assert_eq!(
                    lanes("dwconv3"),
                    c as u64 * h as u64 * per_row,
                    "{name}: dwconv3 wd={wd}"
                );
            }
            // (n, columns per accumulation step the blocks cover).
            for (n, cover) in [(16usize, 16u64), (17, 16), (15, 0)] {
                let (m, k) = (2, 3);
                let mut c = vec![0i32; m * n];
                telemetry::reset_metrics();
                matmul_i8_acc(&vec![1i8; m * k], &vec![1i8; k * n], &mut c, m, k, n);
                assert_eq!(
                    lanes("matmul"),
                    (m * k) as u64 * cover,
                    "{name}: matmul n={n}"
                );
            }
        });
    }
    telemetry::Builder::new()
        .metrics(false)
        .trace(false)
        .apply();
}

/// The pinned SkyNet geometries (quarter-scale bundle widths) agree
/// across backends end-to-end through the depth-wise kernel.
#[test]
fn skynet_geometries_agree() {
    for (c, h, w) in [(12, 20, 40), (24, 10, 20), (48, 5, 10), (96, 5, 10)] {
        let mut rng = SkyRng::new((c * h + w) as u64);
        let x = random_i8(c * h * w, &mut rng);
        let wt = random_i8(c * 9, &mut rng);
        assert_backends_agree("dwconv3_i8 skynet-geo", || {
            let mut out = vec![0i32; c * h * w];
            dwconv3_i8(&x, &wt, &mut out, 1, c, h, w);
            out
        });
    }
}

/// Runs `f` on every available backend, pooled and forced-serial, and
/// asserts each result equals `want`.
fn assert_all_backends_eq<T: PartialEq + std::fmt::Debug>(
    label: &str,
    want: &T,
    f: impl Fn() -> T,
) {
    for be in simd::available_backends() {
        let pooled = with_backend(be, &f);
        assert_eq!(&pooled, want, "{label}: {} (pooled)", be.name());
        let serial = with_backend(be, || parallel::serial(&f));
        assert_eq!(&serial, want, "{label}: {} (serial)", be.name());
    }
}

/// Quantize inputs for `scale`: exact and near ties at `(k + 0.5)·scale`
/// across the whole code range and past the clamp, ±0, ±∞, NaN,
/// finite values far past the clamp, and the f32 extremes.
fn quantize_specials(scale: f32) -> Vec<f32> {
    let mut v = Vec::new();
    for k in -130..130 {
        let tie = (k as f32 + 0.5) * scale;
        v.extend([tie, f32::from_bits(tie.to_bits() + 1), k as f32 * scale]);
    }
    v.extend([
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        1e30,
        -1e30,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -0.49999997 * scale,
    ]);
    v
}

/// Requant accumulators: the i32 extremes, zero and small values, and
/// every `2k + 1`, which lands exactly on a tie under `mult = 0.5`.
fn requant_specials() -> Vec<i32> {
    let mut v = vec![i32::MIN, i32::MAX, i32::MIN + 1, i32::MAX - 1, 0, 1, -1];
    v.extend((-300..300).map(|k| 2 * k + 1));
    v.extend([16_777_217, -16_777_217, 1 << 30, -(1 << 30)]);
    v
}

/// Every window of every length 0..=17 over `specials`, so each value
/// passes through both the 8-lane body and the scalar tail.
fn windows<T>(specials: &[T]) -> impl Iterator<Item = &[T]> {
    (0..=17usize).flat_map(move |len| {
        (0..specials.len().saturating_sub(len))
            .step_by(len.max(1))
            .map(move |start| &specials[start..start + len])
    })
}

#[test]
fn quantize_matches_scalar_oracle_on_every_backend() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for scale in [0.25f32, 0.05, 0.0137, 3.0] {
        let specials = quantize_specials(scale);
        for src in windows(&specials) {
            let mut want = vec![0x55i8; src.len()];
            let want_sat = quantize_i8_scalar(src, scale, &mut want);
            assert_all_backends_eq("quantize_i8", &(want, want_sat), || {
                let mut got = vec![0x55i8; src.len()];
                let sat = quantize_i8(src, scale, &mut got);
                (got, sat)
            });
        }
    }
}

#[test]
fn requant_matches_scalar_oracle_on_every_backend() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let specials = requant_specials();
    // (mult, bias, out_scale): exact ties, a real-looking stage, and an
    // infinite multiplier that produces ±∞ and (for acc 0) NaN.
    let params = [
        (0.5f32, 0.0f32, 1.0f32),
        (0.013, -0.7, 0.05),
        (1e-3, 3.0, 0.047),
        (f32::INFINITY, 0.0, 1.0),
    ];
    for (mult, bias, out_scale) in params {
        for clamp in [None, Some((0.0, f32::INFINITY)), Some((0.0, 6.0))] {
            for acc in windows(&specials) {
                let mut want = vec![0x55i8; acc.len()];
                let want_sat = requant_i8_scalar(acc, mult, bias, clamp, out_scale, &mut want);
                assert_all_backends_eq("requant_i8", &(want, want_sat), || {
                    let mut got = vec![0x55i8; acc.len()];
                    let sat = requant_i8(acc, mult, bias, clamp, out_scale, &mut got);
                    (got, sat)
                });
            }
        }
    }
}

/// A map larger than one parallel chunk, with specials planted across
/// chunk boundaries: the pooled quantize agrees with the serial one and
/// the oracle, codes and total saturation count alike.
#[test]
fn quantize_chunks_agree_pooled_and_serial() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SkyRng::new(77);
    let scale = 0.02;
    let specials = quantize_specials(scale);
    let mut src: Vec<f32> = (0..100_003).map(|_| rng.range(-4.0, 4.0)).collect();
    for (i, &v) in specials.iter().enumerate() {
        src[(i * 131) % 100_003] = v;
    }
    let mut want = vec![0i8; src.len()];
    let want_sat = quantize_i8_scalar(&src, scale, &mut want);
    assert!(want_sat > 0, "the planted values must saturate");
    assert_all_backends_eq("quantize_i8 chunks", &(want, want_sat), || {
        let mut got = vec![0i8; src.len()];
        let sat = quantize_i8(&src, scale, &mut got);
        (got, sat)
    });
}

#[test]
fn maxpool_i8_pooled_matches_serial_and_reference() {
    for k in [2usize, 3] {
        let (n, c, h, w) = (2, 3, 6 * k, 10 * k);
        let mut rng = SkyRng::new(k as u64);
        let src = random_i8(n * c * h * w, &mut rng);
        let (oh, ow) = (h / k, w / k);
        let mut want = vec![i8::MIN; n * c * oh * ow];
        for p in 0..n * c {
            for y in 0..h {
                for x in 0..w {
                    let o = &mut want[(p * oh + y / k) * ow + x / k];
                    *o = (*o).max(src[(p * h + y) * w + x]);
                }
            }
        }
        assert_eq!(maxpool2d_i8(&src, n, c, h, w, k), want, "k={k} pooled");
        let serial = parallel::serial(|| maxpool2d_i8(&src, n, c, h, w, k));
        assert_eq!(serial, want, "k={k} serial");
    }
}

#[test]
fn reorg_i8_pooled_matches_serial_and_reference() {
    for s in [2usize, 3] {
        let (n, c, h, w) = (2, 3, 4 * s, 5 * s);
        let mut rng = SkyRng::new(10 + s as u64);
        let src = random_i8(n * c * h * w, &mut rng);
        let (oh, ow, oc) = (h / s, w / s, c * s * s);
        let mut want = vec![0i8; src.len()];
        for b in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let och = ch * s * s + (y % s) * s + x % s;
                        want[((b * oc + och) * oh + y / s) * ow + x / s] =
                            src[((b * c + ch) * h + y) * w + x];
                    }
                }
            }
        }
        assert_eq!(reorg_i8(&src, n, c, h, w, s), want, "s={s} pooled");
        let serial = parallel::serial(|| reorg_i8(&src, n, c, h, w, s));
        assert_eq!(serial, want, "s={s} serial");
    }
}

/// Random sweep: accumulators over the full `i32` range and random
/// stage parameters for requant, random f32 bit patterns (every
/// exponent, subnormals, ±∞ and NaNs) for quantize — about a million
/// values, every backend bitwise equal to the oracle.
#[test]
fn random_epilogue_sweep_matches_scalar_oracle() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = SkyRng::new(2024);
    for round in 0..48 {
        let acc: Vec<i32> = (0..4099)
            .map(|_| rng.next_u64() as i32 >> (round % 24))
            .collect();
        let mult = rng.range(1e-6, 0.1);
        let bias = rng.range(-8.0, 8.0);
        let out_scale = rng.range(1e-3, 0.5);
        let clamp = [None, Some((0.0, f32::INFINITY)), Some((0.0, 6.0))][round % 3];
        let mut want = vec![0i8; acc.len()];
        let want_sat = requant_i8_scalar(&acc, mult, bias, clamp, out_scale, &mut want);
        assert_all_backends_eq("requant_i8 random", &(want, want_sat), || {
            let mut got = vec![0i8; acc.len()];
            let sat = requant_i8(&acc, mult, bias, clamp, out_scale, &mut got);
            (got, sat)
        });
    }
    let src: Vec<f32> = (0..200_003)
        .map(|_| f32::from_bits(rng.next_u64() as u32))
        .collect();
    for scale in [1e-30f32, 0.01, 7.0, 1e30] {
        let mut want = vec![0i8; src.len()];
        let want_sat = quantize_i8_scalar(&src, scale, &mut want);
        assert_all_backends_eq("quantize_i8 random bits", &(want, want_sat), || {
            let mut got = vec![0i8; src.len()];
            let sat = quantize_i8(&src, scale, &mut got);
            (got, sat)
        });
    }
}
