//! Cache-resident fused execution of one SkyNet bundle,
//! `DW-Conv3 → BN → Act → PW-Conv → BN → Act`, in either number domain:
//! [`fused_bundle_forward`] (f32) and [`qfused_bundle_forward`] (INT8,
//! `DW-Conv3_i8 → requant → PW_i8 → requant`).
//!
//! The unfused path materializes every intermediate feature map of a
//! bundle and streams each through DRAM between layers. Both executors
//! instead walk the output in **row bands** through one `(item, band)`
//! task runner, `run_bands`:
//!
//! * one band-height rule, `band_rows`, counted in bytes: a band keeps
//!   all of its scratch tiles within a 384 KiB L2 budget while every item
//!   still splits into about 8 bands, so single-image inference
//!   parallelizes. The band height is a fixed function of the shape,
//!   never of the thread count;
//! * one task loop: each task checks its tiles out of the thread-local
//!   [`scratch`] arena at the fixed band capacity (so every band hits the
//!   same arena size class), runs the domain's DW band, epilogue and PW
//!   tile, and stores its rows `y0..y1` of each output plane through one
//!   disjoint-row pointer (`parallel::SendPtr`). The final output rows
//!   are the only DRAM write; the full-size intermediates never exist.
//!
//! Per domain, the DW band, the epilogue and the PW tile are:
//!
//! * **f32** — [`crate::dwconv`]'s one DW-Conv3 band body with the
//!   BN+activation epilogue folded into its store, then the point-wise
//!   matmul with the second BN+activation epilogue, then a copy into the
//!   output rows;
//! * **INT8** — the `i32` DW accumulator band, [`requant_i8`] into `i8`
//!   activations, the `i8` point-wise matmul into an `i32` tile, and
//!   [`requant_i8`] straight into the output rows (rows `y0..y1` of a
//!   plane are contiguous, so requantizing *is* the store).
//!
//! Span, counter and gauge names stay per domain (`tensor.fused_fwd`,
//! `fusion.*` for f32; `tensor.qfused_fwd`, `quant.fused.*` for INT8).
//!
//! ## Bit-identity
//!
//! Both executors are **bit-identical** to their unfused layer sequence
//! on every `SKYNET_SIMD` backend and thread count, because each stage
//! reuses the unfused kernels' exact per-element operation sequences and
//! none of them depends on position or tile extent:
//!
//! * DW rows are row-local (output row `y` reads input rows
//!   `y·s − p ..= y·s − p + 2` only), and the f32 band body is the very
//!   body `dwconv2d` runs, with its identity epilogue;
//! * the f32 epilogues replay `bn_apply_eval` + `relu/relu6`'s
//!   per-element sequence, which is independent of the vector/tail
//!   boundary ([`simd::bn_act_inplace`]); requantization is per-element;
//! * [`matmul_acc`](crate::matmul::matmul_acc) accumulates each output
//!   element over `k` in a fixed ascending chain, independent of the
//!   column count of the call — so a band tile (`n = R·W`) produces the
//!   same bits as the whole plane (`n = H·W`). The integer accumulators
//!   are exact sums, so any grouping agrees;
//! * the band decomposition is a fixed function of the shape.
//!
//! `core::plan` (f32) and the INT8 engine in `skynet-nn` drive these
//! executors as they walk the SkyNet topology; [`crate::fusion`]
//! (`SKYNET_FUSION`) toggles them, keeping the unfused paths as the
//! equivalence oracles.

use crate::conv::{pw_bnact_tile, ConvGeometry};
use crate::dwconv::dw3_band;
use crate::parallel::{self, SendPtr};
use crate::qint::{dw_plane_rows, matmul_i8_rows, requant_i8};
use crate::{scratch, simd, telemetry};
use crate::{Result, Shape, Tensor, TensorError};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-channel BatchNorm-eval + activation epilogue parameters, captured
/// at plan-build time from a `BatchNorm2d` + `Activation` pair.
///
/// `inv_std[c]` is computed as `1.0 / (var[c] + eps).sqrt()` — the exact
/// f32 expression the unfused BN eval path evaluates per forward — so
/// the epilogue `y = γ·(x − μ)·inv_std + β` reproduces its bits.
#[derive(Debug, Clone)]
pub struct BnAct {
    /// Per-channel running mean `μ`.
    pub mean: Vec<f32>,
    /// Per-channel `1/√(σ² + ε)`, precomputed from the running variance.
    pub inv_std: Vec<f32>,
    /// Per-channel scale `γ`.
    pub gamma: Vec<f32>,
    /// Per-channel shift `β`.
    pub beta: Vec<f32>,
    /// Activation ceiling: `6.0` for ReLU6, `f32::INFINITY` for ReLU
    /// (value-neutral upper clamp).
    pub ceiling: f32,
}

impl BnAct {
    /// Builds the epilogue from BN statistics and an activation ceiling
    /// (`None` = plain ReLU).
    pub fn new(
        mean: Vec<f32>,
        var: &[f32],
        eps: f32,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        ceiling: Option<f32>,
    ) -> Self {
        let inv_std = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        BnAct {
            mean,
            inv_std,
            gamma,
            beta,
            ceiling: ceiling.unwrap_or(f32::INFINITY),
        }
    }

    /// Number of channels this epilogue covers.
    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    fn check(&self, c: usize, which: &'static str) -> Result<()> {
        if self.mean.len() != c
            || self.inv_std.len() != c
            || self.gamma.len() != c
            || self.beta.len() != c
        {
            return Err(TensorError::ShapeMismatch {
                op: "fused_bundle_forward",
                expected: format!("{which} epilogue over {c} channels"),
                got: format!("{} channels", self.mean.len()),
            });
        }
        Ok(())
    }

    /// The `(mean, inv_std, gamma, beta, ceiling)` tuple for channel `c`.
    #[inline]
    pub fn channel(&self, c: usize) -> (f32, f32, f32, f32, f32) {
        (
            self.mean[c],
            self.inv_std[c],
            self.gamma[c],
            self.beta[c],
            self.ceiling,
        )
    }
}

// ---------------------------------------------------------------------------
// The band runner both executors share
// ---------------------------------------------------------------------------

/// Bytes one output row of an f32 band holds: the `c`-channel DW tile
/// and the `c2`-channel PW tile.
fn f32_row_bytes(c: usize, c2: usize, w: usize) -> usize {
    (c + c2) * size_of::<f32>() * w.max(1)
}

/// Bytes one output row of an INT8 band holds: `c` `i32` + `c` `i8` DW
/// lanes and `c2` `i32` PW lanes.
fn i8_row_bytes(c: usize, c2: usize, w: usize) -> usize {
    (c * (size_of::<i32>() + size_of::<i8>()) + c2 * size_of::<i32>()) * w.max(1)
}

/// Row-band height of a fused bundle with `h` output rows of
/// `row_bytes` each: the tiles of one band stay within 384 KiB of L2,
/// and each item still yields at least ~8 bands so single-image
/// inference parallelizes.
fn band_rows(row_bytes: usize, h: usize) -> usize {
    const TILE_BYTE_BUDGET: usize = 384 * 1024;
    let r_cache = (TILE_BYTE_BUDGET / row_bytes.max(1)).max(1);
    let r_par = h.div_ceil(8).max(1);
    r_cache.min(r_par).min(h.max(1))
}

/// One `(item, band)` task: output rows `y0..y1` of batch item `item`,
/// `len = (y1 − y0)·w` pixels per channel, and the disjoint store
/// target of those rows.
struct Band<'a, T> {
    item: usize,
    y0: usize,
    y1: usize,
    len: usize,
    out: &'a SendPtr<T>,
    /// Offset of row `y0` of output plane `(item, 0)`.
    first: usize,
    plane: usize,
    c2: usize,
}

impl<T> Band<'_, T> {
    /// This band's rows `y0..y1` of output channel `oc`.
    fn rows(&mut self, oc: usize) -> &mut [T] {
        assert!(oc < self.c2, "output channel {oc} out of range");
        let at = self.first + oc * self.plane;
        // SAFETY: `run_bands`' tasks partition `item × band`, so these
        // rows are reachable from exactly one task, and `&mut self`
        // keeps at most one of them borrowed at a time; the range is in
        // bounds by the length check in `run_bands`.
        unsafe { std::slice::from_raw_parts_mut(self.out.get().add(at), self.len) }
    }
}

/// The one `(item, band)` task runner: splits the `n × c2 × h × w`
/// output `out` into bands of `r` rows and runs `task` once per
/// `(item, band)` on the pool. The task computes its band (its scratch
/// tiles use the fixed capacity `r`, not `y1 − y0`, so every band hits
/// the same arena size class) and stores it through [`Band::rows`].
fn run_bands<T: Send>(
    out: &mut [T],
    (n, c2, h, w): (usize, usize, usize, usize),
    r: usize,
    task: impl Fn(&mut Band<'_, T>) + Sync,
) {
    assert!(out.len() >= n * c2 * h * w, "band runner output too short");
    let nbands = h.div_ceil(r).max(1);
    let base = SendPtr(out.as_mut_ptr());
    parallel::run_indexed(n * nbands, |t| {
        let (item, y0) = (t / nbands, (t % nbands) * r);
        let y1 = (y0 + r).min(h);
        task(&mut Band {
            item,
            y0,
            y1,
            len: (y1 - y0) * w,
            out: &base,
            first: item * c2 * h * w + y0 * w,
            plane: h * w,
            c2,
        });
    });
}

// ---------------------------------------------------------------------------
// The f32 bundle
// ---------------------------------------------------------------------------

/// Executes one fused bundle: `DW-Conv3(w_dw) → BN₁ → Act → PW(w_pw) →
/// BN₂ → Act`, bit-identical to the unfused layer sequence (see the
/// module docs) while keeping every intermediate tile in the scratch
/// arena.
///
/// `dw_weight` is `[c, 1, 3, 3]`, `pw_weight` is `[c2, c, 1, 1]`
/// (bias-free, as in the SkyNet bundle), `bn1`/`bn2` cover `c`/`c2`
/// channels.
///
/// # Errors
///
/// Returns a [`TensorError`] when the geometry is not a 3×3 stride-1/2
/// depth-wise convolution or any shape disagrees.
pub fn fused_bundle_forward(
    input: &Tensor,
    dw_weight: &Tensor,
    dw_geo: ConvGeometry,
    bn1: &BnAct,
    pw_weight: &Tensor,
    bn2: &BnAct,
) -> Result<Tensor> {
    let is = input.shape();
    let c = is.c;
    let (k, s, p) = (dw_geo.kernel, dw_geo.stride, dw_geo.pad);
    if k != 3 || (s != 1 && s != 2) {
        return Err(TensorError::InvalidDimension {
            op: "fused_bundle_forward",
            detail: format!("unsupported DW geometry k={k} s={s} (expected k=3, s=1|2)"),
        });
    }
    let dws = dw_weight.shape();
    if dws.n != c || dws.c != 1 || dws.h != 3 || dws.w != 3 {
        return Err(TensorError::ShapeMismatch {
            op: "fused_bundle_forward",
            expected: format!("DW weight [{c}, 1, 3, 3]"),
            got: dws.to_string(),
        });
    }
    let pws = pw_weight.shape();
    let c2 = pws.n;
    if pws.c != c || pws.h != 1 || pws.w != 1 {
        return Err(TensorError::ShapeMismatch {
            op: "fused_bundle_forward",
            expected: format!("PW weight [c2, {c}, 1, 1]"),
            got: pws.to_string(),
        });
    }
    bn1.check(c, "BN1")?;
    bn2.check(c2, "BN2")?;
    let os_dw = dw_geo.out_shape(is, c);
    let os = Shape::new(is.n, c2, os_dw.h, os_dw.w);
    let mut out = Tensor::zeros(os);
    let r = band_rows(f32_row_bytes(c, c2, os.w), os.h);

    let _span = telemetry::span("tensor.fused_fwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.fused.fwd_calls").inc();
        let dw_flops = 2 * os_dw.numel() * 9;
        let pw_flops = 2 * os.numel() * c;
        telemetry::counter("tensor.fused.fwd_flops").add((dw_flops + pw_flops) as u64);
        telemetry::counter("fusion.bundles_executed").inc();
        // The five per-bundle intermediates the unfused path writes to
        // (and re-reads from) memory: DW out, BN1 out, Act1 out (c
        // planes each), PW out, BN2 out (c2 planes each).
        let saved = (3 * c + 2 * c2) * os_dw.plane() * is.n * size_of::<f32>();
        telemetry::counter("fusion.dram_bytes_saved").add(saved as u64);
        telemetry::record_gauge("fusion.band_rows", r as f64);
        simd::record_lanes(
            "fused_fwd",
            is.n * c * os_dw.h * simd::vector_cover(os_dw.w),
        );
    }

    let be = simd::active();
    let (x, dw_w, pw_w) = (input.as_slice(), dw_weight.as_slice(), pw_weight.as_slice());
    let in_plane = is.plane();
    let dims = (os.n, os.c, os.h, os.w);
    run_bands(out.as_mut_slice(), dims, r, |band| {
        let l = band.len;
        let mut dw_tile = scratch::checkout("tensor.fused_fwd", c * r * os.w);
        let mut pw_tile = scratch::checkout("tensor.fused_fwd", c2 * r * os.w);
        for ch in 0..c {
            let plane = band.item * c + ch;
            dw3_band(
                be,
                &mut dw_tile[ch * l..(ch + 1) * l],
                &x[plane * in_plane..(plane + 1) * in_plane],
                &dw_w[ch * 9..(ch + 1) * 9],
                0.0,
                is,
                os_dw,
                s,
                p,
                (band.y0, band.y1),
                Some(bn1.channel(ch)),
            );
        }
        pw_bnact_tile(
            pw_w,
            &dw_tile[..c * l],
            &mut pw_tile[..c2 * l],
            c2,
            c,
            l,
            bn2,
        );
        for oc in 0..c2 {
            band.rows(oc)
                .copy_from_slice(&pw_tile[oc * l..(oc + 1) * l]);
        }
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// The INT8 bundle
// ---------------------------------------------------------------------------

/// Per-output-channel requantization epilogue of one quantized stage,
/// borrowed from the owning layer at call time: channel `c`'s raw `i32`
/// accumulators are mapped through
/// `clamp(round(clamp(acc·mult[c] + bias[c], act) / out_scale), ±127)`
/// — exactly [`requant_i8`]'s sequence.
#[derive(Debug, Clone, Copy)]
pub struct QEpilogue<'a> {
    /// Per-channel `in_scale · w_scale` dequantization multiplier.
    pub mult: &'a [f32],
    /// Per-channel (BN-folded) f32 bias.
    pub bias: &'a [f32],
    /// Optional fused activation clamp `(lo, hi)`.
    pub clamp: Option<(f32, f32)>,
    /// The produced activations' quantization scale.
    pub out_scale: f32,
}

/// Saturation counts of one fused bundle execution, per stage — the
/// caller publishes them as `quant.<op>.saturated` counters exactly as
/// the unfused stages do. Totals are sums over bands, so they are
/// independent of the band decomposition and thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFusedSats {
    /// `i8` clamp count of the DW requantization.
    pub dw: u64,
    /// `i8` clamp count of the PW requantization.
    pub pw: u64,
}

/// Executes one quantized bundle — `DW-Conv3_i8 → requant_i8 → PW_i8 →
/// requant_i8` — in a single cache-resident pass per row band,
/// bit-identical to the unfused quantized stage pair (see the module
/// docs).
///
/// `x` is the `n×c×h×w` input activations (`shape`); `dw_weight` holds
/// `c` 9-tap filters; `pw_weight` is `c2×c` row-major; `out` receives
/// the `n×c2×h×w` output activations (the quantized DW geometry is
/// always stride-1 pad-1, so spatial extents are preserved). The
/// epilogues cover `c` and `c2` channels respectively.
///
/// Returns the per-stage saturation counts.
///
/// # Errors
///
/// Returns a [`TensorError`] when any slice or epilogue disagrees with
/// the shape arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn qfused_bundle_forward(
    x: &[i8],
    shape: Shape,
    dw_weight: &[i8],
    dw_ep: &QEpilogue<'_>,
    pw_weight: &[i8],
    c2: usize,
    pw_ep: &QEpilogue<'_>,
    out: &mut [i8],
) -> Result<QFusedSats> {
    let (n, c, h, w) = (shape.n, shape.c, shape.h, shape.w);
    let plane = h * w;
    let check = |ok: bool, expected: String, got: String| {
        if ok {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                op: "qfused_bundle_forward",
                expected,
                got,
            })
        }
    };
    check(
        x.len() >= n * c * plane,
        format!("input of {} i8s", n * c * plane),
        format!("{}", x.len()),
    )?;
    check(
        dw_weight.len() >= c * 9,
        format!("DW weight of {} taps", c * 9),
        format!("{}", dw_weight.len()),
    )?;
    check(
        pw_weight.len() >= c2 * c,
        format!("PW weight of {} i8s", c2 * c),
        format!("{}", pw_weight.len()),
    )?;
    check(
        out.len() >= n * c2 * plane,
        format!("output of {} i8s", n * c2 * plane),
        format!("{}", out.len()),
    )?;
    check(
        dw_ep.mult.len() == c && dw_ep.bias.len() == c,
        format!("DW epilogue over {c} channels"),
        format!("{}/{} channels", dw_ep.mult.len(), dw_ep.bias.len()),
    )?;
    check(
        pw_ep.mult.len() == c2 && pw_ep.bias.len() == c2,
        format!("PW epilogue over {c2} channels"),
        format!("{}/{} channels", pw_ep.mult.len(), pw_ep.bias.len()),
    )?;
    if n * c2 * plane == 0 {
        return Ok(QFusedSats { dw: 0, pw: 0 });
    }
    let r = band_rows(i8_row_bytes(c, c2, w), h);

    let _span = telemetry::span("tensor.qfused_fwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.fused.fwd_calls").inc();
        telemetry::counter("quant.fused.bundles_executed").inc();
        // The unfused quantized stage pair materializes an i32 + i8 DW
        // full map and an i32 PW full map; the fused pass writes none
        // of them.
        let saved = i8_row_bytes(c, c2, w) * h * n;
        telemetry::counter("quant.fused.dram_bytes_saved").add(saved as u64);
        telemetry::record_gauge("quant.fused.band_rows", r as f64);
    }

    let be = simd::active();
    let dw_sat = AtomicU64::new(0);
    let pw_sat = AtomicU64::new(0);
    run_bands(out, (n, c2, h, w), r, |band| {
        let l = band.len;
        let mut dw_acc = scratch::checkout_i32("tensor.qfused_fwd", c * r * w);
        let mut dw_q = scratch::checkout_i8("tensor.qfused_fwd", c * r * w);
        let mut pw_acc = scratch::checkout_i32("tensor.qfused_fwd", c2 * r * w);
        let (mut sat_dw, mut sat_pw) = (0u64, 0u64);
        for ch in 0..c {
            let chan = band.item * c + ch;
            // dw_plane_rows overwrites, so the dirty checkout is fine.
            dw_plane_rows(
                be,
                &x[chan * plane..(chan + 1) * plane],
                &dw_weight[ch * 9..ch * 9 + 9],
                &mut dw_acc[ch * l..(ch + 1) * l],
                h,
                w,
                band.y0,
                band.y1,
            );
            sat_dw += requant_i8(
                &dw_acc[ch * l..(ch + 1) * l],
                dw_ep.mult[ch],
                dw_ep.bias[ch],
                dw_ep.clamp,
                dw_ep.out_scale,
                &mut dw_q[ch * l..(ch + 1) * l],
            );
        }
        pw_acc[..c2 * l].fill(0);
        matmul_i8_rows(
            be,
            pw_weight,
            &dw_q[..c * l],
            &mut pw_acc[..c2 * l],
            c2,
            c,
            l,
        );
        for oc in 0..c2 {
            sat_pw += requant_i8(
                &pw_acc[oc * l..(oc + 1) * l],
                pw_ep.mult[oc],
                pw_ep.bias[oc],
                pw_ep.clamp,
                pw_ep.out_scale,
                band.rows(oc),
            );
        }
        // u64 sums are commutative, so the totals are schedule-independent.
        dw_sat.fetch_add(sat_dw, Ordering::Relaxed);
        pw_sat.fetch_add(sat_pw, Ordering::Relaxed);
    });
    Ok(QFusedSats {
        dw: dw_sat.into_inner(),
        pw: pw_sat.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwconv::dwconv2d;
    use crate::rng::SkyRng;
    use crate::{conv::conv2d, ops};

    fn rand_tensor(rng: &mut SkyRng, s: Shape) -> Tensor {
        let mut t = Tensor::zeros(s);
        for v in t.as_mut_slice() {
            *v = rng.range(-1.0, 1.0);
        }
        t
    }

    /// The unfused oracle: the exact layer sequence a bundle runs.
    fn unfused(
        x: &Tensor,
        dw_w: &Tensor,
        geo: ConvGeometry,
        bn1: &BnAct,
        pw_w: &Tensor,
        bn2: &BnAct,
    ) -> Tensor {
        let apply_bn_act = |t: &Tensor, bn: &BnAct| {
            let s = t.shape();
            let mut y = Tensor::zeros(s);
            for n in 0..s.n {
                for ch in 0..s.c {
                    let o = (n * s.c + ch) * s.plane();
                    crate::simd::bn_apply_eval(
                        &t.as_slice()[o..o + s.plane()],
                        &mut y.as_mut_slice()[o..o + s.plane()],
                        bn.mean[ch],
                        bn.inv_std[ch],
                        bn.gamma[ch],
                        bn.beta[ch],
                    );
                }
            }
            if bn.ceiling.is_finite() {
                ops::relu6(&y)
            } else {
                ops::relu(&y)
            }
        };
        let t = dwconv2d(x, dw_w, None, geo).unwrap();
        let t = apply_bn_act(&t, bn1);
        let t = conv2d(&t, pw_w, None, ConvGeometry::pointwise()).unwrap();
        apply_bn_act(&t, bn2)
    }

    fn rand_bnact(rng: &mut SkyRng, c: usize, ceiling: Option<f32>) -> BnAct {
        let mean: Vec<f32> = (0..c).map(|_| rng.range(-0.5, 0.5)).collect();
        let var: Vec<f32> = (0..c).map(|_| rng.range(0.1, 1.1)).collect();
        let gamma: Vec<f32> = (0..c).map(|_| rng.range(0.5, 1.5)).collect();
        let beta: Vec<f32> = (0..c).map(|_| rng.range(-0.5, 0.5)).collect();
        BnAct::new(mean, &var, 1e-5, gamma, beta, ceiling)
    }

    #[test]
    fn fused_bundle_matches_unfused_bitwise() {
        let mut rng = SkyRng::new(7);
        for &(n, c, c2, h, w, ceil) in &[
            (1usize, 3usize, 8usize, 11usize, 13usize, Some(6.0)),
            (2, 4, 6, 8, 8, None),
            (1, 8, 16, 20, 40, Some(6.0)),
            (3, 2, 3, 3, 3, Some(6.0)),
            (1, 1, 1, 1, 1, None),
        ] {
            let x = rand_tensor(&mut rng, Shape::new(n, c, h, w));
            let dw_w = rand_tensor(&mut rng, Shape::new(c, 1, 3, 3));
            let pw_w = rand_tensor(&mut rng, Shape::new(c2, c, 1, 1));
            let bn1 = rand_bnact(&mut rng, c, ceil);
            let bn2 = rand_bnact(&mut rng, c2, ceil);
            let geo = ConvGeometry::same3x3();
            let fused = fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap();
            let oracle = unfused(&x, &dw_w, geo, &bn1, &pw_w, &bn2);
            assert_eq!(fused.shape(), oracle.shape());
            let fb: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
            let ob: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, ob, "fused != unfused for n={n} c={c} c2={c2} {h}x{w}");
        }
    }

    #[test]
    fn fused_bundle_stride2_matches_unfused_bitwise() {
        let mut rng = SkyRng::new(9);
        let (n, c, c2, h, w) = (2usize, 5usize, 7usize, 14usize, 18usize);
        let x = rand_tensor(&mut rng, Shape::new(n, c, h, w));
        let dw_w = rand_tensor(&mut rng, Shape::new(c, 1, 3, 3));
        let pw_w = rand_tensor(&mut rng, Shape::new(c2, c, 1, 1));
        let bn1 = rand_bnact(&mut rng, c, Some(6.0));
        let bn2 = rand_bnact(&mut rng, c2, Some(6.0));
        let geo = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let fused = fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).unwrap();
        let oracle = unfused(&x, &dw_w, geo, &bn1, &pw_w, &bn2);
        assert_eq!(
            fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            oracle
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn qfused_bundle_matches_unfused_stage_pair_bitwise() {
        use crate::qint::{dwconv3_i8, matmul_i8, requant_i8};
        let seq = |len: usize, stride: usize| -> Vec<i8> {
            (0..len)
                .map(|i| ((i * stride + 13) % 255) as u8 as i8)
                .collect()
        };
        for &(n, c, c2, h, w) in &[
            (1usize, 3usize, 8usize, 11usize, 13usize),
            (2, 4, 6, 8, 8),
            (1, 8, 16, 20, 40),
            (3, 2, 3, 3, 3),
            (1, 1, 1, 1, 1),
        ] {
            let plane = h * w;
            let x = seq(n * c * plane, 7);
            let dw_w = seq(c * 9, 11);
            let pw_w = seq(c2 * c, 5);
            let dw_mult: Vec<f32> = (0..c).map(|i| 1e-3 + i as f32 * 1e-4).collect();
            let dw_bias: Vec<f32> = (0..c).map(|i| -0.05 + i as f32 * 0.01).collect();
            let pw_mult: Vec<f32> = (0..c2).map(|i| 2e-3 + i as f32 * 1e-4).collect();
            let pw_bias: Vec<f32> = (0..c2).map(|i| 0.03 - i as f32 * 0.01).collect();
            let clamp = Some((0.0f32, 6.0f32));
            let dw_ep = QEpilogue {
                mult: &dw_mult,
                bias: &dw_bias,
                clamp,
                out_scale: 0.05,
            };
            let pw_ep = QEpilogue {
                mult: &pw_mult,
                bias: &pw_bias,
                clamp,
                out_scale: 0.04,
            };
            // The unfused oracle: full-map DW, requant, PW, requant.
            let mut acc = vec![0i32; n * c * plane];
            dwconv3_i8(&x, &dw_w, &mut acc, n, c, h, w);
            let mut q = vec![0i8; n * c * plane];
            let mut sat_dw = 0u64;
            for pi in 0..n * c {
                let (ch, o) = (pi % c, pi * plane);
                sat_dw += requant_i8(
                    &acc[o..o + plane],
                    dw_mult[ch],
                    dw_bias[ch],
                    clamp,
                    dw_ep.out_scale,
                    &mut q[o..o + plane],
                );
            }
            let mut pacc = vec![0i32; n * c2 * plane];
            for item in 0..n {
                matmul_i8(
                    &pw_w,
                    &q[item * c * plane..(item + 1) * c * plane],
                    &mut pacc[item * c2 * plane..(item + 1) * c2 * plane],
                    c2,
                    c,
                    plane,
                );
            }
            let mut want = vec![0i8; n * c2 * plane];
            let mut sat_pw = 0u64;
            for pi in 0..n * c2 {
                let (oc, o) = (pi % c2, pi * plane);
                sat_pw += requant_i8(
                    &pacc[o..o + plane],
                    pw_mult[oc],
                    pw_bias[oc],
                    clamp,
                    pw_ep.out_scale,
                    &mut want[o..o + plane],
                );
            }
            let mut got = vec![0i8; n * c2 * plane];
            let sats = qfused_bundle_forward(
                &x,
                Shape::new(n, c, h, w),
                &dw_w,
                &dw_ep,
                &pw_w,
                c2,
                &pw_ep,
                &mut got,
            )
            .unwrap();
            assert_eq!(got, want, "n={n} c={c} c2={c2} {h}x{w}");
            assert_eq!((sats.dw, sats.pw), (sat_dw, sat_pw));
        }
    }

    #[test]
    fn qfused_bundle_rejects_short_slices() {
        let shape = Shape::new(1, 2, 4, 4);
        let x = vec![0i8; 2 * 16];
        let dw_w = vec![0i8; 18];
        let pw_w = vec![0i8; 6];
        let ep1 = QEpilogue {
            mult: &[0.1, 0.1],
            bias: &[0.0, 0.0],
            clamp: None,
            out_scale: 0.1,
        };
        let ep2 = QEpilogue {
            mult: &[0.1, 0.1, 0.1],
            bias: &[0.0, 0.0, 0.0],
            clamp: None,
            out_scale: 0.1,
        };
        let mut out = vec![0i8; 3 * 16];
        let mut short_out = vec![0i8; 5];
        assert!(
            qfused_bundle_forward(&x, shape, &dw_w, &ep1, &pw_w, 3, &ep2, &mut short_out).is_err()
        );
        // Epilogue channel mismatch.
        assert!(qfused_bundle_forward(&x, shape, &dw_w, &ep2, &pw_w, 3, &ep2, &mut out).is_err());
        assert!(qfused_bundle_forward(&x, shape, &dw_w, &ep1, &pw_w, 3, &ep2, &mut out).is_ok());
    }

    /// The one byte-counted band rule must reproduce the heights of the
    /// two per-domain rules it replaced (f32 counted `(c + c2)·w` floats
    /// against 96 Ki floats; INT8 `(5c + 4c2)·w` bytes against 384 KiB)
    /// on every SkyNet C bundle at 160×320, at width ÷8 and at paper
    /// width. The expected heights were computed with those rules.
    #[test]
    fn band_rule_keeps_the_skynet_c_band_heights() {
        // (c, c2, h, w) of each bundle's DW output, then the f32 and INT8
        // band heights.
        let cases = [
            // Width ÷8.
            (3usize, 6, 160, 320, 20, 20),
            (6, 12, 80, 160, 10, 10),
            (12, 24, 40, 80, 5, 5),
            (24, 48, 20, 40, 3, 3),
            (48, 64, 20, 40, 3, 3),
            (160, 12, 20, 40, 3, 3),
            // Paper width.
            (3, 48, 160, 320, 6, 5),
            (48, 96, 80, 160, 4, 3),
            (96, 192, 40, 80, 4, 3),
            (192, 384, 20, 40, 3, 3),
            (384, 512, 20, 40, 2, 2),
            (1280, 96, 20, 40, 1, 1),
        ];
        for (c, c2, h, w, f32_rows, i8_rows) in cases {
            assert_eq!(
                band_rows(f32_row_bytes(c, c2, w), h),
                f32_rows,
                "f32 {c}->{c2} {h}x{w}"
            );
            assert_eq!(
                band_rows(i8_row_bytes(c, c2, w), h),
                i8_rows,
                "INT8 {c}->{c2} {h}x{w}"
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        let x = Tensor::zeros(Shape::new(1, 2, 4, 4));
        let dw_w = Tensor::zeros(Shape::new(2, 1, 3, 3));
        let pw_w = Tensor::zeros(Shape::new(3, 2, 1, 1));
        let bn1 = BnAct::new(
            vec![0.0; 2],
            &[1.0; 2],
            1e-5,
            vec![1.0; 2],
            vec![0.0; 2],
            None,
        );
        let bn2 = BnAct::new(
            vec![0.0; 3],
            &[1.0; 3],
            1e-5,
            vec![1.0; 3],
            vec![0.0; 3],
            None,
        );
        let geo = ConvGeometry {
            kernel: 5,
            stride: 1,
            pad: 2,
        };
        assert!(fused_bundle_forward(&x, &dw_w, geo, &bn1, &pw_w, &bn2).is_err());
    }
}
