//! Depth-wise 2-D convolution — the `DW-Conv3` half of the SkyNet Bundle.
//!
//! Each channel is convolved with its own `k×k` filter (channel multiplier
//! 1, as in MobileNet and SkyNet). The kernels are direct loops rather than
//! im2col: with one filter per channel there is no matrix structure to
//! exploit, and direct loops match the line-buffer dataflow of the paper's
//! DW-Conv FPGA IP.
//!
//! ## Interior/border split
//!
//! The profiler showed the original per-pixel bounds-checked loop eating
//! two thirds of forward wall time, almost all of it on taps that can
//! never fall outside the input. Each output plane is therefore split
//! into a **branch-free interior** — every tap in bounds by
//! construction, with the `k = 3` case fully unrolled for strides 1 and
//! 2 (the only geometries SkyNet instantiates) — and a thin **border**
//! handled by the original generic code.
//!
//! The split is *per row*, never a separate interior pass: the backward
//! kernel scatter-accumulates into shared gradient buffers, so output
//! pixels must be visited in a fixed raster order for determinism (f32
//! addition does not commute).
//!
//! ## One forward body, two epilogues
//!
//! The `k = 3`, stride-1/2 forward (the only geometries SkyNet
//! instantiates) has exactly one body, `dw3_band_v`: output rows
//! `y0..y1` of one plane, border pixels through the generic code and
//! interior pixels 8 at a time through the [`simd`] lane abstraction,
//! dispatched over the active backend. A const switch picks its store
//! epilogue:
//!
//! * **identity** — [`dwconv2d`] runs the body over every row of every
//!   plane; the identity arm does no arithmetic, so the stored value is
//!   the convolution itself;
//! * **BN + activation** — the fused bundle ([`crate::fused`]) runs it
//!   over one row band at a time with `bn_apply_eval` + `relu/relu6`'s
//!   exact per-element sequence folded into the store.
//!
//! ## SIMD and the lane-ordered contract
//!
//! * **forward** — each output pixel is independent, but the lane
//!   kernel sums its nine products in a fixed **balanced tree** (see
//!   `dw3_block`) instead of the reference's left-to-right chain:
//!   the tree cuts the add critical path from 9 to 4 dependent adds,
//!   which is where the wide backends' speedup comes from. Every
//!   backend — the scalar one included — replays that exact tree, so
//!   backends are bit-identical to each other and within rounding
//!   tolerance of [`reference::dwconv2d_ref`] on the lane geometries
//!   (other geometries keep the reference order bitwise);
//! * **backward** — the weight/bias gradients are *reductions* over
//!   pixels, so vectorizing reorders their f32 additions. The interior
//!   runs a **lane-ordered** two-stream schedule (border + tail pixels
//!   scalar in raster order, full 8-lane blocks accumulated tap-major
//!   into vector accumulators folded once per plane through the fixed
//!   [`reduce_add`](crate::simd::F32x8::reduce_add) tree). That schedule
//!   is itself deterministic and identical on every backend — the scalar
//!   backend replays it literally — but it is a *different* ordering
//!   from [`reference::dwconv2d_backward_ref`], so backward is compared
//!   to the reference with a tolerance, and bitwise only across
//!   backends/thread counts (`kernel_equivalence` + `simd_equivalence`).

use crate::conv::{check_geometry, ConvGeometry};
use crate::parallel::{par_chunks_mut, par_chunks_mut2};
use crate::simd::{self, Backend, F32x8, ScalarV, LANES};
use crate::{scratch, telemetry};
use crate::{Result, Shape, Tensor, TensorError};

#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2V, Sse2V};

fn check(input: Shape, weight: Shape, bias: Option<&[f32]>, geo: ConvGeometry) -> Result<()> {
    if weight.n != input.c || weight.c != 1 || weight.h != geo.kernel || weight.w != geo.kernel {
        return Err(TensorError::ShapeMismatch {
            op: "dwconv2d",
            expected: format!("weight [{}, 1, {}, {}]", input.c, geo.kernel, geo.kernel),
            got: weight.to_string(),
        });
    }
    check_geometry(input, geo, "dwconv2d")?;
    match bias {
        Some(b) if b.len() != input.c => Err(TensorError::ShapeMismatch {
            op: "dwconv2d bias",
            expected: format!("{} entries", input.c),
            got: format!("{} entries", b.len()),
        }),
        _ => Ok(()),
    }
}

/// Interior pixels the 8-lane blocks cover in an `n·c`-plane DW pass
/// (the `simd` lane counter's count); 0 off the lane geometries.
fn lane_pixels(is: Shape, os: Shape, k: usize, s: usize, p: usize) -> usize {
    if k != 3 || (s != 1 && s != 2) {
        return 0;
    }
    let (y_lo, y_hi) = interior_range(os.h, is.h, k, s, p);
    let (x_lo, x_hi) = interior_range(os.w, is.w, k, s, p);
    is.n * is.c * y_hi.saturating_sub(y_lo) * simd::vector_cover(x_hi.saturating_sub(x_lo))
}

/// Output positions along one axis whose receptive field lies fully
/// inside the input: the half-open interior range `lo..hi` (possibly
/// empty). Positions outside it need per-tap bounds checks.
fn interior_range(out: usize, inp: usize, k: usize, s: usize, p: usize) -> (usize, usize) {
    if inp + p < k || k == 0 || s == 0 {
        return (0, 0);
    }
    let lo = p.div_ceil(s).min(out);
    let hi = ((inp + p - k) / s + 1).min(out);
    (lo.min(hi), hi)
}

/// One interior output row of a fully unrolled 3×3 depth-wise filter.
/// `r0..r2` are the three input rows, already offset so output `j` reads
/// columns `j*S .. j*S+2`. The nine taps accumulate in `(ky, kx)` order —
/// the exact f32 addition sequence of the reference kernel.
#[inline]
fn dw3_fwd_row<const S: usize>(
    out: &mut [f32],
    r0: &[f32],
    r1: &[f32],
    r2: &[f32],
    f: &[f32],
    bv: f32,
) {
    let (f00, f01, f02) = (f[0], f[1], f[2]);
    let (f10, f11, f12) = (f[3], f[4], f[5]);
    let (f20, f21, f22) = (f[6], f[7], f[8]);
    for (j, o) in out.iter_mut().enumerate() {
        let x = j * S;
        *o = bv
            + r0[x] * f00
            + r0[x + 1] * f01
            + r0[x + 2] * f02
            + r1[x] * f10
            + r1[x + 1] * f11
            + r1[x + 2] * f12
            + r2[x] * f20
            + r2[x + 1] * f21
            + r2[x + 2] * f22;
    }
}

/// One interior tap: a contiguous 8-lane load at stride 1, a 15-slot
/// de-interleaving load at stride 2.
///
/// # Safety
/// `row` must be valid for reads of 8 (S = 1) / 15 (S = 2) `f32`s.
#[inline(always)]
unsafe fn tap<V: F32x8, const S: usize>(row: *const f32) -> V {
    // SAFETY: forwarded to the caller.
    unsafe {
        if S == 1 {
            V::load_ptr(row)
        } else {
            V::load_stride2_ptr(row)
        }
    }
}

/// The per-channel BN-eval + clamped-activation epilogue `(mean,
/// inv_std, gamma, beta, ceiling)` of the fused store, with `ceiling =
/// f32::INFINITY` for plain ReLU.
pub(crate) type BnActEp = (f32, f32, f32, f32, f32);

/// Splatted [`BnActEp`] constants for the vector store loop:
/// `y = min(max(g·(x − m)·inv_std + b, 0), hi)`.
#[derive(Clone, Copy)]
struct EpV<V> {
    mv: V,
    sv: V,
    gv: V,
    bv: V,
    zero: V,
    hv: V,
}

impl<V: F32x8> EpV<V> {
    #[inline(always)]
    fn new((m, inv_std, g, b, hi): BnActEp) -> Self {
        EpV {
            mv: V::splat(m),
            sv: V::splat(inv_std),
            gv: V::splat(g),
            bv: V::splat(b),
            zero: V::splat(0.0),
            hv: V::splat(hi),
        }
    }

    /// [`simd::bn_act_inplace`]'s exact vector operation sequence.
    #[inline(always)]
    fn apply(&self, x: V) -> V {
        self.gv
            .mul(x.sub(self.mv))
            .mul(self.sv)
            .add(self.bv)
            .max(self.zero)
            .min(self.hv)
    }
}

/// Scalar epilogue, bitwise-equal to [`EpV::apply`] per element (the
/// same `maxps`/`minps` lane semantics the elementwise kernels' scalar
/// tails replay).
#[inline(always)]
fn bnact_scalar(xs: &mut [f32], (m, inv_std, g, b, hi): BnActEp) {
    for v in xs {
        let y = g * (*v - m) * inv_std + b;
        let t = if y > 0.0 { y } else { 0.0 };
        *v = if t < hi { t } else { hi };
    }
}

/// One 8-pixel block at pre-offset row/output pointers. Each lane sums
/// its nine products in the fixed balanced tree
///
/// ```text
/// ((t0+t1) + (t2+t3)) + ((t4+t5) + (t6+t7))  +  (t8 + bias)
/// ```
///
/// (final sum associated `(left + right) + tail`), **not** the
/// reference's left-to-right chain: the tree cuts the add critical path
/// from 9 to 4 dependent adds per pixel, which is what lets the wide
/// backends run ahead of the scalar chain. Every backend replays this
/// exact order, so backends stay bit-identical to each other while the
/// interior differs from [`reference`] by rounding only (the
/// `kernel_equivalence` suite bounds it).
///
/// With `BN` the epilogue is applied in register before the store;
/// without it the sum is stored as is. A lane's value depends only on
/// its pixel, never on where the pixel sits within the block, so
/// overlapping blocks recompute identical bits.
///
/// # Safety
/// Block `j` (output pixels `j..j + 8`) reads from `j·S` on: each row
/// pointer must be valid for the tap reach from there (`2 + 8` slots at
/// S = 1, `2 + 15` at S = 2) and `po + j` for an 8-slot store.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn dw3_block<V: F32x8, const S: usize, const BN: bool>(
    j: usize,
    p0: *const f32,
    p1: *const f32,
    p2: *const f32,
    po: *mut f32,
    fv: &[V; 9],
    bvv: V,
    ep: &EpV<V>,
) {
    // SAFETY: forwarded to the caller.
    unsafe {
        let (p0, p1, p2, po) = (p0.add(j * S), p1.add(j * S), p2.add(j * S), po.add(j));
        let t0 = tap::<V, S>(p0).mul(fv[0]);
        let t1 = tap::<V, S>(p0.add(1)).mul(fv[1]);
        let t2 = tap::<V, S>(p0.add(2)).mul(fv[2]);
        let t3 = tap::<V, S>(p1).mul(fv[3]);
        let t4 = tap::<V, S>(p1.add(1)).mul(fv[4]);
        let t5 = tap::<V, S>(p1.add(2)).mul(fv[5]);
        let t6 = tap::<V, S>(p2).mul(fv[6]);
        let t7 = tap::<V, S>(p2.add(1)).mul(fv[7]);
        let t8 = tap::<V, S>(p2.add(2)).mul(fv[8]);
        // The documented balanced tree — do not reassociate.
        let left = t0.add(t1).add(t2.add(t3));
        let right = t4.add(t5).add(t6.add(t7));
        let acc = left.add(right).add(t8.add(bvv));
        let acc = if BN { ep.apply(acc) } else { acc };
        acc.store_ptr(po);
    }
}

/// One interior output row through [`dw3_block`], with the filter, bias
/// and epilogue lanes already splatted (the band body hoists them out
/// of the row loop).
///
/// Two independent blocks run per iteration so their balanced trees
/// overlap in the pipeline. A sub-8-pixel remainder is finished by one
/// **overlapped** block ending at the last pixel: a lane's value is
/// independent of its position within a block, so the re-stored pixels
/// keep their exact bits and no serial tail loop runs. Rows shorter than
/// 8 pixels fall back to the chain-ordered [`dw3_fwd_row`] (then the
/// bitwise-equal scalar epilogue) on every backend alike.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw3_row<V: F32x8, const S: usize, const BN: bool>(
    out: &mut [f32],
    r0: &[f32],
    r1: &[f32],
    r2: &[f32],
    fv: &[V; 9],
    bvv: V,
    epv: &EpV<V>,
    f: &[f32],
    bv: f32,
    ep: BnActEp,
) {
    let m = out.len();
    if m < LANES {
        dw3_fwd_row::<S>(out, r0, r1, r2, f, bv);
        if BN {
            bnact_scalar(out, ep);
        }
        return;
    }
    // One bounds proof up front, then an unchecked block loop: LLVM does
    // not eliminate per-tap slice checks through the backend dispatch,
    // and 9 taps × (slice + length check) per 8-pixel block otherwise
    // outnumber the 19 arithmetic instructions. The furthest read of any
    // block — including the overlapped one at `m - LANES` — is within
    // the row span `(m-1)*S + 3` that the band body provides.
    let need = (m - 1) * S + 3;
    assert!(
        r0.len() >= need && r1.len() >= need && r2.len() >= need,
        "interior rows too short for vector blocks"
    );
    let m8 = simd::vector_cover(m);
    let (p0, p1, p2, po) = (r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), out.as_mut_ptr());
    let mut j = 0;
    while j + 2 * LANES <= m8 {
        // SAFETY: the assert above proves every tap of every block ending
        // at or before pixel `m` stays inside `r0`/`r1`/`r2`, and `j + 16
        // <= m <= out.len()` covers both stores.
        unsafe {
            dw3_block::<V, S, BN>(j, p0, p1, p2, po, fv, bvv, epv);
            dw3_block::<V, S, BN>(j + LANES, p0, p1, p2, po, fv, bvv, epv);
        }
        j += 2 * LANES;
    }
    if j < m8 {
        // SAFETY: as above; `j + LANES <= m8` by `vector_cover`.
        unsafe { dw3_block::<V, S, BN>(j, p0, p1, p2, po, fv, bvv, epv) };
    }
    if m8 < m {
        // SAFETY: as above; the overlapped final block ends at `m`.
        unsafe { dw3_block::<V, S, BN>(m - LANES, p0, p1, p2, po, fv, bvv, epv) };
    }
}

/// Output rows `y0..y1` of one `k = 3`, stride-`S` depth-wise plane,
/// written contiguously into a `(y1 − y0) × os.w` destination: the one
/// DW-Conv3 forward body. Per row, border pixels run [`dw_fwd_border`]
/// and interior pixels the lane kernel; with `BN` each pixel then gets
/// the BN+activation epilogue, in register for the interior and through
/// the bitwise-equal [`bnact_scalar`] for the borders. Without `BN` the
/// identity epilogue does no arithmetic, so the plain forward is the
/// same body with nothing folded in.
///
/// `dwconv2d` runs it over rows `0..os.h` of every plane; the fused
/// bundle ([`crate::fused`]) over one row band at a time. Output rows
/// read input rows `y·S − p ..` only, so no band decomposition can
/// change any value.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw3_band_v<V: F32x8, const S: usize, const BN: bool>(
    dst: &mut [f32],
    chan_in: &[f32],
    filt: &[f32],
    bv: f32,
    is: Shape,
    os: Shape,
    p: usize,
    (y0, y1): (usize, usize),
    ep: BnActEp,
) {
    let (y_lo, y_hi) = interior_range(os.h, is.h, 3, S, p);
    let (x_lo, x_hi) = interior_range(os.w, is.w, 3, S, p);
    let lane = x_lo < x_hi && y_lo < y_hi;
    let fv: [V; 9] = std::array::from_fn(|t| V::splat(filt[t]));
    let bvv = V::splat(bv);
    let epv = EpV::<V>::new(ep);
    let border = |row: &mut [f32], oy: usize, xr: std::ops::Range<usize>| {
        dw_fwd_border(row, chan_in, filt, bv, oy, xr.clone(), is, 3, S, p);
        if BN {
            bnact_scalar(&mut row[xr], ep);
        }
    };
    for oy in y0..y1 {
        let row = &mut dst[(oy - y0) * os.w..(oy - y0 + 1) * os.w];
        if !lane || oy < y_lo || oy >= y_hi {
            border(row, oy, 0..os.w);
            continue;
        }
        border(row, oy, 0..x_lo);
        border(row, oy, x_hi..os.w);
        let iy0 = oy * S - p;
        let ix0 = x_lo * S - p;
        let span = (x_hi - 1 - x_lo) * S + 3;
        let r0 = &chan_in[iy0 * is.w + ix0..iy0 * is.w + ix0 + span];
        let r1 = &chan_in[(iy0 + 1) * is.w + ix0..(iy0 + 1) * is.w + ix0 + span];
        let r2 = &chan_in[(iy0 + 2) * is.w + ix0..(iy0 + 2) * is.w + ix0 + span];
        let interior = &mut row[x_lo..x_hi];
        dw3_row::<V, S, BN>(interior, r0, r1, r2, &fv, bvv, &epv, filt, bv, ep);
    }
}

/// `inline(always)` on the generic body is load-bearing: it must inline
/// into this `#[target_feature(enable = "avx2")]` scope, or the 256-bit
/// ops would be legalized into split halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dw3_band_avx2<const S: usize, const BN: bool>(
    dst: &mut [f32],
    chan_in: &[f32],
    filt: &[f32],
    bv: f32,
    is: Shape,
    os: Shape,
    p: usize,
    yr: (usize, usize),
    ep: BnActEp,
) {
    dw3_band_v::<Avx2V, S, BN>(dst, chan_in, filt, bv, is, os, p, yr, ep)
}

/// DW-Conv3 band dispatch over the active backend, the stride and the
/// epilogue: `ep = None` is the plain forward, `Some` the fused
/// BN+activation store. Every backend — scalar included — runs the
/// generic lane body with its balanced accumulation tree, so all
/// backends are bit-identical by construction ([`ScalarV`] replays the
/// vector order literally).
///
/// # Panics
///
/// Panics when the stride is not 1 or 2 (the only lane geometries;
/// [`dwconv2d`] routes others to the generic loop and the planner never
/// builds a fused plan for them).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dw3_band(
    be: Backend,
    dst: &mut [f32],
    chan_in: &[f32],
    filt: &[f32],
    bv: f32,
    is: Shape,
    os: Shape,
    s: usize,
    p: usize,
    yr: (usize, usize),
    ep: Option<BnActEp>,
) {
    let e = ep.unwrap_or_default();
    macro_rules! go {
        ($S:literal, $BN:literal) => {
            match be {
                Backend::Scalar => {
                    dw3_band_v::<ScalarV, $S, $BN>(dst, chan_in, filt, bv, is, os, p, yr, e)
                }
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => {
                    dw3_band_v::<Sse2V, $S, $BN>(dst, chan_in, filt, bv, is, os, p, yr, e)
                }
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the Avx2 backend is only ever active after
                // runtime detection succeeded.
                Backend::Avx2 => unsafe {
                    dw3_band_avx2::<$S, $BN>(dst, chan_in, filt, bv, is, os, p, yr, e)
                },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("vector backends are never active off x86_64"),
            }
        };
    }
    match (s, ep.is_some()) {
        (1, false) => go!(1, false),
        (1, true) => go!(1, true),
        (2, false) => go!(2, false),
        (2, true) => go!(2, true),
        (other, _) => panic!("dw3_band: unsupported stride {other} (expected 1 or 2)"),
    }
}

/// Border path: the original generic per-pixel loop over an `ox` range.
/// `k = 3` takes a specialized body with the same tap order — the valid
/// `(ky, kx)` window is computed once per pixel instead of testing every
/// tap, so skipped taps cost nothing and the output bits are unchanged.
#[allow(clippy::too_many_arguments)]
#[inline]
fn dw_fwd_border(
    out_row: &mut [f32],
    chan_in: &[f32],
    filt: &[f32],
    bv: f32,
    oy: usize,
    ox_range: std::ops::Range<usize>,
    is: Shape,
    k: usize,
    s: usize,
    p: usize,
) {
    let iy0 = (oy * s) as isize - p as isize;
    if k == 3 {
        let ky_lo = (-iy0).max(0) as usize;
        let ky_hi = (is.h as isize - iy0).clamp(0, 3) as usize;
        for ox in ox_range {
            let ix0 = (ox * s) as isize - p as isize;
            let kx_lo = (-ix0).max(0) as usize;
            let kx_hi = (is.w as isize - ix0).clamp(0, 3) as usize;
            let mut acc = bv;
            for ky in ky_lo..ky_hi {
                let row = (iy0 + ky as isize) as usize * is.w;
                let base = row.wrapping_add_signed(ix0 + kx_lo as isize);
                let frow = ky * 3 + kx_lo;
                for t in 0..kx_hi.saturating_sub(kx_lo) {
                    acc += chan_in[base + t] * filt[frow + t];
                }
            }
            out_row[ox] = acc;
        }
        return;
    }
    for ox in ox_range {
        let ix0 = (ox * s) as isize - p as isize;
        let mut acc = bv;
        for ky in 0..k {
            let iy = iy0 + ky as isize;
            if iy < 0 || iy >= is.h as isize {
                continue;
            }
            let row = iy as usize * is.w;
            let frow = ky * k;
            for kx in 0..k {
                let ix = ix0 + kx as isize;
                if ix >= 0 && ix < is.w as isize {
                    acc += chan_in[row + ix as usize] * filt[frow + kx];
                }
            }
        }
        out_row[ox] = acc;
    }
}

/// Forward pass over one `(item, channel)` plane with the
/// interior/border split: the lane geometries run the one band body
/// over every row, the rest the generic loop below.
#[allow(clippy::too_many_arguments)]
fn dw_plane_fwd(
    be: Backend,
    chan_out: &mut [f32],
    chan_in: &[f32],
    filt: &[f32],
    bv: f32,
    is: Shape,
    os: Shape,
    k: usize,
    s: usize,
    p: usize,
) {
    if k == 3 && (s == 1 || s == 2) {
        let yr = (0, os.h);
        return dw3_band(be, chan_out, chan_in, filt, bv, is, os, s, p, yr, None);
    }
    let (y_lo, y_hi) = interior_range(os.h, is.h, k, s, p);
    let (x_lo, x_hi) = interior_range(os.w, is.w, k, s, p);
    for oy in 0..os.h {
        let out_row = &mut chan_out[oy * os.w..(oy + 1) * os.w];
        if oy < y_lo || oy >= y_hi || x_lo >= x_hi {
            dw_fwd_border(out_row, chan_in, filt, bv, oy, 0..os.w, is, k, s, p);
            continue;
        }
        dw_fwd_border(out_row, chan_in, filt, bv, oy, 0..x_lo, is, k, s, p);
        let iy0 = oy * s - p;
        let ix0 = x_lo * s - p;
        // Generic kernel interior, still branch-free: every tap is in
        // bounds, so the `(ky, kx)` loops carry no checks. The taps sum
        // in the reference chain order.
        for (j, o) in out_row[x_lo..x_hi].iter_mut().enumerate() {
            let x0 = ix0 + j * s;
            let mut acc = bv;
            for ky in 0..k {
                let row = &chan_in[(iy0 + ky) * is.w + x0..(iy0 + ky) * is.w + x0 + k];
                let frow = &filt[ky * k..ky * k + k];
                for (&iv, &fv) in row.iter().zip(frow) {
                    acc += iv * fv;
                }
            }
            *o = acc;
        }
        dw_fwd_border(out_row, chan_in, filt, bv, oy, x_hi..os.w, is, k, s, p);
    }
}

/// Depth-wise convolution.
///
/// `weight` has shape `[c, 1, k, k]`; `bias`, when given, has `c` entries.
///
/// Results are deterministic on every `SKYNET_SIMD` backend and thread
/// count. For `k = 3`, strides 1–2 (the SkyNet geometries) the interior
/// uses the lane kernel's balanced accumulation tree, which differs from
/// [`reference::dwconv2d_ref`] by rounding only; every other geometry
/// replays the reference's exact f32 operation sequence bitwise.
///
/// # Errors
///
/// Returns a [`TensorError`] when the weight shape disagrees with the
/// input channel count or geometry, or when the bias length is wrong.
pub fn dwconv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    geo: ConvGeometry,
) -> Result<Tensor> {
    let is = input.shape();
    check(is, weight.shape(), bias, geo)?;
    let os = geo.out_shape(is, is.c);
    let mut out = Tensor::zeros(os);
    let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
    let kk = k * k;
    let be = simd::active();
    let _span = telemetry::span("tensor.dwconv_fwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.dwconv.fwd_calls").inc();
        telemetry::counter("tensor.dwconv.fwd_flops").add(2 * (os.numel() * kk) as u64);
        simd::record_lanes("dwconv_fwd", lane_pixels(is, os, k, s, p));
    }
    // Every (item, channel) plane is independent: one parallel task per
    // output plane, each reading only its own input plane and filter.
    par_chunks_mut(out.as_mut_slice(), os.plane(), |plane, chan_out| {
        let c = plane % is.c;
        let filt = &weight.as_slice()[c * kk..(c + 1) * kk];
        let bv = bias.map(|b| b[c]).unwrap_or(0.0);
        let chan_in = &input.as_slice()[plane * is.plane()..(plane + 1) * is.plane()];
        dw_plane_fwd(be, chan_out, chan_in, filt, bv, is, os, k, s, p);
    });
    Ok(out)
}

/// Gradients produced by [`dwconv2d_backward`].
#[derive(Debug, Clone)]
pub struct DwConvGrads {
    /// Gradient w.r.t. the input feature map.
    pub input: Tensor,
    /// Gradient w.r.t. the `[c, 1, k, k]` weight tensor.
    pub weight: Tensor,
    /// Gradient w.r.t. the per-channel bias.
    pub bias: Vec<f32>,
}

/// Border path of the backward pass: the original generic per-pixel
/// scatter over an `ox` range. `k = 3` takes a specialized body with the
/// same tap order (valid window computed once per pixel, bits unchanged).
#[allow(clippy::too_many_arguments)]
#[inline]
fn dw_bwd_border(
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go_row: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    oy: usize,
    ox_range: std::ops::Range<usize>,
    is: Shape,
    k: usize,
    s: usize,
    p: usize,
) {
    let iy0 = (oy * s) as isize - p as isize;
    if k == 3 {
        let ky_lo = (-iy0).max(0) as usize;
        let ky_hi = (is.h as isize - iy0).clamp(0, 3) as usize;
        for ox in ox_range {
            let g = go_row[ox];
            if g == 0.0 {
                continue;
            }
            *gb += g;
            let ix0 = (ox * s) as isize - p as isize;
            let kx_lo = (-ix0).max(0) as usize;
            let kx_hi = (is.w as isize - ix0).clamp(0, 3) as usize;
            for ky in ky_lo..ky_hi {
                let row = (iy0 + ky as isize) as usize * is.w;
                let base = row.wrapping_add_signed(ix0 + kx_lo as isize);
                let frow = ky * 3 + kx_lo;
                for t in 0..kx_hi.saturating_sub(kx_lo) {
                    let ii = base + t;
                    gw_c[frow + t] += g * chan_in[ii];
                    gi_c[ii] += g * filt[frow + t];
                }
            }
        }
        return;
    }
    for ox in ox_range {
        let ix0 = (ox * s) as isize - p as isize;
        let g = go_row[ox];
        if g == 0.0 {
            continue;
        }
        *gb += g;
        for ky in 0..k {
            let iy = iy0 + ky as isize;
            if iy < 0 || iy >= is.h as isize {
                continue;
            }
            let row = iy as usize * is.w;
            let frow = ky * k;
            for kx in 0..k {
                let ix = ix0 + kx as isize;
                if ix >= 0 && ix < is.w as isize {
                    let ii = row + ix as usize;
                    gw_c[frow + kx] += g * chan_in[ii];
                    gi_c[ii] += g * filt[frow + kx];
                }
            }
        }
    }
}

/// Scalar interior backward pixels for `k = 3`: the fully unrolled
/// scatter, visiting outputs `ox_range` in raster order with the
/// reference's `g == 0` skip and `(ky, kx)` tap order — the tail pixels
/// after the lane-ordered plane's 8-lane blocks.
#[allow(clippy::too_many_arguments)]
#[inline]
fn dw3_bwd_pixels(
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go_row: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    iy0: usize,
    ox_range: std::ops::Range<usize>,
    is: Shape,
    s: usize,
    p: usize,
) {
    if ox_range.is_empty() {
        return;
    }
    // Three disjoint gradient rows, borrowed mutably at once so
    // the nine scatter targets resolve without re-slicing.
    let (f00, f01, f02) = (filt[0], filt[1], filt[2]);
    let (f10, f11, f12) = (filt[3], filt[4], filt[5]);
    let (f20, f21, f22) = (filt[6], filt[7], filt[8]);
    let (g0, rest) = gi_c[iy0 * is.w..].split_at_mut(is.w);
    let (g1, rest) = rest.split_at_mut(is.w);
    let g2 = &mut rest[..is.w];
    let r0 = &chan_in[iy0 * is.w..(iy0 + 1) * is.w];
    let r1 = &chan_in[(iy0 + 1) * is.w..(iy0 + 2) * is.w];
    let r2 = &chan_in[(iy0 + 2) * is.w..(iy0 + 3) * is.w];
    for ox in ox_range {
        let g = go_row[ox];
        if g == 0.0 {
            continue;
        }
        *gb += g;
        let x = ox * s - p;
        gw_c[0] += g * r0[x];
        g0[x] += g * f00;
        gw_c[1] += g * r0[x + 1];
        g0[x + 1] += g * f01;
        gw_c[2] += g * r0[x + 2];
        g0[x + 2] += g * f02;
        gw_c[3] += g * r1[x];
        g1[x] += g * f10;
        gw_c[4] += g * r1[x + 1];
        g1[x + 1] += g * f11;
        gw_c[5] += g * r1[x + 2];
        g1[x + 2] += g * f12;
        gw_c[6] += g * r2[x];
        g2[x] += g * f20;
        gw_c[7] += g * r2[x + 1];
        g2[x + 1] += g * f21;
        gw_c[8] += g * r2[x + 2];
        g2[x + 2] += g * f22;
    }
}

/// Backward pass over one plane. The interior fast path visits pixels in
/// the same raster order and taps in the same `(ky, kx)` order as the
/// border/reference code, so every accumulator (`gi`, `gw`, `gb`) sees
/// the identical f32 addition sequence.
#[allow(clippy::too_many_arguments)]
fn dw_plane_bwd(
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    is: Shape,
    os: Shape,
    k: usize,
    s: usize,
    p: usize,
) {
    let (y_lo, y_hi) = interior_range(os.h, is.h, k, s, p);
    let (x_lo, x_hi) = interior_range(os.w, is.w, k, s, p);
    for oy in 0..os.h {
        let go_row = &go[oy * os.w..(oy + 1) * os.w];
        if oy < y_lo || oy >= y_hi || x_lo >= x_hi {
            dw_bwd_border(
                gi_c,
                gw_c,
                gb,
                go_row,
                chan_in,
                filt,
                oy,
                0..os.w,
                is,
                k,
                s,
                p,
            );
            continue;
        }
        dw_bwd_border(
            gi_c,
            gw_c,
            gb,
            go_row,
            chan_in,
            filt,
            oy,
            0..x_lo,
            is,
            k,
            s,
            p,
        );
        let iy0 = oy * s - p;
        for (i, &g) in go_row[x_lo..x_hi].iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            *gb += g;
            let x0 = (x_lo + i) * s - p;
            for ky in 0..k {
                let base = (iy0 + ky) * is.w + x0;
                let frow = ky * k;
                for kx in 0..k {
                    gw_c[frow + kx] += g * chan_in[base + kx];
                    gi_c[base + kx] += g * filt[frow + kx];
                }
            }
        }
        dw_bwd_border(
            gi_c,
            gw_c,
            gb,
            go_row,
            chan_in,
            filt,
            oy,
            x_hi..os.w,
            is,
            k,
            s,
            p,
        );
    }
}

/// Lane-ordered backward plane for `k = 3`, stride `S ∈ {1, 2}`.
///
/// Two streams, in a fixed order every backend replays exactly:
///
/// * **scalar stream** — border pixels and the interior tail
///   (`m % 8` pixels per row) run the original unrolled scatter in
///   raster order, with the reference's `g == 0` skip, accumulating
///   straight into `gw_c`/`gb`;
/// * **vector stream** — full 8-pixel interior blocks accumulate into
///   8-lane accumulators (`vgw`/`vgb`) in block order with **no**
///   value-dependent skips (a skip taken on one lane but not another
///   would make the addition order data-dependent), folded once at
///   plane end through the fixed `reduce_add` tree. The fold only runs
///   when at least one full block executed, so border-only planes keep
///   the exact scalar result.
///
/// The input gradient (`gi`) has no cross-pixel reduction at stride 1:
/// each interior row runs nine tap-major passes of disjoint 8-wide
/// load/add/stores (see the comment in the body for why block-major
/// stalls), so a `gi` slot sums its up-to-nine tap contributions in
/// fixed `(ky, kx)` order. At stride 2 it is scattered scalar-per-lane
/// from bitwise-identical vector products in the original block order.
/// Both schedules are fixed, so `gi` is deterministic on every backend
/// too.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dw3_plane_bwd_v<V: F32x8, const S: usize>(
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    is: Shape,
    os: Shape,
    p: usize,
) {
    let (y_lo, y_hi) = interior_range(os.h, is.h, 3, S, p);
    let (x_lo, x_hi) = interior_range(os.w, is.w, 3, S, p);
    let m8 = simd::vector_cover(x_hi.saturating_sub(x_lo));
    // One bounds proof for the unchecked block loop below, restating the
    // `interior_range` invariant: every interior tap `(oy*S - p + ky,
    // ox*S - p + kx)` lies inside the input plane, and the widest vector
    // access (8 contiguous slots at stride 1, 15 at stride 2) ends at
    // the tap of the row's last interior pixel.
    if y_lo < y_hi && m8 > 0 {
        assert!(
            y_lo * S >= p
                && x_lo * S >= p
                && (y_hi - 1) * S + 3 <= is.h + p
                && (x_hi - 1) * S + 3 <= is.w + p
                && go.len() >= os.h * os.w
                && chan_in.len() >= is.h * is.w
                && gi_c.len() >= is.h * is.w,
            "interior range inconsistent with plane bounds"
        );
    }
    let fv: [V; 9] = std::array::from_fn(|t| V::splat(filt[t]));
    let mut vgw: [V; 9] = [V::splat(0.0); 9];
    let mut vgb = V::splat(0.0);
    let mut any_block = false;
    for oy in 0..os.h {
        let go_row = &go[oy * os.w..(oy + 1) * os.w];
        if oy < y_lo || oy >= y_hi || x_lo >= x_hi {
            dw_bwd_border(
                gi_c,
                gw_c,
                gb,
                go_row,
                chan_in,
                filt,
                oy,
                0..os.w,
                is,
                3,
                S,
                p,
            );
            continue;
        }
        dw_bwd_border(
            gi_c,
            gw_c,
            gb,
            go_row,
            chan_in,
            filt,
            oy,
            0..x_lo,
            is,
            3,
            S,
            p,
        );
        let iy0 = oy * S - p;
        // Fresh pointers per row: `dw_bwd_border` reborrows `gi_c`
        // mutably between rows, so pointers must not outlive a row.
        let (gop, cip, gip) = (go_row.as_ptr(), chan_in.as_ptr(), gi_c.as_mut_ptr());
        if S == 1 {
            any_block |= m8 > 0;
            // Stride 1 runs tap-major over the row: one pass per `(ky,
            // kx)` tap, each touching disjoint 8-wide `grad_in` segments
            // per step. The block-major order (all nine taps per block)
            // stalls here — consecutive taps re-load `grad_in` slots the
            // previous tap just stored, one float apart, defeating
            // store-to-load forwarding. `vgw`/`vgb` still accumulate in
            // block order, so grad_w and grad_b keep their exact bits;
            // grad_in sums in this fixed tap-major order on every
            // backend alike.
            for b in (0..m8).step_by(LANES) {
                // SAFETY: `x_lo + b + 8 <= x_lo + m8 <= x_hi <= os.w`,
                // the go_row length.
                let g = unsafe { V::load_ptr(gop.add(x_lo + b)) };
                vgb = vgb.add(g);
            }
            let x00 = x_lo - p;
            for ky in 0..3 {
                let base = (iy0 + ky) * is.w + x00;
                for kx in 0..3 {
                    let t = ky * 3 + kx;
                    let mut acc = vgw[t];
                    let fvt = fv[t];
                    for b in (0..m8).step_by(LANES) {
                        // SAFETY: the per-plane assert above proves every
                        // tap of every block (last read `base + kx + b +
                        // 7`) stays inside the `is.h * is.w` input plane,
                        // which `gi_c` mirrors; `x_lo + b + 8 <= os.w`
                        // covers the gradient row.
                        unsafe {
                            let g = V::load_ptr(gop.add(x_lo + b));
                            let xin = V::load_ptr(cip.add(base + kx + b));
                            acc = acc.add(g.mul(xin));
                            let dst = gip.add(base + kx + b);
                            V::load_ptr(dst).add(g.mul(fvt)).store_ptr(dst);
                        }
                    }
                    vgw[t] = acc;
                }
            }
        } else {
            for b in (0..m8).step_by(LANES) {
                any_block = true;
                let ox0 = x_lo + b;
                // SAFETY: `ox0 + 8 <= x_lo + m8 <= x_hi <= os.w`, the
                // go_row length.
                let g = unsafe { V::load_ptr(gop.add(ox0)) };
                vgb = vgb.add(g);
                let x0 = ox0 * S - p;
                for ky in 0..3 {
                    let base = (iy0 + ky) * is.w + x0;
                    for kx in 0..3 {
                        // SAFETY: the per-plane assert above proves every
                        // tap of every block (last stride-2 read `base +
                        // kx + 14`) stays inside the `is.h * is.w` input
                        // plane.
                        let xin = unsafe { V::load_stride2_ptr(cip.add(base + kx)) };
                        vgw[ky * 3 + kx] = vgw[ky * 3 + kx].add(g.mul(xin));
                    }
                }
                for ky in 0..3 {
                    let base = (iy0 + ky) * is.w + x0;
                    for kx in 0..3 {
                        let prod = g.mul(fv[ky * 3 + kx]);
                        // Stride-2 scatter: targets are non-contiguous, so
                        // add the (bitwise-identical) vector products one
                        // lane at a time in lane order.
                        for (j, pv) in prod.to_array().into_iter().enumerate() {
                            // SAFETY: lane `j` writes `base + kx + 2*j`,
                            // the stride-2 tap bound proved per plane.
                            unsafe { *gip.add(base + kx + 2 * j) += pv };
                        }
                    }
                }
            }
        }
        dw3_bwd_pixels(
            gi_c,
            gw_c,
            gb,
            go_row,
            chan_in,
            filt,
            iy0,
            x_lo + m8..x_hi,
            is,
            S,
            p,
        );
        dw_bwd_border(
            gi_c,
            gw_c,
            gb,
            go_row,
            chan_in,
            filt,
            oy,
            x_hi..os.w,
            is,
            3,
            S,
            p,
        );
    }
    if any_block {
        for (dst, acc) in gw_c.iter_mut().zip(vgw) {
            *dst += acc.reduce_add();
        }
        *gb += vgb.reduce_add();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dw3_plane_bwd_avx2<const S: usize>(
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    is: Shape,
    os: Shape,
    p: usize,
) {
    dw3_plane_bwd_v::<Avx2V, S>(gi_c, gw_c, gb, go, chan_in, filt, is, os, p)
}

/// Backward plane dispatch for `k = 3`, strides 1 and 2: **every**
/// backend runs the lane-ordered schedule ([`ScalarV`] replays it under
/// `Backend::Scalar`), so results are bit-identical across backends.
#[allow(clippy::too_many_arguments)]
fn dw3_bwd_dispatch(
    be: Backend,
    s: usize,
    gi_c: &mut [f32],
    gw_c: &mut [f32],
    gb: &mut f32,
    go: &[f32],
    chan_in: &[f32],
    filt: &[f32],
    is: Shape,
    os: Shape,
    p: usize,
) {
    macro_rules! go {
        ($S:literal) => {
            match be {
                Backend::Scalar => {
                    dw3_plane_bwd_v::<ScalarV, $S>(gi_c, gw_c, gb, go, chan_in, filt, is, os, p)
                }
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => {
                    dw3_plane_bwd_v::<Sse2V, $S>(gi_c, gw_c, gb, go, chan_in, filt, is, os, p)
                }
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the Avx2 backend is only ever active after runtime
                // detection succeeded (`simd::active`/`simd::force` enforce it).
                Backend::Avx2 => unsafe {
                    dw3_plane_bwd_avx2::<$S>(gi_c, gw_c, gb, go, chan_in, filt, is, os, p)
                },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("vector backends are never active off x86_64"),
            }
        };
    }
    match s {
        1 => go!(1),
        2 => go!(2),
        other => panic!("dw3_bwd_dispatch: unsupported stride {other} (expected 1 or 2)"),
    }
}

/// Backward pass of [`dwconv2d`].
///
/// For the SkyNet geometries (`k = 3`, stride 1 or 2) the interior runs
/// the **lane-ordered** schedule of `dw3_plane_bwd_v`: bit-identical
/// across SIMD backends and thread counts, but a different f32 addition
/// order from [`reference::dwconv2d_backward_ref`] (compare with a
/// tolerance, like the forward's balanced tree). All other geometries
/// keep the original scalar schedule, which *is* bitwise to the
/// reference.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_out`'s shape disagrees with the
/// forward geometry.
pub fn dwconv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geo: ConvGeometry,
) -> Result<DwConvGrads> {
    let is = input.shape();
    check(is, weight.shape(), None, geo)?;
    let os = geo.out_shape(is, is.c);
    if grad_out.shape() != os {
        return Err(TensorError::ShapeMismatch {
            op: "dwconv2d_backward",
            expected: os.to_string(),
            got: grad_out.shape().to_string(),
        });
    }
    let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
    let kk = k * k;
    let mut gi = Tensor::zeros(is);
    let mut gw = Tensor::zeros(weight.shape());
    let mut gb = vec![0.0f32; is.c];
    let be = simd::active();
    let lane_path = k == 3 && (s == 1 || s == 2);
    let _span = telemetry::span("tensor.dwconv_bwd");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.dwconv.bwd_calls").inc();
        telemetry::counter("tensor.dwconv.bwd_flops").add(4 * (os.numel() * kk) as u64);
        simd::record_lanes("dwconv_bwd", lane_pixels(is, os, k, s, p));
    }
    // One task per (item, channel) plane: the input-gradient plane is
    // written in place and the filter/bias contribution goes to a private
    // `[grad_w | grad_b]` stripe, folded afterwards in ascending item
    // order per channel — the same order the serial loop accumulated in.
    let stripe = kk + 1;
    let mut partials = scratch::checkout_zeroed("tensor.dwconv_bwd", is.n * is.c * stripe);
    par_chunks_mut2(
        gi.as_mut_slice(),
        is.plane(),
        &mut partials,
        stripe,
        |plane, gi_c, partial| {
            let c = plane % is.c;
            let filt = &weight.as_slice()[c * kk..(c + 1) * kk];
            let chan_in = &input.as_slice()[plane * is.plane()..(plane + 1) * is.plane()];
            let go = &grad_out.as_slice()[plane * os.plane()..(plane + 1) * os.plane()];
            let (gw_c, gb_c) = partial.split_at_mut(kk);
            let gb = &mut gb_c[0];
            if lane_path {
                dw3_bwd_dispatch(be, s, gi_c, gw_c, gb, go, chan_in, filt, is, os, p);
            } else {
                dw_plane_bwd(gi_c, gw_c, gb, go, chan_in, filt, is, os, k, s, p);
            }
        },
    );
    for n in 0..is.n {
        for c in 0..is.c {
            let partial = &partials[(n * is.c + c) * stripe..(n * is.c + c + 1) * stripe];
            for (g, &pv) in gw.as_mut_slice()[c * kk..(c + 1) * kk]
                .iter_mut()
                .zip(partial)
            {
                *g += pv;
            }
            gb[c] += partial[kk];
        }
    }
    Ok(DwConvGrads {
        input: gi,
        weight: gw,
        bias: gb,
    })
}

pub mod reference {
    //! Specification kernels: the original fully bounds-checked loops,
    //! kept verbatim (minus telemetry) as the ground truth. The
    //! specialized **forward** kernels must match them **bit for bit**;
    //! the lane-ordered **backward** schedule (`k = 3`, strides 1–2)
    //! reorders its reduction sums and is compared with a tolerance
    //! instead (it is bitwise against *itself* across SIMD backends and
    //! thread counts — see the module docs). Used by the
    //! `kernel_equivalence` proptests and the `kernel_bench` baseline;
    //! they share the production parallel decomposition so pooled runs
    //! compare like for like.

    use super::{check, DwConvGrads};
    use crate::conv::ConvGeometry;
    use crate::parallel::{par_chunks_mut, par_chunks_mut2};
    use crate::{Result, Tensor, TensorError};

    /// Generic depth-wise convolution (per-pixel bounds checks).
    ///
    /// # Errors
    ///
    /// Same contract as [`super::dwconv2d`].
    pub fn dwconv2d_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&[f32]>,
        geo: ConvGeometry,
    ) -> Result<Tensor> {
        let is = input.shape();
        check(is, weight.shape(), bias, geo)?;
        let os = geo.out_shape(is, is.c);
        let mut out = Tensor::zeros(os);
        let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
        let kk = k * k;
        par_chunks_mut(out.as_mut_slice(), os.plane(), |plane, chan_out| {
            let c = plane % is.c;
            let filt = &weight.as_slice()[c * kk..(c + 1) * kk];
            let bv = bias.map(|b| b[c]).unwrap_or(0.0);
            let chan_in = &input.as_slice()[plane * is.plane()..(plane + 1) * is.plane()];
            for oy in 0..os.h {
                let iy0 = (oy * s) as isize - p as isize;
                for ox in 0..os.w {
                    let ix0 = (ox * s) as isize - p as isize;
                    let mut acc = bv;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= is.h as isize {
                            continue;
                        }
                        let row = iy as usize * is.w;
                        let frow = ky * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < is.w as isize {
                                acc += chan_in[row + ix as usize] * filt[frow + kx];
                            }
                        }
                    }
                    chan_out[oy * os.w + ox] = acc;
                }
            }
        });
        Ok(out)
    }

    /// Generic backward pass (per-pixel bounds checks).
    ///
    /// # Errors
    ///
    /// Same contract as [`super::dwconv2d_backward`].
    pub fn dwconv2d_backward_ref(
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        geo: ConvGeometry,
    ) -> Result<DwConvGrads> {
        let is = input.shape();
        check(is, weight.shape(), None, geo)?;
        let os = geo.out_shape(is, is.c);
        if grad_out.shape() != os {
            return Err(TensorError::ShapeMismatch {
                op: "dwconv2d_backward",
                expected: os.to_string(),
                got: grad_out.shape().to_string(),
            });
        }
        let (k, s, p) = (geo.kernel, geo.stride, geo.pad);
        let kk = k * k;
        let mut gi = Tensor::zeros(is);
        let mut gw = Tensor::zeros(weight.shape());
        let mut gb = vec![0.0f32; is.c];
        let stripe = kk + 1;
        let mut partials = vec![0.0f32; is.n * is.c * stripe];
        par_chunks_mut2(
            gi.as_mut_slice(),
            is.plane(),
            &mut partials,
            stripe,
            |plane, gi_c, partial| {
                let c = plane % is.c;
                let filt = &weight.as_slice()[c * kk..(c + 1) * kk];
                let chan_in = &input.as_slice()[plane * is.plane()..(plane + 1) * is.plane()];
                let go = &grad_out.as_slice()[plane * os.plane()..(plane + 1) * os.plane()];
                let (gw_c, gb_c) = partial.split_at_mut(kk);
                for oy in 0..os.h {
                    let iy0 = (oy * s) as isize - p as isize;
                    for ox in 0..os.w {
                        let ix0 = (ox * s) as isize - p as isize;
                        let g = go[oy * os.w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb_c[0] += g;
                        for ky in 0..k {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= is.h as isize {
                                continue;
                            }
                            let row = iy as usize * is.w;
                            let frow = ky * k;
                            for kx in 0..k {
                                let ix = ix0 + kx as isize;
                                if ix >= 0 && ix < is.w as isize {
                                    let ii = row + ix as usize;
                                    gw_c[frow + kx] += g * chan_in[ii];
                                    gi_c[ii] += g * filt[frow + kx];
                                }
                            }
                        }
                    }
                }
            },
        );
        for n in 0..is.n {
            for c in 0..is.c {
                let partial = &partials[(n * is.c + c) * stripe..(n * is.c + c + 1) * stripe];
                for (g, &pv) in gw.as_mut_slice()[c * kk..(c + 1) * kk]
                    .iter_mut()
                    .zip(partial)
                {
                    *g += pv;
                }
                gb[c] += partial[kk];
            }
        }
        Ok(DwConvGrads {
            input: gi,
            weight: gw,
            bias: gb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d, conv2d_backward};

    fn filled(shape: Shape, f: impl Fn(usize) -> f32) -> Tensor {
        Tensor::from_vec(shape, (0..shape.numel()).map(f).collect()).unwrap()
    }

    /// A depth-wise conv equals a dense conv whose weight is block-diagonal
    /// across channels. We use that identity as the reference.
    fn as_dense_weight(dw: &Tensor, c: usize, k: usize) -> Tensor {
        let mut dense = Tensor::zeros(Shape::new(c, c, k, k));
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    *dense.at_mut(ch, ch, ky, kx) = dw.at(ch, 0, ky, kx);
                }
            }
        }
        dense
    }

    #[test]
    fn interior_range_cases() {
        // 3x3 stride 1 pad 1 over width 8: out 8, interior 1..7.
        assert_eq!(interior_range(8, 8, 3, 1, 1), (1, 7));
        // No padding: every position is interior.
        assert_eq!(interior_range(6, 8, 3, 1, 0), (0, 6));
        // Stride 2 pad 1 over width 7: out 4; ox=0 touches ix -1, ox=3
        // touches ix 7 (out of range): interior 1..3.
        assert_eq!(interior_range(4, 7, 3, 2, 1), (1, 3));
        // Kernel wider than input: empty interior.
        let (lo, hi) = interior_range(1, 2, 3, 1, 1);
        assert!(lo >= hi, "interior must be empty, got {lo}..{hi}");
        assert_eq!(interior_range(2, 1, 3, 1, 1), (0, 0));
        // 1x1 kernel, no pad: all interior.
        assert_eq!(interior_range(5, 5, 1, 1, 0), (0, 5));
    }

    #[test]
    fn forward_matches_dense_blockdiag() {
        let geo = ConvGeometry::same3x3();
        let c = 4;
        let x = filled(Shape::new(2, c, 5, 6), |i| ((i % 10) as f32 - 4.5) * 0.1);
        let w = filled(Shape::new(c, 1, 3, 3), |i| ((i % 7) as f32 - 3.0) * 0.2);
        let b: Vec<f32> = (0..c).map(|i| i as f32 * 0.1).collect();
        let got = dwconv2d(&x, &w, Some(&b), geo).unwrap();
        let dense = as_dense_weight(&w, c, 3);
        let want = conv2d(&x, &dense, Some(&b), geo).unwrap();
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn strided_forward_matches_dense() {
        let geo = ConvGeometry::new(3, 2, 1);
        let c = 3;
        let x = filled(Shape::new(1, c, 7, 8), |i| (i as f32 * 0.37).sin());
        let w = filled(Shape::new(c, 1, 3, 3), |i| (i as f32 * 0.11).cos());
        let got = dwconv2d(&x, &w, None, geo).unwrap();
        let dense = as_dense_weight(&w, c, 3);
        let want = conv2d(&x, &dense, None, geo).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (a, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (&av, &bv)) in a.iter().zip(b).enumerate() {
            assert!(
                (av - bv).abs() <= 1e-3 * bv.abs().max(1.0),
                "{what}[{i}]: {av} vs {bv}"
            );
        }
    }

    #[test]
    fn specialized_forward_and_backward_close_to_reference() {
        // The proptest suite covers random geometries; this pins the two
        // SkyNet geometries (3x3 s1 p1, 3x3 s2 p1) plus a pad-heavy one.
        // Both directions run the lane-ordered schedule on these
        // geometries (the forward uses the balanced accumulation tree,
        // the backward reorders its reduction sums), so both get a
        // tolerance against the chain-ordered reference.
        for (s, p, h, w) in [(1, 1, 9, 12), (2, 1, 9, 12), (1, 2, 5, 5)] {
            let geo = ConvGeometry::new(3, s, p);
            let c = 3;
            let x = filled(Shape::new(2, c, h, w), |i| ((i % 17) as f32 - 8.0) * 0.13);
            let wt = filled(Shape::new(c, 1, 3, 3), |i| ((i % 5) as f32 - 2.0) * 0.4);
            let b: Vec<f32> = (0..c).map(|i| i as f32 * 0.3 - 0.2).collect();
            let got = dwconv2d(&x, &wt, Some(&b), geo).unwrap();
            let want = reference::dwconv2d_ref(&x, &wt, Some(&b), geo).unwrap();
            assert_close(got.as_slice(), want.as_slice(), "fwd");
            let go = filled(got.shape(), |i| ((i % 7) as f32 - 3.0) * 0.21);
            let ga = dwconv2d_backward(&x, &wt, &go, geo).unwrap();
            let gr = reference::dwconv2d_backward_ref(&x, &wt, &go, geo).unwrap();
            assert_close(ga.input.as_slice(), gr.input.as_slice(), "grad_in");
            assert_close(ga.weight.as_slice(), gr.weight.as_slice(), "grad_w");
            assert_close(&ga.bias, &gr.bias, "grad_b");
        }
    }

    #[test]
    fn backward_matches_dense_blockdiag() {
        let geo = ConvGeometry::same3x3();
        let c = 3;
        let x = filled(Shape::new(1, c, 4, 5), |i| ((i % 8) as f32 - 3.5) * 0.15);
        let w = filled(Shape::new(c, 1, 3, 3), |i| ((i % 5) as f32 - 2.0) * 0.1);
        let out = dwconv2d(&x, &w, None, geo).unwrap();
        let go = filled(out.shape(), |i| ((i % 4) as f32 - 1.5) * 0.2);

        let got = dwconv2d_backward(&x, &w, &go, geo).unwrap();
        let dense = as_dense_weight(&w, c, 3);
        let want = conv2d_backward(&x, &dense, &go, geo).unwrap();

        for (a, e) in got.input.as_slice().iter().zip(want.input.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
        // Dense weight grad on the diagonal blocks must equal the dw grad.
        for ch in 0..c {
            for ky in 0..3 {
                for kx in 0..3 {
                    let a = got.weight.at(ch, 0, ky, kx);
                    let e = want.weight.at(ch, ch, ky, kx);
                    assert!((a - e).abs() < 1e-4);
                }
            }
        }
        for (a, e) in got.bias.iter().zip(&want.bias) {
            assert!((a - e).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_bad_weight() {
        let x = Tensor::zeros(Shape::new(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::new(4, 1, 3, 3));
        assert!(dwconv2d(&x, &w, None, ConvGeometry::same3x3()).is_err());
    }
}
