//! Quantized integer kernels: `i8`×`i8`→`i32` with a **32-lane
//! integer determinism contract**.
//!
//! This is the executable INT8 counterpart of the f32 kernel family
//! ([`dwconv`](crate::dwconv), [`matmul`](crate::matmul)). The hot
//! kernels are written once as generic functions over the [`QI8x32`]
//! trait — the integer sibling of [`F32x8`] — and
//! instantiated for the same three backends under the same
//! `SKYNET_SIMD` runtime dispatch ([`simd::active`]):
//!
//! * [`ScalarQ`] — plain Rust replaying the 32-lane structure;
//! * [`Sse2Q`] — `__m128i` lanes (sign-extend via unpack, exact
//!   `mullo_epi16` products, `add_epi32` accumulate);
//! * [`Avx2Q`] — `__m256i` lanes (`cvtepi8_epi16` / `cvtepi16_epi32`).
//!
//! A fourth tier, [`Backend::Avx2Pair`], does not go through the
//! [`QI8x32`] axpy at all: it restructures the reduction so adjacent
//! `i8×i8` products are summed **in pairs** by `vpmaddwd`
//! (`_mm256_madd_epi16`) — one instruction per pair instead of the
//! widen-multiply-widen-add chain — roughly doubling integer multiply
//! throughput. See *Why pairing keeps bit-identity* below.
//!
//! ## Why pairing keeps bit-identity
//!
//! `vpmaddwd` multiplies eight pairs of `i16`s and adds each pair into
//! an `i32`. Our operands are sign-extended `i8`s, so |x| ≤ 128, every
//! product is ≤ 16384, and a pair sum is ≤ 32768 — produced directly
//! in `i32`, these sums are **exact** for all `i8` inputs including
//! `i8::MIN` (the instruction's only saturating case is
//! `(−32768)² + (−32768)²`, unreachable from 8-bit operands). In the
//! quantized activation domain the bound is tighter still:
//! [`quantize_i8`] never emits −128, so products are ≤ 16129 and pair
//! sums ≤ 32258 — exact even as `i16`s. Either way the pair sums are
//! exact integers, and two's-complement wrapping `i32` addition is
//! associative and commutative, so regrouping the same multiset of
//! products into pairs cannot change a single accumulator bit — the
//! pairing tier is bit-identical to [`ScalarQ`] by construction, and
//! the `qint_equivalence` suite (which plants `±127` and `i8::MIN`
//! extremes) asserts it bitwise.
//!
//! ## Why the integer contract is *stronger* than the f32 one
//!
//! The f32 kernels are bit-identical across backends because every
//! backend performs the same IEEE-754 operations in the same order —
//! a carefully engineered property (no FMA, fixed reduction trees).
//! The integer kernels get bit-identity **structurally**: an `i8`×`i8`
//! product always fits exactly in `i16` (|−128·−128| = 16384 < 2¹⁵),
//! its sign-extension to `i32` is exact, and two's-complement wrapping
//! `i32` addition is associative *and* commutative. Any grouping of
//! the same multiset of products — 32-wide blocks, scalar tails,
//! different thread splits — produces the same accumulator bits. The
//! `qint_equivalence` proptest suite still asserts it bitwise, wrap
//! boundaries included.
//!
//! ## The f32 epilogues
//!
//! Quantization (`f32` → `i8`, [`quantize_i8`]) and requantization
//! (`i32` accumulator → `i8` activation, [`requant_i8`]) are f32 math:
//! one multiply, one add, an optional activation clamp, one divide, one
//! round-half-away-from-zero and one `±127` clamp per element. They are
//! written once over the 8-lane [`F32x8`] trait and run 8 elements at a
//! time on every backend (`avx2pair` uses the AVX2 body), with the
//! remainder through the scalar oracles [`quantize_i8_scalar`] /
//! [`requant_i8_scalar`]. They stay bit-identical to those oracles
//! because each lane performs the same IEEE-754 operations: `cvtdq2ps`
//! rounds to nearest-even like `as f32`; mul, add and divide are
//! correctly rounded (and never fused); `maxps`/`minps` reproduce the
//! oracle's `if v > lo` selects; [`F32x8::round`] is an exact emulation
//! of [`f32::round`]; and the `±127` clamp, the NaN → 0 mapping and the
//! saturation count all act on the rounded value. The
//! `qint_equivalence` suite asserts it bitwise on ties, ±0, ±∞, NaN
//! and the `i32` extremes.
//!
//! ## Lane width
//!
//! [`QLANES`] is 32: one AVX2 register holds 32 `i8`s, four times the
//! 8-lane f32 ceiling — the bigger win the ROADMAP's quantization item
//! promises. SSE2 processes the same 32-element block as two 16-byte
//! halves and the scalar backend replays it as a 32-iteration loop;
//! the block structure (not the register width) defines the contract.
//!
//! ## Telemetry
//!
//! When metrics are on, `quant.<op>.lanes_used` counters tally the
//! elements processed through full 32-lane blocks, and the saturation
//! helpers return clamp counts their callers publish as
//! `quant.<op>.saturated` (see OBSERVABILITY.md). Spans:
//! `tensor.qmatmul`, `tensor.qdwconv3`, `tensor.qquantize`,
//! `tensor.qpool_fwd` and `tensor.qreorg`.

use crate::parallel::par_chunks_mut;
use crate::simd::{self, vector_cover, Backend, F32x8, ScalarV, LANES};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2V, Sse2V};
use crate::{scratch, telemetry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lane count of the integer kernel family: one AVX2 register of
/// `i8`s. Fixed on every backend so the block structure — and the
/// vector-vs-tail split — never depends on the ISA.
pub const QLANES: usize = 32;

/// Quantized activations saturate to this magnitude: the symmetric
/// `i8` range `[-127, 127]`. `-128` is excluded so that negation is
/// always representable and the range is symmetric around zero
/// (zero-point is identically 0 in this scheme).
pub const QMAX: i32 = 127;

/// Rows per parallel stripe of [`matmul_i8_acc`]. 32 rows of `i32`
/// accumulators keep a stripe's working set near the f32 kernel's
/// (which uses 64 f32 rows).
const QBLOCK: usize = 32;

/// Number of elements of a `len`-element loop that the 32-lane kernels
/// process as full blocks (the remainder runs scalar).
#[inline]
pub fn qvector_cover(len: usize) -> usize {
    len / QLANES * QLANES
}

/// Tallies `quant.<op>.lanes_used` when metrics are enabled.
#[inline]
pub fn record_qlanes(op: &'static str, lanes: usize) {
    if lanes > 0 && telemetry::metrics_enabled() {
        telemetry::counter(&format!("quant.{op}.lanes_used")).add(lanes as u64);
    }
}

// ---------------------------------------------------------------------------
// The integer lane abstraction
// ---------------------------------------------------------------------------

/// A broadcast `i8` weight that can axpy one 32-element block:
/// `acc[j] = acc[j] ⊞ w · x[j]` for `j in 0..32`, where `⊞` is
/// two's-complement wrapping `i32` addition and `w · x[j]` is the exact
/// integer product (always representable: |w·x| ≤ 16384).
///
/// Implementations must be **exact**: no saturating arithmetic inside
/// the accumulation (saturation happens only at requantization), so
/// every backend produces identical accumulator bits by the
/// associativity of wrapping addition.
pub trait QI8x32: Copy {
    /// Broadcasts a weight into the backend's lane type.
    fn splat(w: i8) -> Self;
    /// `acc[j] = acc[j].wrapping_add(w * x[j])` for `j in 0..QLANES`.
    ///
    /// # Safety
    ///
    /// `acc` must be valid for reads and writes of `QLANES` consecutive
    /// `i32`s and `x` for reads of `QLANES` consecutive `i8`s.
    unsafe fn axpy(self, acc: *mut i32, x: *const i8);
}

/// The scalar backend: a 32-iteration loop replaying the lane
/// structure literally. This is the oracle the `qint_equivalence`
/// suite compares the ISA backends against (they must agree bitwise —
/// and do, structurally; see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ScalarQ(i32);

impl QI8x32 for ScalarQ {
    #[inline(always)]
    fn splat(w: i8) -> Self {
        ScalarQ(i32::from(w))
    }

    #[inline(always)]
    unsafe fn axpy(self, acc: *mut i32, x: *const i8) {
        for j in 0..QLANES {
            // SAFETY: caller guarantees QLANES readable/writable elements.
            unsafe {
                let p = acc.add(j);
                *p = (*p).wrapping_add(self.0 * i32::from(*x.add(j)));
            }
        }
    }
}

/// SSE2 backend: 16-byte halves, sign-extended to `i16` by interleaving
/// with a compare-derived sign mask, multiplied exactly with
/// `mullo_epi16`, widened to `i32` the same way, and accumulated with
/// `add_epi32` (inherently wrapping). SSE2 is the x86_64 baseline.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Sse2Q(std::arch::x86_64::__m128i);

#[cfg(target_arch = "x86_64")]
impl QI8x32 for Sse2Q {
    #[inline(always)]
    fn splat(w: i8) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2Q(_mm_set1_epi16(i16::from(w))) }
    }

    #[inline(always)]
    unsafe fn axpy(self, acc: *mut i32, x: *const i8) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable x bytes and QLANES
        // readable/writable acc elements; all loads/stores unaligned.
        unsafe {
            let zero = _mm_setzero_si128();
            for half in 0..2 {
                let xb = _mm_loadu_si128(x.add(16 * half) as *const __m128i);
                // Sign-extend i8 → i16: interleave with the sign mask.
                let xneg = _mm_cmpgt_epi8(zero, xb);
                let xlo = _mm_unpacklo_epi8(xb, xneg); // elements 0..8 as i16
                let xhi = _mm_unpackhi_epi8(xb, xneg); // elements 8..16
                for (q, prod) in [
                    (0usize, _mm_mullo_epi16(xlo, self.0)),
                    (1usize, _mm_mullo_epi16(xhi, self.0)),
                ] {
                    // Exact: |i8·i8| ≤ 16384 fits i16, so mullo never
                    // truncates. Widen to i32 by the same interleave.
                    let pneg = _mm_cmpgt_epi16(zero, prod);
                    let p0 = _mm_unpacklo_epi16(prod, pneg); // 4 i32
                    let p1 = _mm_unpackhi_epi16(prod, pneg); // 4 i32
                    let base = acc.add(16 * half + 8 * q) as *mut __m128i;
                    _mm_storeu_si128(base, _mm_add_epi32(_mm_loadu_si128(base), p0));
                    let base1 = base.add(1);
                    _mm_storeu_si128(base1, _mm_add_epi32(_mm_loadu_si128(base1), p1));
                }
            }
        }
    }
}

/// AVX2 backend: `cvtepi8_epi16` → exact `mullo_epi16` →
/// `cvtepi16_epi32` → `add_epi32`, 32 elements per call. Only
/// instantiated behind `#[target_feature(enable = "avx2")]` wrappers
/// after runtime detection, exactly like
/// [`Avx2V`].
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2Q(std::arch::x86_64::__m256i);

#[cfg(target_arch = "x86_64")]
impl QI8x32 for Avx2Q {
    #[inline(always)]
    fn splat(w: i8) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2Q(_mm256_set1_epi16(i16::from(w))) }
    }

    #[inline(always)]
    unsafe fn axpy(self, acc: *mut i32, x: *const i8) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable x bytes and QLANES
        // readable/writable acc elements; all loads/stores unaligned.
        unsafe {
            for half in 0..2 {
                let xb = _mm_loadu_si128(x.add(16 * half) as *const __m128i);
                let x16 = _mm256_cvtepi8_epi16(xb); // 16 i16, order kept
                let prod = _mm256_mullo_epi16(x16, self.0); // exact (see Sse2Q)
                let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
                let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(prod));
                let base = acc.add(16 * half) as *mut __m256i;
                _mm256_storeu_si256(base, _mm256_add_epi32(_mm256_loadu_si256(base), lo));
                let base1 = base.add(1);
                _mm256_storeu_si256(base1, _mm256_add_epi32(_mm256_loadu_si256(base1), hi));
            }
        }
    }
}

/// 32-lane axpy over a row: full blocks through the backend, wrapping
/// scalar tail. Exact on every backend, so the split point never
/// affects results.
#[inline(always)]
fn axpy_row_q<Q: QI8x32>(c: &mut [i32], w: i8, x: &[i8]) {
    let n = c.len().min(x.len());
    let nq = qvector_cover(n);
    let wv = Q::splat(w);
    for j in (0..nq).step_by(QLANES) {
        // SAFETY: j + QLANES <= nq <= n bounds both slices.
        unsafe { wv.axpy(c.as_mut_ptr().add(j), x.as_ptr().add(j)) }
    }
    let wi = i32::from(w);
    for (cv, &xv) in c[nq..n].iter_mut().zip(&x[nq..n]) {
        *cv = cv.wrapping_add(wi * i32::from(xv));
    }
}

// ---------------------------------------------------------------------------
// Integer matmul (point-wise convolutions)
// ---------------------------------------------------------------------------

/// Serial row-stripe body of [`matmul_i8_acc`], generic over the
/// backend.
#[inline(always)]
fn matmul_i8_rows_g<Q: QI8x32>(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        let crow = &mut c[i * n..i * n + n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0 {
                continue; // exact for integers: the skipped axpy adds 0
            }
            axpy_row_q::<Q>(crow, av, &b[p * n..p * n + n]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_rows_avx2(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    matmul_i8_rows_g::<Avx2Q>(a, b, c, m, k, n)
}

/// Packs two `i8` weights into the `[w0, w1]` `i16` pair `vpmaddwd`
/// expects, replicated across a register by `_mm256_set1_epi32`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_weights(w0: i8, w1: i8) -> i32 {
    (((w1 as i16 as u16 as u32) << 16) | (w0 as i16 as u16 as u32)) as i32
}

/// The pairing-tier matmul body: 16-column register blocks whose
/// accumulators stay in `vpmaddwd`'s interleaved pair layout across the
/// whole `k` loop (no accumulator memory traffic per `k`), reducing two
/// `i8×i8` products per instruction.
///
/// Layout: `_mm256_unpacklo_epi16(x0, x1)` interleaves in-lane, so the
/// `madd` of the lo/hi unpacks yields columns `[0..4, 8..12]` and
/// `[4..8, 12..16]`. The same two `_mm256_permute2x128_si256` shuffles
/// (selectors `0x20`/`0x31`) convert between that layout and the
/// natural `[0..8]`/`[8..16]` order in both directions, so existing
/// accumulator values are permuted in once and the finished block is
/// permuted back out once.
///
/// Exactness: pair sums from sign-extended `i8`s are exact in `i32`
/// (see the module docs), and wrapping addition is associative, so
/// this produces the same bits as [`matmul_i8_rows_g`] for every
/// input, wrap-arounds included. A pair whose two weights are both
/// zero is skipped — exact, since it contributes nothing; an odd final
/// weight is processed as the pair `[w, 0]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_rows_avx2pair(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    let nb = n / 16 * 16;
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        let crow = &mut c[i * n..i * n + n];
        for j in (0..nb).step_by(16) {
            // SAFETY: j + 16 <= nb <= n bounds every 16-wide access in
            // this block; p + 1 < k bounds the paired rows of `b`.
            unsafe {
                let cp = crow.as_mut_ptr().add(j);
                let acc0 = _mm256_loadu_si256(cp as *const __m256i);
                let acc1 = _mm256_loadu_si256((cp as *const __m256i).add(1));
                let mut m0 = _mm256_permute2x128_si256::<0x20>(acc0, acc1);
                let mut m1 = _mm256_permute2x128_si256::<0x31>(acc0, acc1);
                let mut p = 0usize;
                while p + 1 < k {
                    let (w0, w1) = (arow[p], arow[p + 1]);
                    if w0 != 0 || w1 != 0 {
                        let wp = _mm256_set1_epi32(pair_weights(w0, w1));
                        let x0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            b.as_ptr().add(p * n + j) as *const __m128i
                        ));
                        let x1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            b.as_ptr().add((p + 1) * n + j) as *const __m128i,
                        ));
                        m0 = _mm256_add_epi32(
                            m0,
                            _mm256_madd_epi16(_mm256_unpacklo_epi16(x0, x1), wp),
                        );
                        m1 = _mm256_add_epi32(
                            m1,
                            _mm256_madd_epi16(_mm256_unpackhi_epi16(x0, x1), wp),
                        );
                    }
                    p += 2;
                }
                if p < k {
                    let w0 = arow[p];
                    if w0 != 0 {
                        let wp = _mm256_set1_epi32(pair_weights(w0, 0));
                        let x0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                            b.as_ptr().add(p * n + j) as *const __m128i
                        ));
                        m0 = _mm256_add_epi32(
                            m0,
                            _mm256_madd_epi16(_mm256_unpacklo_epi16(x0, x0), wp),
                        );
                        m1 = _mm256_add_epi32(
                            m1,
                            _mm256_madd_epi16(_mm256_unpackhi_epi16(x0, x0), wp),
                        );
                    }
                }
                _mm256_storeu_si256(
                    cp as *mut __m256i,
                    _mm256_permute2x128_si256::<0x20>(m0, m1),
                );
                _mm256_storeu_si256(
                    (cp as *mut __m256i).add(1),
                    _mm256_permute2x128_si256::<0x31>(m0, m1),
                );
            }
        }
        // Column tail: plain wrapping scalar (any order is bit-identical).
        for j in nb..n {
            let mut acc = crow[j];
            for (p, &w) in arow.iter().enumerate() {
                acc = acc.wrapping_add(i32::from(w) * i32::from(b[p * n + j]));
            }
            crow[j] = acc;
        }
    }
}

pub(crate) fn matmul_i8_rows(
    be: Backend,
    a: &[i8],
    b: &[i8],
    c: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) {
    match be {
        Backend::Scalar => matmul_i8_rows_g::<ScalarQ>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => matmul_i8_rows_g::<Sse2Q>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backends are only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { matmul_i8_rows_avx2(a, b, c, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — `Avx2Pair` requires the same `avx2` detection.
        Backend::Avx2Pair => unsafe { matmul_i8_rows_avx2pair(a, b, c, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

/// Computes `c ⊞= a * b` where `a` is `m×k` `i8`, `b` is `k×n` `i8` and
/// `c` is `m×n` `i32`, all dense row-major; `⊞` is wrapping addition.
///
/// Output rows are distributed over the [`parallel`](crate::parallel)
/// pool in fixed 32-row stripes; wrapping integer addition is
/// associative, so the stripe split, thread count, and SIMD backend
/// can never change a single output bit.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_i8_acc(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "rhs too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "out too short: {} < {}", c.len(), m * n);
    if m * n == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span("tensor.qmatmul");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.matmul.calls").inc();
        // Nominal: the `a == 0` skip is not deducted.
        record_qlanes("matmul", m * k * qvector_cover(n));
    }
    par_chunks_mut(&mut c[..m * n], QBLOCK * n, |stripe, c_rows| {
        let i0 = stripe * QBLOCK;
        matmul_i8_rows(be, &a[i0 * k..], b, c_rows, c_rows.len() / n, k, n);
    });
}

/// Computes `c = a * b` (overwriting `c`) with the same conventions as
/// [`matmul_i8_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_i8(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    c[..m * n].fill(0);
    matmul_i8_acc(a, b, c, m, k, n);
}

// ---------------------------------------------------------------------------
// Integer 3×3 depth-wise convolution (stride 1, padding 1)
// ---------------------------------------------------------------------------

/// One guarded output cell of the 3×3 stencil: taps outside the plane
/// contribute nothing (zero padding). Shared verbatim by every backend
/// for border columns and narrow planes.
#[inline(always)]
fn dw_cell_scalar(x: &[i8], w9: &[i8], h: usize, wd: usize, y: usize, xc: usize) -> i32 {
    let mut acc = 0i32;
    for ky in 0..3 {
        let iy = y + ky;
        if iy < 1 || iy > h {
            continue;
        }
        let row = (iy - 1) * wd;
        for kx in 0..3 {
            let ix = xc + kx;
            if ix < 1 || ix > wd {
                continue;
            }
            acc = acc.wrapping_add(i32::from(w9[ky * 3 + kx]) * i32::from(x[row + ix - 1]));
        }
    }
    acc
}

/// Output rows `y0..y1` of one `(item, channel)` plane of
/// [`dwconv3_i8`], generic over the backend: 32-wide blocks across the
/// interior columns (all nine taps in-bounds horizontally, rows
/// guarded), guarded scalar cells for the borders and the interior
/// remainder. `o` covers exactly the destination rows (`(y1-y0)·wd`
/// elements) and is **overwritten** — stale contents are zeroed before
/// the interior accumulation, so callers may hand in dirty scratch.
///
/// Rows are computed independently (the stencil reads only `x`), so any
/// row banding produces the same bits as a full-plane pass — the fused
/// INT8 bundle leans on this.
#[inline(always)]
fn dw_plane_rows_g<Q: QI8x32>(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    let wi = wd.saturating_sub(2); // interior columns 1..=wd-2
    let nq = qvector_cover(wi);
    for y in y0..y1 {
        let orow = &mut o[(y - y0) * wd..(y - y0 + 1) * wd];
        orow[1..1 + nq].fill(0);
        for bx in 0..nq / QLANES {
            let xs = 1 + bx * QLANES;
            for ky in 0..3 {
                let iy = y + ky;
                if iy < 1 || iy > h {
                    continue;
                }
                let row = (iy - 1) * wd;
                for kx in 0..3 {
                    // In-bounds: xs-1 >= 0 and xs+1 + (QLANES-1) <= wd-1.
                    let src = row + xs + kx - 1;
                    // SAFETY: src + QLANES <= row + wd <= x.len(), and the
                    // orow block is QLANES long starting at xs <= wd-QLANES-1.
                    unsafe {
                        Q::splat(w9[ky * 3 + kx])
                            .axpy(orow.as_mut_ptr().add(xs), x.as_ptr().add(src));
                    }
                }
            }
        }
        orow[0] = dw_cell_scalar(x, w9, h, wd, y, 0);
        for (xc, cell) in orow.iter_mut().enumerate().skip(1 + nq) {
            *cell = dw_cell_scalar(x, w9, h, wd, y, xc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_plane_rows_avx2(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    dw_plane_rows_g::<Avx2Q>(x, w9, o, h, wd, y0, y1)
}

/// One 16-column pairing block of the DW stencil at column `xs`:
/// reduces the row's in-bounds tap list two taps per `vpmaddwd` into
/// zeroed register accumulators and stores once (overwrite semantics),
/// in the same permuted layout as [`matmul_i8_rows_avx2pair`]. The
/// taps of a pair may come from different input rows, each carrying
/// its own base offset.
///
/// # Safety
///
/// Requires AVX2, `1 <= xs` and `xs + 15 <= wd - 2` (so every 16-byte
/// tap load and the 16-wide store stay inside their rows), and `orow`
/// spanning a full `wd`-column output row of the plane `x`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dw_block16_avx2pair(
    x: &[i8],
    taps: &[(i8, usize); 9],
    nt: usize,
    orow: *mut i32,
    xs: usize,
) {
    use std::arch::x86_64::*;
    let mut m0 = _mm256_setzero_si256();
    let mut m1 = _mm256_setzero_si256();
    let mut t = 0usize;
    while t + 1 < nt {
        let ((wa, ba), (wb, bb)) = (taps[t], taps[t + 1]);
        if wa != 0 || wb != 0 {
            let wp = _mm256_set1_epi32(pair_weights(wa, wb));
            let xa = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(ba + xs - 1) as *const __m128i
            ));
            let xb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(bb + xs - 1) as *const __m128i
            ));
            m0 = _mm256_add_epi32(m0, _mm256_madd_epi16(_mm256_unpacklo_epi16(xa, xb), wp));
            m1 = _mm256_add_epi32(m1, _mm256_madd_epi16(_mm256_unpackhi_epi16(xa, xb), wp));
        }
        t += 2;
    }
    if t < nt {
        let (wa, ba) = taps[t];
        if wa != 0 {
            let wp = _mm256_set1_epi32(pair_weights(wa, 0));
            let xa = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                x.as_ptr().add(ba + xs - 1) as *const __m128i
            ));
            m0 = _mm256_add_epi32(m0, _mm256_madd_epi16(_mm256_unpacklo_epi16(xa, xa), wp));
            m1 = _mm256_add_epi32(m1, _mm256_madd_epi16(_mm256_unpackhi_epi16(xa, xa), wp));
        }
    }
    let op = orow.add(xs);
    _mm256_storeu_si256(
        op as *mut __m256i,
        _mm256_permute2x128_si256::<0x20>(m0, m1),
    );
    _mm256_storeu_si256(
        (op as *mut __m256i).add(1),
        _mm256_permute2x128_si256::<0x31>(m0, m1),
    );
}

/// The pairing-tier DW body: per output row the in-bounds taps are
/// collected into a flat list (nine entries in the interior, six or
/// three at the vertical borders) and reduced over 16-column register
/// blocks ([`dw_block16_avx2pair`]). Because each block computes its
/// cells from scratch and stores once — it never accumulates into the
/// output — an interior column remainder is covered by one extra block
/// **overlapping** the previous one (re-storing identical bits), so
/// only the two border columns ever take the guarded scalar path.
/// Bit-identity is the same exact-pairs argument: every output cell is
/// the same wrapping-i32 tap sum no matter which block computes it.
/// Planes too narrow for a block (interior < 16 columns) fall back to
/// [`dw_cell_scalar`] for every cell, shared with every other backend.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_plane_rows_avx2pair(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    let wi = wd.saturating_sub(2); // interior columns 1..=wd-2
    for y in y0..y1 {
        let orow = &mut o[(y - y0) * wd..(y - y0 + 1) * wd];
        // In-bounds taps for this output row: (weight, row base + kx),
        // so a block at column xs loads 16 bytes from base + xs - 1.
        let mut taps = [(0i8, 0usize); 9];
        let mut nt = 0;
        for ky in 0..3 {
            let iy = y + ky;
            if iy < 1 || iy > h {
                continue;
            }
            let row = (iy - 1) * wd;
            for kx in 0..3 {
                taps[nt] = (w9[ky * 3 + kx], row + kx);
                nt += 1;
            }
        }
        if wi >= 16 {
            // SAFETY: every xs satisfies 1 <= xs and xs + 15 <= wi <=
            // wd - 2, so loads and stores stay inside their rows.
            unsafe {
                let op = orow.as_mut_ptr();
                for bx in 0..wi / 16 {
                    dw_block16_avx2pair(x, &taps, nt, op, 1 + bx * 16);
                }
                if !wi.is_multiple_of(16) {
                    // Overlapping tail block: recomputes some cells of
                    // the previous block to the same bits.
                    dw_block16_avx2pair(x, &taps, nt, op, 1 + wi - 16);
                }
            }
            orow[0] = dw_cell_scalar(x, w9, h, wd, y, 0);
            orow[wd - 1] = dw_cell_scalar(x, w9, h, wd, y, wd - 1);
        } else {
            for (xc, cell) in orow.iter_mut().enumerate() {
                *cell = dw_cell_scalar(x, w9, h, wd, y, xc);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn dw_plane_rows(
    be: Backend,
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    match be {
        Backend::Scalar => dw_plane_rows_g::<ScalarQ>(x, w9, o, h, wd, y0, y1),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => dw_plane_rows_g::<Sse2Q>(x, w9, o, h, wd, y0, y1),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backends are only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { dw_plane_rows_avx2(x, w9, o, h, wd, y0, y1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — `Avx2Pair` requires the same `avx2` detection.
        Backend::Avx2Pair => unsafe { dw_plane_rows_avx2pair(x, w9, o, h, wd, y0, y1) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

fn dw_plane(be: Backend, x: &[i8], w9: &[i8], o: &mut [i32], h: usize, wd: usize) {
    dw_plane_rows(be, x, w9, o, h, wd, 0, h)
}

/// Integer 3×3 depth-wise convolution, stride 1, zero padding 1 (the
/// "same" geometry every SkyNet DW-Conv uses). `x` is `n×c×h×w` `i8`,
/// `w` holds `c` filters of 9 taps (`c×1×3×3` flattened), and `out`
/// receives `n×c×h×w` raw `i32` accumulators (overwritten), one plane
/// per parallel task. Bit-identical across backends and thread counts
/// for the same structural reason as [`matmul_i8_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn dwconv3_i8(x: &[i8], w: &[i8], out: &mut [i32], n: usize, c: usize, h: usize, wd: usize) {
    let plane = h * wd;
    assert!(x.len() >= n * c * plane, "input too short");
    assert!(w.len() >= c * 9, "weights too short");
    assert!(out.len() >= n * c * plane, "out too short");
    if n * c * plane == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span("tensor.qdwconv3");
    if telemetry::metrics_enabled() {
        telemetry::counter("quant.dwconv3.calls").inc();
        record_qlanes("dwconv3", n * c * h * qvector_cover(wd.saturating_sub(2)));
    }
    par_chunks_mut(&mut out[..n * c * plane], plane, |pi, o| {
        let ch = pi % c;
        dw_plane(
            be,
            &x[pi * plane..(pi + 1) * plane],
            &w[ch * 9..ch * 9 + 9],
            o,
            h,
            wd,
        );
    });
}

// ---------------------------------------------------------------------------
// Quantize / requantize (8-lane f32, with scalar oracles) / dequantize
// ---------------------------------------------------------------------------

/// Elements per parallel task of [`quantize_i8`]: a fixed size, so the
/// decomposition (and the per-task saturation partial sums) never
/// depends on the thread count.
const QUANTIZE_CHUNK: usize = 16 * 1024;

/// Elements between flushes of the per-lane f32 saturation counters of
/// [`count_blocks`]: each lane gains at most one per 8-element block,
/// so its count stays far below 2²⁴ and is exact in f32.
const COUNT_FLUSH: usize = 1 << 20;

/// Runs `block(j)` over the full 8-lane blocks `j = 0, 8, …` below
/// `n8`; each call returns a per-lane 0/1 saturation vector, and the
/// lanes are summed into the returned count.
#[inline(always)]
fn count_blocks<V: F32x8>(n8: usize, mut block: impl FnMut(usize) -> V) -> u64 {
    let mut total = 0u64;
    for j0 in (0..n8).step_by(COUNT_FLUSH) {
        let mut lanes = V::splat(0.0);
        for j in (j0..n8.min(j0 + COUNT_FLUSH)).step_by(LANES) {
            lanes = lanes.add(block(j));
        }
        total += lanes.to_array().iter().map(|&c| c as u64).sum::<u64>();
    }
    total
}

/// The 8-lane [`quantize_i8`] body. Per lane it performs the oracle's
/// operations: divide, [`F32x8::round`], then a finite test (`|q| <
/// ∞`, false for NaN) that maps non-finite codes to 0 and counts them
/// with the clamped ones (`!(|q| < 128)` on an integral `q`). The tail
/// runs the oracle, [`quantize_i8_scalar`].
#[inline(always)]
fn quantize_g<V: F32x8>(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    let n8 = vector_cover(src.len());
    let sv = V::splat(scale);
    let (lim, neg, past) = (
        V::splat(QMAX as f32),
        V::splat(-(QMAX as f32)),
        V::splat(QMAX as f32 + 1.0),
    );
    let (zero, one, inf) = (V::splat(0.0), V::splat(1.0), V::splat(f32::INFINITY));
    count_blocks::<V>(n8, |j| {
        // SAFETY: j + LANES <= n8 <= src.len() <= dst.len().
        let q = unsafe { V::load_ptr(src.as_ptr().add(j)) }.div(sv).round();
        let a = q.abs();
        let code = V::select(a.less_than(inf), q.max(neg).min(lim), zero);
        // SAFETY: as above.
        unsafe { code.store_i8_ptr(dst.as_mut_ptr().add(j)) };
        V::select(a.less_than(past), zero, one)
    }) + quantize_i8_scalar(&src[n8..], scale, &mut dst[n8..])
}

/// The 8-lane [`requant_i8`] body: `cvtdq2ps`, mul then add (never
/// fused), the activation clamp as `max(v, lo)` / `min(v, hi)` (the
/// `maxps`/`minps` rule *is* the oracle's `if v > lo` select), divide,
/// [`F32x8::round`], and the `±127` clamp with the constant as the
/// first operand so a NaN lane survives it and the final finite test
/// maps it to 0. Saturation counts `127 < |q|` (false for NaN), like
/// the oracle. The tail runs the oracle, [`requant_i8_scalar`].
#[inline(always)]
fn requant_g<V: F32x8>(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    let n8 = vector_cover(acc.len());
    let (mv, bv, sv) = (V::splat(mult), V::splat(bias), V::splat(out_scale));
    let clamp_v = clamp.map(|(lo, hi)| (V::splat(lo), V::splat(hi)));
    let (lim, neg, past) = (
        V::splat(QMAX as f32),
        V::splat(-(QMAX as f32)),
        V::splat(QMAX as f32 + 1.0),
    );
    let (zero, one) = (V::splat(0.0), V::splat(1.0));
    count_blocks::<V>(n8, |j| {
        // SAFETY: j + LANES <= n8 <= acc.len() <= dst.len().
        let mut v = unsafe { V::load_i32_ptr(acc.as_ptr().add(j)) }
            .mul(mv)
            .add(bv);
        if let Some((lo, hi)) = clamp_v {
            v = v.max(lo).min(hi);
        }
        let q = v.div(sv).round();
        let c = neg.max(lim.min(q));
        let code = V::select(c.abs().less_than(past), c, zero);
        // SAFETY: as above.
        unsafe { code.store_i8_ptr(dst.as_mut_ptr().add(j)) };
        V::select(lim.less_than(q.abs()), one, zero)
    }) + requant_i8_scalar(&acc[n8..], mult, bias, clamp, out_scale, &mut dst[n8..])
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    quantize_g::<Avx2V>(src, scale, dst)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_avx2(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    requant_g::<Avx2V>(acc, mult, bias, clamp, out_scale, dst)
}

fn quantize_be(be: Backend, src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    match be {
        Backend::Scalar => quantize_g::<ScalarV>(src, scale, dst),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => quantize_g::<Sse2V>(src, scale, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backends are only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 | Backend::Avx2Pair => unsafe { quantize_avx2(src, scale, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

/// Quantizes `src` to symmetric `i8`: `q = round(v / scale)` clamped to
/// `[-QMAX, QMAX]`, zero-point 0. `f32::round` ties away from zero —
/// the requantization rounding mode of the whole INT8 path. Returns the
/// number of elements that clamped (callers publish it as a
/// `quant.<op>.saturated` counter). Non-finite inputs quantize to 0 and
/// count as saturated.
///
/// Runs the 8-lane body of the active backend over fixed
/// 16 Ki-element chunks on the [`parallel`](crate::parallel) pool;
/// the per-chunk counts are summed as `u64`, so the total is
/// schedule-independent, and every backend matches
/// [`quantize_i8_scalar`] bit for bit.
///
/// # Panics
///
/// Panics when `dst` is shorter than `src` or `scale` is not a
/// strictly positive finite number.
pub fn quantize_i8(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    assert!(dst.len() >= src.len(), "dst too short");
    let _span = telemetry::span("tensor.qquantize");
    let be = simd::active();
    let saturated = AtomicU64::new(0);
    par_chunks_mut(&mut dst[..src.len()], QUANTIZE_CHUNK, |i, d| {
        let s = &src[i * QUANTIZE_CHUNK..i * QUANTIZE_CHUNK + d.len()];
        saturated.fetch_add(quantize_be(be, s, scale, d), Ordering::Relaxed);
    });
    saturated.into_inner()
}

/// The scalar oracle of [`quantize_i8`]: one element at a time, in
/// order, with [`f32::round`]. It is the specification the vector
/// bodies are tested against.
///
/// # Panics
///
/// As [`quantize_i8`].
pub fn quantize_i8_scalar(src: &[f32], scale: f32, dst: &mut [i8]) -> u64 {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    assert!(dst.len() >= src.len(), "dst too short");
    let mut saturated = 0u64;
    for (d, &v) in dst.iter_mut().zip(src) {
        let q = (v / scale).round();
        if q.abs() > QMAX as f32 || !q.is_finite() {
            saturated += 1;
        }
        *d = if q.is_finite() {
            q.clamp(-(QMAX as f32), QMAX as f32) as i8
        } else {
            0
        };
    }
    saturated
}

/// Requantizes raw `i32` accumulators to the next stage's `i8`
/// activations:
///
/// ```text
/// v = (acc as f32) · mult + bias          // dequantized pre-activation
/// v = clamp(v, lo, hi)                    // fused activation (optional)
/// q = clamp(round(v / out_scale), ±127)   // next stage's i8 domain
/// ```
///
/// `mult` is `in_scale · w_scale` for the producing channel; `bias` is
/// the (BN-folded) f32 bias. The active backend runs 8-lane blocks of
/// exactly these IEEE-754 operations per element (mul then add, never
/// fused; an exact round-half-away-from-zero) and the remainder through
/// [`requant_i8_scalar`], so the output and the count are bit-identical
/// to that oracle on every backend, and every element depends only on
/// its own accumulator — any banding of the call agrees. Returns the
/// clamp count at the `i8` step (the activation clamp is semantics, not
/// saturation).
///
/// # Panics
///
/// Panics when `dst` is shorter than `acc` or `out_scale` is not a
/// strictly positive finite number.
pub fn requant_i8(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    assert!(
        out_scale.is_finite() && out_scale > 0.0,
        "out_scale must be positive"
    );
    assert!(dst.len() >= acc.len(), "dst too short");
    match simd::active() {
        Backend::Scalar => requant_g::<ScalarV>(acc, mult, bias, clamp, out_scale, dst),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => requant_g::<Sse2V>(acc, mult, bias, clamp, out_scale, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backends are only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 | Backend::Avx2Pair => unsafe {
            requant_avx2(acc, mult, bias, clamp, out_scale, dst)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

/// The scalar oracle of [`requant_i8`]: one element at a time, in
/// order, with [`f32::round`] — the specification the vector bodies are
/// tested against.
///
/// # Panics
///
/// As [`requant_i8`].
pub fn requant_i8_scalar(
    acc: &[i32],
    mult: f32,
    bias: f32,
    clamp: Option<(f32, f32)>,
    out_scale: f32,
    dst: &mut [i8],
) -> u64 {
    assert!(
        out_scale.is_finite() && out_scale > 0.0,
        "out_scale must be positive"
    );
    assert!(dst.len() >= acc.len(), "dst too short");
    let mut saturated = 0u64;
    for (d, &a) in dst.iter_mut().zip(acc) {
        let mut v = (a as f32) * mult + bias;
        if let Some((lo, hi)) = clamp {
            v = if v > lo { v } else { lo };
            v = if v < hi { v } else { hi };
        }
        let q = (v / out_scale).round();
        if q.abs() > QMAX as f32 {
            saturated += 1;
        }
        // A NaN `q` is not counted, and `NaN as i8` is 0.
        *d = q.clamp(-(QMAX as f32), QMAX as f32) as i8;
    }
    saturated
}

/// Dequantizes raw `i32` accumulators straight to f32:
/// `dst[j] = (acc[j] as f32) · mult + bias` — the network-exit epilogue
/// (the detection head leaves the integer domain here).
///
/// # Panics
///
/// Panics when `dst` is shorter than `acc`.
pub fn dequant_f32(acc: &[i32], mult: f32, bias: f32, dst: &mut [f32]) {
    assert!(dst.len() >= acc.len(), "dst too short");
    for (d, &a) in dst.iter_mut().zip(acc) {
        *d = (a as f32) * mult + bias;
    }
}

// ---------------------------------------------------------------------------
// Integer data movement: max-pool and reorg (pure permutations/selects)
// ---------------------------------------------------------------------------

/// 2-D max pooling on `i8` planes with a square `k×k` window and stride
/// `k`, mirroring [`maxpool2d`](crate::pool::maxpool2d). Legal directly
/// in the quantized domain: with a positive scale and zero zero-point,
/// `q ↦ q·scale` is monotone, so the integer max picks the same winner
/// the f32 max would.
///
/// Output planes are distributed over the [`parallel`](crate::parallel)
/// pool. Each output row first takes the column-wise max of its `k`
/// input rows, then slides a `k`-wide window max along that row; both
/// are contiguous passes that vectorize for any `k`. An integer max is
/// exact in any order, so the result is independent of the schedule.
///
/// # Panics
///
/// Panics when `k == 0`, the spatial extents are not divisible by `k`,
/// or `src` is shorter than `n·c·h·w`.
pub fn maxpool2d_i8(src: &[i8], n: usize, c: usize, h: usize, w: usize, k: usize) -> Vec<i8> {
    assert!(k > 0, "window size must be positive");
    assert!(
        h.is_multiple_of(k) && w.is_multiple_of(k),
        "spatial extents {h}×{w} not divisible by {k}"
    );
    assert!(src.len() >= n * c * h * w, "input too short");
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0i8; n * c * oh * ow];
    if out.is_empty() {
        return out;
    }
    let _span = telemetry::span("tensor.qpool_fwd");
    par_chunks_mut(&mut out, oh * ow, |pi, plane| {
        let input = &src[pi * h * w..(pi + 1) * h * w];
        let mut colmax = scratch::checkout_i8("tensor.qpool_fwd", w);
        let colmax = &mut colmax[..w];
        for (orow, rows) in plane.chunks_exact_mut(ow).zip(input.chunks_exact(k * w)) {
            colmax.copy_from_slice(&rows[..w]);
            for srow in rows[w..].chunks_exact(w) {
                for (m, &v) in colmax.iter_mut().zip(srow) {
                    *m = (*m).max(v);
                }
            }
            // After k − 1 shift-by-one passes (each reads `x + 1`
            // before overwriting it), colmax[x] = max of the original
            // colmax[x..x + k]: every window's max sits at its start.
            for _ in 1..k {
                for x in 0..w - 1 {
                    colmax[x] = colmax[x].max(colmax[x + 1]);
                }
            }
            for (o, &m) in orow.iter_mut().zip(colmax.iter().step_by(k)) {
                *o = m;
            }
        }
    });
    out
}

/// Space-to-depth reordering on `i8` planes with block size `s`,
/// mirroring [`reorg`](crate::reorg::reorg): input channel `c` and
/// intra-block offset `(dy, dx)` land in output channel
/// `c·s² + dy·s + dx`. A pure permutation, so the quantization scale
/// rides along unchanged.
///
/// The `s²` output planes fed by one input plane are contiguous; each
/// such group is one task on the [`parallel`](crate::parallel) pool,
/// copied row by row.
///
/// # Panics
///
/// Panics when `s == 0`, the spatial extents are not divisible by `s`,
/// or `src` is shorter than `n·c·h·w`.
pub fn reorg_i8(src: &[i8], n: usize, c: usize, h: usize, w: usize, s: usize) -> Vec<i8> {
    assert!(s > 0, "block size must be positive");
    assert!(
        h.is_multiple_of(s) && w.is_multiple_of(s),
        "spatial extents {h}×{w} not divisible by {s}"
    );
    assert!(src.len() >= n * c * h * w, "input too short");
    let (oh, ow) = (h / s, w / s);
    let mut out = vec![0i8; n * c * s * s * oh * ow];
    if out.is_empty() {
        return out;
    }
    let _span = telemetry::span("tensor.qreorg");
    par_chunks_mut(&mut out, s * s * oh * ow, |pi, planes| {
        let input = &src[pi * h * w..(pi + 1) * h * w];
        for (sub, plane) in planes.chunks_exact_mut(oh * ow).enumerate() {
            let (dy, dx) = (sub / s, sub % s);
            for (oy, orow) in plane.chunks_exact_mut(ow).enumerate() {
                let irow = &input[(oy * s + dy) * w + dx..];
                for (o, &v) in orow.iter_mut().zip(irow.iter().step_by(s)) {
                    *o = v;
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] = c[i * n + j]
                        .wrapping_add(i32::from(a[i * k + p]) * i32::from(b[p * n + j]));
                }
            }
        }
        c
    }

    fn seq_i8(len: usize, stride: usize) -> Vec<i8> {
        (0..len)
            .map(|i| ((i * stride + 13) % 255) as u8 as i8)
            .collect()
    }

    #[test]
    fn matmul_matches_naive_across_tail_boundaries() {
        for n in [1, 31, 32, 33, 64, 67] {
            let (m, k) = (5, 7);
            let a = seq_i8(m * k, 3);
            let b = seq_i8(k * n, 5);
            let mut c = vec![0i32; m * n];
            matmul_i8(&a, &b, &mut c, m, k, n);
            assert_eq!(c, naive_matmul(&a, &b, m, k, n), "n={n}");
        }
    }

    #[test]
    fn matmul_acc_adds_to_existing() {
        let a = vec![1i8, 0, 0, 1];
        let b = vec![5i8, 6, 7, 8];
        let mut c = vec![1i32; 4];
        matmul_i8_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![6, 7, 8, 9]);
    }

    fn naive_dw(x: &[i8], w9: &[i8], h: usize, wd: usize) -> Vec<i32> {
        let mut o = vec![0i32; h * wd];
        for y in 0..h {
            for xc in 0..wd {
                let mut acc = 0i32;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let (iy, ix) = (y + ky, xc + kx);
                        if iy < 1 || iy > h || ix < 1 || ix > wd {
                            continue;
                        }
                        acc = acc.wrapping_add(
                            i32::from(w9[ky * 3 + kx]) * i32::from(x[(iy - 1) * wd + ix - 1]),
                        );
                    }
                }
                o[y * wd + xc] = acc;
            }
        }
        o
    }

    #[test]
    fn dwconv3_matches_naive_across_widths() {
        for wd in [1, 2, 3, 33, 34, 40, 70] {
            let h = 5;
            let x = seq_i8(h * wd, 7);
            let w9 = seq_i8(9, 11);
            let mut out = vec![0i32; h * wd];
            dwconv3_i8(&x, &w9, &mut out, 1, 1, h, wd);
            assert_eq!(out, naive_dw(&x, &w9, h, wd), "wd={wd}");
        }
    }

    #[test]
    fn dwconv3_multichannel_uses_per_channel_filters() {
        let (n, c, h, wd) = (2, 3, 4, 36);
        let x = seq_i8(n * c * h * wd, 3);
        let w = seq_i8(c * 9, 5);
        let mut out = vec![0i32; n * c * h * wd];
        dwconv3_i8(&x, &w, &mut out, n, c, h, wd);
        for pi in 0..n * c {
            let ch = pi % c;
            let want = naive_dw(
                &x[pi * h * wd..(pi + 1) * h * wd],
                &w[ch * 9..ch * 9 + 9],
                h,
                wd,
            );
            assert_eq!(
                &out[pi * h * wd..(pi + 1) * h * wd],
                &want[..],
                "plane {pi}"
            );
        }
    }

    #[test]
    fn quantize_clamps_and_counts() {
        let src = [0.0f32, 0.5, -0.5, 100.0, -100.0, 1.49, f32::NAN];
        let mut dst = [0i8; 7];
        let sat = quantize_i8(&src, 0.5, &mut dst);
        // 100/0.5 = 200 and -200 clamp; NaN counts and maps to 0.
        assert_eq!(sat, 3);
        assert_eq!(dst, [0, 1, -1, 127, -127, 3, 0]);
    }

    #[test]
    fn requant_rounds_ties_away_and_clamps() {
        // acc·mult+bias = [1.5, -1.5, 300, -0.5] with out_scale 1.
        let acc = [3i32, -3, 600, -1];
        let mut dst = [0i8; 4];
        let sat = requant_i8(&acc, 0.5, 0.0, None, 1.0, &mut dst);
        assert_eq!(sat, 1);
        // round ties away from zero: 1.5 → 2, -1.5 → -2, -0.5 → -1.
        assert_eq!(dst, [2, -2, 127, -1]);
    }

    #[test]
    fn requant_applies_activation_clamp() {
        let acc = [-10i32, 4, 100];
        let mut dst = [0i8; 3];
        let sat = requant_i8(&acc, 1.0, 0.0, Some((0.0, 6.0)), 0.5, &mut dst);
        assert_eq!(sat, 0);
        assert_eq!(dst, [0, 8, 12]); // clamp to [0,6] then /0.5
    }

    #[test]
    fn dequant_is_affine() {
        let acc = [2i32, -4];
        let mut dst = [0f32; 2];
        dequant_f32(&acc, 0.25, 1.0, &mut dst);
        assert_eq!(dst, [1.5, 0.0]);
    }

    #[test]
    fn maxpool_i8_picks_winner() {
        let src = [1i8, 5, 3, 2, 4, 0, -1, 9];
        let out = maxpool2d_i8(&src, 1, 1, 2, 4, 2);
        assert_eq!(out, vec![5, 9]);
    }

    #[test]
    fn reorg_i8_matches_fig5() {
        let src: Vec<i8> = (0..16).collect();
        let out = reorg_i8(&src, 1, 1, 4, 4, 2);
        assert_eq!(
            out,
            vec![0, 2, 8, 10, 1, 3, 9, 11, 4, 6, 12, 14, 5, 7, 13, 15]
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_matmul_matches_scalar_generic_across_shapes() {
        if !Backend::Avx2Pair.is_available() {
            return;
        }
        for (m, k, n) in [
            (1, 1, 1),
            (3, 4, 16),
            (5, 7, 33),
            (2, 9, 64),
            (4, 5, 17),
            (3, 8, 16),
            (6, 2, 80),
        ] {
            let a = seq_i8(m * k, 3);
            let b = seq_i8(k * n, 5);
            // Pre-seeded accumulators exercise the permute-in path.
            let mut want = vec![7i32; m * n];
            let mut got = want.clone();
            matmul_i8_rows_g::<ScalarQ>(&a, &b, &mut want, m, k, n);
            // SAFETY: guarded by the availability check above.
            unsafe { matmul_i8_rows_avx2pair(&a, &b, &mut got, m, k, n) };
            assert_eq!(want, got, "m={m} k={k} n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_matmul_wraps_identically() {
        if !Backend::Avx2Pair.is_available() {
            return;
        }
        let k = 1 << 18; // 262144 · 16384 = 2^32: wraps the i32 accumulator
        let (a, b) = (vec![i8::MIN; k], vec![i8::MIN; k * 16]);
        let mut want = vec![0i32; 16];
        let mut got = vec![0i32; 16];
        matmul_i8_rows_g::<ScalarQ>(&a, &b, &mut want, 1, k, 16);
        // SAFETY: guarded by the availability check above.
        unsafe { matmul_i8_rows_avx2pair(&a, &b, &mut got, 1, k, 16) };
        assert_eq!(want, got);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pairing_dwconv_matches_scalar_generic_across_widths() {
        if !Backend::Avx2Pair.is_available() {
            return;
        }
        for wd in [1, 2, 3, 16, 17, 18, 19, 33, 40, 70] {
            let h = 5;
            let x = seq_i8(h * wd, 7);
            let w9 = seq_i8(9, 11);
            // Dirty scratch: dw_plane_rows has overwrite semantics.
            let mut want = vec![-1i32; h * wd];
            let mut got = vec![13i32; h * wd];
            dw_plane_rows_g::<ScalarQ>(&x, &w9, &mut want, h, wd, 0, h);
            // SAFETY: guarded by the availability check above.
            unsafe { dw_plane_rows_avx2pair(&x, &w9, &mut got, h, wd, 0, h) };
            assert_eq!(want, got, "wd={wd}");
        }
    }

    #[test]
    fn dw_row_bands_match_full_plane_on_every_backend() {
        let (h, wd) = (7, 40);
        let x = seq_i8(h * wd, 7);
        let w9 = seq_i8(9, 11);
        for be in simd::available_backends() {
            let mut full = vec![0i32; h * wd];
            dw_plane_rows(be, &x, &w9, &mut full, h, wd, 0, h);
            let mut banded = vec![-7i32; h * wd];
            for (y0, y1) in [(0usize, 2usize), (2, 3), (3, 7)] {
                dw_plane_rows(be, &x, &w9, &mut banded[y0 * wd..y1 * wd], h, wd, y0, y1);
            }
            assert_eq!(full, banded, "backend {}", be.name());
        }
    }

    #[test]
    fn wrapping_accumulation_is_backend_stable() {
        // Products of -128·-128 accumulate past i32::MAX and must wrap
        // identically to the naive wrapping loop.
        let k = 1 << 18; // 262144 · 16384 = 2^32 → wraps twice over
        let a = vec![i8::MIN; k];
        let b = vec![i8::MIN; k]; // k×1 matrix
        let mut c = vec![0i32; 1];
        matmul_i8(&a, &b, &mut c, 1, k, 1);
        let mut want = 0i32;
        for _ in 0..k {
            want = want.wrapping_add(16384);
        }
        assert_eq!(c[0], want);
    }
}
