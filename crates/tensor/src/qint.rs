//! Quantized integer kernels: `i8`×`i8`→`i32` with a **structural
//! integer determinism contract**.
//!
//! This is the executable INT8 counterpart of the f32 kernel family
//! ([`dwconv`](crate::dwconv), [`matmul`](crate::matmul)). The two hot
//! kernels, the point-wise matmul and the 3×3 DW stencil, are written
//! once each as generic functions over the [`QPairs`] trait, the
//! integer sibling of [`F32x8`], and instantiated for the same three
//! backends under the same `SKYNET_SIMD` runtime dispatch
//! ([`simd::active`]):
//!
//! * [`ScalarQ`]: plain Rust replaying the pairs, the oracle;
//! * [`Sse2Q`]: four `__m128i` accumulators over `pmaddwd`
//!   (`_mm_madd_epi16`);
//! * [`Avx2Q`]: two `__m256i` accumulators over `vpmaddwd`
//!   (`_mm256_madd_epi16`).
//!
//! ## Pairs on every backend
//!
//! A [`QPairs`] value is a block of [`QLANES`] = 16 `i32` column
//! accumulators held in registers across a whole reduction. Its one
//! arithmetic primitive, [`QPairs::madd_pair`], adds `w0·x0[j] +
//! w1·x1[j]` into column `j`: two `i8×i8` products per column per
//! call, which `madd` forms in one instruction where a widening
//! multiply needs a widen-multiply-widen-add chain per product. Both
//! kernels reduce their weights two at a time: a pair whose two weights
//! are 0 is skipped, and an odd last weight runs as the pair `[w, 0]`.
//! The matmul keeps each output block in registers across the whole
//! `k` loop; the DW stencil computes each block from scratch over the
//! row's list of in-bounds taps and stores it once, so an interior
//! remainder is one overlapping tail block.
//!
//! The block width is the contract's unit, not the register width: SSE2
//! holds a block as four 4-column registers in natural order, AVX2 as
//! two 8-column registers in `vpmaddwd`'s interleaved layout (converted
//! once on [`QPairs::load`] / [`QPairs::store`]), and the scalar
//! backend as a 16-element array.
//!
//! ## Why pairing keeps bit-identity
//!
//! `madd` multiplies pairs of `i16`s and adds each pair into an `i32`.
//! Our operands are sign-extended `i8`s, so |x| ≤ 128, every product is
//! ≤ 16384, and a pair sum is ≤ 32768: produced directly in `i32`,
//! these sums are **exact** for all `i8` inputs including `i8::MIN`
//! (the instruction's only overflowing case is `(−32768)² + (−32768)²`,
//! unreachable from 8-bit operands). An `i8`×`i8` product fits `i16`
//! exactly, and two's-complement wrapping `i32` addition is associative
//! *and* commutative. So any grouping of the same multiset of products
//! (pairs, 16-column blocks, scalar tails, different thread splits)
//! produces the same accumulator bits, wrap-arounds included.
//!
//! The f32 kernels are bit-identical across backends because every
//! backend performs the same IEEE-754 operations in the same order, an
//! engineered property (no FMA, fixed reduction trees). The integer
//! kernels get bit-identity **structurally**, which is the stronger
//! contract. The `qint_equivalence` proptest suite still asserts it
//! bitwise against [`ScalarQ`], with `±127`, `i8::MIN` and wrap
//! boundaries planted.
//!
//! ## The f32 epilogues
//!
//! Quantization (`f32` → `i8`, [`quantize_i8`]) and requantization
//! (`i32` accumulator → `i8` activation, [`requant_i8`]) are f32 math:
//! one multiply, one add, an optional activation clamp, one divide, one
//! round-half-away-from-zero and one `±127` clamp per element. They are
//! written once over the 8-lane [`F32x8`] trait and run 8 elements at a
//! time on every backend, with the remainder through the scalar oracles
//! [`quantize_i8_scalar`] / [`requant_i8_scalar`]. They stay
//! bit-identical to those oracles because each lane performs the same
//! IEEE-754 operations: `cvtdq2ps` rounds to nearest-even like `as
//! f32`; mul, add and divide are correctly rounded (and never fused);
//! `maxps`/`minps` reproduce the oracle's `if v > lo` selects;
//! [`F32x8::round`] is an exact emulation of [`f32::round`]; and the
//! `±127` clamp, the NaN → 0 mapping and the saturation count all act
//! on the rounded value. The `qint_equivalence` suite asserts it
//! bitwise on ties, ±0, ±∞, NaN and the `i32` extremes.
//!
//! ## Telemetry
//!
//! When metrics are on, `quant.<op>.lanes_used` counters tally the
//! elements the 16-column blocks cover, each counted once (for the DW
//! stencil, every interior column once a plane has 16 of them), and
//! the saturation helpers return clamp counts their callers publish as
//! `quant.<op>.saturated` (see OBSERVABILITY.md). Spans:
//! `tensor.qmatmul`, `tensor.qdwconv3`, `tensor.qquantize`,
//! `tensor.qpool_fwd` and `tensor.qreorg`.

use crate::parallel::par_chunks_mut;
use crate::simd::{self, vector_cover, Backend, F32x8, ScalarV, LANES};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2V, Sse2V};
use crate::{scratch, telemetry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Columns per integer accumulator block ([`QPairs`]). Fixed on every
/// backend so the block structure (and the vector-vs-tail split)
/// never depends on the ISA.
pub const QLANES: usize = 16;

/// Quantized activations saturate to this magnitude: the symmetric
/// `i8` range `[-127, 127]`. `-128` is excluded so that negation is
/// always representable and the range is symmetric around zero
/// (zero-point is identically 0 in this scheme).
pub const QMAX: i32 = 127;

/// Rows per parallel stripe of [`matmul_i8_acc`]. 32 rows of `i32`
/// accumulators keep a stripe's working set near the f32 kernel's
/// (which uses 64 f32 rows).
const QBLOCK: usize = 32;

/// Columns of an `n`-column matmul row that the 16-column blocks cover;
/// the `n % 16` tail runs scalar.
#[inline]
pub(crate) fn matmul_qcover(n: usize) -> usize {
    n / QLANES * QLANES
}

/// Columns of a `wd`-wide DW output row that the 16-column blocks
/// cover: every interior column (the overlapping tail block included,
/// each column counted once) once there are at least 16 of them, else
/// none. The two border columns always run scalar.
#[inline]
pub(crate) fn dw_qcover(wd: usize) -> usize {
    let wi = wd.saturating_sub(2);
    if wi >= QLANES {
        wi
    } else {
        0
    }
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

/// A block of [`QLANES`] `i32` column accumulators that reduces `i8`
/// products two at a time. `zero`, `load` and `store` convert between
/// natural column order and the backend's lane layout; `madd_pair` is
/// the only arithmetic.
///
/// Implementations must be **exact**: each pair sum is the exact
/// integer `w0·x0[j] + w1·x1[j]` (|sum| ≤ 32768) added with
/// two's-complement wrapping, never saturating (saturation happens only
/// at requantization), so every backend produces identical bits by the
/// associativity of wrapping addition.
pub trait QPairs: Copy {
    /// Every column 0.
    fn zero() -> Self;
    /// Loads columns `src[0..16]`.
    ///
    /// # Safety
    ///
    /// `src` must be valid for reads of `QLANES` consecutive `i32`s.
    unsafe fn load(src: *const i32) -> Self;
    /// Stores columns to `dst[0..16]`.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for writes of `QLANES` consecutive `i32`s.
    unsafe fn store(self, dst: *mut i32);
    /// Column `j` ⊞= `w0·x0[j] + w1·x1[j]` for `j in 0..QLANES`.
    ///
    /// # Safety
    ///
    /// `x0` and `x1` must each be valid for reads of `QLANES`
    /// consecutive `i8`s (they may alias).
    unsafe fn madd_pair(self, x0: *const i8, x1: *const i8, w0: i8, w1: i8) -> Self;
}

/// The scalar backend: a 16-element array replaying each pair as one
/// exact `i32` sum. This is the oracle the `qint_equivalence` suite
/// compares the ISA backends against (they must agree bitwise, and do
/// structurally; see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ScalarQ([i32; QLANES]);

impl QPairs for ScalarQ {
    #[inline(always)]
    fn zero() -> Self {
        ScalarQ([0; QLANES])
    }

    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self {
        // SAFETY: caller guarantees QLANES readable elements.
        ScalarQ(unsafe { std::ptr::read_unaligned(src as *const [i32; QLANES]) })
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut i32) {
        // SAFETY: caller guarantees QLANES writable elements.
        unsafe { std::ptr::write_unaligned(dst as *mut [i32; QLANES], self.0) }
    }

    #[inline(always)]
    unsafe fn madd_pair(mut self, x0: *const i8, x1: *const i8, w0: i8, w1: i8) -> Self {
        let (w0, w1) = (i32::from(w0), i32::from(w1));
        for (j, acc) in self.0.iter_mut().enumerate() {
            // SAFETY: caller guarantees QLANES readable bytes at x0, x1.
            let pair = unsafe { w0 * i32::from(*x0.add(j)) + w1 * i32::from(*x1.add(j)) };
            *acc = acc.wrapping_add(pair);
        }
        self
    }
}

/// Packs two `i8` weights into the `[w0, w1]` `i16` pair `madd` expects
/// in each 32-bit lane, for a `set1_epi32` broadcast.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair_weights(w0: i8, w1: i8) -> i32 {
    (((w1 as i16 as u16 as u32) << 16) | (w0 as i16 as u16 as u32)) as i32
}

/// SSE2 backend: four 4-column `__m128i` accumulators in natural
/// order. `madd_pair` interleaves the two input rows bytewise, widens
/// each byte to an `i16` in place (self-unpack, then an arithmetic
/// shift right by 8), so every 32-bit lane holds the `[x0[j], x1[j]]`
/// pair, and reduces it with `pmaddwd`. SSE2 is the x86_64 baseline.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Sse2Q([std::arch::x86_64::__m128i; 4]);

#[cfg(target_arch = "x86_64")]
impl QPairs for Sse2Q {
    #[inline(always)]
    fn zero() -> Self {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { Sse2Q([_mm_setzero_si128(); 4]) }
    }

    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable elements.
        Sse2Q(std::array::from_fn(|q| unsafe {
            _mm_loadu_si128((src as *const __m128i).add(q))
        }))
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut i32) {
        use std::arch::x86_64::*;
        for (q, v) in self.0.into_iter().enumerate() {
            // SAFETY: caller guarantees QLANES writable elements.
            unsafe { _mm_storeu_si128((dst as *mut __m128i).add(q), v) };
        }
    }

    #[inline(always)]
    unsafe fn madd_pair(self, x0: *const i8, x1: *const i8, w0: i8, w1: i8) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable bytes at x0 and x1.
        unsafe {
            let wp = _mm_set1_epi32(pair_weights(w0, w1));
            let a = _mm_loadu_si128(x0 as *const __m128i);
            let b = _mm_loadu_si128(x1 as *const __m128i);
            // Bytes [x0[j], x1[j]] for columns 0..8 and 8..16.
            let (lo, hi) = (_mm_unpacklo_epi8(a, b), _mm_unpackhi_epi8(a, b));
            let pairs = [
                _mm_unpacklo_epi8(lo, lo), // columns 0..4, each byte doubled
                _mm_unpackhi_epi8(lo, lo), // columns 4..8
                _mm_unpacklo_epi8(hi, hi), // columns 8..12
                _mm_unpackhi_epi8(hi, hi), // columns 12..16
            ];
            let mut acc = self.0;
            for (a, p) in acc.iter_mut().zip(pairs) {
                // A doubled byte `bb` as i16, shifted right by 8 with
                // sign, is the byte sign-extended.
                *a = _mm_add_epi32(*a, _mm_madd_epi16(_mm_srai_epi16::<8>(p), wp));
            }
            Sse2Q(acc)
        }
    }
}

/// AVX2 backend: two 8-column `__m256i` accumulators in `vpmaddwd`'s
/// layout. `_mm256_unpacklo_epi16(x0, x1)` interleaves in-lane, so the
/// `madd` of the lo/hi unpacks yields columns `[0..4, 8..12]` and
/// `[4..8, 12..16]`. The same two `_mm256_permute2x128_si256` shuffles
/// (selectors `0x20`/`0x31`) convert between that layout and the
/// natural `[0..8]`/`[8..16]` order in both directions, so a block is
/// permuted in once on `load` and out once on `store`. Only
/// instantiated behind `#[target_feature(enable = "avx2")]` wrappers
/// after runtime detection, exactly like [`Avx2V`].
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2Q(std::arch::x86_64::__m256i, std::arch::x86_64::__m256i);

#[cfg(target_arch = "x86_64")]
impl QPairs for Avx2Q {
    #[inline(always)]
    fn zero() -> Self {
        use std::arch::x86_64::*;
        // SAFETY: only reached from AVX2-enabled wrappers (type docs).
        unsafe { Avx2Q(_mm256_setzero_si256(), _mm256_setzero_si256()) }
    }

    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable elements.
        unsafe {
            let c0 = _mm256_loadu_si256(src as *const __m256i);
            let c1 = _mm256_loadu_si256((src as *const __m256i).add(1));
            Avx2Q(
                _mm256_permute2x128_si256::<0x20>(c0, c1),
                _mm256_permute2x128_si256::<0x31>(c0, c1),
            )
        }
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut i32) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES writable elements.
        unsafe {
            _mm256_storeu_si256(
                dst as *mut __m256i,
                _mm256_permute2x128_si256::<0x20>(self.0, self.1),
            );
            _mm256_storeu_si256(
                (dst as *mut __m256i).add(1),
                _mm256_permute2x128_si256::<0x31>(self.0, self.1),
            );
        }
    }

    #[inline(always)]
    unsafe fn madd_pair(self, x0: *const i8, x1: *const i8, w0: i8, w1: i8) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees QLANES readable bytes at x0 and x1.
        unsafe {
            let wp = _mm256_set1_epi32(pair_weights(w0, w1));
            let a = _mm256_cvtepi8_epi16(_mm_loadu_si128(x0 as *const __m128i));
            let b = _mm256_cvtepi8_epi16(_mm_loadu_si128(x1 as *const __m128i));
            Avx2Q(
                _mm256_add_epi32(self.0, _mm256_madd_epi16(_mm256_unpacklo_epi16(a, b), wp)),
                _mm256_add_epi32(self.1, _mm256_madd_epi16(_mm256_unpackhi_epi16(a, b), wp)),
            )
        }
    }
}

/// Reduces `nt` taps into `acc` two per [`QPairs::madd_pair`]; tap `t`
/// is a weight and the 16 input bytes it multiplies. A pair whose two
/// weights are 0 is skipped (exact: it adds nothing), and an odd last
/// tap runs as the pair `[w, 0]`.
///
/// # Safety
///
/// Every pointer `tap` returns must satisfy [`QPairs::madd_pair`].
#[inline(always)]
unsafe fn madd_taps<Q: QPairs>(mut acc: Q, nt: usize, tap: impl Fn(usize) -> (i8, *const i8)) -> Q {
    let mut t = 0;
    while t + 1 < nt {
        let ((w0, x0), (w1, x1)) = (tap(t), tap(t + 1));
        if w0 != 0 || w1 != 0 {
            // SAFETY: forwarded from the caller.
            acc = unsafe { acc.madd_pair(x0, x1, w0, w1) };
        }
        t += 2;
    }
    if t < nt {
        let (w, x) = tap(t);
        if w != 0 {
            // SAFETY: forwarded from the caller.
            acc = unsafe { acc.madd_pair(x, x, w, 0) };
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Integer matmul (point-wise convolutions)
// ---------------------------------------------------------------------------

/// Serial row-stripe body of [`matmul_i8_acc`], generic over the
/// backend: per output row, 16-column blocks whose accumulators stay in
/// registers across the whole `k` loop (loaded once, stored once), then
/// a wrapping scalar column tail for `n % 16` (any order is
/// bit-identical).
#[inline(always)]
fn matmul_i8_rows_g<Q: QPairs>(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    let nb = matmul_qcover(n);
    assert!(b.len() >= k * n, "rhs too short");
    for i in 0..m {
        let arow = &a[i * k..i * k + k];
        let crow = &mut c[i * n..i * n + n];
        for j in (0..nb).step_by(QLANES) {
            // SAFETY: j + 16 <= nb <= n bounds every 16-wide access in
            // this block: row p of `b` is read at p·n + j..p·n + j + 16
            // with p < k, inside b[..k·n].
            unsafe {
                let cp = crow.as_mut_ptr().add(j);
                let bj = b.as_ptr().add(j);
                madd_taps(Q::load(cp), k, |p| (arow[p], bj.add(p * n))).store(cp);
            }
        }
        for j in nb..n {
            let mut acc = crow[j];
            for (p, &w) in arow.iter().enumerate() {
                acc = acc.wrapping_add(i32::from(w) * i32::from(b[p * n + j]));
            }
            crow[j] = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_rows_avx2(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    matmul_i8_rows_g::<Avx2Q>(a, b, c, m, k, n)
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
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { matmul_i8_rows_avx2(a, b, c, m, k, n) },
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
        // Nominal: the zero-pair skip is not deducted.
        record_qlanes("matmul", m * k * matmul_qcover(n));
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
/// [`dwconv3_i8`], generic over the backend. Per output row the
/// in-bounds taps are collected into a flat list (nine entries in the
/// interior, six or three at the vertical borders) and reduced over
/// 16-column blocks. Each block computes its cells from scratch and
/// stores once, so an interior column remainder is covered by one extra
/// block **overlapping** the previous one (re-storing identical bits),
/// and only the two border columns take the guarded [`dw_cell_scalar`]
/// path. Planes with fewer than 16 interior columns run every cell
/// through [`dw_cell_scalar`].
///
/// `o` covers exactly the destination rows (`(y1-y0)·wd` elements) and
/// is **overwritten**, so callers may hand in dirty scratch. Rows are
/// computed independently (the stencil reads only `x`), so any row
/// banding produces the same bits as a full-plane pass; the fused INT8
/// bundle leans on this.
#[inline(always)]
fn dw_plane_rows_g<Q: QPairs>(
    x: &[i8],
    w9: &[i8],
    o: &mut [i32],
    h: usize,
    wd: usize,
    y0: usize,
    y1: usize,
) {
    let wi = dw_qcover(wd); // interior columns 1..=wd-2, or 0 if < 16
    assert!(x.len() >= h * wd, "plane too short");
    for y in y0..y1 {
        let orow = &mut o[(y - y0) * wd..(y - y0 + 1) * wd];
        if wi == 0 {
            for (xc, cell) in orow.iter_mut().enumerate() {
                *cell = dw_cell_scalar(x, w9, h, wd, y, xc);
            }
            continue;
        }
        // In-bounds taps for this output row: (weight, row base + kx),
        // so a block at column xs reads 16 bytes from base + xs - 1.
        let mut taps = [(0i8, 0usize); 9];
        let mut nt = 0;
        for ky in 0..3 {
            let iy = y + ky;
            if iy < 1 || iy > h {
                continue;
            }
            for kx in 0..3 {
                taps[nt] = (w9[ky * 3 + kx], (iy - 1) * wd + kx);
                nt += 1;
            }
        }
        // SAFETY: every block column xs satisfies 1 <= xs and xs + 15
        // <= wi = wd - 2, so each tap load base + xs - 1..base + xs + 15
        // stays inside its input row and the store xs..xs + 16 inside
        // `orow`.
        unsafe {
            let op = orow.as_mut_ptr();
            for bx in 0..wi / QLANES {
                dw_block::<Q>(x, &taps, nt, op, 1 + bx * QLANES);
            }
            if !wi.is_multiple_of(QLANES) {
                // Overlapping tail block: recomputes some cells of the
                // previous block to the same bits.
                dw_block::<Q>(x, &taps, nt, op, 1 + wi - QLANES);
            }
        }
        orow[0] = dw_cell_scalar(x, w9, h, wd, y, 0);
        orow[wd - 1] = dw_cell_scalar(x, w9, h, wd, y, wd - 1);
    }
}

/// One 16-column block of the DW stencil at column `xs` of `orow`:
/// reduces the row's `nt` in-bounds taps from zero and stores once
/// (overwrite semantics). Tap `t` reads 16 bytes of `x` from
/// `taps[t].1 + xs - 1`.
///
/// # Safety
///
/// Every tap read and the 16-wide store at `orow + xs` must be in
/// bounds.
#[inline(always)]
unsafe fn dw_block<Q: QPairs>(
    x: &[i8],
    taps: &[(i8, usize); 9],
    nt: usize,
    orow: *mut i32,
    xs: usize,
) {
    // SAFETY: forwarded from the caller.
    unsafe {
        let xp = x.as_ptr().add(xs - 1);
        madd_taps(Q::zero(), nt, |t| (taps[t].0, xp.add(taps[t].1))).store(orow.add(xs));
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
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { dw_plane_rows_avx2(x, w9, o, h, wd, y0, y1) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
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
        record_qlanes("dwconv3", n * c * h * dw_qcover(wd));
    }
    par_chunks_mut(&mut out[..n * c * plane], plane, |pi, o| {
        let ch = pi % c;
        dw_plane_rows(
            be,
            &x[pi * plane..(pi + 1) * plane],
            &w[ch * 9..ch * 9 + 9],
            o,
            h,
            wd,
            0,
            h,
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
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { quantize_avx2(src, scale, dst) },
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
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { requant_avx2(acc, mult, bias, clamp, out_scale, dst) },
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
/// rides along unchanged. It runs the f32 reorg's own permutation body,
/// on the [`parallel`](crate::parallel) pool.
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
    let mut out = vec![0i8; n * c * h * w];
    if out.is_empty() {
        return out;
    }
    let _span = telemetry::span("tensor.qreorg");
    crate::reorg::space_to_depth(src, &mut out, h, w, s);
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

    /// Plants the pairing corners in an `m×k` weight matrix: every row
    /// ends in a non-zero weight (the lone odd last weight when `k` is
    /// odd), row 0 opens with a `(0, 0)` pair and row 1 with a pair whose
    /// first weight alone is 0.
    fn plant_pairs(a: &mut [i8], m: usize, k: usize) {
        for i in 0..m {
            if a[i * k + k - 1] == 0 {
                a[i * k + k - 1] = -3;
            }
        }
        if k >= 3 {
            a[..2].fill(0);
            if m > 1 {
                (a[k], a[k + 1]) = (0, 9);
            }
        }
    }

    #[test]
    fn matmul_rows_match_naive_on_every_backend() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 4, 16),
            (5, 7, 33),
            (2, 9, 64),
            (4, 5, 17),
            (3, 8, 16),
            (6, 2, 80),
        ] {
            let mut a = seq_i8(m * k, 3);
            plant_pairs(&mut a, m, k);
            let b = seq_i8(k * n, 5);
            // Pre-seeded accumulators: the rows body adds into `c`.
            let want: Vec<i32> = naive_matmul(&a, &b, m, k, n)
                .iter()
                .map(|v| v.wrapping_add(7))
                .collect();
            for be in simd::available_backends() {
                let mut got = vec![7i32; m * n];
                matmul_i8_rows(be, &a, &b, &mut got, m, k, n);
                assert_eq!(want, got, "{} m={m} k={k} n={n}", be.name());
            }
        }
    }

    #[test]
    fn dw_plane_rows_match_naive_on_every_backend() {
        // The second filter plants a (0, 0) tap pair, a pair whose first
        // weight alone is 0 and a lone odd last tap (interior rows).
        for w9 in [seq_i8(9, 11), vec![0, 0, 0, 4, -7, 9, -2, 6, -5]] {
            for wd in [1, 2, 3, 16, 17, 18, 19, 33, 40, 70] {
                let h = 5;
                let x = seq_i8(h * wd, 7);
                let want = naive_dw(&x, &w9, h, wd);
                for be in simd::available_backends() {
                    // Dirty output: dw_plane_rows has overwrite semantics.
                    let mut got = vec![13i32; h * wd];
                    dw_plane_rows(be, &x, &w9, &mut got, h, wd, 0, h);
                    assert_eq!(want, got, "{} wd={wd} w9={w9:?}", be.name());
                }
            }
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
        // identically to the naive wrapping loop; n = 16 sends the wrap
        // through a full vector block on every backend.
        let (k, n) = (1 << 18, 16); // 262144 · 16384 = 2^32 → wraps twice over
        let a = vec![i8::MIN; k];
        let b = vec![i8::MIN; k * n];
        let mut want = 0i32;
        for _ in 0..k {
            want = want.wrapping_add(16384);
        }
        for be in simd::available_backends() {
            let mut c = vec![0i32; n];
            matmul_i8_rows(be, &a, &b, &mut c, 1, k, n);
            assert_eq!(c, vec![want; n], "{}", be.name());
        }
    }
}
