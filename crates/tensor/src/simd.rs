//! Fixed-width SIMD lane abstraction with a **lane-ordered determinism
//! contract**.
//!
//! The hot kernels in this crate ([`dwconv`](crate::dwconv),
//! [`matmul`](crate::matmul), the elementwise tails in
//! [`ops`](crate::ops)/[`conv`](crate::conv)) are written **once** as
//! generic functions over the [`F32x8`] trait and instantiated for three
//! backends:
//!
//! * [`ScalarV`] — plain Rust on a `[f32; 8]`, available everywhere;
//! * [`Sse2V`] — two `__m128` halves (SSE2 is the x86_64 baseline);
//! * [`Avx2V`] — one `__m256`, used when the CPU reports AVX2.
//!
//! Every trait method performs the **same eight IEEE-754 single-precision
//! operations in the same order** on every backend: no FMA (fused
//! multiply-add rounds once where `mul` + `add` round twice, and SSE2
//! cannot fuse, so fusing would split the backends), a fixed
//! [`F32x8::reduce_add`] tree, and x86 `min`/`max`/compare semantics
//! replayed literally by the scalar fallback. A kernel written against
//! the trait is therefore **bit-identical across backends by
//! construction** — the cross-thread-count determinism guarantee of
//! [`parallel`](crate::parallel) extends to a cross-ISA guarantee. The
//! `simd_equivalence` proptest suite asserts it bitwise.
//!
//! The trait also carries the few ops the INT8 f32 epilogues in
//! [`qint`](crate::qint) need — an `i32` → f32 convert, divide, an
//! exact [`f32::round`] and a narrowing `i8` store — under the same
//! per-lane bit-identity rule.
//!
//! ## Backend selection
//!
//! The active backend is a process-wide setting resolved once from the
//! `SKYNET_SIMD` environment variable (`scalar`, `sse2`, `avx2`,
//! `avx2pair`, or `auto` — the default — which picks the widest
//! available). Forcing a backend the CPU cannot run is a **hard error**
//! (panic), never a silent fallback. [`force`] flips the backend at
//! runtime — safe precisely because all backends produce identical
//! bits, so tests and benches can sweep backends in-process.
//!
//! [`Backend::Avx2Pair`] is the integer pairing tier: its f32 kernels
//! are exactly the AVX2 ones, but the INT8 kernels in
//! [`qint`](crate::qint) accumulate adjacent `i8×i8` products through
//! `madd`-style pair reduction (still bit-identical — see the module
//! docs there). It is preferred by `auto` wherever AVX2 is available.
//!
//! ## Telemetry
//!
//! When metrics are on, the `simd.backend` gauge reports the resolved
//! backend (0 = scalar, 1 = sse2, 2 = avx2, 3 = avx2pair) and `simd.<op>.lanes_used`
//! counters tally elements processed through the 8-lane kernels (the
//! scalar backend replays the same lane structure, so its elements count
//! too; for `matmul` the count is nominal — the `a == 0` skip is not
//! deducted).

use crate::telemetry;
use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of the [`F32x8`] abstraction. Fixed at 8 on every backend
/// so the accumulation order — and therefore every result bit — never
/// depends on the ISA.
pub const LANES: usize = 8;

/// A SIMD backend the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain Rust replaying the 8-lane operation order.
    Scalar,
    /// SSE2 (`__m128` pairs) — the x86_64 baseline, always available there.
    Sse2,
    /// AVX2 (`__m256`) — requires runtime CPU support.
    Avx2,
    /// AVX2 with pairwise-`madd` INT8 accumulation. The f32 kernels are
    /// identical to [`Backend::Avx2`]; only the integer kernels differ
    /// (and only in throughput — never in output bits).
    Avx2Pair,
}

impl Backend {
    /// Lower-case name, matching the `SKYNET_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx2Pair => "avx2pair",
        }
    }

    /// Whether this process can execute the backend.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx2Pair => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Gauge code reported as `simd.backend`.
    fn code(self) -> u8 {
        match self {
            Backend::Scalar => 0,
            Backend::Sse2 => 1,
            Backend::Avx2 => 2,
            Backend::Avx2Pair => 3,
        }
    }
}

/// Every `SKYNET_SIMD` value [`init_from_env`] accepts, in the order the
/// hard error lists them. Pinned by a unit test so the message cannot
/// silently drift from the parser.
const ACCEPTED_SIMD_VALUES: &str = "scalar|sse2|avx2|avx2pair|auto";

/// The unknown-`SKYNET_SIMD` hard-error text. Kept in a helper so the
/// panic and the test pinning its wording share one definition.
fn unknown_simd_value_message(other: &str) -> String {
    format!("SKYNET_SIMD={other:?} is not a backend (expected {ACCEPTED_SIMD_VALUES})")
}

/// Every backend this process can execute, widest last. The first entry
/// is always [`Backend::Scalar`], so sweeps have a fixed oracle.
pub fn available_backends() -> Vec<Backend> {
    [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx2Pair,
    ]
    .into_iter()
    .filter(|b| b.is_available())
    .collect()
}

/// `ACTIVE` encoding: 0 = unresolved, otherwise `Backend::code() + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn widest_available() -> Backend {
    if Backend::Avx2Pair.is_available() {
        Backend::Avx2Pair
    } else if Backend::Sse2.is_available() {
        Backend::Sse2
    } else {
        Backend::Scalar
    }
}

fn store_active(be: Backend) {
    ACTIVE.store(be.code() + 1, Ordering::Relaxed);
    telemetry::record_gauge("simd.backend", f64::from(be.code()));
}

/// The active backend, resolving `SKYNET_SIMD` on first use.
///
/// # Panics
///
/// Panics (hard error, by design) when `SKYNET_SIMD` names an unknown
/// value or a backend this CPU cannot execute.
pub fn active() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => Backend::Scalar,
        2 => Backend::Sse2,
        3 => Backend::Avx2,
        _ => Backend::Avx2Pair,
    }
}

#[cold]
fn init_from_env() -> Backend {
    let be = match std::env::var("SKYNET_SIMD").as_deref() {
        Err(_) | Ok("auto") | Ok("") => widest_available(),
        Ok("scalar") => Backend::Scalar,
        Ok("sse2") => Backend::Sse2,
        Ok("avx2") => Backend::Avx2,
        Ok("avx2pair") => Backend::Avx2Pair,
        Ok(other) => panic!("{}", unknown_simd_value_message(other)),
    };
    assert!(
        be.is_available(),
        "SKYNET_SIMD={} forced, but this CPU cannot execute it",
        be.name()
    );
    store_active(be);
    be
}

/// Forces the active backend, e.g. for a bench sweep. Safe to flip
/// mid-process: every backend produces bit-identical results, so in-flight
/// kernels cannot observe the change in their outputs.
///
/// # Panics
///
/// Panics when the backend is unavailable on this CPU (same hard-error
/// contract as `SKYNET_SIMD`).
pub fn force(be: Backend) {
    assert!(
        be.is_available(),
        "cannot force SIMD backend {}: unavailable on this CPU",
        be.name()
    );
    store_active(be);
}

/// Tallies `simd.<op>.lanes_used` when metrics are enabled, and
/// refreshes the `simd.backend` gauge (so it survives
/// [`telemetry::reset_metrics`] between measurement windows).
#[inline]
pub fn record_lanes(op: &'static str, lanes: usize) {
    if lanes > 0 && telemetry::metrics_enabled() {
        telemetry::counter(&format!("simd.{op}.lanes_used")).add(lanes as u64);
        telemetry::record_gauge("simd.backend", f64::from(active().code()));
    }
}

/// Number of elements of a `len`-element loop body that the 8-lane
/// kernels process as full blocks (the remainder runs scalar).
#[inline]
pub fn vector_cover(len: usize) -> usize {
    len / LANES * LANES
}

// ---------------------------------------------------------------------------
// The lane abstraction
// ---------------------------------------------------------------------------

/// Eight `f32` lanes with backend-independent IEEE-754 semantics.
///
/// Implementations must make every method perform per-lane-identical
/// single-precision operations across backends:
///
/// * `add`/`sub`/`mul` round once per lane (never fused);
/// * [`F32x8::min`]/[`F32x8::max`] use the x86 `minps`/`maxps` rule —
///   `min(a, b) = if a < b { a } else { b }` (so `b` wins on NaN and on
///   equal-magnitude signed zeros), and symmetrically for `max`;
/// * [`F32x8::less_than`] is the ordered compare (`false` on NaN),
///   yielding an all-ones/all-zeros lane mask;
/// * [`F32x8::reduce_add`] sums lanes in the fixed tree
///   `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`.
pub trait F32x8: Copy {
    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;
    /// Loads lanes from `src[0..8]`.
    ///
    /// # Panics
    ///
    /// Panics when `src` holds fewer than 8 elements.
    fn load(src: &[f32]) -> Self;
    /// Loads every second element: lane `j` is `src[2 * j]`. Requires 15
    /// elements (not 16): lane 7 reads `src[14]`, and the implementations
    /// never touch `src[15]`, so callers can pass exactly the tight
    /// interior span of a stride-2 kernel.
    ///
    /// # Panics
    ///
    /// Panics when `src` holds fewer than 15 elements.
    fn load_stride2(src: &[f32]) -> Self;
    /// Stores lanes to `dst[0..8]`.
    ///
    /// # Panics
    ///
    /// Panics when `dst` holds fewer than 8 elements.
    fn store(self, dst: &mut [f32]);
    /// Unchecked [`F32x8::load`] for hot loops whose bounds are proved
    /// once up front: LLVM does not eliminate the per-call slice checks
    /// of the safe variant through the backend dispatch, and a 3×3
    /// stencil makes 9 such calls per 8-pixel block.
    ///
    /// # Safety
    ///
    /// `src` must be valid for reads of 8 consecutive `f32`s.
    unsafe fn load_ptr(src: *const f32) -> Self;
    /// Unchecked [`F32x8::load_stride2`]: lane `j` reads `src[2 * j]`.
    ///
    /// # Safety
    ///
    /// `src` must be valid for reads of 15 consecutive `f32`s (lane 7
    /// reads `src[14]`; `src[15]` is never touched).
    unsafe fn load_stride2_ptr(src: *const f32) -> Self;
    /// Unchecked [`F32x8::store`].
    ///
    /// # Safety
    ///
    /// `dst` must be valid for writes of 8 consecutive `f32`s.
    unsafe fn store_ptr(self, dst: *mut f32);
    /// Lane-wise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `minps` rule: `if self < o { self } else { o }`.
    fn min(self, o: Self) -> Self;
    /// Lane-wise `maxps` rule: `if self > o { self } else { o }`.
    fn max(self, o: Self) -> Self;
    /// Lane-wise absolute value (clears the sign bit).
    fn abs(self) -> Self;
    /// Ordered lane-wise `self < o`, as an all-ones/all-zeros bit mask.
    fn less_than(self, o: Self) -> Self;
    /// Lane-wise bit blend: where `mask` lanes are all-ones take
    /// `if_true`, else `if_false`. `mask` must come from a compare.
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self;
    /// Sums the lanes in the fixed tree
    /// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` — the order the SSE
    /// `movehl`/`shuffle` reduction produces, replayed by every backend.
    fn reduce_add(self) -> f32;
    /// Lanes as an array (for scalar scatter of vector products).
    fn to_array(self) -> [f32; 8];
    /// Loads 8 `i32`s converted to f32 lanes. The conversion rounds to
    /// nearest-even (`cvtdq2ps` under the default MXCSR), exactly like
    /// `v as f32`.
    ///
    /// # Safety
    ///
    /// `src` must be valid for reads of 8 consecutive `i32`s.
    unsafe fn load_i32_ptr(src: *const i32) -> Self;
    /// Lane-wise `self / o` (IEEE, correctly rounded).
    fn div(self, o: Self) -> Self;
    /// Lane-wise [`f32::round`]: nearest integer, ties away from zero,
    /// the sign of zero kept, ±∞ unchanged, NaN stays NaN. The vector
    /// backends emulate it as `t = trunc(x)`, then `t ± 1` when
    /// `|x − t| ≥ 0.5` — every step is exact (`x − t` is the exact
    /// fraction, and `t ± 1` is an exact integer below 2²⁴).
    fn round(self) -> Self;
    /// Narrowing store of 8 lanes as `i8`s. Lanes must already hold
    /// integers in `[-128, 127]`; other values are unspecified.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for writes of 8 consecutive `i8`s.
    unsafe fn store_i8_ptr(self, dst: *mut i8);
}

// ---------------------------------------------------------------------------
// Scalar backend: the lane-ordered oracle
// ---------------------------------------------------------------------------

/// The scalar backend: a `[f32; 8]` replaying the vector operation order
/// literally. This is the oracle the `simd_equivalence` suite compares
/// the ISA backends against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarV([f32; LANES]);

impl F32x8 for ScalarV {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        ScalarV([v; LANES])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let s: &[f32; LANES] = src[..LANES].try_into().expect("8 lanes");
        ScalarV(*s)
    }

    #[inline(always)]
    fn load_stride2(src: &[f32]) -> Self {
        assert!(src.len() >= 15, "load_stride2 needs 15 elements");
        ScalarV(std::array::from_fn(|j| src[2 * j]))
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        // SAFETY: caller guarantees 8 readable elements.
        ScalarV(std::array::from_fn(|j| unsafe { *src.add(j) }))
    }

    #[inline(always)]
    unsafe fn load_stride2_ptr(src: *const f32) -> Self {
        // SAFETY: caller guarantees 15 readable elements.
        ScalarV(std::array::from_fn(|j| unsafe { *src.add(2 * j) }))
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        // SAFETY: caller guarantees 8 writable elements.
        unsafe { std::ptr::copy_nonoverlapping(self.0.as_ptr(), dst, LANES) }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| self.0[j] + o.0[j]))
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| self.0[j] - o.0[j]))
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| self.0[j] * o.0[j]))
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // minps: second operand wins on NaN and ±0 ties.
        ScalarV(std::array::from_fn(|j| {
            if self.0[j] < o.0[j] {
                self.0[j]
            } else {
                o.0[j]
            }
        }))
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| {
            if self.0[j] > o.0[j] {
                self.0[j]
            } else {
                o.0[j]
            }
        }))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        ScalarV(std::array::from_fn(|j| {
            f32::from_bits(self.0[j].to_bits() & 0x7fff_ffff)
        }))
    }

    #[inline(always)]
    fn less_than(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| {
            f32::from_bits(if self.0[j] < o.0[j] { u32::MAX } else { 0 })
        }))
    }

    #[inline(always)]
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
        ScalarV(std::array::from_fn(|j| {
            let m = mask.0[j].to_bits();
            f32::from_bits((m & if_true.0[j].to_bits()) | (!m & if_false.0[j].to_bits()))
        }))
    }

    #[inline(always)]
    fn reduce_add(self) -> f32 {
        let l = self.0;
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        self.0
    }

    #[inline(always)]
    unsafe fn load_i32_ptr(src: *const i32) -> Self {
        // SAFETY: caller guarantees 8 readable elements.
        ScalarV(std::array::from_fn(|j| unsafe { *src.add(j) } as f32))
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        ScalarV(std::array::from_fn(|j| self.0[j] / o.0[j]))
    }

    #[inline(always)]
    fn round(self) -> Self {
        ScalarV(self.0.map(f32::round))
    }

    #[inline(always)]
    unsafe fn store_i8_ptr(self, dst: *mut i8) {
        for j in 0..LANES {
            // SAFETY: caller guarantees 8 writable elements.
            unsafe { *dst.add(j) = self.0[j] as i8 };
        }
    }
}

// ---------------------------------------------------------------------------
// SSE2 backend (x86_64 baseline)
// ---------------------------------------------------------------------------

/// SSE2 backend: two `__m128` halves (lanes 0–3 and 4–7). SSE2 is part
/// of the x86_64 baseline, so this backend needs no runtime detection.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Sse2V(std::arch::x86_64::__m128, std::arch::x86_64::__m128);

#[cfg(target_arch = "x86_64")]
impl F32x8 for Sse2V {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_set1_ps(v), _mm_set1_ps(v)) }
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= LANES, "load needs 8 elements");
        // SAFETY: length checked above.
        unsafe { Self::load_ptr(src.as_ptr()) }
    }

    #[inline(always)]
    fn load_stride2(src: &[f32]) -> Self {
        assert!(src.len() >= 15, "load_stride2 needs 15 elements");
        // SAFETY: length checked above.
        unsafe { Self::load_stride2_ptr(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= LANES, "store needs 8 elements");
        // SAFETY: length checked above.
        unsafe { self.store_ptr(dst.as_mut_ptr()) }
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 readable elements.
        unsafe { Sse2V(_mm_loadu_ps(src), _mm_loadu_ps(src.add(4))) }
    }

    #[inline(always)]
    unsafe fn load_stride2_ptr(src: *const f32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 15 readable elements.
        unsafe {
            // Lanes 0–3 = src[0,2,4,6]: deinterleave two 4-wide loads.
            let a = _mm_loadu_ps(src); //  s0 s1 s2 s3
            let b = _mm_loadu_ps(src.add(4)); //  s4 s5 s6 s7
            let lo = _mm_shuffle_ps::<0b10_00_10_00>(a, b); // s0 s2 s4 s6
                                                            // Lanes 4–7 = src[8,10,12,14]: the second load starts at 11
                                                            // so the last element read is src[14], never src[15].
            let c = _mm_loadu_ps(src.add(8)); //  s8 s9 s10 s11
            let d = _mm_loadu_ps(src.add(11)); // s11 s12 s13 s14
            let hi = _mm_shuffle_ps::<0b11_01_10_00>(c, d); // s8 s10 s12 s14
            Sse2V(lo, hi)
        }
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 writable elements.
        unsafe {
            _mm_storeu_ps(dst, self.0);
            _mm_storeu_ps(dst.add(4), self.1);
        }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_add_ps(self.0, o.0), _mm_add_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_sub_ps(self.0, o.0), _mm_sub_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_mul_ps(self.0, o.0), _mm_mul_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_min_ps(self.0, o.0), _mm_min_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_max_ps(self.0, o.0), _mm_max_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn abs(self) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            let m = _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff));
            Sse2V(_mm_and_ps(self.0, m), _mm_and_ps(self.1, m))
        }
    }

    #[inline(always)]
    fn less_than(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_cmplt_ps(self.0, o.0), _mm_cmplt_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            Sse2V(
                _mm_or_ps(
                    _mm_and_ps(mask.0, if_true.0),
                    _mm_andnot_ps(mask.0, if_false.0),
                ),
                _mm_or_ps(
                    _mm_and_ps(mask.1, if_true.1),
                    _mm_andnot_ps(mask.1, if_false.1),
                ),
            )
        }
    }

    #[inline(always)]
    fn reduce_add(self) -> f32 {
        use std::arch::x86_64::*;
        unsafe {
            // s = [l0+l4, l1+l5, l2+l6, l3+l7]
            let s = _mm_add_ps(self.0, self.1);
            // t = [s0+s2, s1+s3, ..] — then r = t0 + t1.
            let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let r = _mm_add_ss(t, _mm_shuffle_ps::<0b01>(t, t));
            _mm_cvtss_f32(r)
        }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        self.store(&mut out);
        out
    }

    #[inline(always)]
    unsafe fn load_i32_ptr(src: *const i32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 readable elements.
        unsafe {
            let p = src as *const __m128i;
            Sse2V(
                _mm_cvtepi32_ps(_mm_loadu_si128(p)),
                _mm_cvtepi32_ps(_mm_loadu_si128(p.add(1))),
            )
        }
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Sse2V(_mm_div_ps(self.0, o.0), _mm_div_ps(self.1, o.1)) }
    }

    #[inline(always)]
    fn round(self) -> Self {
        use std::arch::x86_64::*;
        // SSE2 has no `roundps`: truncate through `cvttps2dq`, exact
        // below 2²³ (at or above it every f32 is an integer, and ±∞/NaN
        // fail the compare, so `x` itself is kept). Then step one unit
        // away from zero when the exact fraction |x − t| is ≥ 0.5 (NaN
        // fractions, from ±∞, compare false), and copy x's sign onto the
        // result so -0.3 rounds to -0.0 like `f32::round` (a negative x
        // never rounds to a positive value, so OR-ing the sign is exact).
        #[inline(always)]
        unsafe fn half(x: __m128) -> __m128 {
            unsafe {
                let sign = _mm_set1_ps(-0.0);
                let xs = _mm_and_ps(x, sign);
                let small = _mm_cmplt_ps(_mm_andnot_ps(sign, x), _mm_set1_ps(8_388_608.0));
                let ti = _mm_cvtepi32_ps(_mm_cvttps_epi32(x));
                let t = _mm_or_ps(_mm_and_ps(small, ti), _mm_andnot_ps(small, x));
                let frac = _mm_andnot_ps(sign, _mm_sub_ps(x, t));
                let step = _mm_and_ps(
                    _mm_cmpge_ps(frac, _mm_set1_ps(0.5)),
                    _mm_or_ps(xs, _mm_set1_ps(1.0)),
                );
                _mm_or_ps(_mm_add_ps(t, step), xs)
            }
        }
        unsafe { Sse2V(half(self.0), half(self.1)) }
    }

    #[inline(always)]
    unsafe fn store_i8_ptr(self, dst: *mut i8) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 writable elements; the lanes hold
        // in-range integers, so the saturating packs are plain narrows.
        unsafe {
            let w = _mm_packs_epi32(_mm_cvttps_epi32(self.0), _mm_cvttps_epi32(self.1));
            _mm_storel_epi64(dst as *mut __m128i, _mm_packs_epi16(w, w));
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------------

/// AVX2 backend: one `__m256`. Only instantiated behind
/// `#[target_feature(enable = "avx2")]` wrappers after runtime
/// detection. FMA is deliberately **not** enabled or used: fusing would
/// change rounding versus the SSE2/scalar backends and break the
/// cross-ISA bit-identity contract.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2V(std::arch::x86_64::__m256);

#[cfg(target_arch = "x86_64")]
impl F32x8 for Avx2V {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_set1_ps(v)) }
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= LANES, "load needs 8 elements");
        // SAFETY: length checked above.
        unsafe { Self::load_ptr(src.as_ptr()) }
    }

    #[inline(always)]
    fn load_stride2(src: &[f32]) -> Self {
        assert!(src.len() >= 15, "load_stride2 needs 15 elements");
        // SAFETY: length checked above.
        unsafe { Self::load_stride2_ptr(src.as_ptr()) }
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= LANES, "store needs 8 elements");
        // SAFETY: length checked above.
        unsafe { self.store_ptr(dst.as_mut_ptr()) }
    }

    #[inline(always)]
    unsafe fn load_ptr(src: *const f32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 readable elements.
        unsafe { Avx2V(_mm256_loadu_ps(src)) }
    }

    #[inline(always)]
    unsafe fn load_stride2_ptr(src: *const f32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 15 readable elements.
        unsafe {
            // pa = s0..s7 supplies even lanes 0–3; pb starts at 7 (last
            // element read is src[14]) and supplies lanes 4–7 from its
            // odd positions s8, s10, s12, s14.
            let pa = _mm256_loadu_ps(src);
            let pb = _mm256_loadu_ps(src.add(7));
            let ia = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            let ib = _mm256_setr_epi32(0, 0, 0, 0, 1, 3, 5, 7);
            let ea = _mm256_permutevar8x32_ps(pa, ia);
            let eb = _mm256_permutevar8x32_ps(pb, ib);
            Avx2V(_mm256_blend_ps::<0b1111_0000>(ea, eb))
        }
    }

    #[inline(always)]
    unsafe fn store_ptr(self, dst: *mut f32) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 writable elements.
        unsafe { _mm256_storeu_ps(dst, self.0) }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_add_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_sub_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_mul_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_min_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_max_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn abs(self) -> Self {
        use std::arch::x86_64::*;
        unsafe {
            let m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
            Avx2V(_mm256_and_ps(self.0, m))
        }
    }

    #[inline(always)]
    fn less_than(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0)) }
    }

    #[inline(always)]
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_blendv_ps(if_false.0, if_true.0, mask.0)) }
    }

    #[inline(always)]
    fn reduce_add(self) -> f32 {
        use std::arch::x86_64::*;
        unsafe {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps::<1>(self.0);
            let s = _mm_add_ps(lo, hi);
            let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let r = _mm_add_ss(t, _mm_shuffle_ps::<0b01>(t, t));
            _mm_cvtss_f32(r)
        }
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        self.store(&mut out);
        out
    }

    #[inline(always)]
    unsafe fn load_i32_ptr(src: *const i32) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 readable elements.
        unsafe {
            Avx2V(_mm256_cvtepi32_ps(_mm256_loadu_si256(
                src as *const __m256i,
            )))
        }
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        use std::arch::x86_64::*;
        unsafe { Avx2V(_mm256_div_ps(self.0, o.0)) }
    }

    #[inline(always)]
    fn round(self) -> Self {
        use std::arch::x86_64::*;
        // The SSE2 algorithm, with `vroundps` truncating directly.
        unsafe {
            let x = self.0;
            let sign = _mm256_set1_ps(-0.0);
            let xs = _mm256_and_ps(x, sign);
            let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
            let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(x, t));
            let step = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5)),
                _mm256_or_ps(xs, _mm256_set1_ps(1.0)),
            );
            Avx2V(_mm256_or_ps(_mm256_add_ps(t, step), xs))
        }
    }

    #[inline(always)]
    unsafe fn store_i8_ptr(self, dst: *mut i8) {
        use std::arch::x86_64::*;
        // SAFETY: caller guarantees 8 writable elements; the lanes hold
        // in-range integers, so the saturating packs are plain narrows.
        unsafe {
            let i = _mm256_cvttps_epi32(self.0);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256::<1>(i));
            _mm_storel_epi64(dst as *mut __m128i, _mm_packs_epi16(w, w));
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise tail kernels (bias add, ReLU/ReLU6, BN apply, SGD update)
// ---------------------------------------------------------------------------

/// Expands one generic elementwise kernel into an AVX2
/// `#[target_feature]` wrapper plus a public dispatcher over the active
/// backend. The generic body is `#[inline(always)]`, so inside the
/// wrapper the [`Avx2V`] intrinsics inline into an AVX2-enabled context.
macro_rules! elementwise {
    (
        $(#[$doc:meta])*
        $name:ident / $avx2:ident = $generic:ident ( $($arg:ident : $ty:ty),* $(,)? )
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($($arg: $ty),*) {
            $generic::<Avx2V>($($arg),*)
        }

        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            match active() {
                Backend::Scalar => $generic::<ScalarV>($($arg),*),
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => $generic::<Sse2V>($($arg),*),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the Avx2 backends are only ever stored after a
                // successful runtime `avx2` detection.
                Backend::Avx2 | Backend::Avx2Pair => unsafe { $avx2($($arg),*) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("x86 backends are never active off x86_64"),
            }
        }
    };
}

#[inline(always)]
fn relu_g<V: F32x8>(xs: &mut [f32]) {
    let zero = V::splat(0.0);
    let n8 = vector_cover(xs.len());
    for j in (0..n8).step_by(LANES) {
        V::load(&xs[j..]).max(zero).store(&mut xs[j..]);
    }
    for v in &mut xs[n8..] {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

elementwise! {
    /// In-place ReLU with `maxps` semantics (`max(x, 0)`; NaN and `-0.0`
    /// become `+0.0`).
    relu_inplace / relu_avx2 = relu_g(xs: &mut [f32])
}

#[inline(always)]
fn relu6_g<V: F32x8>(xs: &mut [f32]) {
    let zero = V::splat(0.0);
    let six = V::splat(6.0);
    let n8 = vector_cover(xs.len());
    for j in (0..n8).step_by(LANES) {
        V::load(&xs[j..]).max(zero).min(six).store(&mut xs[j..]);
    }
    for v in &mut xs[n8..] {
        let t = if *v > 0.0 { *v } else { 0.0 };
        *v = if t < 6.0 { t } else { 6.0 };
    }
}

elementwise! {
    /// In-place ReLU6 with `maxps`/`minps` semantics
    /// (`min(max(x, 0), 6)`; NaN and `-0.0` become `+0.0`).
    relu6_inplace / relu6_avx2 = relu6_g(xs: &mut [f32])
}

#[inline(always)]
fn add_scalar_g<V: F32x8>(xs: &mut [f32], b: f32) {
    let bv = V::splat(b);
    let n8 = vector_cover(xs.len());
    for j in (0..n8).step_by(LANES) {
        V::load(&xs[j..]).add(bv).store(&mut xs[j..]);
    }
    for v in &mut xs[n8..] {
        *v += b;
    }
}

elementwise! {
    /// In-place `x += b` — the per-row bias tail of the convolutions.
    add_scalar_inplace / add_scalar_avx2 = add_scalar_g(xs: &mut [f32], b: f32)
}

#[inline(always)]
fn bn_train_g<V: F32x8>(
    x: &[f32],
    x_hat: &mut [f32],
    y: &mut [f32],
    m: f32,
    inv_std: f32,
    g: f32,
    b: f32,
) {
    let (mv, sv, gv, bv) = (V::splat(m), V::splat(inv_std), V::splat(g), V::splat(b));
    let n8 = vector_cover(x.len());
    for j in (0..n8).step_by(LANES) {
        let xh = V::load(&x[j..]).sub(mv).mul(sv);
        xh.store(&mut x_hat[j..]);
        gv.mul(xh).add(bv).store(&mut y[j..]);
    }
    for j in n8..x.len() {
        let xh = (x[j] - m) * inv_std;
        x_hat[j] = xh;
        y[j] = g * xh + b;
    }
}

elementwise! {
    /// Batch-norm training apply over one channel plane:
    /// `x̂ = (x − m)·inv_std`, `y = g·x̂ + b` — the exact operation
    /// sequence of the previous scalar loop, so results are unchanged.
    bn_apply_train / bn_train_avx2 = bn_train_g(
        x: &[f32], x_hat: &mut [f32], y: &mut [f32], m: f32, inv_std: f32, g: f32, b: f32
    )
}

#[inline(always)]
fn bn_eval_g<V: F32x8>(x: &[f32], y: &mut [f32], m: f32, inv_std: f32, g: f32, b: f32) {
    let (mv, sv, gv, bv) = (V::splat(m), V::splat(inv_std), V::splat(g), V::splat(b));
    let n8 = vector_cover(x.len());
    for j in (0..n8).step_by(LANES) {
        gv.mul(V::load(&x[j..]).sub(mv))
            .mul(sv)
            .add(bv)
            .store(&mut y[j..]);
    }
    for j in n8..x.len() {
        y[j] = g * (x[j] - m) * inv_std + b;
    }
}

elementwise! {
    /// Batch-norm eval apply over one channel plane:
    /// `y = g·(x − m)·inv_std + b` — the exact previous scalar sequence.
    bn_apply_eval / bn_eval_avx2 = bn_eval_g(
        x: &[f32], y: &mut [f32], m: f32, inv_std: f32, g: f32, b: f32
    )
}

#[inline(always)]
fn bn_act_g<V: F32x8>(xs: &mut [f32], m: f32, inv_std: f32, g: f32, b: f32, hi: f32) {
    let (mv, sv, gv, bv) = (V::splat(m), V::splat(inv_std), V::splat(g), V::splat(b));
    let zero = V::splat(0.0);
    let hv = V::splat(hi);
    let n8 = vector_cover(xs.len());
    for j in (0..n8).step_by(LANES) {
        gv.mul(V::load(&xs[j..]).sub(mv))
            .mul(sv)
            .add(bv)
            .max(zero)
            .min(hv)
            .store(&mut xs[j..]);
    }
    for v in &mut xs[n8..] {
        let y = g * (*v - m) * inv_std + b;
        let t = if y > 0.0 { y } else { 0.0 };
        *v = if t < hi { t } else { hi };
    }
}

elementwise! {
    /// Fused batch-norm-eval + clamped-activation store epilogue, in
    /// place over one channel row/plane:
    /// `y = min(max(g·(x − m)·inv_std + b, 0), hi)`.
    ///
    /// The affine part replays [`bn_apply_eval`]'s exact f32 operation
    /// sequence; the clamp replays [`relu6_inplace`]'s `maxps`/`minps`
    /// semantics (NaN and `-0.0` become `+0.0`). Pass
    /// `hi = f32::INFINITY` for plain ReLU — `min(x, +∞)` returns any
    /// non-NaN `x` bitwise unchanged (and the preceding `max(x, 0)`
    /// already mapped NaN to `+0.0`), so the extra op is value-neutral
    /// and [`relu_inplace`]-compatible. Every element's value depends
    /// only on its own input, never on its position relative to the
    /// vector/tail boundary, so applying this kernel to row tiles vs
    /// whole planes is bit-identical — the property the fused bundle
    /// executor ([`crate::fused`]) relies on.
    bn_act_inplace / bn_act_avx2 = bn_act_g(
        xs: &mut [f32], m: f32, inv_std: f32, g: f32, b: f32, hi: f32
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sgd_g<V: F32x8>(
    val: &mut [f32],
    grad: &[f32],
    vel: &mut [f32],
    lr: f32,
    momentum: f32,
    decay: f32,
    clip: Option<f32>,
) {
    let inf = V::splat(f32::INFINITY);
    let zero = V::splat(0.0);
    let (mv, dv, lv) = (V::splat(momentum), V::splat(decay), V::splat(lr));
    let n8 = vector_cover(val.len());
    for j in (0..n8).step_by(LANES) {
        // Non-finite gradients are dropped (|g| < ∞ is false for ±∞ and
        // NaN), then the optional clip bounds the rest — replicating the
        // scalar `is_finite`/`clamp` update exactly for finite inputs.
        let g0 = V::load(&grad[j..]);
        let mut g = V::select(g0.abs().less_than(inf), g0, zero);
        if let Some(c) = clip {
            g = g.max(V::splat(-c)).min(V::splat(c));
        }
        let vj = V::load(&vel[j..]);
        let valj = V::load(&val[j..]);
        // vel = momentum·vel + g + decay·val (left-associated)
        let newv = mv.mul(vj).add(g).add(dv.mul(valj));
        newv.store(&mut vel[j..]);
        // val -= lr·vel
        valj.sub(lv.mul(newv)).store(&mut val[j..]);
    }
    for j in n8..val.len() {
        let g0 = grad[j];
        let mut g = if g0.is_finite() { g0 } else { 0.0 };
        if let Some(c) = clip {
            g = if g > -c { g } else { -c };
            g = if g < c { g } else { c };
        }
        vel[j] = momentum * vel[j] + g + decay * val[j];
        val[j] -= lr * vel[j];
    }
}

elementwise! {
    /// One SGD-with-momentum axpy update over a parameter slice:
    /// drop non-finite gradients, optionally clip to `[-c, c]`, then
    /// `vel = momentum·vel + g + decay·val; val -= lr·vel` — the exact
    /// operation sequence of the previous scalar optimizer loop.
    ///
    /// # Panics
    ///
    /// Panics when `grad` or `vel` are shorter than `val`.
    sgd_axpy_update / sgd_avx2 = sgd_g(
        val: &mut [f32],
        grad: &[f32],
        vel: &mut [f32],
        lr: f32,
        momentum: f32,
        decay: f32,
        clip: Option<f32>,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample15() -> [f32; 15] {
        std::array::from_fn(|i| (i as f32 * 0.73).sin() * 3.0)
    }

    fn check_backend_eq<V: F32x8>() {
        let src = sample15();
        let a = V::load(&src);
        let o = ScalarV::load(&src);
        assert_eq!(a.to_array(), o.to_array(), "load");
        assert_eq!(
            V::load_stride2(&src).to_array(),
            ScalarV::load_stride2(&src).to_array(),
            "load_stride2"
        );
        let b = V::splat(-1.25);
        let ob = ScalarV::splat(-1.25);
        assert_eq!(a.add(b).to_array(), o.add(ob).to_array(), "add");
        assert_eq!(a.sub(b).to_array(), o.sub(ob).to_array(), "sub");
        assert_eq!(a.mul(b).to_array(), o.mul(ob).to_array(), "mul");
        assert_eq!(a.min(b).to_array(), o.min(ob).to_array(), "min");
        assert_eq!(a.max(b).to_array(), o.max(ob).to_array(), "max");
        assert_eq!(a.abs().to_array(), o.abs().to_array(), "abs");
        assert_eq!(
            a.reduce_add().to_bits(),
            o.reduce_add().to_bits(),
            "reduce_add"
        );
        let m = V::load(&src).less_than(b);
        let om = ScalarV::load(&src).less_than(ob);
        assert_eq!(
            m.to_array().map(f32::to_bits),
            om.to_array().map(f32::to_bits),
            "less_than"
        );
        assert_eq!(
            V::select(m, a, b).to_array(),
            ScalarV::select(om, o, ob).to_array(),
            "select"
        );
        assert_eq!(a.div(b).to_array(), o.div(ob).to_array(), "div");
        let ints = [
            i32::MIN,
            i32::MAX,
            -16_777_217,
            16_777_217,
            -1,
            0,
            7,
            1 << 30,
        ];
        // SAFETY: `ints` holds 8 elements.
        let (vi, oi) = unsafe {
            (
                V::load_i32_ptr(ints.as_ptr()),
                ScalarV::load_i32_ptr(ints.as_ptr()),
            )
        };
        assert_eq!(vi.to_array(), oi.to_array(), "load_i32");
        let ties = [
            -2.5f32,
            -0.5,
            -0.3,
            -0.0,
            0.49999997,
            2.5,
            8_388_607.5,
            1e10,
        ];
        let odd = [
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.5,
            0.5,
            1.5,
            -8_388_609.0,
            3.7,
            -127.5,
        ];
        for xs in [ties, odd] {
            let (vr, or) = (V::load(&xs).round(), ScalarV::load(&xs).round());
            assert_eq!(
                vr.to_array().map(f32::to_bits),
                or.to_array().map(f32::to_bits),
                "round {xs:?}"
            );
        }
        let nan = V::load(&[f32::NAN; 8]).round().to_array();
        assert!(nan.iter().all(|v| v.is_nan()), "round keeps NaN");
        let narrow = [-128.0f32, 127.0, -1.0, 0.0, -0.0, 5.0, -127.0, 64.0];
        let (mut vd, mut od) = ([0i8; 8], [0i8; 8]);
        // SAFETY: both buffers hold 8 elements.
        unsafe {
            V::load(&narrow).store_i8_ptr(vd.as_mut_ptr());
            ScalarV::load(&narrow).store_i8_ptr(od.as_mut_ptr());
        }
        assert_eq!(vd, od, "store_i8");
        assert_eq!(od, [-128, 127, -1, 0, 0, 5, -127, 64]);
    }

    #[test]
    fn scalar_reduce_tree_is_fixed() {
        let v = ScalarV(std::array::from_fn(|i| (i + 1) as f32));
        // ((1+5)+(3+7)) + ((2+6)+(4+8)) = 36
        assert_eq!(v.reduce_add(), 36.0);
    }

    #[test]
    fn scalar_minmax_replays_sse_semantics() {
        let a = ScalarV::splat(f32::NAN);
        let b = ScalarV::splat(1.0);
        // Second operand wins on NaN.
        assert_eq!(a.max(b).to_array()[0], 1.0);
        assert_eq!(a.min(b).to_array()[0], 1.0);
        assert!(b.max(a).to_array()[0].is_nan());
        // -0.0 vs +0.0: compares equal, second operand wins.
        let nz = ScalarV::splat(-0.0);
        let pz = ScalarV::splat(0.0);
        assert_eq!(nz.max(pz).to_array()[0].to_bits(), 0.0f32.to_bits());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_matches_scalar_oracle() {
        check_backend_eq::<Sse2V>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_matches_scalar_oracle() {
        if !Backend::Avx2.is_available() {
            return;
        }
        #[target_feature(enable = "avx2")]
        unsafe fn run() {
            check_backend_eq::<Avx2V>();
        }
        unsafe { run() }
    }

    #[test]
    fn load_stride2_reads_even_lanes_only() {
        let src = sample15();
        let want: [f32; 8] = std::array::from_fn(|j| src[2 * j]);
        assert_eq!(ScalarV::load_stride2(&src).to_array(), want);
    }

    #[test]
    fn available_backends_starts_with_scalar() {
        let all = available_backends();
        assert_eq!(all[0], Backend::Scalar);
        assert!(all.iter().all(|b| b.is_available()));
    }

    #[test]
    fn avx2pair_tracks_avx2_availability() {
        assert_eq!(
            Backend::Avx2Pair.is_available(),
            Backend::Avx2.is_available()
        );
        let all = available_backends();
        assert_eq!(
            all.contains(&Backend::Avx2Pair),
            Backend::Avx2.is_available()
        );
    }

    /// Pins the unknown-`SKYNET_SIMD` hard-error wording: it must list
    /// every accepted value, including the pairing tier.
    #[test]
    fn unknown_simd_value_error_lists_all_accepted_values() {
        let msg = unknown_simd_value_message("turbo");
        assert_eq!(
            msg,
            "SKYNET_SIMD=\"turbo\" is not a backend (expected scalar|sse2|avx2|avx2pair|auto)"
        );
        for accepted in ["scalar", "sse2", "avx2", "avx2pair", "auto"] {
            assert!(msg.contains(accepted), "message must list {accepted:?}");
        }
    }

    #[test]
    fn elementwise_kernels_match_reference() {
        let mut xs: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.5).collect();
        let mut ys = xs.clone();
        relu6_inplace(&mut xs);
        for v in &mut ys {
            *v = v.clamp(0.0, 6.0);
        }
        assert_eq!(xs, ys);

        let mut val: Vec<f32> = (0..19).map(|i| i as f32 * 0.1).collect();
        let grad: Vec<f32> = (0..19)
            .map(|i| if i == 7 { f32::NAN } else { (i as f32).cos() })
            .collect();
        let mut vel = vec![0.5f32; 19];
        let (mut val2, mut vel2) = (val.clone(), vel.clone());
        sgd_axpy_update(&mut val, &grad, &mut vel, 0.1, 0.9, 0.01, Some(0.5));
        for j in 0..19 {
            let g = if grad[j].is_finite() { grad[j] } else { 0.0 };
            let g = g.clamp(-0.5, 0.5);
            vel2[j] = 0.9 * vel2[j] + g + 0.01 * val2[j];
            val2[j] -= 0.1 * vel2[j];
        }
        assert_eq!(val, val2);
        assert_eq!(vel, vel2);
    }
}
