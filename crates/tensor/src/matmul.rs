//! Blocked single-precision matrix multiplication.
//!
//! This is the compute core behind standard and point-wise convolutions
//! (via [`im2col`](crate::conv)). The kernel is a cache-blocked ikj loop
//! whose inner axpy update runs 8 lanes at a time through the
//! [`crate::simd`] abstraction (the only unsafe in this module is
//! the `target_feature` wrapper that instantiates the AVX2 backend after
//! runtime detection). The axpy is lane-independent — every output
//! element sees the same `c += a·b` chain on every backend — so results
//! are **bit-identical** across `SKYNET_SIMD` backends, thread counts,
//! and the pre-SIMD scalar kernel. It is not BLAS, but it is fast enough
//! to train the scaled-down models used throughout the evaluation.

use crate::parallel::par_chunks_mut;
use crate::simd::{self, Backend, F32x8, ScalarV, LANES};
use crate::{scratch, telemetry};

#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2V, Sse2V};

/// Tile edge used for cache blocking. 64 f32 = 256 B per row tile, which
/// keeps three tiles comfortably inside L1 for the sizes we use.
const BLOCK: usize = 64;

/// Minimum i-block height before a `b` tile is packed into scratch. A
/// packed tile costs one `BLOCK²` copy and saves an `n`-pitch stride on
/// every one of the i-block's row passes, so it amortizes once the block
/// is at least one vector-register's worth of rows per cache-line-sized
/// tile row — `BLOCK / LANES` (8 with a 64-wide block and 8 lanes). The
/// `pack_threshold_is_neutral` test pins the boundary shapes.
const PACK_MIN_ROWS: usize = BLOCK / LANES;

/// Computes `c += a * b` where `a` is `m×k`, `b` is `k×n` and `c` is `m×n`,
/// all dense row-major.
///
/// Output rows are distributed over the [`parallel`](crate::parallel)
/// pool in fixed `BLOCK`-row stripes; each element's dot product is
/// computed identically regardless of the stripe split or thread count,
/// so results stay bit-identical. When called from inside another
/// parallel region (e.g. a per-batch-item convolution task) the stripes
/// run inline.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "rhs too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "out too short: {} < {}", c.len(), m * n);
    if m * n == 0 {
        return;
    }
    let be = simd::active();
    let _span = telemetry::span("tensor.matmul");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.matmul.calls").inc();
        telemetry::counter("tensor.matmul.flops").add(2 * (m * k * n) as u64);
        // Nominal lane count: full j-blocks are all-vector (BLOCK is a
        // multiple of LANES) plus the vector cover of the last partial
        // block; the `a == 0` skip is not deducted.
        let cover = n / BLOCK * BLOCK + simd::vector_cover(n % BLOCK);
        simd::record_lanes("matmul", m * k * cover);
    }
    par_chunks_mut(&mut c[..m * n], BLOCK * n, |stripe, c_rows| {
        let i0 = stripe * BLOCK;
        matmul_acc_rows(be, &a[i0 * k..], b, c_rows, c_rows.len() / n, k, n);
    });
}

/// 8-lane axpy: `c[j] += av · b[j]`, scalar tail. Lane-independent, so
/// every backend reproduces the scalar `c + (a·b)` rounding per element.
#[inline(always)]
fn axpy_v<V: F32x8>(c: &mut [f32], av: f32, b: &[f32]) {
    let avv = V::splat(av);
    let n8 = simd::vector_cover(c.len());
    for j in (0..n8).step_by(LANES) {
        let dst = &mut c[j..];
        V::load(dst).add(avv.mul(V::load(&b[j..]))).store(dst);
    }
    for (cv, &bv) in c[n8..].iter_mut().zip(&b[n8..]) {
        *cv += av * bv;
    }
}

/// Serial row-stripe body of [`matmul_acc`], generic over the SIMD
/// backend.
///
/// When an i-block is tall enough to amortize the copy, the current
/// `b` tile is packed contiguously into a scratch-arena buffer before
/// the multiply: the packed tile is read once per output row instead of
/// striding through `b` with an `n`-element row pitch. The packed path
/// reads the **same values in the same order** as the direct path, so
/// results are bit-identical either way.
#[inline(always)]
fn matmul_acc_rows_g<V: F32x8>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut tile: Option<scratch::ScratchBuf> = None;
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        // Packing pays off only when the tile is reused across enough
        // rows and `b`'s rows are actually strided (several j-blocks).
        let pack = i1 - i0 >= PACK_MIN_ROWS && n > BLOCK;
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                let tw = j1 - j0;
                if pack {
                    let buf = tile
                        .get_or_insert_with(|| scratch::checkout("tensor.matmul", BLOCK * BLOCK));
                    for (dst, p) in buf.chunks_mut(tw).zip(p0..p1) {
                        dst[..tw].copy_from_slice(&b[p * n + j0..p * n + j1]);
                    }
                }
                let tslice: Option<&[f32]> = if pack { tile.as_deref() } else { None };
                for i in i0..i1 {
                    let arow = &a[i * k..i * k + k];
                    let crow = &mut c[i * n + j0..i * n + j1];
                    for p in p0..p1 {
                        let av = arow[p];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = if let Some(t) = tslice {
                            &t[(p - p0) * tw..(p - p0) * tw + tw]
                        } else {
                            &b[p * n + j0..p * n + j1]
                        };
                        axpy_v::<V>(crow, av, brow);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_acc_rows_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_acc_rows_g::<Avx2V>(a, b, c, m, k, n)
}

/// Dispatches [`matmul_acc_rows_g`] over the given backend. All
/// backends — including the scalar one — run the same generic skeleton,
/// which is bit-identical to the pre-SIMD scalar kernel because the
/// axpy is lane-independent.
fn matmul_acc_rows(be: Backend, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    match be {
        Backend::Scalar => matmul_acc_rows_g::<ScalarV>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => matmul_acc_rows_g::<Sse2V>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { matmul_acc_rows_avx2(a, b, c, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

/// Computes `c = a * b` (overwriting `c`) with the same conventions as
/// [`matmul_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c[..m * n].fill(0.0);
    matmul_acc(a, b, c, m, k, n);
}

#[inline(always)]
fn at_b_g<V: F32x8>(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for p in 0..k {
        let arow = &a[p * m..p * m + m];
        let brow = &b[p * n..p * n + n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_v::<V>(&mut c[i * n..i * n + n], av, brow);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn at_b_avx2(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    at_b_g::<Avx2V>(a, b, c, m, k, n)
}

/// Computes `c += aᵀ * b` where `a` is `k×m` (so `aᵀ` is `m×k`), `b` is
/// `k×n`, `c` is `m×n`. Used by the convolution weight-gradient pass.
/// Same axpy structure (and the same bit-identity argument) as
/// [`matmul_acc`].
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_at_b_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= k * m, "lhs too short");
    assert!(b.len() >= k * n, "rhs too short");
    assert!(c.len() >= m * n, "out too short");
    let be = simd::active();
    let _span = telemetry::span("tensor.matmul_at_b");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.matmul.calls").inc();
        telemetry::counter("tensor.matmul.flops").add(2 * (m * k * n) as u64);
        simd::record_lanes("matmul", m * k * simd::vector_cover(n));
    }
    match be {
        Backend::Scalar => at_b_g::<ScalarV>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => at_b_g::<Sse2V>(a, b, c, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the Avx2 backend is only ever active after runtime
        // detection succeeded (`simd::active`/`simd::force` enforce it).
        Backend::Avx2 => unsafe { at_b_avx2(a, b, c, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector backends are never active off x86_64"),
    }
}

/// Computes `c += a * bᵀ` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
/// Used by the convolution input-gradient pass.
///
/// Deliberately **not** lane-parallel: its inner loop is a dot-product
/// *reduction* over `k`, so vectorizing it would reorder f32 additions
/// and change results — the opposite trade from the axpy kernels, which
/// vectorize for free. It stays on the original scalar chain.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn matmul_a_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "lhs too short");
    assert!(b.len() >= n * k, "rhs too short");
    assert!(c.len() >= m * n, "out too short");
    if m * n == 0 {
        return;
    }
    let _span = telemetry::span("tensor.matmul_a_bt");
    if telemetry::metrics_enabled() {
        telemetry::counter("tensor.matmul.calls").inc();
        telemetry::counter("tensor.matmul.flops").add(2 * (m * k * n) as u64);
    }
    par_chunks_mut(&mut c[..m * n], BLOCK * n, |stripe, c_rows| {
        let base = stripe * BLOCK;
        for (ri, crow) in c_rows.chunks_mut(n).enumerate() {
            let i = base + ri;
            let arow = &a[i * k..i * k + k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..j * k + k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn seq(len: usize, mul: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 7) as f32 - 3.0) * mul).collect()
    }

    #[test]
    fn matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a = seq(m * k, 0.5);
        let b = seq(k * n, 1.5);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        assert_eq!(c, naive(&a, &b, m, k, n));
    }

    #[test]
    fn matches_naive_block_boundary() {
        // Dimensions straddling the 64-wide block.
        let (m, k, n) = (65, 70, 67);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let want = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        matmul_acc(&a, &b, &mut c, m, k, n);
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn pack_threshold_is_neutral() {
        // The B-tile packing cutoff (`PACK_MIN_ROWS = BLOCK / LANES`,
        // `n > BLOCK`) is a pure performance decision: results must be
        // bitwise the same on either side of it. Row-by-row m=1 calls
        // never pack (1 < PACK_MIN_ROWS), so comparing them against one
        // full call pins the boundary shapes.
        assert_eq!(PACK_MIN_ROWS, BLOCK / LANES);
        let k = 9;
        for m in [PACK_MIN_ROWS - 1, PACK_MIN_ROWS, PACK_MIN_ROWS + 1] {
            for n in [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2] {
                let a = seq(m * k, 0.05);
                let b = seq(k * n, 0.07);
                let mut whole = vec![0.0; m * n];
                matmul_acc(&a, &b, &mut whole, m, k, n);
                let mut rowwise = vec![0.0; m * n];
                for i in 0..m {
                    matmul_acc(&a[i * k..], &b, &mut rowwise[i * n..], 1, k, n);
                }
                let wb: Vec<u32> = whole.iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = rowwise.iter().map(|v| v.to_bits()).collect();
                assert_eq!(wb, rb, "packed/unpacked bits diverged at m={m} n={n}");
            }
        }
    }

    #[test]
    fn transpose_variants_match_naive() {
        let (m, k, n) = (4, 6, 5);
        let a = seq(m * k, 0.3); // m×k
        let b = seq(k * n, 0.7); // k×n
        let want = naive(&a, &b, m, k, n);

        // a stored transposed: k×m.
        let mut a_t = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        matmul_at_b_acc(&a_t, &b, &mut c1, m, k, n);
        for (x, y) in c1.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }

        // b stored transposed: n×k.
        let mut b_t = vec![0.0; n * k];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let mut c2 = vec![0.0; m * n];
        matmul_a_bt_acc(&a, &b_t, &mut c2, m, k, n);
        for (x, y) in c2.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
