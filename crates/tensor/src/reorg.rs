//! Feature-map reordering (space-to-depth), Fig. 5 of the paper.
//!
//! The bypass in SkyNet models B and C crosses a pooling layer, so the
//! low-level feature map must shrink its spatial extent to match — but
//! pooling would lose information. Reordering instead moves each `s×s`
//! spatial block into `s²` channels: `C×H×W → (C·s²)×(H/s)×(W/s)` with no
//! information loss and a larger receptive field per output pixel.
//!
//! The operation is a pure permutation, so its backward pass is the inverse
//! permutation and round-trips exactly.

use crate::parallel::par_chunks_mut;
use crate::{Result, Shape, Tensor, TensorError};

/// Output shape of a reorg with block size `s` applied to `input`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] when `s == 0` or the spatial
/// extents are not divisible by `s`.
pub fn reorg_out_shape(input: Shape, s: usize) -> Result<Shape> {
    if s == 0 {
        return Err(TensorError::InvalidDimension {
            op: "reorg",
            detail: "block size must be positive".into(),
        });
    }
    if !input.h.is_multiple_of(s) || !input.w.is_multiple_of(s) {
        return Err(TensorError::InvalidDimension {
            op: "reorg",
            detail: format!(
                "spatial extents {}×{} not divisible by {s}",
                input.h, input.w
            ),
        });
    }
    Ok(Shape::new(
        input.n,
        input.c * s * s,
        input.h / s,
        input.w / s,
    ))
}

/// Space-to-depth reordering with block size `s`.
///
/// Output channel layout: for input channel `c` and intra-block offset
/// `(dy, dx)`, the data lands in output channel `c * s² + dy * s + dx`.
/// With `s = 2` this maps `1×4×4 → 4×2×2` exactly as in Fig. 5.
///
/// # Errors
///
/// Propagates the shape errors of [`reorg_out_shape`].
pub fn reorg(input: &Tensor, s: usize) -> Result<Tensor> {
    let is = input.shape();
    let os = reorg_out_shape(is, s)?;
    let mut out = Tensor::zeros(os);
    space_to_depth(input.as_slice(), out.as_mut_slice(), is.h, is.w, s);
    Ok(out)
}

/// The space-to-depth permutation of [`reorg`], written once for every
/// element type: `src` holds `h×w` planes (`s` divides both extents)
/// and `dst` the `s²` output planes of each, in [`reorg`]'s channel
/// layout. The `s²` planes fed by one input plane are contiguous, so
/// each group is one task on the [`parallel`](crate::parallel) pool,
/// copied row by row. A pure copy: every element type and schedule
/// yields the same permutation.
pub(crate) fn space_to_depth<T: Copy + Send + Sync>(
    src: &[T],
    dst: &mut [T],
    h: usize,
    w: usize,
    s: usize,
) {
    let (oh, ow) = (h / s, w / s);
    if dst.is_empty() {
        return;
    }
    par_chunks_mut(dst, s * s * oh * ow, |pi, planes| {
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
}

/// Backward pass of [`reorg`]: the inverse permutation, mapping an output
/// gradient back onto the input layout.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_out`'s shape is not the reorg of
/// `input_shape`.
pub fn reorg_backward(input_shape: Shape, grad_out: &Tensor, s: usize) -> Result<Tensor> {
    let os = reorg_out_shape(input_shape, s)?;
    if grad_out.shape() != os {
        return Err(TensorError::ShapeMismatch {
            op: "reorg_backward",
            expected: os.to_string(),
            got: grad_out.shape().to_string(),
        });
    }
    let mut gi = Tensor::zeros(input_shape);
    let src = grad_out.as_slice();
    let dst = gi.as_mut_slice();
    let is = input_shape;
    for n in 0..is.n {
        for c in 0..is.c {
            let in_base = (n * is.c + c) * is.plane();
            for dy in 0..s {
                for dx in 0..s {
                    let oc = c * s * s + dy * s + dx;
                    let out_base = (n * os.c + oc) * os.plane();
                    for oy in 0..os.h {
                        let in_row = in_base + (oy * s + dy) * is.w + dx;
                        let out_row = out_base + oy * os.w;
                        for ox in 0..os.w {
                            dst[in_row + ox * s] = src[out_row + ox];
                        }
                    }
                }
            }
        }
    }
    Ok(gi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 5 example: 1×4×4 → 4×2×2.
    #[test]
    fn fig5_example() {
        #[rustfmt::skip]
        let x = Tensor::from_vec(Shape::new(1, 1, 4, 4), vec![
             0.0,  1.0,  2.0,  3.0,
             4.0,  5.0,  6.0,  7.0,
             8.0,  9.0, 10.0, 11.0,
            12.0, 13.0, 14.0, 15.0,
        ]).unwrap();
        let y = reorg(&x, 2).unwrap();
        assert_eq!(y.shape(), Shape::new(1, 4, 2, 2));
        // Channel 0 = offsets (0,0): the even-row/even-col samples.
        assert_eq!(&y.as_slice()[0..4], &[0.0, 2.0, 8.0, 10.0]);
        // Channel 1 = offsets (0,1).
        assert_eq!(&y.as_slice()[4..8], &[1.0, 3.0, 9.0, 11.0]);
        // Channel 2 = offsets (1,0).
        assert_eq!(&y.as_slice()[8..12], &[4.0, 6.0, 12.0, 14.0]);
        // Channel 3 = offsets (1,1).
        assert_eq!(&y.as_slice()[12..16], &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn no_information_loss() {
        let s = Shape::new(2, 3, 6, 8);
        let x = Tensor::from_vec(s, (0..s.numel()).map(|i| i as f32).collect()).unwrap();
        let y = reorg(&x, 2).unwrap();
        // Same multiset of values (a permutation).
        let mut a: Vec<f32> = x.as_slice().to_vec();
        let mut b: Vec<f32> = y.as_slice().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        assert_eq!(a, b);
    }

    #[test]
    fn backward_is_inverse() {
        let s = Shape::new(1, 2, 4, 4);
        let x = Tensor::from_vec(s, (0..s.numel()).map(|i| (i as f32).sin()).collect()).unwrap();
        let y = reorg(&x, 2).unwrap();
        let back = reorg_backward(s, &y, 2).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn rejects_indivisible() {
        let x = Tensor::zeros(Shape::new(1, 1, 5, 4));
        assert!(reorg(&x, 2).is_err());
        assert!(reorg(&x, 0).is_err());
    }
}
