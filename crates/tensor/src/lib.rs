//! # skynet-tensor
//!
//! A small, dependency-light NCHW tensor library purpose-built for the
//! SkyNet reproduction. It provides the dense `f32` [`Tensor`] type plus the
//! forward *and* backward kernels needed to train and run compact
//! convolutional detectors on a CPU:
//!
//! * standard convolution via [`im2col`](conv) + blocked [`matmul`],
//! * 3×3 depth-wise convolution with direct loops ([`dwconv`]),
//! * 1×1 point-wise convolution as a batched matrix product,
//! * 2×2 max-pooling with argmax bookkeeping ([`pool`]),
//! * the feature-map **reorg** (space-to-depth) operator from Fig. 5 of the
//!   paper ([`reorg`]),
//! * element-wise activations (ReLU / ReLU6) and channel concatenation
//!   ([`ops`]).
//!
//! The library deliberately avoids an autograd tape: each kernel exposes an
//! explicit `*_backward` companion, and the layer objects in `skynet-nn`
//! cache whatever forward state the backward pass needs. This keeps the
//! memory behaviour predictable, which is the property the paper's
//! hardware-aware flow cares about.
//!
//! The [`fused`] module executes a whole SkyNet bundle
//! (`DW-Conv3 → BN → Act → PW → BN → Act`) over cache-resident row
//! tiles, bit-identical to the layer-by-layer path; [`fusion`] is the
//! `SKYNET_FUSION` runtime toggle that selects between them (the
//! unfused path stays on as the equivalence oracle).
//!
//! The [`qint`] module adds the executable INT8 twin of the hot
//! kernels: `i8`×`i8`→`i32` matmul / point-wise / 3×3 depth-wise
//! convolutions on one pair-`madd` integer datapath (same
//! `SKYNET_SIMD` dispatch, structurally bit-identical across backends),
//! plus the 8-lane quantize/requantize epilogues (see `QUANTIZATION.md`
//! at the repo root).
//!
//! Five infrastructure modules back the kernels: [`parallel`], the
//! deterministic batch-parallel execution engine (bit-identical results
//! for any `SKYNET_THREADS`); [`simd`], the fixed-width 8-lane vector
//! abstraction with runtime-dispatched AVX2/SSE2/scalar backends that
//! are bit-identical to each other (`SKYNET_SIMD` forces one, extending
//! the determinism guarantee across ISAs); [`telemetry`], the
//! process-wide metrics registry + scoped-span tracer that every hot
//! kernel reports into when `SKYNET_METRICS`/`SKYNET_TRACE` are set;
//! [`scratch`], the thread-local scratch arena that keeps kernel
//! temporaries off the allocator in steady state (and hands out
//! 32-byte-aligned buffers for the vector kernels); and [`alloc`], the
//! global-allocator tap behind `SKYNET_ALLOC_STATS` that proves it (see
//! `OBSERVABILITY.md` at the repo root).
//!
//! ## Example
//!
//! ```
//! use skynet_tensor::{Tensor, Shape};
//!
//! // A 1×3×4×4 feature map filled with ones.
//! let x = Tensor::ones(Shape::new(1, 3, 4, 4));
//! assert_eq!(x.shape().numel(), 48);
//! let doubled = x.map(|v| v * 2.0);
//! assert_eq!(doubled.as_slice()[0], 2.0);
//! ```

#![deny(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod alloc;
pub mod conv;
pub mod crc32;
pub mod dwconv;
pub mod fused;
pub mod fusion;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod qint;
pub mod reorg;
pub mod rng;
pub mod scratch;
pub mod simd;
pub mod telemetry;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
