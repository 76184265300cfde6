//! A reference clock for a host whose speed drifts.
//!
//! On a shared virtual machine the same code can run 30 % slower for
//! minutes at a time. Other tenants compete for the physical cores and
//! caches, and the thread's own CPU time grows with its wall time, so no
//! CPU clock subtracts the slowdown. The benchmark therefore times two
//! kernels of its own in a short probe between slices of a workload: an
//! in-cache f32 matrix product, which reads the speed of the cores, and
//! a streaming sum over a buffer larger than L2, which reads the speed of
//! the shared cache. Both run on as many threads as the tensor pool.
//!
//! A probe's speed factor is the geometric mean of `nominal / measured`
//! over the two kernels, and a slice's scale is the geometric mean of the
//! factors of the probes before and after it. Every time is reported as
//! wall time × scale: the time it would take on a host where the probes
//! read their nominal values. A slower program still reads slower; a
//! slower host much less so. The probes are the benchmark's own code, so
//! no change to the measured crates moves them.

use skynet_tensor::{parallel, telemetry};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one matrix product and one pass over the buffer take on this
/// benchmark's reference host, a 2-vCPU Xeon VM, when it is quiet (wall
/// time per product or pass, all probe threads together). Constants, so
/// they only set the scale of the reported numbers: there, reference
/// time is wall time.
const NOMINAL_COMPUTE_US: f64 = 26.0;
const NOMINAL_MEMORY_US: f64 = 78.0;

/// How long each kernel runs in one probe.
const KERNEL: Duration = Duration::from_millis(20);

/// A closed loop runs for this long between two probes.
pub const SLICE: Duration = Duration::from_millis(160);

/// The product's shape, `M×K · K×N`: 80 KiB per thread, in cache.
const M: usize = 32;
const K: usize = 128;
const N: usize = 128;

/// The streamed buffer: 4 MiB of f32, twice the size of L2.
const STREAM_LEN: usize = 1 << 20;

fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    for (row, a_row) in c.chunks_exact_mut(N).zip(a.chunks_exact(K)) {
        row.fill(0.0);
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
            for (x, &y) in row.iter_mut().zip(b_row) {
                *x += av * y;
            }
        }
    }
}

fn stream_sum(buf: &[f32]) -> [f32; 16] {
    let mut acc = [0.0f32; 16];
    for chunk in buf.chunks_exact(16) {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    acc
}

/// Runs `unit` back to back on every pool thread for [`KERNEL`], each
/// thread on its own state from `init(thread)`; returns the wall time
/// per unit in µs, all threads together.
fn on_pool_threads<S>(init: impl Fn(usize) -> S + Sync, unit: impl Fn(&mut S) + Sync) -> f64 {
    let start = Instant::now();
    let units: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..parallel::num_threads().max(1))
            .map(|t| {
                let (init, unit) = (&init, &unit);
                s.spawn(move || {
                    let mut state = init(t);
                    let mut done = 0u64;
                    while start.elapsed() < KERNEL {
                        unit(&mut state);
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread panicked"))
            .sum()
    });
    start.elapsed().as_secs_f64() * 1e6 / units.max(1) as f64
}

/// Probes taken around the slices of one measurement.
pub struct RefClock {
    stream: Vec<f32>,
    /// Speed factor of the latest probe.
    last: f64,
}

impl RefClock {
    /// Takes the probe before the first slice.
    pub fn start() -> Self {
        let mut clock = RefClock {
            stream: (0..STREAM_LEN).map(|i| (i % 13) as f32).collect(),
            last: 0.0,
        };
        clock.last = clock.probe();
        clock
    }

    /// Times both kernels; returns the probe's speed factor.
    fn probe(&self) -> f64 {
        let _s = telemetry::span("bench.probe");
        let compute_us = on_pool_threads(
            |t| {
                let a = vec![0.5 + t as f32; M * K];
                (a, vec![0.25f32; K * N], vec![0.0f32; M * N])
            },
            |(a, b, c)| {
                matmul(black_box(a), black_box(b), c);
                black_box(c);
            },
        );
        let memory_us = on_pool_threads(
            |_| (),
            |_| {
                black_box(stream_sum(black_box(&self.stream)));
            },
        );
        (NOMINAL_COMPUTE_US / compute_us * NOMINAL_MEMORY_US / memory_us).sqrt()
    }

    /// Ends a slice with a probe; returns the slice's scale from wall
    /// time to reference time.
    pub fn end_slice(&mut self) -> f64 {
        let next = self.probe();
        let scale = (self.last * next).sqrt();
        self.last = next;
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_what_they_claim() {
        let a: Vec<f32> = (0..M * K).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..K * N).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut c = vec![f32::NAN; M * N];
        matmul(&a, &b, &mut c);
        for (i, j) in [(0, 0), (3, 17), (M - 1, N - 1)] {
            let want: f32 = (0..K).map(|p| a[i * K + p] * b[p * N + j]).sum();
            assert_eq!(c[i * N + j], want, "c[{i}][{j}]");
        }
        assert_eq!(stream_sum(&[1.0; 64]), [4.0; 16]);
    }

    #[test]
    fn a_slice_scale_is_positive_and_finite() {
        let mut clock = RefClock::start();
        let scale = clock.end_slice();
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
    }
}
