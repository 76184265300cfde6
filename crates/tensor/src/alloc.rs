//! Global-allocator tap: process-wide allocation counters behind
//! `SKYNET_ALLOC_STATS`.
//!
//! The [`scratch`](crate::scratch) arena proves *its* call sites stopped
//! allocating, but only the allocator itself can prove nothing else
//! snuck onto the hot path. This module installs a [`GlobalAlloc`]
//! wrapper around [`System`] that counts calls and bytes when enabled.
//!
//! ## Cost and safety model
//!
//! The tap is a three-state atomic: until [`enabled`] (or [`enable`]) is
//! called from ordinary code, the state is *unset* and every allocator
//! hook is a single relaxed load plus the `System` call. The environment
//! variable is deliberately **not** read inside the allocator — reading
//! it allocates, which would recurse. Callers that want the tap (the
//! `profile` bench bin, [`telemetry::render_table`](crate::telemetry::render_table))
//! query [`enabled`] from normal code, which performs the one-time env
//! read and arms the counters.
//!
//! Counter updates are relaxed `fetch_add`s — totals are exact, ordering
//! between threads is not observed. Allocation counts are inherently
//! scheduling-dependent and are excluded from the telemetry determinism
//! guarantee, like the `pool.*` and `scratch.*` families.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus relaxed-atomic call/byte counters, armed by
/// [`enable`]. Installed as the workspace's `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[inline]
fn armed() -> bool {
    STATE.load(Ordering::Relaxed) == STATE_ON
}

// SAFETY: defers entirely to `System`; the counter updates never
// allocate (plain atomics) so the hooks cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            DEALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            DEALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            DEALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            DEALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether the tap is armed. The first call reads `SKYNET_ALLOC_STATS`
/// (`1`, `true`, `on`, `yes`); subsequent calls are one relaxed load.
/// Must be called from ordinary code, never from inside an allocator
/// hook (the env read allocates).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = crate::telemetry::env_truthy("SKYNET_ALLOC_STATS");
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Arms or disarms the tap at runtime, overriding the environment.
pub fn enable(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Point-in-time copy of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, and the alloc half of
    /// `realloc`) observed while armed.
    pub alloc_calls: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
    /// Deallocation calls observed while armed.
    pub dealloc_calls: u64,
    /// Bytes released by those calls.
    pub dealloc_bytes: u64,
}

impl AllocStats {
    /// Counter deltas `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            alloc_calls: self.alloc_calls.saturating_sub(earlier.alloc_calls),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            dealloc_calls: self.dealloc_calls.saturating_sub(earlier.dealloc_calls),
            dealloc_bytes: self.dealloc_bytes.saturating_sub(earlier.dealloc_bytes),
        }
    }
}

/// Reads the current counters (zeros until the tap is armed).
pub fn stats() -> AllocStats {
    AllocStats {
        alloc_calls: ALLOC_CALLS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_calls: DEALLOC_CALLS.load(Ordering::Relaxed),
        dealloc_bytes: DEALLOC_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_tap_observes_an_allocation() {
        // Tests share the process: arm, measure a delta, restore.
        let was_on = enabled();
        enable(true);
        let before = stats();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = stats();
        drop(v);
        enable(was_on);
        let delta = after.since(&before);
        assert!(delta.alloc_calls >= 1, "allocation not counted");
        assert!(delta.alloc_bytes >= 4096, "bytes not counted");
    }

    #[test]
    fn since_saturates() {
        let a = AllocStats {
            alloc_calls: 1,
            ..Default::default()
        };
        let b = AllocStats {
            alloc_calls: 5,
            ..Default::default()
        };
        assert_eq!(a.since(&b).alloc_calls, 0);
    }
}
