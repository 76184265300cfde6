//! The dynamic-batching policy as a pure state machine.
//!
//! Coalescing decisions — *which requests share a forward pass* — are
//! kept free of clocks, channels and threads so they can be specified
//! and tested exactly. A batch opens at the timestamp of its first
//! element and closes when one of three things happens:
//!
//! 1. **size**: it reaches [`BatchPolicy::max_batch`] elements;
//! 2. **deadline**: an arrival stamped past the open batch's coalescing
//!    window (`first.arrival + max_delay_us`) forces it closed — the
//!    late arrival opens the next batch;
//! 3. **flush**: the owner decides no more work is coming for now (the
//!    queue ran empty, or the engine is shutting down).
//!
//! Because every transition is a function of `(arrival order, arrival
//! timestamps, policy)`, batch composition is bit-reproducible for any
//! replayed arrival sequence — the property the serving determinism
//! suite pins. The engine applies rule 3 whenever a replica's queue runs
//! empty, in both clock modes, and has no timer. Its virtual-time mode
//! feeds request arrival stamps, removing the scheduler from the
//! composition of a prefilled queue entirely; its wall-clock mode feeds
//! dequeue-time stamps.

/// Size and deadline knobs of the dynamic batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Coalescing window in microseconds, measured from the first
    /// element's timestamp: a later-stamped element opens the next
    /// batch. Nothing waits for the window to fill; the engine runs an
    /// open batch as soon as its queue is empty. With the engine's
    /// virtual-time stamps the window bounds a batch's arrival span;
    /// with wall-clock (dequeue) stamps it bounds the span of one queue
    /// drain. `0` admits only equal stamps into one batch.
    pub max_delay_us: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay_us: 2_000,
        }
    }
}

/// A timestamped element the batcher is coalescing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending<T> {
    item: T,
    t_us: u64,
}

/// Deterministic dynamic-batching state machine over items of type `T`.
#[derive(Debug)]
pub struct Batcher<T> {
    policy: BatchPolicy,
    open: Vec<Pending<T>>,
}

impl<T> Batcher<T> {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher {
            policy,
            open: Vec::with_capacity(policy.max_batch.max(1)),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Whether no batch is currently open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Number of elements in the open batch.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Timestamp at which the open batch's coalescing window expires, if
    /// a batch is open.
    pub fn window_deadline_us(&self) -> Option<u64> {
        self.open
            .first()
            .map(|p| p.t_us.saturating_add(self.policy.max_delay_us))
    }

    /// Offers one timestamped item. Returns a closed batch when the
    /// offer completes one — either the open batch reached `max_batch`
    /// with this item, or this item's timestamp falls outside the open
    /// window (the returned batch excludes it; the item opens the next
    /// batch).
    pub fn push(&mut self, item: T, t_us: u64) -> Option<Vec<T>> {
        if let Some(deadline) = self.window_deadline_us() {
            if t_us > deadline {
                let closed = self.take_open();
                self.open.push(Pending { item, t_us });
                return closed;
            }
        }
        self.open.push(Pending { item, t_us });
        if self.open.len() >= self.policy.max_batch.max(1) {
            self.take_open()
        } else {
            None
        }
    }

    /// Closes and returns the open batch, if any (rule 3: flush).
    pub fn flush(&mut self) -> Option<Vec<T>> {
        self.take_open()
    }

    /// The swap barrier: closes the open batch so that everything
    /// offered before this call is in a batch that precedes anything
    /// offered after it. Semantically identical to [`flush`](Self::flush)
    /// — the distinct name marks the call sites where the engine
    /// guarantees *no batch spans two weight generations* (canary,
    /// adopt, retire). A barrier on an empty batcher is a no-op, so
    /// barrier placement never changes the composition of already-closed
    /// batches.
    pub fn barrier(&mut self) -> Option<Vec<T>> {
        self.take_open()
    }

    fn take_open(&mut self) -> Option<Vec<T>> {
        if self.open.is_empty() {
            return None;
        }
        Some(
            std::mem::take(&mut self.open)
                .into_iter()
                .map(|p| p.item)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_batch: usize, delay: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_delay_us: delay,
        }
    }

    #[test]
    fn closes_on_size() {
        let mut b = Batcher::new(policy(3, 1_000_000));
        assert_eq!(b.push(1, 0), None);
        assert_eq!(b.push(2, 1), None);
        assert_eq!(b.push(3, 2), Some(vec![1, 2, 3]));
        assert!(b.is_empty());
    }

    #[test]
    fn closes_on_deadline_and_reopens_with_late_arrival() {
        let mut b = Batcher::new(policy(8, 100));
        assert_eq!(b.push(1, 0), None);
        assert_eq!(b.push(2, 100), None); // exactly at the window edge: in
        assert_eq!(b.push(3, 101), Some(vec![1, 2]));
        assert_eq!(b.len(), 1); // 3 opened the next batch
        assert_eq!(b.flush(), Some(vec![3]));
    }

    #[test]
    fn zero_delay_means_singleton_batches_unless_simultaneous() {
        let mut b = Batcher::new(policy(8, 0));
        assert_eq!(b.push(1, 5), None);
        assert_eq!(b.push(2, 5), None); // same stamp: same batch
        assert_eq!(b.push(3, 6), Some(vec![1, 2]));
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut b: Batcher<u32> = Batcher::new(BatchPolicy::default());
        assert_eq!(b.flush(), None);
    }

    #[test]
    fn composition_is_a_pure_function_of_the_arrival_sequence() {
        let arrivals: Vec<(u64, u64)> = (0..200).map(|i| (i, (i * 37) % 1_000 + i * 50)).collect();
        let run = |arrivals: &[(u64, u64)]| {
            let mut b = Batcher::new(policy(4, 200));
            let mut batches = Vec::new();
            for &(id, t) in arrivals {
                if let Some(done) = b.push(id, t) {
                    batches.push(done);
                }
            }
            if let Some(done) = b.flush() {
                batches.push(done);
            }
            batches
        };
        assert_eq!(run(&arrivals), run(&arrivals));
        let total: usize = run(&arrivals).iter().map(Vec::len).sum();
        assert_eq!(total, arrivals.len(), "no element lost or duplicated");
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let mut b = Batcher::new(policy(1, 1_000));
        assert_eq!(b.push('a', 0), Some(vec!['a']));
        assert_eq!(b.push('b', 1), Some(vec!['b']));
        assert!(b.is_empty());
    }
}
