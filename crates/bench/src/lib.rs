//! # skynet-bench
//!
//! The benchmark harness: one binary per table/figure of the paper (see
//! `src/bin/`). This library holds the shared plumbing: standard dataset builders, a
//! detector-training runner with a fast/full budget switch, and
//! fixed-width table printing that shows paper-reported values next to
//! our measurements.
//!
//! Run an experiment with e.g. `cargo run --release -p skynet-bench --bin
//! table4`. Set `SKYNET_BENCH_BUDGET=fast` for a quick smoke pass (CI) or
//! `full` (default) for the EXPERIMENTS.md numbers.

#![deny(missing_docs)]

pub mod data;
pub mod runner;
pub mod table;

/// Experiment budget, selected via the `SKYNET_BENCH_BUDGET` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Seconds-scale smoke pass.
    Fast,
    /// The full budget used for EXPERIMENTS.md.
    Full,
}

impl Budget {
    /// Reads the budget from the environment (default [`Budget::Full`]).
    pub fn from_env() -> Budget {
        match std::env::var("SKYNET_BENCH_BUDGET").as_deref() {
            Ok("fast") => Budget::Fast,
            _ => Budget::Full,
        }
    }

    /// Picks a value by budget.
    pub fn pick<T>(&self, fast: T, full: T) -> T {
        match self {
            Budget::Fast => fast,
            Budget::Full => full,
        }
    }
}
