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
    /// Reads the budget from `SKYNET_BENCH_BUDGET` (unset means
    /// [`Budget::Full`]).
    ///
    /// # Panics
    ///
    /// Panics (hard error, by design) on any value [`Budget::parse`]
    /// rejects: like `SKYNET_SIMD` and `SKYNET_THREADS`, a typo must never
    /// silently change what runs.
    pub fn from_env() -> Budget {
        let v = std::env::var("SKYNET_BENCH_BUDGET").unwrap_or_default();
        Budget::parse(&v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses a `SKYNET_BENCH_BUDGET` value: `fast` or `full`, with the
    /// empty string meaning `full`. The error names the accepted values.
    ///
    /// # Errors
    ///
    /// Returns the error message for any other value.
    pub fn parse(v: &str) -> Result<Budget, String> {
        match v {
            "fast" => Ok(Budget::Fast),
            "full" | "" => Ok(Budget::Full),
            other => Err(format!(
                "SKYNET_BENCH_BUDGET={other:?} is not a budget (expected fast|full)"
            )),
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

#[cfg(test)]
mod tests {
    use super::Budget;

    #[test]
    fn budget_parse_accepts_fast_and_full_and_rejects_typos() {
        assert_eq!(Budget::parse("fast"), Ok(Budget::Fast));
        assert_eq!(Budget::parse("full"), Ok(Budget::Full));
        assert_eq!(Budget::parse(""), Ok(Budget::Full));
        assert_eq!(
            Budget::parse("Fast"),
            Err("SKYNET_BENCH_BUDGET=\"Fast\" is not a budget (expected fast|full)".into())
        );
        for bad in ["fst", "FULL", " fast", "1"] {
            let msg = Budget::parse(bad).expect_err(bad);
            assert!(msg.contains("(expected fast|full)"), "{bad:?}: {msg}");
        }
    }
}
