//! Sample statistics for the benchmark's reports.
//!
//! * A timing is reported as its median and the highest percentile that
//!   still has at least [`MIN_BEYOND`] samples beyond it, so p99 is
//!   refused below 1000 samples instead of being read off the maximum.
//! * Run-to-run spread is the distance between the first and third
//!   quartile over the median, with the quartiles computed exactly as
//!   Python's `statistics.quantiles(values, n=4)` computes them.
//! * Open-loop latency runs from the request's *due* time, so a stalled
//!   generator or server is charged to every request it delayed, and
//!   open-loop throughput is counted per second the server was busy.
//! * Failures are counted against the operations attempted.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for a tail, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Sorts a sample in ascending order (NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of percentile `p` in `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample; `None`
/// when the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// Median of an ascending sample (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Whether percentile `p` of `n` samples leaves at least [`MIN_BEYOND`]
/// samples beyond it — p99 needs 1000 samples.
pub fn supports(n: usize, p: f64) -> bool {
    n.saturating_sub(rank(n, p)) >= MIN_BEYOND
}

/// The highest supported tail percentile of `n` samples (99.9, 99, 95
/// or 90); `None` when even p90 lacks ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| supports(n, p))
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        // i*m - j*n may be negative after clamping; keep the sign.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range over the median: the run-to-run spread the
/// benchmark's regression bounds are checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Total time covered by the union of `[start, end)` intervals, in the
/// intervals' unit: how long at least one request was outstanding.
/// Sorts the intervals by start.
pub fn busy_us(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for &(start, end) in intervals.iter() {
        let from = start.max(covered_to);
        if end > from {
            total += end - from;
            covered_to = end;
        }
    }
    total
}

/// Open-loop latency of one request in milliseconds: from when it was
/// due to be sent to when its outcome was recorded, both on one clock.
pub fn open_loop_ms(due_us: u64, done_us: u64) -> f64 {
    done_us.saturating_sub(due_us) as f64 / 1e3
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the benchmark issued.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 3] = [
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[3.1, 1.2, 5.5, 2.0], [1.4, 2.55, 4.9]),
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!(close(*g, w), "{data:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert!(close(s, (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn p99_is_refused_below_1000_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(999, 95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // Rank 990 leaves exactly ten samples (990..=999) beyond it.
        assert!(supports(1000, 99.0));
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(989.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
    }

    #[test]
    fn percentile_and_median_use_nearest_rank_and_midpoint() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn busy_time_is_the_union_of_the_intervals() {
        // [0,10) and [5,12) overlap; [20,25) stands alone; [21,22) lies
        // inside it; an empty interval adds nothing.
        let mut iv = [(20, 25), (0, 10), (21, 22), (5, 12), (30, 30)];
        assert_eq!(busy_us(&mut iv), 12 + 5);
        assert_eq!(busy_us(&mut []), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // Sent 3 ms late and answered 2 ms after sending: 5 ms.
        assert!(close(open_loop_ms(10_000, 15_000), 5.0));
        // An answer stamped before the due time reads zero, not negative.
        assert_eq!(open_loop_ms(10_000, 9_000), 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert!(close(t.error_rate(), 0.25));
    }
}
