//! Pure measurement rules, kept apart so their self-tests pin them:
//! exact client-side quantiles, the open-loop send schedule, and the
//! per-op normalisation of counter deltas.

use std::time::Duration;

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The latency sample of an op that was refused or failed: worse than
/// any completed op, so every such op counts as missing the limit.
pub const MISS: f64 = f64::INFINITY;

/// Exact quantiles over a client's own latency samples.
#[derive(Debug, Clone)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

/// One reported percentile: its value, the sample count it was taken
/// over, and how many samples lie strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Quantiles {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Quantiles { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Samples that are [`MISS`]es.
    pub fn misses(&self) -> usize {
        self.sorted.iter().rev().take_while(|x| **x == MISS).count()
    }

    /// The nearest-rank `q`-quantile (0 < q ≤ 1), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(&self, q: f64) -> Option<Percentile> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then(|| Percentile {
            value: self.sorted[rank - 1],
            samples: n,
            beyond,
        })
    }
}

/// Median of a non-empty list (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A fixed-rate open-loop schedule: op `i` is due `i / rate` after the
/// phase starts, whether or not earlier ops have completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: f64,
    pub ops: u64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, span: Duration) -> Self {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Schedule {
            rate_per_s,
            ops: (rate_per_s * span.as_secs_f64()).floor() as u64,
        }
    }

    /// When op `i` is due, relative to the phase start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// `count` per completed op; 0 when no op completed.
pub fn per_op(count: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count / ops as f64
    }
}

/// `count` per thousand completed ops.
pub fn per_kop(count: f64, ops: u64) -> f64 {
    per_op(count, ops) * 1e3
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_sorted_samples() {
        let q = Quantiles::new((1..=100).rev().map(f64::from).collect());
        let p50 = q.at(0.5).expect("50 samples beyond the median");
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        assert_eq!(q.at(0.9).expect("10 beyond p90").value, 90.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let q = Quantiles::new((1..=100).map(f64::from).collect());
        assert!(
            q.at(0.99).is_none(),
            "only one sample lies beyond p99 of 100"
        );
        let q = Quantiles::new((1..=1000).map(f64::from).collect());
        let p99 = q.at(0.99).expect("ten samples beyond p99 of 1000");
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(Quantiles::new(Vec::new()).at(0.5).is_none());
    }

    #[test]
    fn refused_and_failed_ops_raise_the_percentile() {
        let done: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let clean = Quantiles::new(done.clone()).at(0.99).expect("p99");
        assert_eq!(clean.value, 990.0);
        // Five misses among the samples push the p99 up the completed ops.
        let mut some = done.clone();
        some.extend([MISS; 5]);
        let q = Quantiles::new(some);
        assert_eq!(q.misses(), 5);
        assert_eq!(q.at(0.99).expect("p99").value, 995.0);
        // More than 1% missed: the p99 itself is a miss.
        let mut many = done;
        many.extend([MISS; 30]);
        let p99 = Quantiles::new(many).at(0.99).expect("p99");
        assert_eq!(p99.value, MISS);
        assert_eq!(median(&[1.0, MISS, 2.0]), 2.0, "a minority of misses");
        assert_eq!(median(&[1.0, MISS, MISS]), MISS, "a majority of misses");
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn schedule_spaces_ops_evenly_from_the_phase_start() {
        let s = Schedule::new(2_000.0, Duration::from_millis(1_500));
        assert_eq!(s.ops, 3_000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(500));
        assert_eq!(s.due(2_000), Duration::from_secs(1));
        // Due times never depend on completions: op i is due at i/rate.
        let gaps: Vec<Duration> = (1..5).map(|i| s.due(i) - s.due(i - 1)).collect();
        assert!(gaps.iter().all(|g| *g == Duration::from_micros(500)));
    }

    #[test]
    fn per_op_normalisation_divides_deltas_by_completed_ops() {
        assert_eq!(per_op(1_500.0, 500), 3.0);
        assert_eq!(per_kop(3.0, 1_500), 2.0);
        assert_eq!(per_op(7.0, 0), 0.0, "no ops, no per-op cost");
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
