//! Order statistics for the reported timings: medians, fastest repeats
//! and the tail-percentile rule.
//!
//! A tail is only worth reporting when enough samples lie beyond it to
//! make it more than one unlucky outlier. The rule used throughout: the
//! tail is the highest whole percentile (or 99.9) whose nearest-rank
//! value still has at least [`MIN_BEYOND`] samples strictly above its
//! rank. The chosen percentile and the sample count are reported with
//! the value, so two runs with different sample counts are never
//! silently compared at different percentiles.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Smallest of `values`: the fastest repeat of a timing. Contention
/// from other work on the host only ever adds time, so the fastest
/// repeat is the one closest to the code's own cost.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// 1-based nearest rank of the percentile `tenths / 10` among `n`
/// samples (integer arithmetic, so p99.9 of 10 000 is exactly rank 9990).
fn nearest_rank(tenths: usize, n: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, e.g. `68.0` or `99.0`.
    pub percentile: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Total samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// `p68 of 32 samples (10 beyond)`-style description.
    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The highest percentile among 50, 51, …, 99 and 99.9 that leaves at
/// least [`MIN_BEYOND`] samples beyond its rank, or `None` when even the
/// median does not (fewer than 20 samples): the rule refuses to report
/// a tail it cannot back.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let ladder = (500..=990).step_by(10).chain([999]);
    let tenths = ladder
        .filter(|&p| n.saturating_sub(nearest_rank(p, n)) >= MIN_BEYOND)
        .last()?;
    let sorted = sorted(values);
    let rank = nearest_rank(tenths, n);
    Some(Tail {
        percentile: tenths as f64 / 10.0,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[4.0]), 4.0);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_beyond_the_median() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        let t = tail(&ramp(20)).expect("20 samples back a median");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn tail_picks_the_highest_backed_percentile() {
        // 32 samples: p68 has rank 22 (10 beyond), p69 rank 23 (9 beyond).
        let t = tail(&ramp(32)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (68.0, 22.0, 10));
        // 80 samples: p87 has rank 70 (10 beyond), p88 rank 71.
        let t = tail(&ramp(80)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (87.0, 70.0, 10));
        // 1000 samples back p99 exactly; p99.9 needs 10 000.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
        assert!(t.describe().contains("p99.9 of 10000 samples"));
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond_it() {
        for n in 20..400 {
            let values = ramp(n);
            let t = tail(&values).unwrap();
            let above = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(above, t.beyond, "n = {n}");
            assert!(above >= MIN_BEYOND, "n = {n}");
        }
    }
}
