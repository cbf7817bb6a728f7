//! Summary statistics for timed series.
//!
//! Every series is reported as its median plus the highest percentile
//! that still has at least ten samples beyond it: a p99 read off 50
//! samples is the maximum, and a maximum is noise.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a series may report, in tenths of a percent, lowest first.
const LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `permille`/1000 percentile among `n`
/// samples: `⌈n·permille/1000⌉`, in integers so exact multiples do not
/// round up through float error.
pub fn nearest_rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values`; 0 when empty.
pub fn percentile(values: &[f64], permille: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), permille) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// strictly above its rank, or `None` below 20 samples (where even the
/// median has fewer than ten beyond it).
pub fn highest_supported(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n >= nearest_rank(n, p) + MIN_BEYOND)
}

/// `p99`, `p99.9`, `p50` … for a ladder entry.
pub fn permille_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Median and supported tail of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// The tail percentile reported, in tenths of a percent.
    pub tail_permille: u32,
    pub tail: f64,
}

/// Summarises `values` with the tail at `wanted_permille`, lowered to the
/// highest percentile the sample supports. With fewer than 20 samples the
/// tail falls back to the median itself (labelled p50), never to a maximum.
pub fn summarize(values: &[f64], wanted_permille: u32) -> Summary {
    let tail_permille = highest_supported(values.len())
        .unwrap_or(500)
        .min(wanted_permille);
    Summary {
        median: median(values),
        tail_permille,
        tail: if tail_permille == 500 {
            median(values)
        } else {
            percentile(values, tail_permille)
        },
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_on_multiples() {
        // 0.95 × 20 is 19.000000000000004 in floats; the rank must be 19.
        assert_eq!(nearest_rank(20, 950), 19);
        assert_eq!(nearest_rank(100, 990), 99);
        assert_eq!(nearest_rank(1000, 999), 999);
        assert_eq!(nearest_rank(1, 999), 1);
        assert_eq!(nearest_rank(3, 500), 2);
    }

    #[test]
    fn percentile_picks_the_ranked_sample_in_any_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&[], 990), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        // 20 samples: rank 10 leaves exactly ten beyond the median.
        assert_eq!(highest_supported(20), Some(500));
        // p90 of 100 is rank 90, ten beyond; p95 would leave five.
        assert_eq!(highest_supported(100), Some(900));
        // p99 of 1000 is rank 990, ten beyond; 999 is still out of reach.
        assert_eq!(highest_supported(999), Some(950));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }

    #[test]
    fn summary_never_reports_a_maximum_as_tail() {
        let s = summarize(&ramp(12), 990);
        assert_eq!((s.tail_permille, s.tail), (500, 6.5));
        let s = summarize(&ramp(1000), 999);
        assert_eq!((s.tail_permille, s.tail, s.median), (990, 990.0, 500.5));
        // A declared percentile below what the sample supports is kept.
        let s = summarize(&ramp(1000), 950);
        assert_eq!((s.tail_permille, s.tail), (950, 950.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(permille_label(990), "p99");
        assert_eq!(permille_label(999), "p99.9");
    }
}
