//! Empirical cumulative distribution functions.
//!
//! Fig. 3 and Fig. 19 of the paper plot the *cumulative fraction of node
//! failures* against inter-failure time ("92.3% of the node failures happen
//! within 1 to 16 minutes of each other"). [`Ecdf`] provides exactly those
//! queries: `fraction_at_or_below(x)` and its inverse.

/// An empirical CDF over a finite sample.
///
/// ```
/// use hpc_stats::Ecdf;
///
/// let gaps_minutes = vec![0.5, 1.0, 2.0, 4.0, 120.0];
/// let cdf = Ecdf::new(gaps_minutes);
/// assert_eq!(cdf.percent_at_or_below(16.0), 80.0);
/// assert_eq!(cdf.inverse(0.8), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `xs` (NaNs rejected with a panic — they indicate a
    /// pipeline bug upstream).
    pub fn new(mut xs: Vec<f64>) -> Ecdf {
        assert!(xs.iter().all(|x| !x.is_nan()), "NaN sample in ECDF input");
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after check"));
        Ecdf { sorted: xs }
    }

    /// F(x): fraction of samples ≤ `x` (0 for an empty sample).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Same as [`Self::fraction_at_or_below`] but as a percentage.
    pub fn percent_at_or_below(&self, x: f64) -> f64 {
        100.0 * self.fraction_at_or_below(x)
    }

    /// Smallest sample value `v` such that F(v) ≥ `q` (the q-th sample
    /// quantile by inversion). Returns `None` on an empty sample.
    pub fn inverse(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }
}

/// Convenience: logarithmically spaced grid from `start` to `end`
/// (inclusive-ish), as used for the minutes axis of Fig. 3 (1, 2, 4, … 16).
pub fn log2_grid(start: f64, end: f64) -> Vec<f64> {
    assert!(start > 0.0 && end >= start, "invalid log2 grid bounds");
    let mut v = Vec::new();
    let mut x = start;
    while x <= end * (1.0 + 1e-12) {
        v.push(x);
        x *= 2.0;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.5), 0.5);
        assert_eq!(e.fraction_at_or_below(4.0), 1.0);
        assert_eq!(e.fraction_at_or_below(9.0), 1.0);
        assert_eq!(e.percent_at_or_below(2.0), 50.0);
    }

    #[test]
    fn empty_sample() {
        let e = Ecdf::new(vec![]);
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert_eq!(e.inverse(0.5), None);
    }

    #[test]
    fn inverse_quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.0), Some(10.0)); // rank clamps to 1
        assert_eq!(e.inverse(0.25), Some(10.0));
        assert_eq!(e.inverse(0.5), Some(20.0));
        assert_eq!(e.inverse(1.0), Some(40.0));
    }

    #[test]
    fn inverse_is_consistent_with_forward() {
        let e = Ecdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        for q in [0.1, 0.25, 0.5, 0.9, 1.0] {
            let v = e.inverse(q).unwrap();
            assert!(e.fraction_at_or_below(v) >= q - 1e-12, "F({v}) < {q}");
        }
    }

    #[test]
    fn log2_grid_spacing() {
        assert_eq!(log2_grid(1.0, 16.0), vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(log2_grid(0.5, 1.0), vec![0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }
}
