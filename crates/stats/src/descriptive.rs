//! Descriptive statistics: mean, standard deviation, percentiles.
//!
//! The paper reports means with dispersion throughout ("MTBF … 1.5 (±0.56)
//! minutes", "24 to 240 (±21)", "errors are less than ±7.2"); this module
//! provides those summaries.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 if n < 2).
    pub stddev: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics over `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min,
            max,
        }
    }

    /// Renders as the paper's `mean (±stddev)` convention.
    pub fn pm_string(&self, decimals: usize) -> String {
        format!("{:.d$} (±{:.d$})", self.mean, self.stddev, d = decimals)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks. Input need not be sorted; empty input yields 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Like [`quantile`] but assumes `sorted` is ascending (no allocation).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev with n-1: sqrt(32/7) ≈ 2.138
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.stddev, 0.0);

        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Interpolation between ranks.
        assert!((quantile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -0.5), 1.0);
        assert_eq!(quantile(&xs, 1.5), 2.0);
    }

    #[test]
    fn pm_string_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.pm_string(1), "2.0 (±1.0)");
    }
}
