//! Property tests over the statistics substrate.

use proptest::prelude::*;

use hpc_stats::cdf::Ecdf;
use hpc_stats::descriptive::{quantile, Summary};
use hpc_stats::mtbf::{inter_event_gaps_ms, MtbfAnalysis};

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-1.0e6f64..1.0e6).prop_map(|x| x), 1..200)
}

proptest! {
    #[test]
    fn summary_bounds(xs in finite_vec()) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert_eq!(s.n, xs.len());
    }

    #[test]
    fn quantile_is_monotone_and_bounded(xs in finite_vec(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let vlo = quantile(&xs, lo);
        let vhi = quantile(&xs, hi);
        prop_assert!(vlo <= vhi + 1e-9);
        let s = Summary::of(&xs);
        prop_assert!(vlo >= s.min - 1e-9 && vhi <= s.max + 1e-9);
    }

    #[test]
    fn ecdf_is_monotone_and_normalised(xs in finite_vec(), probes in prop::collection::vec(-1.0e6f64..1.0e6, 2..20)) {
        let e = Ecdf::new(xs.clone());
        let mut sorted_probes = probes;
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for p in &sorted_probes {
            let f = e.fraction_at_or_below(*p);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12, "CDF must be monotone");
            prev = f;
        }
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.fraction_at_or_below(max), 1.0);
    }

    #[test]
    fn ecdf_inverse_round_trip(xs in finite_vec(), q in 0.01f64..1.0) {
        let e = Ecdf::new(xs);
        let v = e.inverse(q).unwrap();
        prop_assert!(e.fraction_at_or_below(v) >= q - 1e-12);
    }

    #[test]
    fn gaps_reconstruct_times(mut times in prop::collection::vec(0u64..10_000_000u64, 2..100)) {
        times.sort_unstable();
        let gaps = inter_event_gaps_ms(&times);
        prop_assert_eq!(gaps.len(), times.len() - 1);
        let reconstructed: u64 = times[0] + gaps.iter().sum::<u64>();
        prop_assert_eq!(reconstructed, *times.last().unwrap());
        // MTBF percent queries stay in [0, 100].
        let a = MtbfAnalysis::from_times_ms(&times);
        let p = a.percent_within_minutes(5.0);
        prop_assert!((0.0..=100.0).contains(&p));
    }
}
