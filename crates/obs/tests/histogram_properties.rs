//! Property tests for the log-linear-bucket histogram through its public
//! surface: quantile agreement with exact sorted-vector quantiles within
//! the documented bucket resolution, and exact count and sum. Merge
//! associativity and top-bucket saturation read the private bucket list,
//! so they live in the crate's own test module.

use plurality_obs::Histogram;
use proptest::prelude::*;

/// Exact nearest-rank quantile over a sorted sample vector — the oracle
/// the histogram's bucketed quantiles are compared against.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_agree_with_sorted_vector_within_bucket_resolution(
        mut values in prop::collection::vec(0u64..10_000_000, 1..400),
        qs in prop::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let h = hist_of(&values);
        values.sort_unstable();
        for q in qs.iter().copied().chain([1.0]) {
            let exact = exact_quantile(&values, q);
            let bucketed = h.quantile(q);
            // The bucketed quantile is the highest value of the bucket
            // holding the exact rank: never below the exact answer, and
            // within the 2/S relative-error bound above it.
            prop_assert!(bucketed >= exact,
                "q={q}: bucketed {bucketed} < exact {exact}");
            let slack = 2.0 / Histogram::SUB_BUCKETS as f64;
            let bound = (exact as f64) * (1.0 + slack) + 1.0;
            prop_assert!((bucketed as f64) <= bound,
                "q={q}: bucketed {bucketed} above error bound {bound} (exact {exact})");
        }
    }

    #[test]
    fn count_and_sum_are_exact(values in prop::collection::vec(0u64..1_000_000, 0..300)) {
        let h = hist_of(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }
}
