//! Property tests for histogram correctness: split recording merges to
//! exactly the single-histogram result, and bucketed percentiles stay
//! within one bucket width of the exact order statistics of the
//! recorded stream, inside the recorded range.

use hft_obs::hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Value streams spanning the interesting ranges: exact unit buckets,
/// mid-range latencies, and large outliers.
fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..64,
            64u64..100_000,
            100_000u64..10_000_000_000,
            Just(u64::MAX),
        ],
        1..400,
    )
}

proptest! {
    /// Splitting a stream across parts (some of them empty, when
    /// there are more parts than values) and merging yields the same
    /// histogram as `Histogram::record` of the whole stream.
    #[test]
    fn merged_parts_equal_single_histogram(vals in values(), nparts in 1usize..8) {
        let mut parts = vec![HistogramSnapshot::new(); nparts];
        let atomic = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            atomic.record(v);
            parts[i % nparts].record(v);
        }
        parts.push(HistogramSnapshot::new());
        let mut merged = HistogramSnapshot::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged, atomic.snapshot());
    }

    /// The bucketed nearest-rank percentile lands inside the bucket of
    /// the exact order statistic — i.e. within one bucket width.
    #[test]
    fn percentiles_within_one_bucket_width(vals in values()) {
        let mut snap = HistogramSnapshot::new();
        for &v in &vals {
            snap.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
            let exact = sorted[rank];
            let est = snap.percentile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(
                lo <= est && est <= hi,
                "q={} exact={} (bucket [{}, {}]) estimate={}",
                q, exact, lo, hi, est
            );
            prop_assert!(
                snap.min <= est && est <= snap.max,
                "q={} estimate={} outside [{}, {}]",
                q, est, snap.min, snap.max
            );
        }
    }

    /// Bucket index is monotone and bounds always contain the value —
    /// the two facts the percentile argument rests on.
    #[test]
    fn bucketing_is_sound(v in proptest::num::u64::ANY, w in proptest::num::u64::ANY) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(lo <= v && v <= hi);
        if v <= w {
            prop_assert!(bucket_index(v) <= bucket_index(w));
        }
    }
}
