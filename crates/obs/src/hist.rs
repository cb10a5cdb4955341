//! Log-bucketed latency histograms, HDR-style: fixed memory, bounded
//! relative error, lock-free atomic recording, and a plain-array form
//! that merges exactly.
//!
//! # Bucketing
//!
//! Values below 2^[`SUB_BITS`] get an exact unit bucket. Above that,
//! each power-of-two octave is split into 2^[`SUB_BITS`] equal
//! sub-buckets, so the relative width of any bucket is at most
//! `1 / 2^SUB_BITS` (~3.1% with 5 sub-bucket bits). The whole `u64`
//! domain fits in [`BUCKETS`] slots (15 KiB of counters), which is why
//! a histogram can sit in a static registry forever.
//!
//! Percentiles are nearest-rank over bucket counts, reported as the
//! bucket midpoint clamped to the recorded range — within one bucket
//! width of the exact order statistic, and never outside `[min, max]`
//! (property-tested in `tests/prop_hist.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` domain.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// The bucket index of `v`. Monotone non-decreasing in `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let top = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        group * SUB + top
    }
}

/// The inclusive `(lo, hi)` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, index as u64)
    } else {
        let group = index / SUB;
        let top = (index % SUB) as u64;
        let shift = (group - 1) as u32;
        let lo = (SUB as u64 + top) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }
}

/// The midpoint of bucket `index` — the value percentiles report.
pub fn bucket_mid(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// A concurrent log-bucketed histogram. Recording is two relaxed
/// `fetch_add`s plus a `fetch_min`/`fetch_max` pair; memory is fixed at
/// [`BUCKETS`] counters regardless of how many values are recorded.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(BUCKETS)
                .collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. A no-op while recording is disabled
    /// ([`crate::set_enabled`]).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Record one value regardless of the kill switch — for callers
    /// whose measurement *is* the deliverable (bench reports), not
    /// telemetry.
    #[inline]
    pub fn record_always(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of histogram counts, with percentile queries —
/// and the plain, single-thread histogram for explicit measurement
/// loops: [`record`](HistogramSnapshot::record) contention-free (not
/// gated by the kill switch), then [`merge`](HistogramSnapshot::merge)
/// the parts; the result equals recording the union into one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::new()
    }
}

impl HistogramSnapshot {
    /// An empty histogram ([`BUCKETS`] zero counts).
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        // Wraps like the atomic histogram's fetch_add: `sum` is an
        // aggregate for means, not an exact ledger.
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` in.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `q`-quantile (`0.0..=1.0`), reported as the
    /// midpoint of the bucket holding that rank, clamped to the recorded
    /// `[min, max]`; 0 when empty. Within one bucket width of the exact
    /// order statistic.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < 1 << 22 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must not decrease at v={v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} outside bucket {i} [{lo},{hi}]");
            prev = i;
            v += 1 + v / 64; // dense at first, exponential later
        }
        // Extremes stay in range.
        assert!(bucket_index(u64::MAX) < BUCKETS);
        let (_, hi) = bucket_bounds(bucket_index(u64::MAX));
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn exact_buckets_below_sub() {
        for v in 0..(1u64 << SUB_BITS) {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 1_000, 50_000, 1 << 30, (1 << 40) + 12345] {
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB as f64, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn snapshot_summarizes() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000, 2000] {
            h.record_always(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 3006);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 2000);
        assert_eq!(s.percentile(0.0), 1);
        // p50 = rank 2 → value 3 (exact unit bucket).
        assert_eq!(s.percentile(0.5), 3);
        let p100 = s.percentile(1.0);
        let (lo, hi) = bucket_bounds(bucket_index(2000));
        assert!(lo <= p100 && p100 <= hi);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn plain_merge_equals_direct() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        let direct = Histogram::new();
        for v in 0..500u64 {
            let v = v * 17 % 4096;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            direct.record_always(v);
        }
        a.merge(&b);
        assert_eq!(a, direct.snapshot());
    }
}
