//! Fixed-bucket log-scale histograms: the latency primitive.
//!
//! A [`Histogram`] counts `u64` observations (by convention nanoseconds,
//! but any unit works) into a **fixed** set of log-scale buckets:
//! values below [`SUBS`] get exact buckets, and every power-of-two
//! octave above that is split into [`SUBS`] sub-buckets, so any bucket's
//! width is at most 25% of its lower bound. Quantiles read from a
//! snapshot land within ±12.5% (relative) of the exact order statistic —
//! plenty for p50/p99 SLO accounting — while recording stays one
//! relaxed `fetch_add` into a fixed slot: no allocation, no lock, no
//! comparison ladder (the bucket index is two shifts and a mask).
//!
//! Recording is striped over [`SHARDS`] per-thread shards so concurrent
//! writers (batcher workers, fleet threads) do not ping-pong one cache
//! line; a snapshot merges the shards by plain addition, which is exact
//! for counters and therefore order-independent.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Sub-buckets per power-of-two octave (4 ⇒ ≤25% bucket width).
pub const SUBS: usize = 4;
const SUB_BITS: usize = SUBS.trailing_zeros() as usize; // 2

/// Total bucket count: `SUBS` exact small-value buckets plus `SUBS`
/// sub-buckets for each octave `2^SUB_BITS ..= 2^63`.
pub const BUCKETS: usize = SUBS + (64 - SUB_BITS) * SUBS;

/// Writer stripes. Eight is enough to keep a handful of worker threads
/// off each other's cache lines without bloating snapshots.
const SHARDS: usize = 8;

/// Bucket index for a value. Monotone in `v`; exact for `v < SUBS`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUBS as u64 - 1)) as usize;
    (msb - SUB_BITS + 1) * SUBS + sub
}

/// Inclusive `[lo, hi]` value range of bucket `idx` (inverse of
/// [`bucket_of`]: every `v` with `bucket_of(v) == idx` lies inside).
pub fn bounds_of(idx: usize) -> (u64, u64) {
    assert!(idx < BUCKETS, "bucket index out of range");
    if idx < SUBS {
        return (idx as u64, idx as u64);
    }
    let octave = idx / SUBS - 1; // 0 => msb == SUB_BITS
    let sub = (idx % SUBS) as u64;
    let shift = octave; // == msb - SUB_BITS
    let lo = (SUBS as u64 + sub) << shift;
    // Parenthesized to avoid u64 overflow in the top bucket, whose `hi`
    // is exactly `u64::MAX`.
    let hi = lo + ((1u64 << shift) - 1);
    (lo, hi)
}

std::thread_local! {
    /// This thread's writer stripe, assigned round-robin on first use.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

/// Lock-free log-scale histogram. Construct standalone ([`Histogram::new`])
/// or through the global registry ([`crate::histogram()`]).
pub struct Histogram {
    /// `SHARDS` stripes of `BUCKETS` counters, flattened.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: (0..SHARDS * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Count one observation. No-op while observability is disabled
    /// (see [`crate::enabled`]); otherwise two relaxed atomic adds.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(v);
    }

    /// Count one observation regardless of the kill switch (snapshots
    /// of already-started spans, tests).
    #[inline]
    pub fn record_always(&self, v: u64) {
        let base = shard_index() * BUCKETS;
        self.buckets[base + bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge the per-thread shards into an immutable snapshot. Shard
    /// merging is plain addition of `u64` counts, so the result does not
    /// depend on which thread recorded what.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for idx in 0..BUCKETS {
            let c: u64 = (0..SHARDS)
                .map(|s| self.buckets[s * BUCKETS + idx].load(Ordering::Relaxed))
                .sum();
            if c > 0 {
                let (lo, hi) = bounds_of(idx);
                buckets.push(BucketCount { lo, hi, count: c });
                count += c;
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty bucket of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value this bucket can hold.
    pub lo: u64,
    /// Largest value this bucket can hold (inclusive).
    pub hi: u64,
    pub count: u64,
}

/// Immutable view of a histogram at one instant: non-empty buckets in
/// ascending value order, plus total count and sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the midpoint of the bucket
    /// holding the rank-`⌈q·n⌉` observation — within ±12.5% (relative)
    /// of the exact order statistic. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for b in &self.buckets {
            cum += b.count;
            if cum >= rank {
                return (b.lo as f64 + b.hi as f64) / 2.0;
            }
        }
        let last = self.buckets.last().expect("count > 0 implies buckets");
        (last.lo as f64 + last.hi as f64) / 2.0
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Exact mean of the recorded values (`sum` is exact). `NaN` when
    /// empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot in (bucket-wise addition — the same exact
    /// merge used across writer shards, usable across processes too).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<BucketCount> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.lo == y.lo => {
                    merged.push(BucketCount {
                        lo: x.lo,
                        hi: x.hi,
                        count: x.count + y.count,
                    });
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) => {
                    if x.lo < y.lo {
                        merged.push(**x);
                        a.next();
                    } else {
                        merged.push(**y);
                        b.next();
                    }
                }
                (Some(x), None) => {
                    merged.push(**x);
                    a.next();
                }
                (None, Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_for_small_values() {
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_of(v), v as usize);
        }
        let mut values: Vec<u64> = (0..60)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_of(v);
            assert!(idx >= prev, "bucket_of not monotone at {v}");
            prev = idx;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bounds_invert_bucket_of() {
        for idx in 0..BUCKETS {
            let (lo, hi) = bounds_of(idx);
            assert_eq!(bucket_of(lo), idx, "lo of bucket {idx}");
            assert_eq!(bucket_of(hi), idx, "hi of bucket {idx}");
            if idx + 1 < BUCKETS {
                assert_eq!(bounds_of(idx + 1).0, hi.wrapping_add(1), "gap after {idx}");
            } else {
                assert_eq!(hi, u64::MAX, "last bucket must reach u64::MAX");
            }
            // Log-scale contract: width never exceeds 25% of the bound.
            if lo > 0 {
                assert!(hi - lo < lo.div_ceil(4) + 1, "bucket {idx} too wide");
            }
        }
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1_000_210);
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), 8);
        // Exact small-value buckets.
        assert_eq!(
            s.buckets[0],
            BucketCount {
                lo: 0,
                hi: 0,
                count: 1
            }
        );
        assert!((s.mean() - 1_000_210.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_hit_the_right_buckets() {
        crate::set_enabled(true);
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50's exact order statistic is 50; bucket midpoint within 12.5%.
        assert!(
            (s.p50() - 50.0).abs() <= 50.0 * 0.125 + 0.5,
            "p50 {}",
            s.p50()
        );
        assert!(
            (s.p99() - 99.0).abs() <= 99.0 * 0.125 + 0.5,
            "p99 {}",
            s.p99()
        );
        assert!(s.quantile(0.0) >= 1.0);
        assert!(Histogram::new().snapshot().p50().is_nan());
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        crate::set_enabled(true);
        let (a, b, c) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 10, 100] {
            a.record(v);
            c.record(v);
        }
        for v in [10u64, 1000] {
            b.record(v);
            c.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, c.snapshot(), "merge must equal recording into one");
    }

    #[test]
    fn concurrent_shards_merge_exactly() {
        crate::set_enabled(true);
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.sum, (0..4000u64).sum::<u64>());
    }
}
