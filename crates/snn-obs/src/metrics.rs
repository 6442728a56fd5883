//! Lock-free metric primitives: counters, gauges, and a fixed-bucket
//! log-scale histogram.
//!
//! Everything on the hot path is a relaxed atomic operation — no locks,
//! no allocation, no syscalls — so instrumentation can ride inside the
//! engine and scheduler without perturbing timing-sensitive code (and
//! can never perturb *results*, which depend only on persisted seeds).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets. Bucket layout: values `0..=3` get exact
/// unit buckets; from 4 upward each power-of-two octave is split into 4
/// sub-buckets (≈19 % worst-case relative error), which covers the full
/// `u64` range in `4 + 4·61 + 4 = 252` buckets.
pub const HIST_BUCKETS: usize = 252;

/// The bucket index `value` lands in.
pub fn bucket_index(value: u64) -> usize {
    if value < 4 {
        value as usize
    } else {
        let e = 63 - value.leading_zeros() as usize; // e >= 2
        let sub = ((value >> (e - 2)) & 3) as usize;
        4 * (e - 1) + sub
    }
}

/// Number of exemplar **bucket regions**: one per power-of-two octave
/// (four adjacent histogram buckets collapse into one region), so a
/// histogram keeps at most [`HIST_REGIONS`] tail exemplars however many
/// samples it absorbs.
pub const HIST_REGIONS: usize = HIST_BUCKETS / 4;

/// The exemplar region `value` lands in (its octave).
pub fn bucket_region(value: u64) -> usize {
    bucket_index(value) / 4
}

/// A tail-latency exemplar: the slowest sample a histogram has seen in
/// one bucket region, with the request id that produced it — the link
/// from "p99 is bad" to a concrete trace (`trace rid=` / `cluster-trace
/// rid=`). Extra `k=v` context (verb, phase breakdown) rides along.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The bucket region ([`bucket_region`]) the sample landed in.
    pub region: usize,
    /// The sample value (microseconds for latency histograms).
    pub value: u64,
    /// The request id of the sample.
    pub rid: String,
    /// Extra context (e.g. `verb`, `queue_us`, `exec_us`, `write_us`).
    pub fields: Vec<(String, String)>,
}

impl Exemplar {
    /// The value of `key` in [`Exemplar::fields`], if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `self` displaces `other` when both claim one region:
    /// strictly slower wins; ties break to the lexicographically smaller
    /// rid then fields, so merging stays order-insensitive.
    pub(crate) fn beats(&self, other: &Exemplar) -> bool {
        (self.value, &other.rid, &other.fields) > (other.value, &self.rid, &self.fields)
    }
}

/// The largest value that lands in bucket `index` (inclusive). The last
/// bucket's upper bound is `u64::MAX`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HIST_BUCKETS, "bucket index out of range");
    if index < 4 {
        index as u64
    } else {
        let e = index / 4 + 1;
        let sub = (index % 4) as u64;
        ((4 + sub) << (e - 2)) + ((1u64 << (e - 2)) - 1)
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// microseconds or bytes). Recording is two relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state. Merging snapshots is
/// bucket-wise addition, which is associative and commutative — the
/// property the cluster-wide scrape relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`HIST_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        HistogramSnapshot::default()
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated *inside* the
    /// bucket where the cumulative count crosses `q` (assuming samples
    /// spread uniformly across the bucket). The result always lies within
    /// that bucket's `[lower, upper]` range, so the worst-case error stays
    /// one bucket width (≈19 %) — but nearby quantiles that land in the
    /// same tail bucket no longer collapse to one saturated upper bound.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let hi = bucket_upper_bound(i);
                let lo = if i == 0 {
                    0
                } else {
                    bucket_upper_bound(i - 1) + 1
                };
                // 1-based rank of the target sample within this bucket.
                let pos = target - (seen - c);
                let fraction = pos as f64 / c as f64;
                let span = (hi - lo) as f64;
                return (lo + (span * fraction) as u64).min(hi);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Adds `other`'s buckets and sum into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_tight_and_consistent() {
        // Every bucket's upper bound must land in that bucket, and the
        // next value must land in the next bucket.
        for i in 0..HIST_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            if ub < u64::MAX {
                assert_eq!(bucket_index(ub + 1), i + 1, "value past bucket {i}");
            }
        }
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_is_monotone_over_powers_of_two() {
        let mut last = 0usize;
        for e in 2..64u32 {
            let idx = bucket_index(1u64 << e);
            assert!(idx > last, "2^{e} must move to a later bucket");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket upper bound overestimates a recorded value by less
        // than 25 % (one sub-bucket of a 4-way-split octave).
        for v in [5u64, 100, 1_000, 123_456, 10_000_000, 1 << 40] {
            let ub = bucket_upper_bound(bucket_index(v));
            assert!(ub >= v);
            assert!((ub - v) as f64 / v as f64 <= 0.25, "value {v} bound {ub}");
        }
    }

    #[test]
    fn quantiles_come_from_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum, 5050);
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        assert!((50..=64).contains(&p50), "p50 {p50}");
        assert!((99..=128).contains(&p99), "p99 {p99}");
        assert!(snap.quantile(0.0) >= 1);
        assert_eq!(HistogramSnapshot::new().quantile(0.5), 0);
    }

    #[test]
    fn tail_quantiles_separate_within_one_bucket() {
        // A saturated server's latencies can all land in the coarse
        // octave bucket ending at 262143, and p95 == p99 == 262143
        // without interpolation. Spread samples across that one bucket
        // (229376..=262143) and the interpolated quantiles must separate
        // while staying inside the bucket.
        let h = Histogram::new();
        for i in 0..1024u64 {
            h.record(229_376 + 32 * i); // all land in one bucket
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.50);
        let p95 = snap.quantile(0.95);
        let p99 = snap.quantile(0.99);
        assert!(p50 < p95 && p95 < p99, "p50 {p50} p95 {p95} p99 {p99}");
        for q in [p50, p95, p99] {
            assert!((229_376..=262_143).contains(&q), "in-bucket bound {q}");
        }
        // The extremes stay within the crossing bucket too.
        assert!(snap.quantile(0.0) >= 229_376);
        assert_eq!(snap.quantile(1.0), 262_143);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[2, 2, 1 << 30]);
        let c = mk(&[0, 77]);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "a+b == b+a");
        assert_eq!(ab_c.count(), 8);
    }

    #[test]
    fn gauge_stores_f64_bit_exact() {
        let g = Gauge::new();
        g.set(std::f64::consts::PI);
        assert_eq!(g.get(), std::f64::consts::PI);
        g.set(-0.0);
        assert_eq!(g.get().to_bits(), (-0.0f64).to_bits());
    }
}
