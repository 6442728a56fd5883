//! Order statistics the benchmark reports: medians, tail percentiles that
//! refuse to extrapolate, histogram deltas and rung self time.

use snn_obs::HistogramSnapshot;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A nearest-rank percentile of a sample set together with how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `0.0..=1.0`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `q`-percentile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the sample cannot support it).
pub fn percentile(values: &[f64], q: f64) -> Option<Tail> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        q,
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// The `q`-percentile when the sample supports it, otherwise the highest
/// percentile that still leaves [`MIN_BEYOND`] samples beyond it. `None`
/// only when the set holds [`MIN_BEYOND`] samples or fewer.
pub fn supported_tail(values: &[f64], q: f64) -> Option<Tail> {
    if let Some(tail) = percentile(values, q) {
        return Some(tail);
    }
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND;
    percentile(values, rank as f64 / n as f64)
}

/// Bucket-wise `after − before` of two scrapes of one histogram: the
/// samples recorded between the scrapes.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        counts: after
            .counts
            .iter()
            .zip(&before.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
    }
}

/// A rung's self time: its own time minus the time of the rungs it calls.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    total - children.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(999), 0.99).is_none());
        let tail = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((tail.value, tail.beyond, tail.n), (990.0, 10, 1000));
        assert!(percentile(&ramp(10), 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn p50_of_a_ramp_is_its_middle() {
        let tail = percentile(&ramp(101), 0.5).unwrap();
        assert_eq!(tail.value, 51.0);
    }

    #[test]
    fn supported_tail_falls_back_to_the_highest_supported_rank() {
        let tail = supported_tail(&ramp(300), 0.99).unwrap();
        assert_eq!((tail.value, tail.beyond), (290.0, 10));
        assert!(tail.q < 0.99);
        assert_eq!(supported_tail(&ramp(2000), 0.99).unwrap().q, 0.99);
        assert!(supported_tail(&ramp(10), 0.99).is_none());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rung_self_time_subtracts_its_children() {
        // step = infer + train + refit + self.
        assert_eq!(self_time(100.0, &[30.0, 50.0, 15.0]), 5.0);
        assert_eq!(self_time(42.0, &[]), 42.0);
        // Parallel children can exceed the parent's wall time; the
        // subtraction reports that honestly as negative self time.
        assert_eq!(self_time(10.0, &[8.0, 8.0]), -6.0);
    }

    #[test]
    fn histogram_delta_keeps_only_the_window() {
        let mut before = HistogramSnapshot::new();
        before.counts[5] = 3;
        before.sum = 30;
        let mut after = before.clone();
        after.counts[5] += 2;
        after.counts[9] += 1;
        after.sum += 50;
        let delta = hist_delta(&after, &before);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum, 50);
    }
}
