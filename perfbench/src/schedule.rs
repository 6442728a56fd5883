//! The seeded open-loop arrival schedule of `cluster-open`.

use std::time::Duration;

use rand::Rng;
use snn_core::rng::{derive_seed, seeded_rng};

/// Poisson arrivals for each of `sessions` sessions whose rates sum to
/// `rate_per_s`, over `[0, span)`, conditioned on every session receiving
/// exactly its share of `rate_per_s × span` arrivals: uniform instants in
/// the span, sorted, which is a Poisson process given its count. Fixing
/// the count keeps the offered load, and every session's stream length,
/// the same for every seed. Session `s` draws from its own stream of
/// `seed`, so the schedule is a pure function of its arguments.
pub fn poisson_arrivals(
    seed: u64,
    sessions: usize,
    rate_per_s: f64,
    span: Duration,
) -> Vec<Vec<Duration>> {
    let per_session = (rate_per_s * span.as_secs_f64() / sessions as f64).round() as usize;
    (0..sessions)
        .map(|s| {
            let mut rng = seeded_rng(derive_seed(seed, 0xA881_0000 + s as u64));
            let mut at: Vec<f64> = (0..per_session).map(|_| rng.gen::<f64>()).collect();
            at.sort_by(f64::total_cmp);
            at.into_iter().map(|u| span.mul_f64(u)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_its_seed() {
        let span = Duration::from_secs(5);
        let a = poisson_arrivals(7, 16, 120.0, span);
        assert_eq!(a, poisson_arrivals(7, 16, 120.0, span));
        assert_ne!(a, poisson_arrivals(8, 16, 120.0, span));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn schedule_offers_the_rate_inside_its_span() {
        let span = Duration::from_secs(20);
        let arrivals = poisson_arrivals(3, 16, 120.0, span);
        for session in &arrivals {
            assert_eq!(session.len(), 150);
            assert!(session.windows(2).all(|w| w[0] <= w[1]));
            assert!(session.iter().all(|&t| t < span));
        }
        // Gaps of a Poisson process are exponential: mean 1/rate, and
        // about e^-1 of them exceed the mean.
        let gaps: Vec<f64> = arrivals[0]
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((0.10..0.165).contains(&mean), "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!((0.25..0.5).contains(&long), "share of long gaps {long}");
    }
}
