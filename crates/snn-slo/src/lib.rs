//! # snn-slo — declarative service-level objectives over `snn-obs` streams
//!
//! The serving tiers expose everything a watcher needs — counters,
//! gauges, latency histograms, a flight-recorder journal — as
//! [`snn_obs::Snapshot`]s, scraped on demand (`metrics`,
//! `cluster-metrics`) or pushed periodically (`subscribe`). This crate
//! is the watcher: a pure, socket-free [`SloEngine`] that consumes
//! consecutive snapshots, differentiates them into *windowed* signal
//! values (a reject **rate**, a joules **burn**, the p99 of the latency
//! recorded *since the last tick*), and raises deduplicated [`Alert`]s
//! when an [`Objective`]'s violation fraction — its burn rate — stays
//! high across the evaluation window.
//!
//! Everything here is a pure function of the snapshots fed in: no
//! clocks, no I/O, no threads. The caller owns the transport (typically
//! `snn_serve::ServeClient::subscribe`'s `push` frames, whose
//! `metrics` field is exactly the [`snn_obs::Snapshot`] this engine
//! eats) and the reaction to each [`Alert`].
//!
//! ```
//! use snn_obs::Registry;
//! use snn_slo::{Objective, Signal, SloEngine, SloPolicy};
//!
//! let r = Registry::new("s0");
//! let mut engine = SloEngine::new(
//!     vec![Objective {
//!         name: "ingest-rejects".into(),
//!         signal: Signal::RejectRate,
//!         threshold: 0.1,
//!     }],
//!     SloPolicy::default(),
//! );
//! // Feed consecutive snapshots; a healthy stream raises nothing.
//! assert!(engine.observe(&r.snapshot(), 0).is_empty());
//! assert!(engine.observe(&r.snapshot(), 1_000_000).is_empty());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;

use snn_obs::{HistogramSnapshot, Snapshot};

/// What an [`Objective`] watches, each evaluated over the delta between
/// consecutive observed snapshots (except the instantaneous gauges).
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// The p99, in microseconds, of `serve.req.<verb>_us` latency
    /// recorded since the previous observation (a histogram delta, so a
    /// long-gone spike cannot keep the alert firing forever).
    VerbLatencyP99Us(
        /// The request verb to watch (e.g. `"ingest"`).
        String,
    ),
    /// Rejected requests (admission + backpressure) as a fraction of
    /// all requests since the previous observation. Zero when no
    /// requests arrived — an idle service violates nothing.
    RejectRate,
    /// Modelled joules burned per wall-clock second since the previous
    /// observation (from the `serve.total_j` gauge and the caller's
    /// timestamps).
    JoulesPerSecond,
    /// The instantaneous `cluster.shadow_lag` gauge: the worst
    /// per-session sample gap between ingested and shadowed state.
    ShadowLagSamples,
}

/// One service-level objective: a named signal that must stay at or
/// below a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Stable name, carried on every [`Alert`] for this objective.
    pub name: String,
    /// What to measure.
    pub signal: Signal,
    /// Violation when the measured value exceeds this.
    pub threshold: f64,
}

/// Windowing and burn-rate knobs shared by every objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// How many recent observations the violation window holds.
    pub window: usize,
    /// Fire when the fraction of violating observations in the window
    /// reaches this; clear (re-arming the alert) when it falls back
    /// below. A fraction, so `1.0` means "every recent tick violated".
    pub burn_threshold: f64,
    /// Observations required in the window before any alert can fire —
    /// one noisy first sample must not page anyone.
    pub min_samples: usize,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            window: 10,
            burn_threshold: 0.5,
            min_samples: 3,
        }
    }
}

/// One fired alert: an objective whose burn rate crossed the policy
/// threshold this observation (deduplicated — the objective must clear
/// before it can fire again).
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The violated objective's name.
    pub objective: String,
    /// The signal value measured at the firing observation.
    pub value: f64,
    /// The violation fraction over the window at firing time.
    pub burn_rate: f64,
    /// The caller's timestamp of the firing observation, microseconds.
    pub at_us: u64,
    /// The request id of the worst tail-latency exemplar the observed
    /// snapshot retains for the violated signal (latency objectives
    /// only; `None` for rate/gauge signals or when the exposition
    /// carries no exemplars). This is the rid to hand straight to
    /// `cluster-trace rid=…` — the alert names the exact request that
    /// defines the regression, not just the aggregate.
    pub exemplar_rid: Option<String>,
}

/// Per-objective evaluation state: the recent violation window and
/// whether the alert is currently firing.
#[derive(Debug)]
struct ObjectiveState {
    objective: Objective,
    window: VecDeque<bool>,
    firing: bool,
    /// Last measured value (whatever the most recent observation saw).
    last_value: f64,
}

/// The engine: consecutive snapshots in, deduplicated alerts out.
#[derive(Debug)]
pub struct SloEngine {
    policy: SloPolicy,
    states: Vec<ObjectiveState>,
    prev: Option<(Snapshot, u64)>,
}

impl SloEngine {
    /// A fresh engine evaluating `objectives` under `policy`.
    pub fn new(objectives: Vec<Objective>, policy: SloPolicy) -> Self {
        SloEngine {
            policy,
            states: objectives
                .into_iter()
                .map(|objective| ObjectiveState {
                    objective,
                    window: VecDeque::new(),
                    firing: false,
                    last_value: 0.0,
                })
                .collect(),
            prev: None,
        }
    }

    /// Feeds one observed snapshot, stamped by the caller (`at_us` must
    /// be monotone; the subscribe stream's frame arrival time works).
    /// Returns the alerts that *started firing* on this observation.
    /// The first observation only primes the delta state and can never
    /// alert.
    pub fn observe(&mut self, snap: &Snapshot, at_us: u64) -> Vec<Alert> {
        let Some((prev, prev_us)) = self.prev.take() else {
            self.prev = Some((snap.clone(), at_us));
            return Vec::new();
        };
        let mut fired = Vec::new();
        for state in &mut self.states {
            let value = signal_value(&state.objective.signal, &prev, prev_us, snap, at_us);
            state.last_value = value;
            state.window.push_back(value > state.objective.threshold);
            while state.window.len() > self.policy.window {
                state.window.pop_front();
            }
            if state.window.len() < self.policy.min_samples {
                continue;
            }
            let violations = state.window.iter().filter(|&&v| v).count();
            let burn_rate = violations as f64 / state.window.len() as f64;
            if burn_rate >= self.policy.burn_threshold {
                if !state.firing {
                    state.firing = true;
                    fired.push(Alert {
                        objective: state.objective.name.clone(),
                        value,
                        burn_rate,
                        at_us,
                        exemplar_rid: signal_exemplar(&state.objective.signal, snap),
                    });
                }
            } else {
                state.firing = false;
            }
        }
        self.prev = Some((snap.clone(), at_us));
        fired
    }

    /// Whether the named objective is currently firing.
    pub fn is_firing(&self, objective: &str) -> bool {
        self.states
            .iter()
            .any(|s| s.objective.name == objective && s.firing)
    }

    /// The most recent measured value of the named objective's signal
    /// (zero before the second observation).
    pub fn last_value(&self, objective: &str) -> Option<f64> {
        self.states
            .iter()
            .find(|s| s.objective.name == objective)
            .map(|s| s.last_value)
    }
}

/// Evaluates one signal over a `(prev, current)` snapshot pair.
fn signal_value(
    signal: &Signal,
    prev: &Snapshot,
    prev_us: u64,
    snap: &Snapshot,
    at_us: u64,
) -> f64 {
    match signal {
        Signal::VerbLatencyP99Us(verb) => {
            let name = format!("serve.req.{verb}_us");
            let delta = histogram_delta(&prev.histogram(&name), &snap.histogram(&name));
            if delta.count() == 0 {
                0.0
            } else {
                delta.quantile(0.99) as f64
            }
        }
        Signal::RejectRate => {
            let rejects = counter_delta(prev, snap, "serve.admission_rejects")
                + counter_delta(prev, snap, "serve.backpressure_rejects");
            let requests = counter_delta(prev, snap, "serve.requests");
            if requests == 0 {
                0.0
            } else {
                rejects as f64 / requests as f64
            }
        }
        Signal::JoulesPerSecond => {
            let dt_s = at_us.saturating_sub(prev_us) as f64 / 1e6;
            if dt_s <= 0.0 {
                0.0
            } else {
                (snap.gauge("serve.total_j") - prev.gauge("serve.total_j")).max(0.0) / dt_s
            }
        }
        Signal::ShadowLagSamples => snap.gauge("cluster.shadow_lag"),
    }
}

/// The rid of the worst retained tail-latency exemplar for a signal's
/// backing histogram, if the signal has one and the snapshot retains
/// any. Only latency signals map to an exemplar-bearing series.
fn signal_exemplar(signal: &Signal, snap: &Snapshot) -> Option<String> {
    match signal {
        Signal::VerbLatencyP99Us(verb) => snap
            .worst_exemplar(&format!("serve.req.{verb}_us"))
            .map(|e| e.rid.clone()),
        Signal::RejectRate | Signal::JoulesPerSecond | Signal::ShadowLagSamples => None,
    }
}

fn counter_delta(prev: &Snapshot, snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).saturating_sub(prev.counter(name))
}

/// The histogram of values recorded between two snapshots of the same
/// (monotone) histogram: a per-bucket saturating subtraction. A merged
/// cluster exposition stays monotone as long as the shard set does not
/// shrink; a vanished shard reads as an empty delta, never a panic.
fn histogram_delta(prev: &HistogramSnapshot, snap: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = HistogramSnapshot::new();
    for (i, d) in delta.counts.iter_mut().enumerate() {
        let now = snap.counts.get(i).copied().unwrap_or(0);
        let before = prev.counts.get(i).copied().unwrap_or(0);
        *d = now.saturating_sub(before);
    }
    delta.sum = snap.sum.saturating_sub(prev.sum);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_obs::Registry;

    fn policy() -> SloPolicy {
        SloPolicy {
            window: 4,
            burn_threshold: 0.5,
            min_samples: 2,
        }
    }

    fn reject_objective() -> Objective {
        Objective {
            name: "rejects".into(),
            signal: Signal::RejectRate,
            threshold: 0.2,
        }
    }

    #[test]
    fn first_observation_only_primes_the_delta() {
        let r = Registry::new("t0");
        r.counter("serve.requests").add(100);
        r.counter("serve.admission_rejects").add(100);
        let mut engine = SloEngine::new(vec![reject_objective()], policy());
        // Even a snapshot whose *cumulative* counters look terrible
        // cannot alert: there is no window yet, only history.
        assert!(engine.observe(&r.snapshot(), 0).is_empty());
    }

    #[test]
    fn sustained_rejects_fire_once_and_clear_rearms() {
        let r = Registry::new("t1");
        let requests = r.counter("serve.requests");
        let rejects = r.counter("serve.admission_rejects");
        let mut engine = SloEngine::new(vec![reject_objective()], policy());
        let mut at = 0u64;
        let mut tick = |engine: &mut SloEngine, req: u64, rej: u64| {
            requests.add(req);
            rejects.add(rej);
            at += 1_000_000;
            engine.observe(&r.snapshot(), at)
        };
        assert!(tick(&mut engine, 10, 0).is_empty()); // prime
        assert!(tick(&mut engine, 10, 0).is_empty()); // healthy
                                                      // One violating tick over a [healthy, bad] window: burn rate
                                                      // hits exactly 0.5 ≥ threshold — the alert fires once, with the
                                                      // measured value and burn rate.
        let fired = tick(&mut engine, 10, 5);
        let alert = match fired.as_slice() {
            [a] => a,
            other => panic!("expected one alert, got {other:?}"),
        };
        assert_eq!(alert.objective, "rejects");
        assert!((alert.value - 0.5).abs() < 1e-9, "value {}", alert.value);
        assert!(alert.burn_rate >= 0.5);
        assert!(engine.is_firing("rejects"));
        // Still burning: deduplicated, no re-fire.
        assert!(tick(&mut engine, 10, 5).is_empty());
        // Recover long enough for the 4-window to drain below 0.5…
        assert!(tick(&mut engine, 10, 0).is_empty()); // [f,t,t,f] = 0.5, holds
        assert!(tick(&mut engine, 10, 0).is_empty()); // [t,t,f,f] = 0.5, holds
        assert!(tick(&mut engine, 10, 0).is_empty()); // [t,f,f,f] = 0.25, clears
        assert!(!engine.is_firing("rejects"));
        // …and a fresh burn fires a fresh alert.
        assert!(tick(&mut engine, 10, 5).is_empty()); // [f,f,f,t] = 0.25
        assert_eq!(tick(&mut engine, 10, 5).len(), 1); // [f,f,t,t] = 0.5
    }

    #[test]
    fn sustained_rejects_fire_at_half_window() {
        // Separate check for the comment above: with min_samples=2 and
        // a half-burned window, the first eligible observation fires.
        let r = Registry::new("t2");
        let mut engine = SloEngine::new(
            vec![reject_objective()],
            SloPolicy {
                window: 4,
                burn_threshold: 0.5,
                min_samples: 2,
            },
        );
        engine.observe(&r.snapshot(), 0);
        r.counter("serve.requests").add(10);
        r.counter("serve.admission_rejects").add(10);
        assert!(
            engine.observe(&r.snapshot(), 1).is_empty(),
            "1 sample < min"
        );
        r.counter("serve.requests").add(10);
        r.counter("serve.admission_rejects").add(10);
        assert_eq!(engine.observe(&r.snapshot(), 2).len(), 1);
    }

    #[test]
    fn idle_service_never_violates_a_reject_slo() {
        let r = Registry::new("t3");
        let mut engine = SloEngine::new(vec![reject_objective()], policy());
        for at in 0..8 {
            assert!(engine.observe(&r.snapshot(), at).is_empty());
        }
        assert_eq!(engine.last_value("rejects"), Some(0.0));
    }

    #[test]
    fn latency_p99_is_windowed_not_lifetime() {
        let r = Registry::new("t4");
        let h = r.histogram("serve.req.ingest_us");
        let mut engine = SloEngine::new(
            vec![Objective {
                name: "ingest-p99".into(),
                signal: Signal::VerbLatencyP99Us("ingest".into()),
                threshold: 1_000.0,
            }],
            SloPolicy {
                window: 1,
                burn_threshold: 1.0,
                min_samples: 1,
            },
        );
        // A historic spike…
        for _ in 0..100 {
            h.record(50_000);
        }
        engine.observe(&r.snapshot(), 0);
        // …followed by a healthy window: the delta p99 is the *recent*
        // latency, so no violation despite the terrible lifetime p99.
        for _ in 0..100 {
            h.record(100);
        }
        assert!(engine.observe(&r.snapshot(), 1_000_000).is_empty());
        let p99 = engine.last_value("ingest-p99").unwrap();
        assert!(p99 < 1_000.0, "windowed p99 {p99} reflects recent traffic");
        // And a recent spike violates even though idle ticks preceded it.
        for _ in 0..100 {
            h.record(50_000);
        }
        let fired = engine.observe(&r.snapshot(), 2_000_000);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].value >= 1_000.0);
    }

    #[test]
    fn latency_alert_names_the_worst_exemplar_rid() {
        let r = Registry::new("t9");
        let h = r.histogram("serve.req.ingest_us");
        let mut engine = SloEngine::new(
            vec![Objective {
                name: "ingest-p99".into(),
                signal: Signal::VerbLatencyP99Us("ingest".into()),
                threshold: 1_000.0,
            }],
            SloPolicy {
                window: 1,
                burn_threshold: 1.0,
                min_samples: 1,
            },
        );
        engine.observe(&r.snapshot(), 0);
        // The spike that violates the objective, with exemplars retained
        // exactly as the serve tier records them alongside the histogram.
        h.record(40_000);
        r.exemplar("serve.req.ingest_us", 40_000, "s0-7", &[]);
        h.record(90_000);
        r.exemplar("serve.req.ingest_us", 90_000, "s0-9", &[]);
        let fired = engine.observe(&r.snapshot(), 1_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(
            fired[0].exemplar_rid.as_deref(),
            Some("s0-9"),
            "the alert hands over the slowest retained request's rid"
        );
        // Rate signals have no backing latency series: no rid.
        let mut rates = SloEngine::new(
            vec![reject_objective()],
            SloPolicy {
                window: 1,
                burn_threshold: 1.0,
                min_samples: 1,
            },
        );
        rates.observe(&r.snapshot(), 0);
        r.counter("serve.requests").add(10);
        r.counter("serve.admission_rejects").add(10);
        let fired = rates.observe(&r.snapshot(), 1_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].exemplar_rid, None);
    }

    #[test]
    fn joules_burn_is_a_rate_over_caller_timestamps() {
        let r = Registry::new("t5");
        let g = r.gauge("serve.total_j");
        let mut engine = SloEngine::new(
            vec![Objective {
                name: "burn".into(),
                signal: Signal::JoulesPerSecond,
                threshold: 2.0,
            }],
            SloPolicy {
                window: 1,
                burn_threshold: 1.0,
                min_samples: 1,
            },
        );
        g.set(1_000.0); // history, not a rate
        engine.observe(&r.snapshot(), 0);
        g.set(1_001.0); // +1 J over 1 s → 1 J/s: fine
        assert!(engine.observe(&r.snapshot(), 1_000_000).is_empty());
        g.set(1_011.0); // +10 J over 2 s → 5 J/s: violation
        let fired = engine.observe(&r.snapshot(), 3_000_000);
        assert_eq!(fired.len(), 1);
        assert!((fired[0].value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn shadow_lag_is_instantaneous() {
        let r = Registry::new("t6");
        let mut engine = SloEngine::new(
            vec![Objective {
                name: "lag".into(),
                signal: Signal::ShadowLagSamples,
                threshold: 16.0,
            }],
            SloPolicy {
                window: 1,
                burn_threshold: 1.0,
                min_samples: 1,
            },
        );
        r.gauge("cluster.shadow_lag").set(4.0);
        engine.observe(&r.snapshot(), 0);
        assert!(engine.observe(&r.snapshot(), 1).is_empty());
        r.gauge("cluster.shadow_lag").set(64.0);
        assert_eq!(engine.observe(&r.snapshot(), 2).len(), 1);
    }
}
