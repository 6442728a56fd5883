//! The streaming continual learner.
//!
//! [`OnlineLearner`] turns the repo's offline batch trainer into a
//! long-running service loop. Per micro-batch of the stream it:
//!
//! 1. **predicts** every sample with the *current* model through the
//!    batched `snn-runtime` engine (prequential "test-then-train"
//!    evaluation; the long-lived engine adopts the latest weights via
//!    [`snn_runtime::Engine::hot_swap`], so no per-batch rebuilds),
//! 2. feeds predictions and input-rate statistics to the deterministic
//!    [`DriftDetector`],
//! 3. **trains** on each sample through the scalar plasticity path (the
//!    same `run_sample` loop the offline trainer uses — plasticity is a
//!    sequential dependency across samples),
//! 4. on confirmed drift applies SpikeDyn's adaptive responses
//!    (learning-rate boost + weight-decay rescale,
//!    [`spikedyn::Trainer::apply_adaptive_response`]) for a configured
//!    hold window, and
//! 5. periodically refits the neuron→class assignment from a bounded
//!    reservoir of recent labelled samples.
//!
//! Steps 1 and 3 run at once
//! ([`spikedyn::Trainer::infer_and_train_with`]): prediction reads only
//! the engine's hot-swapped copy of the pre-update weights, training
//! writes only the trainer's, and each draws its own seeds into its own op
//! meter, so the overlap cannot change a byte. On a `rayon` worker (an
//! `snn-serve` scheduler worker) or with one thread the two run one after
//! the other on the calling thread. Steps 2, 4 and 5 follow in order once
//! both have finished.
//!
//! Everything the loop mutates is captured by
//! [`OnlineLearner::checkpoint`] into a [`ModelSnapshot`]; resuming from
//! the snapshot and feeding the identical remaining stream reproduces the
//! uninterrupted run bit for bit (predictions, weights, metrics, next
//! checkpoint). Pause points are batch boundaries — the only places the
//! caller can observe the learner anyway.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use neuro_energy::GpuSpec;
use snn_core::config::PresentConfig;
use snn_core::error::SnnResult;
use snn_core::metrics::ClassAssignment;
use snn_core::ops::OpCounts;
use snn_data::Image;
use snn_obs::{Counter, Histogram};
use snn_runtime::Engine;
use spikedyn::{AdaptiveResponse, Method, Trainer};

use crate::drift::{DriftConfig, DriftDetector, DriftEvent};
use crate::metrics::{SlidingMetrics, WindowRecord};
use crate::snapshot::ModelSnapshot;

/// How the learner reacts to a confirmed drift event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseConfig {
    /// Learning-rate multiplier while the response is active.
    pub lr_boost: f32,
    /// Weight-decay multiplier while the response is active (freeing
    /// stale synapses faster).
    pub w_decay_scale: f32,
    /// Samples the boosted response stays active after a drift event.
    pub hold_samples: u64,
}

impl Default for ResponseConfig {
    fn default() -> Self {
        ResponseConfig {
            lr_boost: 2.0,
            w_decay_scale: 2.0,
            hold_samples: 60,
        }
    }
}

impl ResponseConfig {
    /// The boosted [`AdaptiveResponse`] this config prescribes.
    pub fn boosted(&self) -> AdaptiveResponse {
        AdaptiveResponse {
            lr_boost: self.lr_boost,
            w_decay_scale: self.w_decay_scale,
        }
    }
}

/// Full configuration of an online learner. Embedded in every snapshot,
/// so [`OnlineLearner::resume`] needs no other input.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// The learning method under evaluation.
    pub method: Method,
    /// Input channels per sample.
    pub n_input: usize,
    /// Excitatory neurons.
    pub n_exc: usize,
    /// Number of stream classes.
    pub n_classes: usize,
    /// Presentation protocol.
    pub present: PresentConfig,
    /// Poisson encoder full-intensity rate in Hz.
    pub max_rate_hz: f32,
    /// Temporal compression of the method constants (see `DESIGN.md` §2).
    pub time_compression: f32,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Samples per micro-batch (prediction batching grain; also the
    /// checkpoint granularity).
    pub batch_size: usize,
    /// Refit the neuron→class assignment every this many samples.
    pub assign_every: u64,
    /// Labelled reservoir size for assignment refreshes.
    pub reservoir_capacity: usize,
    /// Sliding metric window in samples.
    pub metric_window: usize,
    /// Drift detector geometry and thresholds.
    pub drift: DriftConfig,
    /// Adaptive response applied on drift.
    pub response: ResponseConfig,
}

impl OnlineConfig {
    /// A reduced-scale profile matching the repo's fast experiment
    /// protocol: 14×14 inputs, 100 ms presentations, compression 150.
    pub fn fast(method: Method, n_exc: usize) -> Self {
        OnlineConfig {
            method,
            n_input: 196,
            n_exc,
            n_classes: 10,
            present: PresentConfig::fast(),
            max_rate_hz: 255.0,
            time_compression: 150.0,
            seed: 42,
            batch_size: 8,
            assign_every: 24,
            reservoir_capacity: 48,
            metric_window: 60,
            drift: DriftConfig::default(),
            response: ResponseConfig::default(),
        }
    }
}

/// Aggregate outcome of a (partial) stream run, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Samples consumed so far.
    pub samples_seen: u64,
    /// Windowed overall accuracy at the end of the run.
    pub accuracy: f64,
    /// Windowed per-task accuracy (`None` = task absent from window).
    pub per_task_accuracy: Vec<Option<f64>>,
    /// Per-task forgetting (`None` = task never established).
    pub forgetting: Vec<Option<f64>>,
    /// Mean forgetting over established tasks.
    pub mean_forgetting: f64,
    /// Mean excitatory spikes per sample over the window.
    pub mean_exc_spikes: f64,
    /// Drift events raised so far.
    pub drift_events: Vec<DriftEvent>,
}

/// Modelled energy of the run so far, priced on a GPU device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total training energy in joules.
    pub train_j: f64,
    /// Total inference (prediction + assignment) energy in joules.
    pub infer_j: f64,
    /// Mean total energy per stream sample in joules.
    pub per_sample_j: f64,
}

/// The externally observable outcome of one [`OnlineLearner::step`]: what
/// a serving layer reports back to the client that submitted the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Prequential predictions, one per submitted sample (`None` =
    /// network silent / no assignment fitted yet).
    pub predictions: Vec<Option<u8>>,
    /// Drift events raised **during this step** (the cumulative log is
    /// [`OnlineLearner::drift_events`]).
    pub drift_events: Vec<DriftEvent>,
    /// True when a boosted adaptive response is active after this step.
    pub response_active: bool,
    /// Total stream samples the learner has consumed after this step.
    pub samples_seen: u64,
}

/// Observability handles a hosting layer (an `snn-serve` scheduler) hands
/// the learner so its lifecycle events land in the host's metrics
/// registry. Purely additive: counters and histograms are lock-free
/// `snn-obs` primitives, recording never touches learner state, seeds or
/// checkpoints, so an observed learner stays bit-identical to an
/// unobserved one (pinned by `tests/obs_metrics.rs`).
#[derive(Debug, Clone)]
pub struct LearnerObs {
    /// Confirmed drift events (`online.drift_events`).
    pub drift_events: Arc<Counter>,
    /// Boosted adaptive responses armed (`online.adaptive_responses`).
    pub adaptive_responses: Arc<Counter>,
    /// Time to build a [`ModelSnapshot`] in µs
    /// (`online.checkpoint.build_us`).
    pub checkpoint_build_us: Arc<Histogram>,
}

/// The streaming continual learner. See the module docs for the loop.
#[derive(Debug)]
pub struct OnlineLearner {
    config: OnlineConfig,
    trainer: Trainer,
    engine: Engine,
    obs: Option<LearnerObs>,
    assignment: Option<ClassAssignment>,
    reservoir: VecDeque<Image>,
    metrics: SlidingMetrics,
    drift: DriftDetector,
    drift_events: Vec<DriftEvent>,
    samples_seen: u64,
    last_assign_at: u64,
    response_remaining: u64,
}

impl OnlineLearner {
    /// Builds a fresh learner (randomly initialised network) from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size`, `metric_window`, `reservoir_capacity`,
    /// `assign_every` or the drift window is zero.
    pub fn new(config: OnlineConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(
            config.reservoir_capacity > 0,
            "reservoir capacity must be positive"
        );
        assert!(
            config.assign_every > 0,
            "assignment refresh interval must be positive"
        );
        let trainer = Trainer::with_compression(
            config.method,
            config.n_input,
            config.n_exc,
            config.present,
            config.time_compression,
            config.seed,
        )
        .with_max_rate(config.max_rate_hz);
        let engine = trainer.engine();
        let metrics = SlidingMetrics::new(config.metric_window, config.n_classes);
        let drift = DriftDetector::new(config.drift, config.n_classes);
        OnlineLearner {
            config,
            trainer,
            engine,
            obs: None,
            assignment: None,
            reservoir: VecDeque::new(),
            metrics,
            drift,
            drift_events: Vec::new(),
            samples_seen: 0,
            last_assign_at: 0,
            response_remaining: 0,
        }
    }

    /// The learner's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Stream samples consumed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Drift events raised so far.
    pub fn drift_events(&self) -> &[DriftEvent] {
        &self.drift_events
    }

    /// The sliding prequential metrics window.
    pub fn metrics(&self) -> &SlidingMetrics {
        &self.metrics
    }

    /// The current neuron→class assignment, if one has been fitted.
    pub fn assignment(&self) -> Option<&ClassAssignment> {
        self.assignment.as_ref()
    }

    /// True while a boosted drift response is active.
    pub fn response_active(&self) -> bool {
        self.response_remaining > 0
    }

    /// The underlying trainer (read access for harnesses/metering).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Attaches observability handles (see [`LearnerObs`]). The handles
    /// are never serialised into checkpoints; a resumed or adopted
    /// learner starts unobserved until the host re-attaches them.
    pub fn set_obs(&mut self, obs: LearnerObs) {
        self.obs = Some(obs);
    }

    /// A point-in-time copy of the serving engine's work counters.
    pub fn engine_stats(&self) -> snn_runtime::EngineStats {
        self.engine.stats()
    }

    /// A point-in-time copy of the serving engine's replica-pool
    /// counters: the hit rate is the share of samples that reused pooled
    /// neuron state.
    pub fn pool_stats(&self) -> snn_runtime::PoolStats {
        self.engine.pool_stats()
    }

    /// Processes one micro-batch: predict (batched engine) and train
    /// (scalar plasticity) at once → detect → respond → maybe refit
    /// assignment. Returns the prequential predictions, one per sample.
    ///
    /// Checkpoints taken between `ingest_batch` calls are exact pause
    /// points: resuming and replaying the identical remaining batches
    /// reproduces the uninterrupted run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when a sample's
    /// pixel count does not match the configured input layer.
    pub fn ingest_batch(&mut self, batch: &[Image]) -> SnnResult<Vec<Option<u8>>> {
        for img in batch {
            if img.len() != self.config.n_input {
                return Err(snn_core::SnnError::DimensionMismatch {
                    expected: self.config.n_input,
                    got: img.len(),
                    what: "stream sample pixels",
                });
            }
        }
        if batch.is_empty() {
            return Ok(Vec::new());
        }

        // 1 + 3. Prequential prediction on the pre-update model, batched
        //    through the hot-swapped long-lived engine, run at once with
        //    the scalar plasticity pass over the batch.
        let results = self.trainer.infer_and_train_with(&mut self.engine, batch)?;

        // 2. Metrics + drift detection, in stream order. A large batch can
        //    complete several detector windows, so every event is logged.
        let mut predictions = Vec::with_capacity(batch.len());
        let mut batch_events: Vec<DriftEvent> = Vec::new();
        for (img, result) in batch.iter().zip(&results) {
            let predicted = self
                .assignment
                .as_ref()
                .and_then(|a| a.predict(&result.exc_spike_counts));
            predictions.push(predicted);
            self.metrics.push(WindowRecord {
                label: img.label,
                predicted,
                exc_spikes: result.total_exc_spikes(),
                input_spikes: result.input_spikes,
            });
            // The detector only sees samples predicted under a fitted
            // assignment: before the first fit every prediction is `None`,
            // and using that as the reference regime would make the first
            // assignment refresh itself look like drift.
            if self.assignment.is_some() {
                if let Some(event) = self.drift.observe(predicted, result.input_spikes) {
                    batch_events.push(event);
                }
            }
        }

        // 3. The batch trained above feeds the reservoir.
        for img in batch {
            if self.reservoir.len() == self.config.reservoir_capacity {
                self.reservoir.pop_front();
            }
            self.reservoir.push_back(img.clone());
        }
        self.samples_seen += batch.len() as u64;

        // 4. Adaptive response lifecycle. The countdown runs first so a
        //    fresh event always re-arms the full hold window.
        if self.response_remaining > 0 {
            let spent = (batch.len() as u64).min(self.response_remaining);
            self.response_remaining -= spent;
            if self.response_remaining == 0 {
                self.trainer
                    .apply_adaptive_response(&AdaptiveResponse::neutral());
            }
        }
        if !batch_events.is_empty() {
            if let Some(obs) = &self.obs {
                obs.drift_events.add(batch_events.len() as u64);
            }
            self.drift_events.extend(batch_events);
            // hold_samples == 0 means "log drift but never boost": arming
            // with an empty hold window would leave the boosted rule in
            // place with no countdown to revert it.
            if self.config.response.hold_samples > 0
                && self
                    .trainer
                    .apply_adaptive_response(&self.config.response.boosted())
            {
                self.response_remaining = self.config.response.hold_samples;
                if let Some(obs) = &self.obs {
                    obs.adaptive_responses.inc();
                }
            }
        }

        // 5. Count-based assignment refresh (deterministic across pauses).
        //    When a batch crosses several refresh boundaries, the cursor
        //    advances past all of them but the reservoir — identical at
        //    every crossed boundary — is fitted only once.
        if self.samples_seen >= self.last_assign_at + self.config.assign_every {
            let crossings = (self.samples_seen - self.last_assign_at) / self.config.assign_every;
            self.last_assign_at += crossings * self.config.assign_every;
            if !self.reservoir.is_empty() {
                let labelled: &[Image] = self.reservoir.make_contiguous();
                self.assignment = Some(self.trainer.fit_assignment_with(
                    &mut self.engine,
                    labelled,
                    self.config.n_classes,
                )?);
            }
        }

        Ok(predictions)
    }

    /// The handle form of [`OnlineLearner::ingest_batch`] for external
    /// drivers (a serving session, a remote client): processes one
    /// micro-batch and returns everything the driver needs to answer the
    /// request — predictions, the drift events this step raised, the
    /// response state and the stream position — without poking at the
    /// learner's accessors afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`OnlineLearner::ingest_batch`] errors.
    pub fn step(&mut self, batch: &[Image]) -> SnnResult<StepOutcome> {
        let events_before = self.drift_events.len();
        let predictions = self.ingest_batch(batch)?;
        Ok(StepOutcome {
            predictions,
            drift_events: self.drift_events[events_before..].to_vec(),
            response_active: self.response_active(),
            samples_seen: self.samples_seen,
        })
    }

    /// Drives the learner over `stream` in batches of
    /// `config.batch_size`, returning the end-of-run report.
    ///
    /// # Errors
    ///
    /// Propagates [`OnlineLearner::ingest_batch`] errors.
    pub fn run<I: IntoIterator<Item = Image>>(&mut self, stream: I) -> SnnResult<OnlineReport> {
        let mut buf: Vec<Image> = Vec::with_capacity(self.config.batch_size);
        for img in stream {
            buf.push(img);
            if buf.len() == self.config.batch_size {
                self.ingest_batch(&buf)?;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.ingest_batch(&buf)?;
        }
        Ok(self.report())
    }

    /// The current aggregate report.
    pub fn report(&self) -> OnlineReport {
        OnlineReport {
            samples_seen: self.samples_seen,
            accuracy: self.metrics.accuracy(),
            per_task_accuracy: self.metrics.per_task_accuracy(),
            forgetting: self.metrics.forgetting(),
            mean_forgetting: self.metrics.mean_forgetting(),
            mean_exc_spikes: self.metrics.mean_exc_spikes(),
            drift_events: self.drift_events.clone(),
        }
    }

    /// Prices the run's training and inference operations on `gpu`.
    pub fn energy(&self, gpu: &GpuSpec) -> EnergyReport {
        let train_j = gpu.energy_j(&self.trainer.train_ops);
        let infer_j = gpu.energy_j(&self.trainer.infer_ops);
        let per_sample_j = if self.samples_seen == 0 {
            0.0
        } else {
            (train_j + infer_j) / self.samples_seen as f64
        };
        EnergyReport {
            train_j,
            infer_j,
            per_sample_j,
        }
    }

    /// Mean operation counts per stream sample (training + inference), for
    /// device-model pricing at other scales.
    pub fn ops_per_sample(&self) -> OpCounts {
        let mut total = self.trainer.train_ops;
        total.accumulate(&self.trainer.infer_ops);
        total.averaged_over(self.samples_seen)
    }

    /// Captures the learner's complete state as a versioned
    /// [`ModelSnapshot`]. Valid between [`OnlineLearner::ingest_batch`]
    /// calls; the snapshot is self-contained (configuration included).
    pub fn checkpoint(&self) -> ModelSnapshot {
        let t0 = Instant::now();
        let snapshot = ModelSnapshot {
            config: self.config.clone(),
            trainer: self.trainer.snapshot_state(),
            assignment: self.assignment.clone(),
            reservoir: self.reservoir.iter().cloned().collect(),
            metrics: self.metrics.clone(),
            drift: self.drift.clone(),
            drift_events: self.drift_events.clone(),
            samples_seen: self.samples_seen,
            last_assign_at: self.last_assign_at,
            response_remaining: self.response_remaining,
        };
        if let Some(obs) = &self.obs {
            obs.checkpoint_build_us.record_duration(t0.elapsed());
        }
        snapshot
    }

    /// Rebuilds a learner from a snapshot, warm-starting mid-stream. The
    /// resumed learner is observationally identical to the one that took
    /// the checkpoint: same predictions, same weights, same next
    /// checkpoint, given the same remaining stream.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError`] when the snapshot's trainer state is
    /// internally inconsistent, or when the snapshot's configuration,
    /// assignment or reservoir do not match the trainer's network shape (a
    /// structurally valid but cross-field-corrupt file must fail here, not
    /// panic later inside a batch).
    pub fn resume(snapshot: ModelSnapshot) -> SnnResult<Self> {
        let (trainer, parts) = Self::validate_and_restore(snapshot)?;
        Ok(OnlineLearner {
            engine: trainer.engine(),
            trainer,
            obs: None,
            config: parts.config,
            assignment: parts.assignment,
            reservoir: parts.reservoir,
            metrics: parts.metrics,
            drift: parts.drift,
            drift_events: parts.drift_events,
            samples_seen: parts.samples_seen,
            last_assign_at: parts.last_assign_at,
            response_remaining: parts.response_remaining,
        })
    }

    /// Hot-swaps this learner onto `snapshot` **in place**: the snapshot's
    /// full state replaces the learner's, but the serving engine is kept
    /// and adopts the new weights through
    /// [`snn_runtime::Engine::hot_swap`] — one copy into the engine's
    /// template, no rebuild, a warm pool of per-sample neuron state. This
    /// is the wire-level model-swap path: a serving session receives a
    /// snapshot between batches and continues bit-identically to a
    /// learner resumed from that snapshot.
    ///
    /// The snapshot must carry **exactly** this learner's configuration
    /// (`snapshot.config == self.config`); changing configuration means a
    /// new session ([`OnlineLearner::resume`]), not a hot swap.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::InvalidParameter`] on a configuration
    /// mismatch, plus every [`OnlineLearner::resume`] validation failure.
    /// The learner is untouched on error.
    pub fn adopt(&mut self, snapshot: ModelSnapshot) -> SnnResult<()> {
        if snapshot.config != self.config {
            return Err(snn_core::SnnError::InvalidParameter {
                name: "snapshot config",
                reason: "hot swap requires the session's exact configuration; \
                         resume a new learner to change it"
                    .into(),
            });
        }
        let (trainer, parts) = Self::validate_and_restore(snapshot)?;
        self.engine
            .hot_swap(trainer.net.weights.as_slice(), trainer.net.exc.thetas())?;
        self.trainer = trainer;
        self.config = parts.config;
        self.assignment = parts.assignment;
        self.reservoir = parts.reservoir;
        self.metrics = parts.metrics;
        self.drift = parts.drift;
        self.drift_events = parts.drift_events;
        self.samples_seen = parts.samples_seen;
        self.last_assign_at = parts.last_assign_at;
        self.response_remaining = parts.response_remaining;
        Ok(())
    }

    /// Runs every snapshot consistency check and rebuilds the trainer.
    /// Shared by [`OnlineLearner::resume`] (fresh learner) and
    /// [`OnlineLearner::adopt`] (in-place hot swap).
    fn validate_and_restore(snapshot: ModelSnapshot) -> SnnResult<(Trainer, RestoredParts)> {
        for (name, ok) in [
            ("assign_every", snapshot.config.assign_every > 0),
            ("batch_size", snapshot.config.batch_size > 0),
            ("reservoir_capacity", snapshot.config.reservoir_capacity > 0),
        ] {
            if !ok {
                return Err(snn_core::SnnError::InvalidParameter {
                    name,
                    reason: "must be positive".into(),
                });
            }
        }
        // The snapshot stores the detector/metrics geometry both in the
        // config and inside their own state; the copies must agree or
        // later readers of `config` would silently use the wrong one.
        if snapshot.drift.config() != &snapshot.config.drift {
            return Err(snn_core::SnnError::InvalidParameter {
                name: "drift config",
                reason: "snapshot config and detector state disagree".into(),
            });
        }
        if snapshot.metrics.capacity() != snapshot.config.metric_window
            || snapshot.metrics.n_classes() != snapshot.config.n_classes
        {
            return Err(snn_core::SnnError::InvalidParameter {
                name: "metric window",
                reason: "snapshot config and metrics state disagree".into(),
            });
        }
        let trainer = Trainer::restore(snapshot.trainer)?;
        let (n_input, n_exc) = (trainer.net.n_input(), trainer.net.n_exc());
        if snapshot.config.n_input != n_input {
            return Err(snn_core::SnnError::DimensionMismatch {
                expected: n_input,
                got: snapshot.config.n_input,
                what: "snapshot config n_input vs network",
            });
        }
        if snapshot.config.n_exc != n_exc {
            return Err(snn_core::SnnError::DimensionMismatch {
                expected: n_exc,
                got: snapshot.config.n_exc,
                what: "snapshot config n_exc vs network",
            });
        }
        if let Some(assignment) = &snapshot.assignment {
            if assignment.assignments().len() != n_exc {
                return Err(snn_core::SnnError::DimensionMismatch {
                    expected: n_exc,
                    got: assignment.assignments().len(),
                    what: "snapshot assignment neurons vs network",
                });
            }
            if assignment.n_classes() != snapshot.config.n_classes {
                return Err(snn_core::SnnError::DimensionMismatch {
                    expected: snapshot.config.n_classes,
                    got: assignment.n_classes(),
                    what: "snapshot assignment classes vs config",
                });
            }
        }
        for img in &snapshot.reservoir {
            if img.len() != n_input {
                return Err(snn_core::SnnError::DimensionMismatch {
                    expected: n_input,
                    got: img.len(),
                    what: "snapshot reservoir sample pixels",
                });
            }
        }
        // `Trainer::restore` re-arms any active boosted response itself
        // (recorded in `TrainerState::active_response`), so the trainer's
        // dynamics already match the checkpoint.
        Ok((
            trainer,
            RestoredParts {
                config: snapshot.config,
                assignment: snapshot.assignment,
                reservoir: snapshot.reservoir.into(),
                metrics: snapshot.metrics,
                drift: snapshot.drift,
                drift_events: snapshot.drift_events,
                samples_seen: snapshot.samples_seen,
                last_assign_at: snapshot.last_assign_at,
                response_remaining: snapshot.response_remaining,
            },
        ))
    }
}

/// A validated snapshot's fields minus the trainer state, ready to drop
/// into a learner (see [`OnlineLearner::validate_and_restore`]).
struct RestoredParts {
    config: OnlineConfig,
    assignment: Option<ClassAssignment>,
    reservoir: VecDeque<Image>,
    metrics: SlidingMetrics,
    drift: DriftDetector,
    drift_events: Vec<DriftEvent>,
    samples_seen: u64,
    last_assign_at: u64,
    response_remaining: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::SyntheticDigits;

    fn tiny_config(method: Method) -> OnlineConfig {
        let mut cfg = OnlineConfig::fast(method, 10);
        cfg.batch_size = 4;
        cfg.metric_window = 16;
        cfg.assign_every = 8;
        cfg.reservoir_capacity = 16;
        cfg.drift.window = 8;
        cfg.response.hold_samples = 10;
        cfg
    }

    fn stream(n: u64, seed: u64) -> Vec<Image> {
        let gen = SyntheticDigits::new(seed);
        (0..n)
            .map(|i| gen.sample((i % 3) as u8, i).downsample(2))
            .collect()
    }

    #[test]
    fn learner_consumes_stream_and_reports() {
        let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        let report = learner.run(stream(24, 1)).unwrap();
        assert_eq!(report.samples_seen, 24);
        assert_eq!(learner.samples_seen(), 24);
        assert!(learner.assignment().is_some(), "assignment refreshed");
        assert!((0.0..=1.0).contains(&report.accuracy));
        assert_eq!(report.per_task_accuracy.len(), 10);
        assert!(learner.metrics().len() <= 16);
        assert!(learner.trainer().train_samples_seen() == 24);
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
            learner.run(stream(20, 2)).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pause_resume_is_bit_identical_to_uninterrupted() {
        let s = stream(32, 3);
        for method in Method::all() {
            // Uninterrupted run.
            let mut full = OnlineLearner::new(tiny_config(method));
            let mut full_preds = Vec::new();
            for chunk in s.chunks(4) {
                full_preds.extend(full.ingest_batch(chunk).unwrap());
            }
            let full_snap = full.checkpoint();

            // Interrupted run: pause mid-stream, checkpoint through bytes,
            // resume, finish.
            let mut half = OnlineLearner::new(tiny_config(method));
            let mut preds = Vec::new();
            for chunk in s[..16].chunks(4) {
                preds.extend(half.ingest_batch(chunk).unwrap());
            }
            let bytes = half.checkpoint().to_bytes();
            drop(half);
            let snap = ModelSnapshot::from_bytes(&bytes).unwrap();
            let mut resumed = OnlineLearner::resume(snap).unwrap();
            for chunk in s[16..].chunks(4) {
                preds.extend(resumed.ingest_batch(chunk).unwrap());
            }

            assert_eq!(preds, full_preds, "{method}: predictions must match");
            assert_eq!(
                resumed.checkpoint().to_bytes(),
                full_snap.to_bytes(),
                "{method}: final checkpoints must be byte-identical"
            );
        }
    }

    #[test]
    fn drift_triggers_events_and_response() {
        let gen = SyntheticDigits::new(9);
        let mut cfg = tiny_config(Method::SpikeDyn);
        cfg.drift.window = 12;
        cfg.drift.hist_threshold = 0.3;
        let mut learner = OnlineLearner::new(cfg);
        // An abrupt label + intensity shift via the noise-burst scenario
        // plus a hard class switch: phase 1 is classes {0,1}, phase 2 is
        // bright-noise {8,9}.
        let mut s = Vec::new();
        for i in 0..48u64 {
            s.push(gen.sample((i % 2) as u8, i).downsample(2));
        }
        for i in 0..48u64 {
            let mut img = gen.sample(8 + (i % 2) as u8, i).downsample(2);
            for k in 0..img.width() {
                img.set(k, k % img.height(), 1.0);
            }
            s.push(img);
        }
        let _ = learner.run(s).unwrap();
        assert!(
            !learner.drift_events().is_empty(),
            "abrupt shift must raise at least one drift event"
        );
        let energy = learner.energy(&GpuSpec::gtx_1080_ti());
        assert!(energy.train_j > 0.0 && energy.infer_j > 0.0);
        assert!(energy.per_sample_j > 0.0);
    }

    #[test]
    fn all_events_in_one_batch_are_logged() {
        // A batch spanning several detector windows must log every event,
        // not just the last: event log and detector counter stay in sync.
        let mut cfg = tiny_config(Method::SpikeDyn);
        cfg.batch_size = 32;
        cfg.assign_every = 8;
        cfg.drift.window = 8;
        cfg.drift.hist_threshold = 0.0; // any histogram wobble diverges
        cfg.drift.rate_threshold = 0.0; // any rate wobble diverges
        cfg.drift.patience = 1;
        let mut learner = OnlineLearner::new(cfg);
        let s = stream(48, 8);
        // First batch fits the assignment; the detector then watches the
        // next 40 samples (one warmup window + 4 comparison windows)
        // delivered as a single batch.
        learner.ingest_batch(&s[..8]).unwrap();
        learner.ingest_batch(&s[8..]).unwrap();
        let snap = learner.checkpoint();
        assert!(
            learner.drift_events().len() > 1,
            "multiple windows fired in one batch: {:?}",
            learner.drift_events()
        );
        assert_eq!(
            learner.drift_events().len() as u64,
            snap.drift.events(),
            "event log must match the detector's count"
        );
    }

    #[test]
    fn drift_detector_waits_for_first_assignment() {
        // Pre-assignment `None` predictions must not seed the detector's
        // reference window — otherwise the first assignment refresh itself
        // reads as drift on a perfectly stationary stream.
        let mut cfg = tiny_config(Method::SpikeDyn);
        cfg.assign_every = 8;
        cfg.drift.window = 8;
        let mut learner = OnlineLearner::new(cfg);
        learner.ingest_batch(&stream(8, 5)).unwrap();
        assert_eq!(
            learner.checkpoint().drift.observed(),
            0,
            "nothing observed before the first assignment"
        );
    }

    #[test]
    fn zero_hold_window_logs_drift_without_boosting() {
        let mut cfg = tiny_config(Method::SpikeDyn);
        cfg.assign_every = 4;
        cfg.drift.window = 4;
        cfg.drift.hist_threshold = 0.0;
        cfg.drift.rate_threshold = 0.0;
        cfg.response.hold_samples = 0; // responses disabled
        let mut learner = OnlineLearner::new(cfg);
        learner.run(stream(32, 7)).unwrap();
        assert!(!learner.drift_events().is_empty(), "events still logged");
        assert!(!learner.response_active());
        assert!(
            learner.trainer().active_response().is_neutral(),
            "rule must stay neutral when the hold window is zero"
        );
    }

    #[test]
    fn step_reports_only_this_steps_events() {
        let mut cfg = tiny_config(Method::SpikeDyn);
        cfg.batch_size = 8;
        cfg.assign_every = 8;
        cfg.drift.window = 8;
        cfg.drift.hist_threshold = 0.0;
        cfg.drift.rate_threshold = 0.0;
        cfg.drift.patience = 1;
        let mut learner = OnlineLearner::new(cfg);
        let s = stream(32, 13);
        let mut per_step_events = 0;
        let mut samples = 0;
        for chunk in s.chunks(8) {
            let out = learner.step(chunk).unwrap();
            assert_eq!(out.predictions.len(), chunk.len());
            samples += chunk.len() as u64;
            assert_eq!(out.samples_seen, samples);
            per_step_events += out.drift_events.len();
        }
        assert_eq!(
            per_step_events,
            learner.drift_events().len(),
            "step deltas must partition the cumulative event log"
        );
        assert!(per_step_events > 0, "thresholds at zero must raise events");
    }

    #[test]
    fn adopt_matches_resume_bit_for_bit() {
        let s = stream(32, 14);
        // A source learner checkpointed mid-stream.
        let mut source = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        for chunk in s[..16].chunks(4) {
            source.ingest_batch(chunk).unwrap();
        }
        let snap_bytes = source.checkpoint().to_bytes();
        let snap = || ModelSnapshot::from_bytes(&snap_bytes).unwrap();

        // Reference: resume into a fresh learner, finish the stream.
        let mut resumed = OnlineLearner::resume(snap()).unwrap();

        // Under test: a *different* learner (same config, own history)
        // hot-swapped in place onto the snapshot.
        let mut adopter = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        adopter.ingest_batch(&stream(8, 99)).unwrap(); // divergent history
        adopter.adopt(snap()).unwrap();
        assert_eq!(adopter.samples_seen(), 16);

        for chunk in s[16..].chunks(4) {
            assert_eq!(
                adopter.ingest_batch(chunk).unwrap(),
                resumed.ingest_batch(chunk).unwrap()
            );
        }
        assert_eq!(
            adopter.checkpoint().to_bytes(),
            resumed.checkpoint().to_bytes(),
            "adopt must serve the snapshot exactly like resume"
        );
    }

    #[test]
    fn adopt_rejects_config_mismatch() {
        let mut source = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        source.ingest_batch(&stream(4, 15)).unwrap();
        let snap = source.checkpoint();

        let mut other_cfg = tiny_config(Method::SpikeDyn);
        other_cfg.batch_size = 2; // any config delta disqualifies a hot swap
        let mut adopter = OnlineLearner::new(other_cfg);
        assert!(adopter.adopt(snap.clone()).is_err());
        let before = adopter.checkpoint().to_bytes();
        let _ = adopter.adopt(snap);
        assert_eq!(
            adopter.checkpoint().to_bytes(),
            before,
            "failed adopt must leave the learner untouched"
        );
    }

    #[test]
    fn resume_rejects_cross_field_corruption() {
        let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        learner.run(stream(16, 3)).unwrap();
        let good = learner.checkpoint();

        let mut wrong_input = good.clone();
        wrong_input.config.n_input = 50;
        assert!(OnlineLearner::resume(wrong_input).is_err());

        let mut wrong_exc = good.clone();
        wrong_exc.config.n_exc += 1;
        assert!(OnlineLearner::resume(wrong_exc).is_err());

        let mut wrong_assignment = good.clone();
        wrong_assignment.assignment = Some(snn_core::metrics::ClassAssignment::from_parts(
            10,
            vec![Some(1); 99],
        ));
        assert!(OnlineLearner::resume(wrong_assignment).is_err());

        let mut zero_interval = good.clone();
        zero_interval.config.assign_every = 0;
        assert!(OnlineLearner::resume(zero_interval).is_err());

        assert!(OnlineLearner::resume(good).is_ok());
    }

    #[test]
    fn baseline_method_never_arms_response() {
        let mut cfg = tiny_config(Method::Baseline);
        cfg.drift.window = 6;
        cfg.drift.hist_threshold = 0.0; // every window "diverges"
        cfg.drift.rate_threshold = 0.0;
        let mut learner = OnlineLearner::new(cfg);
        learner.run(stream(24, 4)).unwrap();
        assert!(
            !learner.response_active(),
            "baseline has no adaptive response to arm"
        );
    }

    #[test]
    fn rejects_wrong_input_size() {
        let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        let gen = SyntheticDigits::new(5);
        let native = gen.sample(0, 0); // 28×28, config expects 14×14
        assert!(learner.ingest_batch(&[native]).is_err());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        let before = learner.checkpoint().to_bytes();
        assert!(learner.ingest_batch(&[]).unwrap().is_empty());
        assert_eq!(learner.checkpoint().to_bytes(), before);
    }

    #[test]
    fn ops_per_sample_divides_totals() {
        let mut learner = OnlineLearner::new(tiny_config(Method::SpikeDyn));
        learner.run(stream(8, 6)).unwrap();
        let per = learner.ops_per_sample();
        assert!(per.neuron_updates > 0);
        assert!(per.kernel_launches > 0);
    }
}
