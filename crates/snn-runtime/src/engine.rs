//! The batched execution engine.
//!
//! [`Engine`] owns one input-major copy of the learned weights
//! ([`InputMajor`]), a template of per-sample neuron state carrying the
//! (scaled) adaptation potentials `θ`, and a [`ReplicaPool`] of such
//! state, and runs inference/evaluation batches sample-parallel: each
//! worker checks out a replica, sets its `θ` from the template, simulates
//! one whole sample through [`snn_core::sim::infer_sample`] against the
//! one weight copy (the presentation loop the trainer's `run_sample`
//! calls, with each spiking input's fan-out added as one contiguous row)
//! and returns the replica to the pool.
//!
//! Sample-level parallelism is the right grain for this workload: one
//! sample is tens of thousands of sequential timesteps (hundreds of
//! microseconds to milliseconds of work), so the per-sample scheduling and
//! pool overhead is negligible, while within-sample parallelism would fight
//! the tight step-to-step dependency chain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use snn_core::config::PresentConfig;
use snn_core::encoding::PoissonEncoder;
use snn_core::metrics::{ClassAssignment, ConfusionMatrix};
use snn_core::network::{NeuronState, Snn, SnnConfig};
use snn_core::ops::OpCounts;
use snn_core::rng::{derive_seed, seeded_rng};
use snn_core::sim::{infer_sample, SampleResult};
use snn_core::synapse::InputMajor;
use snn_data::Image;

use crate::pool::ReplicaPool;
use crate::report::{BatchOutcome, EvalReport};

/// Everything needed to build an [`Engine`] from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Network architecture to instantiate.
    pub snn: SnnConfig,
    /// Master seed; weight initialisation uses `derive_seed(seed, 1)`,
    /// matching the trainer's convention so an engine and a trainer built
    /// from the same seed hold identical initial networks.
    pub seed: u64,
    /// Presentation protocol (default: no rest window, matching the
    /// per-image inference accounting of the paper's Table II).
    pub present: PresentConfig,
    /// Poisson encoder full-intensity rate in Hz.
    pub max_rate_hz: f32,
    /// Factor applied to the adaptation potentials `θ` during inference
    /// (SpikeDyn's methods discount `θ` when classifying; 1.0 = use
    /// training-time thresholds unchanged).
    pub theta_scale: f32,
}

impl EngineConfig {
    /// Config with the paper's default inference protocol.
    pub fn new(snn: SnnConfig, seed: u64) -> Self {
        EngineConfig {
            snn,
            seed,
            present: PresentConfig {
                t_rest_ms: 0.0,
                ..PresentConfig::default()
            },
            max_rate_hz: PoissonEncoder::default().max_rate_hz(),
            theta_scale: 1.0,
        }
    }

    /// Replaces the presentation protocol (rest window is kept as given).
    pub fn with_present(mut self, present: PresentConfig) -> Self {
        self.present = present;
        self
    }

    /// Replaces the encoder's full-intensity rate.
    pub fn with_max_rate(mut self, max_rate_hz: f32) -> Self {
        self.max_rate_hz = max_rate_hz;
        self
    }

    /// Replaces the inference `θ` scale.
    pub fn with_theta_scale(mut self, theta_scale: f32) -> Self {
        self.theta_scale = theta_scale;
        self
    }
}

/// Batched, sample-parallel inference/evaluation engine.
///
/// See the crate docs for the determinism policy. The engine holds exactly
/// one copy of the weights, input-major, and never mutates learned state
/// during inference: every worker reads that copy, and every replica's `θ`
/// is overwritten from the template before each sample, so batch
/// membership and scheduling cannot leak between samples.
#[derive(Debug)]
pub struct Engine {
    weights: InputMajor,
    /// Replica template: the network's layers, traces and wiring, with
    /// `θ` already scaled by `theta_scale` (what replicas run with).
    template: NeuronState,
    present: PresentConfig,
    encoder: PoissonEncoder,
    theta_scale: f32,
    pool: ReplicaPool,
    /// Cumulative work counters (relaxed atomics; metering never touches
    /// replica state or seeds, so it cannot perturb results).
    meter: EngineMeter,
}

#[derive(Debug, Default)]
struct EngineMeter {
    batches: AtomicU64,
    samples: AtomicU64,
    busy_us: AtomicU64,
}

/// A point-in-time copy of an [`Engine`]'s work counters, covering both
/// the batched and sequential inference paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Inference batches run (sequential runs count as one batch).
    pub batches: u64,
    /// Samples simulated.
    pub samples: u64,
    /// Cumulative wall-clock microseconds spent inside inference calls.
    pub busy_us: u64,
}

impl Engine {
    /// Builds an engine with a freshly initialised network.
    pub fn new(config: EngineConfig) -> Self {
        let net = Snn::new(
            config.snn.clone(),
            &mut seeded_rng(derive_seed(config.seed, 1)),
        );
        Self::from_network(&net, config.present, config.max_rate_hz, config.theta_scale)
    }

    /// Builds an engine serving an already-trained network: its weights
    /// are transposed into the engine's input-major copy, and its layers,
    /// traces and `θ` become the replica template.
    ///
    /// This is how the trainer hands its learned weights over for batched
    /// evaluation mid-training.
    pub fn from_network(
        net: &Snn,
        present: PresentConfig,
        max_rate_hz: f32,
        theta_scale: f32,
    ) -> Self {
        let mut template = NeuronState::new(net);
        for theta in template.exc.thetas_mut() {
            *theta *= theta_scale;
        }
        Engine {
            weights: InputMajor::new(&net.weights),
            template,
            present,
            encoder: PoissonEncoder::new(max_rate_hz),
            theta_scale,
            pool: ReplicaPool::new(),
            meter: EngineMeter::default(),
        }
    }

    /// A point-in-time copy of this engine's work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            batches: self.meter.batches.load(Ordering::Relaxed),
            samples: self.meter.samples.load(Ordering::Relaxed),
            busy_us: self.meter.busy_us.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time copy of this engine's pool counters: the hit rate
    /// is the share of samples that reused pooled neuron state.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Records one finished inference call in the work counters.
    fn meter_run(&self, t0: Instant, samples: usize) {
        self.meter.batches.fetch_add(1, Ordering::Relaxed);
        self.meter
            .samples
            .fetch_add(samples as u64, Ordering::Relaxed);
        let busy = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.meter.busy_us.fetch_add(busy, Ordering::Relaxed);
    }

    /// The presentation protocol used per sample.
    pub fn present(&self) -> &PresentConfig {
        &self.present
    }

    /// Hot-swaps the engine onto new learned state **without rebuilding**:
    /// the weight buffer (row-major by postsynaptic neuron) is transposed
    /// into the engine's one input-major copy, the one every worker reads,
    /// and the adaptation potentials `θ` are scaled into the replica
    /// template, so the next batch runs on the new model with zero
    /// allocations and a warm replica pool.
    ///
    /// This is the serving path for model-snapshot swaps between batches:
    /// a long-running engine adopts each new checkpoint in one transposing
    /// O(weights) pass. The engine's inference `θ` scale is re-applied to
    /// the new `θ` values. Architecture (layer sizes, inhibition wiring,
    /// protocol) cannot change through this call — build a new engine for
    /// that.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when `weights` or
    /// `thetas` do not match the engine's shape; the engine state is
    /// untouched in that case.
    pub fn hot_swap(&mut self, weights: &[f32], thetas: &[f32]) -> snn_core::SnnResult<()> {
        if thetas.len() != self.template.exc.len() {
            return Err(snn_core::SnnError::DimensionMismatch {
                expected: self.template.exc.len(),
                got: thetas.len(),
                what: "hot-swap theta vector",
            });
        }
        self.weights.fill_from_rows(weights)?;
        for (scaled, theta) in self.template.exc.thetas_mut().iter_mut().zip(thetas) {
            *scaled = theta * self.theta_scale;
        }
        Ok(())
    }

    /// Simulates one sample on `replica` with the engine's protocol.
    fn run_one(
        &self,
        replica: &mut NeuronState,
        image: &Image,
        sample_seed: u64,
        ops: &mut OpCounts,
    ) -> SampleResult {
        // `θ` evolves within a presentation, so it is restored from the
        // (scaled) template before every sample; the loop settles the rest.
        replica
            .exc
            .thetas_mut()
            .copy_from_slice(self.template.exc.thetas());
        let rates = self.encoder.rates_hz(image.pixels());
        infer_sample(
            &self.weights,
            replica,
            &rates,
            &self.present,
            &mut seeded_rng(sample_seed),
            ops,
        )
    }

    /// Runs a batch sample-parallel, returning per-sample results in
    /// submission order plus the aggregate operation meter.
    ///
    /// Sample `i` draws its encoding noise from
    /// `seeded_rng(derive_seed(batch_seed, i))`, so results are
    /// bit-identical to [`Engine::infer_sequential`] for every thread
    /// count, and a prefix of a batch equals the batch of the prefix.
    pub fn infer_batch_metered(&self, images: &[Image], batch_seed: u64) -> BatchOutcome {
        let t0 = Instant::now();
        let per_sample: Vec<(SampleResult, OpCounts)> = images
            .par_iter()
            .enumerate()
            .map(|(i, image)| {
                let mut replica = self.pool.checkout(&self.template);
                let mut ops = OpCounts::default();
                let result = self.run_one(
                    &mut replica,
                    image,
                    derive_seed(batch_seed, i as u64),
                    &mut ops,
                );
                self.pool.restore(replica);
                (result, ops)
            })
            .collect();
        let mut ops = OpCounts::default();
        let mut results = Vec::with_capacity(per_sample.len());
        for (result, sample_ops) in per_sample {
            ops.accumulate(&sample_ops);
            results.push(result);
        }
        self.meter_run(t0, images.len());
        BatchOutcome { results, ops }
    }

    /// Runs a batch sample-parallel, returning per-sample results in
    /// submission order. See [`Engine::infer_batch_metered`] to also get
    /// the operation counts.
    pub fn infer_batch(&self, images: &[Image], batch_seed: u64) -> Vec<SampleResult> {
        self.infer_batch_metered(images, batch_seed).results
    }

    /// Reference sequential path: same per-sample seed derivation, one
    /// sample at a time on one replica. Exists so tests (and sceptical
    /// callers) can check bit-identity against [`Engine::infer_batch`].
    pub fn infer_sequential(&self, images: &[Image], batch_seed: u64) -> Vec<SampleResult> {
        let t0 = Instant::now();
        let mut replica = self.pool.checkout(&self.template);
        let mut ops = OpCounts::default();
        let results = images
            .iter()
            .enumerate()
            .map(|(i, image)| {
                self.run_one(
                    &mut replica,
                    image,
                    derive_seed(batch_seed, i as u64),
                    &mut ops,
                )
            })
            .collect();
        self.pool.restore(replica);
        self.meter_run(t0, images.len());
        results
    }

    /// Batched inference returning `(label, spike counts)` pairs for
    /// class-assignment fitting or accuracy evaluation.
    pub fn responses(&self, images: &[Image], batch_seed: u64) -> Vec<(u8, Vec<u32>)> {
        self.infer_batch(images, batch_seed)
            .into_iter()
            .zip(images)
            .map(|(result, image)| (image.label, result.exc_spike_counts))
            .collect()
    }

    /// Fits a neuron→class assignment from a labelled assignment set.
    pub fn fit_assignment(
        &self,
        images: &[Image],
        n_classes: usize,
        batch_seed: u64,
    ) -> ClassAssignment {
        let responses = self.responses(images, batch_seed);
        ClassAssignment::from_responses(
            self.template.exc.len(),
            n_classes,
            responses
                .iter()
                .map(|(label, counts)| (*label, counts.as_slice())),
        )
    }

    /// Evaluates a labelled stream against an assignment.
    pub fn evaluate(
        &self,
        stream: &[Image],
        assignment: &ClassAssignment,
        batch_seed: u64,
    ) -> EvalReport {
        let outcome = self.infer_batch_metered(stream, batch_seed);
        let mut confusion = ConfusionMatrix::new(assignment.n_classes());
        for (image, result) in stream.iter().zip(&outcome.results) {
            confusion.add(image.label, assignment.predict(&result.exc_spike_counts));
        }
        EvalReport {
            accuracy: confusion.accuracy(),
            confusion,
            samples: stream.len() as u64,
            exc_spikes: outcome.total_exc_spikes(),
            input_spikes: outcome.total_input_spikes(),
            ops: outcome.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::SyntheticDigits;

    fn images(n: u64) -> Vec<Image> {
        let gen = SyntheticDigits::new(5);
        (0..n)
            .map(|i| gen.sample((i % 10) as u8, i).downsample(2))
            .collect()
    }

    /// The network `fast_engine(seed)` builds and serves.
    fn fast_network(seed: u64) -> Snn {
        Snn::new(
            SnnConfig::direct_lateral(196, 12),
            &mut seeded_rng(derive_seed(seed, 1)),
        )
    }

    fn fast_engine(seed: u64) -> Engine {
        Engine::new(
            EngineConfig::new(SnnConfig::direct_lateral(196, 12), seed)
                .with_present(PresentConfig {
                    t_rest_ms: 0.0,
                    retry: None,
                    ..PresentConfig::fast()
                })
                .with_max_rate(255.0),
        )
    }

    #[test]
    fn batch_is_bit_identical_to_sequential() {
        let engine = fast_engine(1);
        let imgs = images(12);
        assert_eq!(
            engine.infer_batch(&imgs, 9),
            engine.infer_sequential(&imgs, 9)
        );
    }

    #[test]
    fn batch_is_deterministic_across_calls() {
        let engine = fast_engine(2);
        let imgs = images(10);
        assert_eq!(engine.infer_batch(&imgs, 3), engine.infer_batch(&imgs, 3));
    }

    #[test]
    fn prefix_of_batch_equals_batch_of_prefix() {
        let engine = fast_engine(3);
        let imgs = images(8);
        let full = engine.infer_batch(&imgs, 4);
        let prefix = engine.infer_batch(&imgs[..3], 4);
        assert_eq!(&full[..3], &prefix[..]);
    }

    #[test]
    fn different_batch_seeds_differ() {
        let engine = fast_engine(4);
        let imgs = images(6);
        // Encoding noise differs, so spike trajectories should too (a
        // bitwise-equal outcome across independent seeds would indicate
        // the seed is ignored).
        assert_ne!(engine.infer_batch(&imgs, 1), engine.infer_batch(&imgs, 2));
    }

    #[test]
    fn two_engines_same_config_agree() {
        let imgs = images(5);
        let a = fast_engine(7).infer_batch(&imgs, 11);
        let b = fast_engine(7).infer_batch(&imgs, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_retains_replicas_between_batches() {
        let engine = fast_engine(5);
        let imgs = images(8);
        engine.infer_batch(&imgs, 0);
        assert!(engine.pool.idle() >= 1);
        let idle_after_first = engine.pool.idle();
        engine.infer_batch(&imgs, 1);
        // No unbounded growth: workers reuse pooled replicas.
        assert!(engine.pool.idle() <= idle_after_first.max(imgs.len()));
    }

    #[test]
    fn metered_ops_are_order_independent_and_nonzero() {
        let engine = fast_engine(6);
        let imgs = images(9);
        let a = engine.infer_batch_metered(&imgs, 2);
        let b = engine.infer_batch_metered(&imgs, 2);
        assert_eq!(a.ops, b.ops);
        assert!(a.ops.neuron_updates > 0);
        assert!(a.ops.encode_ops > 0);
    }

    #[test]
    fn evaluate_produces_consistent_report() {
        let engine = fast_engine(8);
        let imgs = images(10);
        let assignment = engine.fit_assignment(&imgs, 10, 1);
        let report = engine.evaluate(&imgs, &assignment, 2);
        assert_eq!(report.samples, 10);
        assert_eq!(report.confusion.total(), 10);
        assert!((0.0..=1.0).contains(&report.accuracy));
        assert_eq!(report.accuracy, report.confusion.accuracy());
    }

    #[test]
    fn theta_scale_changes_results_only_when_theta_nonzero() {
        // Fresh networks have θ = 0, so scaling it must be a no-op…
        let imgs = images(4);
        let base = fast_engine(9);
        let scaled = Engine::from_network(&fast_network(9), *base.present(), 255.0, 0.5);
        assert_eq!(base.infer_batch(&imgs, 3), scaled.infer_batch(&imgs, 3));
        // …and with a non-zero θ the scale must matter.
        let mut net = fast_network(9);
        for t in net.exc.thetas_mut() {
            *t = 10.0;
        }
        let heavy = Engine::from_network(&net, *base.present(), 255.0, 1.0);
        let light = Engine::from_network(&net, *base.present(), 255.0, 0.0);
        assert_ne!(heavy.infer_batch(&imgs, 3), light.infer_batch(&imgs, 3));
    }

    #[test]
    fn hot_swap_matches_rebuild_and_keeps_pool_warm() {
        let mut engine = fast_engine(12);
        let imgs = images(6);
        engine.infer_batch(&imgs, 3); // warm the pool
        let idle_before = engine.pool.idle();
        assert!(idle_before > 0);

        // New learned state: different weights and a non-zero θ.
        let mut net = fast_network(12);
        for j in 0..net.n_exc() {
            for k in 0..net.n_input() {
                net.weights.set(j, k, 0.01 * (j + k) as f32);
            }
        }
        for t in net.exc.thetas_mut() {
            *t = 2.0;
        }

        let reference =
            Engine::from_network(&net, *engine.present(), 255.0, 1.0).infer_batch(&imgs, 7);
        engine
            .hot_swap(net.weights.as_slice(), net.exc.thetas())
            .unwrap();
        assert_eq!(
            engine.pool.idle(),
            idle_before,
            "hot swap must keep pooled replicas"
        );
        assert_eq!(
            engine.infer_batch(&imgs, 7),
            reference,
            "hot-swapped engine must serve the new model bit-identically"
        );
    }

    #[test]
    fn hot_swap_applies_theta_scale() {
        let base = fast_engine(13);
        let imgs = images(4);
        let mut scaled = Engine::from_network(&fast_network(13), *base.present(), 255.0, 0.0);
        let mut net = fast_network(13);
        for t in net.exc.thetas_mut() {
            *t = 50.0;
        }
        scaled
            .hot_swap(net.weights.as_slice(), net.exc.thetas())
            .unwrap();
        // θ scale 0.0 removes the (huge) adaptation, so results must match
        // the unswapped engine (same weights, θ effectively zero both ways).
        assert_eq!(scaled.infer_batch(&imgs, 5), base.infer_batch(&imgs, 5));
    }

    #[test]
    fn hot_swap_validates_shapes() {
        let mut engine = fast_engine(14);
        let net = fast_network(14);
        let n_exc = net.n_exc();
        let weights = net.weights.as_slice().to_vec();
        assert!(engine.hot_swap(&weights[..10], &vec![0.0; n_exc]).is_err());
        assert!(engine.hot_swap(&weights, &vec![0.0; n_exc + 1]).is_err());
        assert!(engine.hot_swap(&weights, &vec![0.0; n_exc]).is_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = fast_engine(11);
        assert!(engine.infer_batch(&[], 0).is_empty());
        let outcome = engine.infer_batch_metered(&[], 0);
        assert_eq!(outcome.ops, OpCounts::default());
    }
}
