//! Training/inference orchestration shared by all three methods.
//!
//! A [`Trainer`] owns a network, its learning rule, the Poisson encoder
//! and the presentation protocol, and meters training and inference
//! operations separately — the split the paper's energy evaluation needs
//! (Fig. 11 reports training and inference energy independently).

use rand::rngs::StdRng;
use snn_core::config::PresentConfig;
use snn_core::encoding::PoissonEncoder;
use snn_core::error::SnnResult;
use snn_core::metrics::{ClassAssignment, ConfusionMatrix};
use snn_core::network::{Snn, SnnConfig};
use snn_core::ops::OpCounts;
use snn_core::rng::{derive_seed, seeded_rng};
use snn_core::sim::{run_sample, Plasticity, SampleResult};
use snn_data::Image;
use snn_runtime::{BatchOutcome, Engine};

use crate::learning::{SpikeDynConfig, SpikeDynPlasticity};
use crate::method::Method;

/// SpikeDyn's drift response (§III-D applied online): when the environment
/// shifts, the learning rate is boosted so new features are acquired
/// quickly, and the weight decay is rescaled so stale features are freed
/// faster. A factor of 1.0 on both axes is the neutral response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveResponse {
    /// Multiplier on both STDP learning rates (`ηpre`, `ηpost`).
    pub lr_boost: f32,
    /// Multiplier on the dynamic weight-decay rate `wdecay`.
    pub w_decay_scale: f32,
}

impl AdaptiveResponse {
    /// The no-op response (baseline learning dynamics).
    pub fn neutral() -> Self {
        AdaptiveResponse {
            lr_boost: 1.0,
            w_decay_scale: 1.0,
        }
    }

    /// True when this response leaves the rule unchanged.
    pub fn is_neutral(&self) -> bool {
        self.lr_boost == 1.0 && self.w_decay_scale == 1.0
    }
}

/// A complete, self-describing checkpoint of a [`Trainer`]'s learned and
/// replay state, captured **between samples** (the only pause points — all
/// within-sample dynamic state is settled by `run_sample` anyway).
///
/// Restoring via [`Trainer::restore`] is bit-exact: the resumed trainer
/// produces the same weights, the same batched-inference seed sequence and
/// the same training-time encoding noise as the uninterrupted original.
/// The learning rule is rebuilt from the method's configuration (custom
/// rules installed via [`Trainer::set_plasticity`] are restored to the
/// method default; their persistent state still round-trips through
/// `plasticity_state`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// The trained method (determines the learning rule on restore).
    pub method: Method,
    /// Full network configuration (architecture, θ policy, trace params).
    pub net_config: SnnConfig,
    /// Plastic weights, row-major by postsynaptic neuron.
    pub weights: Vec<f32>,
    /// Per-neuron adaptation potentials `θ`.
    pub thetas: Vec<f32>,
    /// Training presentation protocol (`infer_present` is derived).
    pub present: PresentConfig,
    /// Poisson encoder full-intensity rate in Hz.
    pub max_rate_hz: f32,
    /// Temporal compression the method constants were built with.
    pub time_compression: f32,
    /// The adaptive response active at checkpoint time (restore re-arms
    /// the boosted rule so training dynamics continue unchanged).
    pub active_response: AdaptiveResponse,
    /// Training-time RNG cursor (resume continues the exact stream).
    pub rng_state: [u64; 4],
    /// The learning rule's persistent cross-sample state
    /// ([`Plasticity::export_state`]).
    pub plasticity_state: Vec<u8>,
    /// Cumulative training operation counts.
    pub train_ops: OpCounts,
    /// Cumulative inference operation counts.
    pub infer_ops: OpCounts,
    /// Training samples presented so far.
    pub train_samples_seen: u64,
    /// Inference samples presented so far.
    pub infer_samples_seen: u64,
    /// Root of the batched-inference seed tree.
    pub infer_master: u64,
    /// Batched-inference calls so far (the seed-tree cursor).
    pub infer_calls: u64,
}

/// Orchestrates training and evaluation of one method instance.
pub struct Trainer {
    /// The network under training (public for inspection by harnesses).
    pub net: Snn,
    plasticity: Box<dyn Plasticity + Send>,
    method: Method,
    /// Presentation protocol used for training samples.
    pub present: PresentConfig,
    /// Presentation protocol used for inference (no rest window — the
    /// next sample's settle replaces it; this matches the per-image
    /// inference latency accounting of the paper's Table II).
    pub infer_present: PresentConfig,
    encoder: PoissonEncoder,
    /// Temporal compression the method constants were rescaled with
    /// (needed to rebuild the learning rule on restore and for adaptive
    /// responses).
    time_compression: f32,
    /// The adaptive response currently shaping the learning rule (neutral
    /// unless [`Trainer::apply_adaptive_response`] armed a boost) —
    /// recorded so checkpoints restore the boosted dynamics exactly.
    active_response: AdaptiveResponse,
    rng: StdRng,
    /// Cumulative operation counts of all training presentations.
    pub train_ops: OpCounts,
    /// Cumulative operation counts of all inference presentations.
    pub infer_ops: OpCounts,
    train_samples_seen: u64,
    infer_samples_seen: u64,
    /// Root seed of the batched-inference seed tree (stream 3 of the
    /// master seed; streams 1 and 2 belong to weight init and the
    /// training-time RNG).
    infer_master: u64,
    /// Batched-inference calls so far; each call gets the next seed in the
    /// tree so repeated runs replay identically.
    infer_calls: u64,
}

impl Trainer {
    /// Builds a trainer for `method` on `n_input` channels and `n_exc`
    /// excitatory neurons at the paper's native timescale. All randomness
    /// derives from `seed`.
    pub fn new(
        method: Method,
        n_input: usize,
        n_exc: usize,
        present: PresentConfig,
        seed: u64,
    ) -> Self {
        Self::with_compression(method, n_input, n_exc, present, 1.0, seed)
    }

    /// Builds a trainer whose method time constants are rescaled for a
    /// temporally compressed run (see [`Method::build`]).
    pub fn with_compression(
        method: Method,
        n_input: usize,
        n_exc: usize,
        present: PresentConfig,
        time_compression: f32,
        seed: u64,
    ) -> Self {
        let mut build_rng = seeded_rng(derive_seed(seed, 1));
        let (net, plasticity) = method.build(
            n_input,
            n_exc,
            present.t_present_ms,
            time_compression,
            &mut build_rng,
        );
        let infer_present = PresentConfig {
            t_rest_ms: 0.0,
            ..present
        };
        Trainer {
            net,
            plasticity,
            method,
            present,
            infer_present,
            encoder: PoissonEncoder::default(),
            time_compression,
            active_response: AdaptiveResponse::neutral(),
            rng: seeded_rng(derive_seed(seed, 2)),
            train_ops: OpCounts::default(),
            infer_ops: OpCounts::default(),
            train_samples_seen: 0,
            infer_samples_seen: 0,
            infer_master: derive_seed(seed, 3),
            infer_calls: 0,
        }
    }

    /// Replaces the Poisson encoder's full-intensity rate. The fast
    /// (downsampled) experiment profile raises it to compensate for the
    /// smaller input layer's lower aggregate drive.
    pub fn with_max_rate(mut self, max_rate_hz: f32) -> Self {
        self.encoder = PoissonEncoder::new(max_rate_hz);
        self
    }

    /// The encoder's full-intensity rate in Hz.
    pub fn max_rate_hz(&self) -> f32 {
        self.encoder.max_rate_hz()
    }

    /// Replaces the learning rule (used by ablation studies and
    /// hyperparameter sweeps that need a non-default configuration).
    pub fn set_plasticity(&mut self, plasticity: Box<dyn Plasticity + Send>) {
        self.plasticity = plasticity;
    }

    /// The method this trainer runs.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Name of the underlying learning rule.
    pub fn rule_name(&self) -> &'static str {
        self.plasticity.name()
    }

    /// Training samples presented so far.
    pub fn train_samples_seen(&self) -> u64 {
        self.train_samples_seen
    }

    /// Inference samples presented so far.
    pub fn infer_samples_seen(&self) -> u64 {
        self.infer_samples_seen
    }

    /// Presents one image with plasticity enabled.
    pub fn train_image(&mut self, img: &Image) -> SampleResult {
        let rates = self.encoder.rates_hz(img.pixels());
        self.train_samples_seen += 1;
        run_sample(
            &mut self.net,
            &rates,
            &self.present,
            Some(self.plasticity.as_mut()),
            &mut self.rng,
            &mut self.train_ops,
        )
    }

    /// Presents a stream of images with plasticity enabled.
    pub fn train_on(&mut self, images: &[Image]) {
        for img in images {
            self.train_image(img);
        }
    }

    /// Presents one image with plasticity disabled (pure inference).
    ///
    /// Inference never modifies learned state: the adaptation potentials
    /// `θ` participate according to the method's
    /// [`Method::infer_theta_scale`] (and still evolve *within* the
    /// presentation, as neuron dynamics), but the training-time values are
    /// restored afterwards.
    pub fn infer_image(&mut self, img: &Image) -> SampleResult {
        let rates = self.encoder.rates_hz(img.pixels());
        self.infer_samples_seen += 1;
        let scale = self.method.infer_theta_scale();
        let saved = self.net.exc.thetas().to_vec();
        if scale != 1.0 {
            for t in self.net.exc.thetas_mut().iter_mut() {
                *t *= scale;
            }
        }
        let result = run_sample(
            &mut self.net,
            &rates,
            &self.infer_present,
            None,
            &mut self.rng,
            &mut self.infer_ops,
        );
        self.net.exc.thetas_mut().copy_from_slice(&saved);
        result
    }

    /// Snapshots the current learned state into a batched inference
    /// [`Engine`] (see `snn-runtime`): same inference protocol, encoder
    /// rate and method `θ` discount as [`Trainer::infer_image`], but
    /// sample-parallel and with per-sample seed derivation.
    ///
    /// A fresh engine is built per call rather than cached: `net` is a
    /// public field that experiment harnesses replace wholesale (ablation
    /// and architecture studies), so a cached engine could silently serve
    /// stale weights. The cost is one transposed copy of the weights per
    /// *batch* of samples, amortised across the batch; long-lived callers
    /// that control their own mutation points should hold an `Engine`
    /// directly and refresh it with [`Engine::hot_swap`] (see
    /// [`Trainer::responses_with`]).
    pub fn engine(&self) -> Engine {
        Engine::from_network(
            &self.net,
            self.infer_present,
            self.encoder.max_rate_hz(),
            self.method.infer_theta_scale(),
        )
    }

    /// The temporal compression the trainer was built with.
    pub fn time_compression(&self) -> f32 {
        self.time_compression
    }

    /// Captures the trainer's complete learned + replay state. Call only
    /// between samples (any other point is unreachable from outside the
    /// trainer anyway). See [`TrainerState`] for the exactness contract.
    pub fn snapshot_state(&self) -> TrainerState {
        TrainerState {
            method: self.method,
            net_config: self.net.config.clone(),
            weights: self.net.weights.as_slice().to_vec(),
            thetas: self.net.exc.thetas().to_vec(),
            present: self.present,
            max_rate_hz: self.encoder.max_rate_hz(),
            time_compression: self.time_compression,
            active_response: self.active_response,
            rng_state: self.rng.state(),
            plasticity_state: self.plasticity.export_state(),
            train_ops: self.train_ops,
            infer_ops: self.infer_ops,
            train_samples_seen: self.train_samples_seen,
            infer_samples_seen: self.infer_samples_seen,
            infer_master: self.infer_master,
            infer_calls: self.infer_calls,
        }
    }

    /// Rebuilds a trainer from a [`TrainerState`] checkpoint. The resumed
    /// trainer continues every random stream (training encoding noise,
    /// batched-inference seed tree) exactly where the snapshot paused.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError`] when the checkpoint's configuration,
    /// weight buffer, `θ` vector or plasticity state are inconsistent.
    pub fn restore(state: TrainerState) -> SnnResult<Trainer> {
        state.net_config.validate()?;
        state.present.validate()?;
        // Rebuild the method's learning rule at the recorded compression;
        // the network the builder initialises is discarded — learned state
        // comes from the snapshot.
        let mut scratch_rng = seeded_rng(0);
        let (_, mut plasticity) = state.method.build(
            state.net_config.n_input,
            state.net_config.n_exc,
            state.present.t_present_ms,
            state.time_compression,
            &mut scratch_rng,
        );
        plasticity.import_state(&state.plasticity_state)?;
        let net = Snn::from_parts(state.net_config, state.weights, &state.thetas)?;
        let infer_present = PresentConfig {
            t_rest_ms: 0.0,
            ..state.present
        };
        let mut trainer = Trainer {
            net,
            plasticity,
            method: state.method,
            present: state.present,
            infer_present,
            encoder: PoissonEncoder::new(state.max_rate_hz),
            time_compression: state.time_compression,
            active_response: AdaptiveResponse::neutral(),
            rng: StdRng::from_state(state.rng_state),
            train_ops: state.train_ops,
            infer_ops: state.infer_ops,
            train_samples_seen: state.train_samples_seen,
            infer_samples_seen: state.infer_samples_seen,
            infer_master: state.infer_master,
            infer_calls: state.infer_calls,
        };
        // Re-arm a boosted response so the resumed rule's dynamics match
        // the checkpointed ones (the builder gave us the neutral rule).
        if !state.active_response.is_neutral() {
            trainer.apply_adaptive_response(&state.active_response);
        }
        Ok(trainer)
    }

    /// Applies SpikeDyn's adaptive drift response: rebuilds the Alg. 2 rule
    /// with boosted learning rates and rescaled weight decay, preserving the
    /// rule's persistent state. Returns `true` when the response was
    /// applied; the baseline and ASP methods have no online adaptation
    /// mechanism (the point of the paper's comparison), so for them this is
    /// a no-op returning `false`.
    ///
    /// Applying [`AdaptiveResponse::neutral`] restores the method-default
    /// learning dynamics.
    ///
    /// The response is defined relative to the *method-default*
    /// configuration (`SpikeDynConfig::for_network` at this trainer's
    /// compression): a non-default rule installed via
    /// [`Trainer::set_plasticity`] is replaced by the default-based one,
    /// keeping only its persistent state — sweep harnesses that customise
    /// the rule should not combine it with adaptive responses.
    pub fn apply_adaptive_response(&mut self, response: &AdaptiveResponse) -> bool {
        if self.method != Method::SpikeDyn || self.plasticity.name() != "spikedyn" {
            return false;
        }
        let n_exc = self.net.n_exc();
        let n_input = self.net.n_input();
        let mut cfg = SpikeDynConfig::for_network(n_exc).compressed(self.time_compression);
        cfg.eta_post = (cfg.eta_post * response.lr_boost).min(0.5);
        cfg.eta_pre = (cfg.eta_pre * response.lr_boost).min(0.1);
        cfg.w_decay *= response.w_decay_scale;
        let saved = self.plasticity.export_state();
        let mut rule = SpikeDynPlasticity::new(cfg, n_input, n_exc);
        rule.import_state(&saved)
            .expect("spikedyn state layout is stable across rebuilds");
        self.plasticity = Box::new(rule);
        self.active_response = *response;
        true
    }

    /// The adaptive response currently shaping the learning rule
    /// (neutral unless [`Trainer::apply_adaptive_response`] armed one).
    pub fn active_response(&self) -> &AdaptiveResponse {
        &self.active_response
    }

    /// Like [`Trainer::responses`], but reuses a caller-held [`Engine`]
    /// via [`Engine::hot_swap`] instead of building a fresh engine per
    /// call — the long-running serving path. The engine must have been
    /// built with this trainer's inference protocol (e.g. by
    /// [`Trainer::engine`] once, then passed back in for every batch);
    /// results are then bit-identical to [`Trainer::responses`].
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when the engine's
    /// network shape differs from the trainer's. The batch-seed cursor is
    /// not advanced in that case.
    pub fn responses_with(
        &mut self,
        engine: &mut Engine,
        images: &[Image],
    ) -> SnnResult<Vec<(u8, Vec<u32>)>> {
        Ok(self
            .infer_results_with(engine, images)?
            .into_iter()
            .zip(images)
            .map(|(result, img)| (img.label, result.exc_spike_counts))
            .collect())
    }

    /// The full-result form of [`Trainer::responses_with`]: returns every
    /// per-sample [`SampleResult`] (spike counts *and* input-spike totals),
    /// which streaming consumers feed to drift detectors and spike-rate
    /// meters.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when the engine's
    /// network shape differs from the trainer's. The batch-seed cursor is
    /// not advanced in that case.
    pub fn infer_results_with(
        &mut self,
        engine: &mut Engine,
        images: &[Image],
    ) -> SnnResult<Vec<SampleResult>> {
        self.infer_batch_with(engine, images, |_, engine, batch_seed| {
            engine.infer_batch_metered(images, batch_seed)
        })
    }

    /// One prequential test-then-train step: [`Trainer::infer_results_with`]
    /// followed by [`Trainer::train_on`] over the same `images`, with the
    /// two running at once (through `rayon::join`, so inline when called
    /// from a `rayon` worker or with one thread).
    ///
    /// Results, weights, meters and every random stream are bit-identical
    /// to the sequential pair: inference reads only the engine's weight
    /// copy, hot-swapped to the pre-update weights before training starts,
    /// while training writes only this trainer's network; each side draws
    /// from its own seed into its own op meter.
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when the engine's
    /// network shape differs from the trainer's. Nothing is trained and the
    /// batch-seed cursor is not advanced in that case.
    pub fn infer_and_train_with(
        &mut self,
        engine: &mut Engine,
        images: &[Image],
    ) -> SnnResult<Vec<SampleResult>> {
        self.infer_batch_with(engine, images, |trainer, engine, batch_seed| {
            rayon::join(
                || trainer.train_on(images),
                || engine.infer_batch_metered(images, batch_seed),
            )
            .1
        })
    }

    /// Hot-swaps `engine` onto the current model, draws the next batch
    /// seed, hands both to `run` and meters the batch outcome it returns.
    fn infer_batch_with(
        &mut self,
        engine: &mut Engine,
        images: &[Image],
        run: impl FnOnce(&mut Self, &Engine, u64) -> BatchOutcome,
    ) -> SnnResult<Vec<SampleResult>> {
        engine.hot_swap(self.net.weights.as_slice(), self.net.exc.thetas())?;
        let batch_seed = self.next_batch_seed();
        let outcome = run(self, engine, batch_seed);
        self.infer_ops.accumulate(&outcome.ops);
        self.infer_samples_seen += images.len() as u64;
        Ok(outcome.results)
    }

    /// Like [`Trainer::fit_assignment`], but through a caller-held engine
    /// (see [`Trainer::responses_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`snn_core::SnnError::DimensionMismatch`] when the engine's
    /// network shape differs from the trainer's.
    pub fn fit_assignment_with(
        &mut self,
        engine: &mut Engine,
        images: &[Image],
        n_classes: usize,
    ) -> SnnResult<ClassAssignment> {
        let responses = self.responses_with(engine, images)?;
        Ok(ClassAssignment::from_responses(
            self.net.n_exc(),
            n_classes,
            responses.iter().map(|(l, c)| (*l, c.as_slice())),
        ))
    }

    /// Seed for the next batched-inference call (one per call, derived
    /// from the trainer's master seed so whole runs replay identically).
    fn next_batch_seed(&mut self) -> u64 {
        let seed = derive_seed(self.infer_master, self.infer_calls);
        self.infer_calls += 1;
        seed
    }

    /// Runs batched inference over `images` and returns `(label, spike
    /// counts)` response pairs for assignment or evaluation.
    ///
    /// Goes through the sample-parallel [`Engine`]; results are
    /// bit-reproducible across runs and thread counts.
    pub fn responses(&mut self, images: &[Image]) -> Vec<(u8, Vec<u32>)> {
        let engine = self.engine();
        let batch_seed = self.next_batch_seed();
        let outcome = engine.infer_batch_metered(images, batch_seed);
        self.infer_ops.accumulate(&outcome.ops);
        self.infer_samples_seen += images.len() as u64;
        outcome
            .results
            .into_iter()
            .zip(images)
            .map(|(result, img)| (img.label, result.exc_spike_counts))
            .collect()
    }

    /// Builds a neuron→class assignment from a labelled assignment set.
    pub fn fit_assignment(&mut self, images: &[Image], n_classes: usize) -> ClassAssignment {
        let responses = self.responses(images);
        ClassAssignment::from_responses(
            self.net.n_exc(),
            n_classes,
            responses.iter().map(|(l, c)| (*l, c.as_slice())),
        )
    }

    /// Evaluates a labelled test set against an assignment, producing a
    /// confusion matrix. Batched through the [`Engine`].
    pub fn evaluate(&mut self, assignment: &ClassAssignment, images: &[Image]) -> ConfusionMatrix {
        let engine = self.engine();
        let batch_seed = self.next_batch_seed();
        let report = engine.evaluate(images, assignment, batch_seed);
        self.infer_ops.accumulate(&report.ops);
        self.infer_samples_seen += report.samples;
        report.confusion
    }

    /// Operation counts of the *average* training sample so far (the `E1`
    /// measurement of the paper's `E = E1 · N` model).
    pub fn avg_train_sample_ops(&self) -> OpCounts {
        self.train_ops.averaged_over(self.train_samples_seen)
    }

    /// Operation counts of the average inference sample so far.
    pub fn avg_infer_sample_ops(&self) -> OpCounts {
        self.infer_ops.averaged_over(self.infer_samples_seen)
    }
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("method", &self.method)
            .field("rule", &self.plasticity.name())
            .field("n_input", &self.net.n_input())
            .field("n_exc", &self.net.n_exc())
            .field("train_samples_seen", &self.train_samples_seen)
            .field("infer_samples_seen", &self.infer_samples_seen)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::SyntheticDigits;

    fn small_images(n_per_class: u64, classes: &[u8]) -> Vec<Image> {
        let gen = SyntheticDigits::new(77);
        let mut out = Vec::new();
        for &c in classes {
            for i in 0..n_per_class {
                out.push(gen.sample(c, i).downsample(2)); // 14×14 = 196 inputs
            }
        }
        out
    }

    #[test]
    fn trainer_builds_for_all_methods() {
        for m in Method::all() {
            let t = Trainer::new(m, 196, 10, PresentConfig::fast(), 1);
            assert_eq!(t.method(), m);
            assert_eq!(t.net.n_input(), 196);
            assert_eq!(t.train_samples_seen(), 0);
        }
    }

    #[test]
    fn training_meters_ops_separately_from_inference() {
        let imgs = small_images(2, &[0, 1]);
        let mut t = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 2);
        t.train_on(&imgs);
        assert_eq!(t.train_samples_seen(), 4);
        assert!(t.train_ops.kernel_launches > 0);
        assert_eq!(t.infer_ops.kernel_launches, 0);
        t.infer_image(&imgs[0]);
        assert!(t.infer_ops.kernel_launches > 0);
    }

    #[test]
    fn inference_does_not_change_weights() {
        let imgs = small_images(1, &[3]);
        let mut t = Trainer::new(Method::Baseline, 196, 10, PresentConfig::fast(), 3);
        let w = t.net.weights.clone();
        t.infer_image(&imgs[0]);
        assert_eq!(t.net.weights, w);
    }

    #[test]
    fn training_changes_weights() {
        let imgs = small_images(2, &[0]);
        let mut t = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 4);
        let w = t.net.weights.clone();
        t.train_on(&imgs);
        assert_ne!(t.net.weights, w);
    }

    #[test]
    fn assignment_and_evaluation_roundtrip() {
        let train = small_images(6, &[0, 1]);
        let mut t = Trainer::new(Method::SpikeDyn, 196, 12, PresentConfig::fast(), 5);
        t.train_on(&train);
        let assign_set = small_images(3, &[0, 1]);
        let assignment = t.fit_assignment(&assign_set, 10);
        let cm = t.evaluate(&assignment, &small_images(2, &[0, 1]));
        assert_eq!(cm.total(), 4);
        // Accuracy is whatever it is at this scale; the structural claim is
        // that predictions land inside the class set.
        for target in [0u8, 1] {
            let row: u64 =
                (0..10).map(|p| cm.get(target, p)).sum::<u64>() + cm.unclassified(target);
            assert_eq!(row, 2);
        }
    }

    #[test]
    fn avg_sample_ops_divides_totals() {
        let imgs = small_images(2, &[0]);
        let mut t = Trainer::new(Method::Baseline, 196, 8, PresentConfig::fast(), 6);
        t.train_on(&imgs);
        let avg = t.avg_train_sample_ops();
        assert!(avg.kernel_launches > 0);
        assert!(avg.kernel_launches <= t.train_ops.kernel_launches);
        assert_eq!(avg.kernel_launches, t.train_ops.kernel_launches / 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let imgs = small_images(2, &[0, 1]);
        let run = || {
            let mut t = Trainer::new(Method::SpikeDyn, 196, 8, PresentConfig::fast(), 42);
            t.train_on(&imgs);
            t.net.weights.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn responses_go_through_the_batched_engine_bit_identically() {
        let imgs = small_images(3, &[0, 1]);
        let mut t = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 9);
        t.train_on(&imgs);
        // The first batched call uses seed derive_seed(infer_master, 0);
        // replay it through the engine's sequential reference path.
        let engine = t.engine();
        let batch_seed = snn_core::rng::derive_seed(t.infer_master, 0);
        let sequential = engine.infer_sequential(&imgs, batch_seed);
        let responses = t.responses(&imgs);
        assert_eq!(responses.len(), imgs.len());
        for ((label, counts), (img, result)) in responses.iter().zip(imgs.iter().zip(&sequential)) {
            assert_eq!(*label, img.label);
            assert_eq!(counts, &result.exc_spike_counts);
        }
    }

    #[test]
    fn repeated_runs_replay_identical_responses() {
        let imgs = small_images(2, &[0, 1]);
        let run = || {
            let mut t = Trainer::new(Method::Baseline, 196, 8, PresentConfig::fast(), 21);
            t.train_on(&imgs);
            (t.responses(&imgs), t.responses(&imgs))
        };
        let (a1, a2) = run();
        let (b1, b2) = run();
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_ne!(
            a1, a2,
            "consecutive calls use fresh batch seeds (fresh encoding noise)"
        );
    }

    #[test]
    fn snapshot_restore_resumes_training_bit_identically() {
        let imgs = small_images(3, &[0, 1]);
        for method in Method::all() {
            // Uninterrupted reference run.
            let mut full = Trainer::new(method, 196, 8, PresentConfig::fast(), 31);
            full.train_on(&imgs);
            let full_resp = full.responses(&imgs);

            // Paused run: train half, snapshot, restore, train the rest.
            let mut half = Trainer::new(method, 196, 8, PresentConfig::fast(), 31);
            half.train_on(&imgs[..3]);
            let state = half.snapshot_state();
            drop(half);
            let mut resumed = Trainer::restore(state).unwrap();
            resumed.train_on(&imgs[3..]);
            assert_eq!(
                resumed.net.weights, full.net.weights,
                "{method}: resumed weights must match uninterrupted run"
            );
            let resumed_resp = resumed.responses(&imgs);
            assert_eq!(
                resumed_resp, full_resp,
                "{method}: resumed batched inference must replay the seed tree"
            );
            assert_eq!(resumed.snapshot_state(), full.snapshot_state());
        }
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let t = Trainer::new(Method::SpikeDyn, 196, 8, PresentConfig::fast(), 5);
        let mut state = t.snapshot_state();
        state.weights.truncate(10);
        assert!(Trainer::restore(state).is_err());
        let mut state2 = t.snapshot_state();
        state2.thetas.push(0.0);
        assert!(Trainer::restore(state2).is_err());
    }

    #[test]
    fn adaptive_response_boosts_learning_and_is_reversible() {
        let imgs = small_images(4, &[0]);
        let run = |response: Option<AdaptiveResponse>| {
            let mut t = Trainer::new(Method::SpikeDyn, 196, 8, PresentConfig::fast(), 8);
            if let Some(r) = response {
                assert!(t.apply_adaptive_response(&r));
            }
            t.train_on(&imgs);
            t.net.weights.clone()
        };
        let base = run(None);
        let neutral = run(Some(AdaptiveResponse::neutral()));
        assert_eq!(base, neutral, "neutral response must not change dynamics");
        let boosted = run(Some(AdaptiveResponse {
            lr_boost: 4.0,
            w_decay_scale: 2.0,
        }));
        assert_ne!(base, boosted, "boosted response must change learning");
        // Non-SpikeDyn methods have no adaptation mechanism.
        let mut baseline = Trainer::new(Method::Baseline, 196, 8, PresentConfig::fast(), 8);
        assert!(!baseline.apply_adaptive_response(&AdaptiveResponse {
            lr_boost: 4.0,
            w_decay_scale: 2.0,
        }));
    }

    #[test]
    fn boosted_response_survives_snapshot_restore() {
        let imgs = small_images(4, &[0, 1]);
        let boost = AdaptiveResponse {
            lr_boost: 4.0,
            w_decay_scale: 2.0,
        };
        let mut live = Trainer::new(Method::SpikeDyn, 196, 8, PresentConfig::fast(), 17);
        live.apply_adaptive_response(&boost);
        live.train_on(&imgs[..4]);
        let state = live.snapshot_state();
        assert_eq!(state.active_response, boost);
        let mut restored = Trainer::restore(state).unwrap();
        assert_eq!(restored.active_response(), &boost);
        live.train_on(&imgs[4..]);
        restored.train_on(&imgs[4..]);
        assert_eq!(
            restored.net.weights, live.net.weights,
            "restored trainer must keep the boosted dynamics"
        );
    }

    #[test]
    fn responses_with_matches_per_call_engines() {
        let imgs = small_images(3, &[0, 1]);
        let mut a = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 13);
        let mut b = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 13);
        a.train_on(&imgs);
        b.train_on(&imgs);
        let mut engine = b.engine();
        for _ in 0..3 {
            let fresh = a.responses(&imgs);
            let reused = b.responses_with(&mut engine, &imgs).unwrap();
            assert_eq!(
                fresh, reused,
                "hot-swapped engine path must be bit-identical"
            );
        }
        assert_eq!(a.infer_samples_seen(), b.infer_samples_seen());
    }

    #[test]
    fn infer_and_train_with_matches_infer_then_train() {
        let batches = [
            small_images(2, &[0, 1, 2, 3]),
            small_images(2, &[4, 5, 6, 7]),
        ];
        let boost = AdaptiveResponse {
            lr_boost: 2.0,
            w_decay_scale: 2.0,
        };
        for method in [Method::SpikeDyn, Method::Baseline] {
            let mut joined = Trainer::new(method, 196, 10, PresentConfig::fast(), 21);
            let mut serial = Trainer::new(method, 196, 10, PresentConfig::fast(), 21);
            let mut joined_engine = joined.engine();
            let mut serial_engine = serial.engine();
            for (i, batch) in batches.iter().enumerate() {
                if i == 1 {
                    assert_eq!(
                        joined.apply_adaptive_response(&boost),
                        serial.apply_adaptive_response(&boost)
                    );
                }
                let got = joined
                    .infer_and_train_with(&mut joined_engine, batch)
                    .unwrap();
                let want = serial
                    .infer_results_with(&mut serial_engine, batch)
                    .unwrap();
                serial.train_on(batch);
                assert_eq!(got, want, "{method:?} batch {i}: results");
                assert_eq!(joined.train_ops, serial.train_ops, "{method:?} batch {i}");
                assert_eq!(joined.infer_ops, serial.infer_ops, "{method:?} batch {i}");
                assert_eq!(
                    joined.snapshot_state(),
                    serial.snapshot_state(),
                    "{method:?} batch {i}: weights, θ, RNG and seed cursor"
                );
            }
        }
    }

    #[test]
    fn infer_and_train_with_rejects_another_shape_untouched() {
        let imgs = small_images(2, &[0, 1]);
        let mut t = Trainer::new(Method::SpikeDyn, 196, 10, PresentConfig::fast(), 5);
        let mut other = Trainer::new(Method::SpikeDyn, 196, 12, PresentConfig::fast(), 5).engine();
        let before = t.snapshot_state();
        let err = t.infer_and_train_with(&mut other, &imgs).unwrap_err();
        assert!(matches!(err, snn_core::SnnError::DimensionMismatch { .. }));
        assert_eq!(t.snapshot_state(), before);
        assert_eq!(t.train_samples_seen(), 0);
    }

    #[test]
    fn infer_present_has_no_rest() {
        let t = Trainer::new(Method::Baseline, 196, 8, PresentConfig::fast(), 7);
        assert_eq!(t.infer_present.t_rest_ms, 0.0);
        assert_eq!(t.infer_present.t_present_ms, t.present.t_present_ms);
    }
}
