//! The two-layer SNN architecture family used in the paper.
//!
//! Both architectures share an input layer (spike channels, e.g. 784 MNIST
//! pixels) fully connected by plastic weights to an excitatory layer where
//! "each excitatory neuron is expected to recognize a class" (§II). They
//! differ in how winner-take-all competition is implemented:
//!
//! * [`Inhibition::InhibitoryLayer`] — the baseline/ASP architecture
//!   (Fig. 1a): every excitatory neuron drives a paired inhibitory neuron
//!   one-to-one, and each inhibitory neuron inhibits *all other* excitatory
//!   neurons. The inhibitory population has its own parameter set and its
//!   own per-step dynamics — the memory and energy cost SpikeDyn removes.
//! * [`Inhibition::DirectLateral`] — SpikeDyn's §III-B optimisation
//!   (Fig. 4a): an excitatory spike directly injects inhibitory conductance
//!   into all other excitatory neurons. No inhibitory neurons exist.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SnnResult;
use crate::neuron::{AdaptiveThreshold, LifLayer, LifParams};
use crate::ops::OpCounts;
use crate::sim::Weights;
use crate::stdp::{TraceParams, TraceSet};
use crate::synapse::WeightMatrix;

/// Winner-take-all wiring style.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Inhibition {
    /// Explicit inhibitory population (baseline \[2\] / ASP \[7\] architecture).
    InhibitoryLayer {
        /// Weight of the one-to-one excitatory → inhibitory synapses.
        w_exc_inh: f32,
        /// Weight of the all-but-one inhibitory → excitatory synapses.
        w_inh_exc: f32,
        /// Parameter set of the inhibitory LIF population.
        params: LifParams,
    },
    /// SpikeDyn's direct lateral inhibition: an excitatory spike adds
    /// `g_inh` inhibitory conductance to every other excitatory neuron.
    DirectLateral {
        /// Inhibitory conductance injected per lateral event.
        g_inh: f32,
    },
    /// No competition (used by unit tests and ablations).
    None,
}

impl Inhibition {
    /// Default explicit-layer wiring (Diehl & Cook constants).
    pub fn inhibitory_layer() -> Self {
        Inhibition::InhibitoryLayer {
            w_exc_inh: 10.4,
            w_inh_exc: 17.0,
            params: LifParams::inhibitory(),
        }
    }

    /// Default direct lateral wiring with an inhibition strength chosen to
    /// produce a competition profile similar to the explicit layer
    /// (paper Fig. 4d: "similar accuracy profile"). The conductance is
    /// weaker than the explicit layer's `w_inh_exc` because the lateral
    /// path skips the inhibitory neuron's threshold/delay: an instant
    /// full-strength clamp would turn the soft winner-take-all into a
    /// hard one and destroy the graded spike counts the class-assignment
    /// readout needs.
    pub fn direct_lateral() -> Self {
        Inhibition::DirectLateral { g_inh: 12.0 }
    }
}

/// Full configuration of a two-layer SNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnConfig {
    /// Number of input channels (pixels).
    pub n_input: usize,
    /// Number of excitatory neurons (`nexc` in the paper).
    pub n_exc: usize,
    /// Competition wiring.
    pub inhibition: Inhibition,
    /// Excitatory LIF parameters.
    pub exc_params: LifParams,
    /// Homeostatic threshold adaptation (the paper's `θ`), `None` disables.
    pub adapt: Option<AdaptiveThreshold>,
    /// Upper bound for initial random weights.
    pub w_init_max: f32,
    /// Hard upper clip for weights.
    pub w_max: f32,
    /// Synaptic trace configuration.
    pub traces: TraceParams,
    /// Per-row weight normalisation target (Diehl & Cook use 78.4);
    /// `None` disables normalisation.
    pub norm_target: Option<f32>,
}

impl SnnConfig {
    /// Baseline architecture (explicit inhibitory layer) for `n_input`
    /// channels and `n_exc` excitatory neurons.
    pub fn with_inhibitory_layer(n_input: usize, n_exc: usize) -> Self {
        SnnConfig {
            n_input,
            n_exc,
            inhibition: Inhibition::inhibitory_layer(),
            exc_params: LifParams::excitatory(),
            adapt: Some(AdaptiveThreshold::default()),
            w_init_max: 0.3,
            w_max: 1.0,
            traces: TraceParams::default(),
            norm_target: Some(n_input as f32 * 0.1),
        }
    }

    /// SpikeDyn's optimised architecture (direct lateral inhibition).
    pub fn direct_lateral(n_input: usize, n_exc: usize) -> Self {
        SnnConfig {
            inhibition: Inhibition::direct_lateral(),
            ..Self::with_inhibitory_layer(n_input, n_exc)
        }
    }

    /// Validates all nested parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::SnnError::InvalidParameter`] from the neuron
    /// parameter sets.
    pub fn validate(&self) -> SnnResult<()> {
        self.exc_params.validate()?;
        if let Inhibition::InhibitoryLayer { params, .. } = &self.inhibition {
            params.validate()?;
        }
        Ok(())
    }

    /// Number of plastic weights `Pw` for the analytical memory model.
    ///
    /// The explicit-layer architecture additionally stores the fixed
    /// exc→inh (one-to-one) and inh→exc (all-but-one) connection weights;
    /// direct lateral inhibition stores a single scalar.
    pub fn weight_count(&self) -> usize {
        let plastic = self.n_input * self.n_exc;
        match self.inhibition {
            Inhibition::InhibitoryLayer { .. } => {
                plastic + self.n_exc + self.n_exc * self.n_exc.saturating_sub(1)
            }
            Inhibition::DirectLateral { .. } => plastic + 1,
            Inhibition::None => plastic,
        }
    }

    /// Number of neuron state parameters `Pn` for the analytical memory
    /// model: excitatory state vars plus, for the explicit-layer
    /// architecture, a second population with its own state.
    pub fn neuron_param_count(&self) -> usize {
        let exc_vars = LifParams::state_vars_per_neuron(self.adapt.is_some());
        let exc = self.n_exc * exc_vars;
        match self.inhibition {
            Inhibition::InhibitoryLayer { .. } => {
                exc + self.n_exc * LifParams::state_vars_per_neuron(false)
            }
            _ => exc,
        }
    }
}

/// A constructed two-layer spiking network.
///
/// Fields are public: the simulation loop, learning rules and experiment
/// harnesses all need structured access to disjoint parts of the state
/// (weights vs. traces vs. layer internals) which accessor methods cannot
/// lend simultaneously.
#[derive(Debug, Clone)]
pub struct Snn {
    /// The configuration this network was built from.
    pub config: SnnConfig,
    /// Excitatory population.
    pub exc: LifLayer,
    /// Inhibitory population (only for [`Inhibition::InhibitoryLayer`]).
    pub inh: Option<LifLayer>,
    /// Plastic input → excitatory weights.
    pub weights: WeightMatrix,
    /// Pre/post synaptic traces over the plastic projection.
    pub traces: TraceSet,
}

/// The per-sample state a presentation writes: both populations (with the
/// excitatory layer's adaptation potentials `θ`) and the synaptic traces.
///
/// Inference only reads the weights, so any number of these can run
/// against one shared [`crate::synapse::InputMajor`] copy through
/// [`crate::sim::infer_sample`].
/// A state is built from the network it will serve and keeps that
/// network's layer parameters and inhibition wiring.
#[derive(Debug, Clone)]
pub struct NeuronState {
    /// Excitatory population.
    pub exc: LifLayer,
    /// Inhibitory population (only for [`Inhibition::InhibitoryLayer`]).
    pub inh: Option<LifLayer>,
    /// Pre/post synaptic traces over the plastic projection.
    pub traces: TraceSet,
    inhibition: Inhibition,
}

impl NeuronState {
    /// A copy of `net`'s populations, traces and inhibition wiring, with
    /// no copy of its weights.
    pub fn new(net: &Snn) -> Self {
        NeuronState {
            exc: net.exc.clone(),
            inh: net.inh.clone(),
            traces: net.traces.clone(),
            inhibition: net.config.inhibition,
        }
    }

    /// Mutable borrows of this state for the shared step code.
    pub(crate) fn dynamics(&mut self) -> Dynamics<'_> {
        Dynamics {
            inhibition: self.inhibition,
            exc: &mut self.exc,
            inh: self.inh.as_mut(),
            traces: &mut self.traces,
        }
    }
}

/// Mutable borrows of the state one presentation writes, lent by an
/// [`Snn`] or a [`NeuronState`]: the one implementation of input delivery,
/// stepping and settling behind both.
pub(crate) struct Dynamics<'a> {
    pub(crate) inhibition: Inhibition,
    pub(crate) exc: &'a mut LifLayer,
    pub(crate) inh: Option<&'a mut LifLayer>,
    pub(crate) traces: &'a mut TraceSet,
}

impl Dynamics<'_> {
    /// See [`Snn::deliver_input_spikes`].
    pub(crate) fn deliver_input_spikes(
        &mut self,
        weights: &Weights<'_>,
        spikes: &[u32],
        ops: &mut OpCounts,
    ) {
        if spikes.is_empty() {
            return;
        }
        weights.gather_active_into(spikes, self.exc.exc_conductances_mut());
        for &k in spikes {
            self.traces.on_pre_spike(k as usize, ops);
        }
        ops.syn_events += (self.exc.len() * spikes.len()) as u64;
    }

    /// See [`Snn::step`].
    pub(crate) fn step(&mut self, dt_ms: f32, ops: &mut OpCounts) -> u32 {
        let exc_spikes = self.exc.step(dt_ms, ops);
        if exc_spikes > 0 {
            // Collect indices first: routing mutates `self.exc`.
            let spiked: Vec<usize> = self
                .exc
                .spiked()
                .iter()
                .enumerate()
                .filter_map(|(j, &s)| if s { Some(j) } else { None })
                .collect();
            for &j in &spiked {
                self.traces.on_post_spike(j, ops);
            }
            ops.kernel_launches += 1; // batched post-trace update
            match self.inhibition {
                Inhibition::DirectLateral { g_inh } => {
                    for &j in &spiked {
                        self.exc.inject_inh_all_but(j, g_inh, ops);
                    }
                    ops.kernel_launches += 1; // lateral inhibition scatter
                }
                Inhibition::InhibitoryLayer { w_exc_inh, .. } => {
                    let inh = self
                        .inh
                        .as_mut()
                        .expect("inhibitory layer exists for InhibitoryLayer wiring");
                    for &j in &spiked {
                        inh.inject_exc(j, w_exc_inh);
                        ops.syn_events += 1;
                    }
                    ops.kernel_launches += 1; // exc→inh scatter
                }
                Inhibition::None => {}
            }
        }
        // Inhibitory population dynamics run every step (their cost is the
        // point of the §III-B comparison), firing back into the excitatory
        // layer.
        if let Some(inh) = self.inh.as_mut() {
            let inh_spikes = inh.step(dt_ms, ops);
            if inh_spikes > 0 {
                if let Inhibition::InhibitoryLayer { w_inh_exc, .. } = self.inhibition {
                    let spiked: Vec<usize> = inh
                        .spiked()
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &s)| if s { Some(i) } else { None })
                        .collect();
                    for i in spiked {
                        self.exc.inject_inh_all_but(i, w_inh_exc, ops);
                    }
                    ops.kernel_launches += 1; // inh→exc scatter
                }
            }
        }
        self.traces.decay(dt_ms, ops);
        exc_spikes
    }

    /// See [`Snn::settle`].
    pub(crate) fn settle(&mut self) {
        self.exc.settle();
        if let Some(inh) = self.inh.as_mut() {
            inh.settle();
        }
        self.traces.reset();
    }
}

impl Snn {
    /// Builds a network with randomly initialised weights.
    pub fn new<R: Rng + ?Sized>(config: SnnConfig, rng: &mut R) -> Self {
        let exc = LifLayer::new(config.n_exc, config.exc_params, config.adapt);
        let inh = match &config.inhibition {
            Inhibition::InhibitoryLayer { params, .. } => {
                Some(LifLayer::new(config.n_exc, *params, None))
            }
            _ => None,
        };
        let weights = WeightMatrix::random_uniform(
            config.n_exc,
            config.n_input,
            config.w_init_max,
            config.w_max,
            rng,
        );
        let traces = TraceSet::new(config.n_input, config.n_exc, config.traces);
        Snn {
            config,
            exc,
            inh,
            weights,
            traces,
        }
    }

    /// Rebuilds a network from checkpointed learned state: the original
    /// configuration, the plastic weight buffer (row-major by postsynaptic
    /// neuron) and the per-neuron adaptation potentials `θ`.
    ///
    /// Dynamic state (membranes, conductances, traces, refractory timers)
    /// starts settled, which matches the state of a live network between
    /// samples — the only points at which the workspace checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnnError::DimensionMismatch`] when the weight
    /// buffer or `θ` vector does not match the configured shape.
    pub fn from_parts(config: SnnConfig, weights: Vec<f32>, thetas: &[f32]) -> SnnResult<Self> {
        if thetas.len() != config.n_exc {
            return Err(crate::SnnError::DimensionMismatch {
                expected: config.n_exc,
                got: thetas.len(),
                what: "theta vector",
            });
        }
        let weights = WeightMatrix::from_rows(config.n_exc, config.n_input, weights, config.w_max)?;
        let mut exc = LifLayer::new(config.n_exc, config.exc_params, config.adapt);
        exc.thetas_mut().copy_from_slice(thetas);
        let inh = match &config.inhibition {
            Inhibition::InhibitoryLayer { params, .. } => {
                Some(LifLayer::new(config.n_exc, *params, None))
            }
            _ => None,
        };
        let traces = TraceSet::new(config.n_input, config.n_exc, config.traces);
        Ok(Snn {
            config,
            exc,
            inh,
            weights,
            traces,
        })
    }

    /// Number of input channels.
    pub fn n_input(&self) -> usize {
        self.config.n_input
    }

    /// Number of excitatory neurons.
    pub fn n_exc(&self) -> usize {
        self.config.n_exc
    }

    /// Delivers one presynaptic input spike on channel `k`: adds the
    /// corresponding weight column to every excitatory conductance and
    /// updates the pre trace.
    pub fn deliver_input_spike(&mut self, k: usize, ops: &mut OpCounts) {
        self.deliver_input_spikes(&[k as u32], ops);
    }

    /// Delivers one timestep's worth of presynaptic input spikes through
    /// the sparse event-driven kernel: only the channels listed in `spikes`
    /// are touched (one weight-row gather over the excitatory population),
    /// then each spiking channel's pre trace is bumped.
    ///
    /// State effects (conductances, traces, op counts) are bit-identical to
    /// calling [`Snn::deliver_input_spike`] once per listed channel; the
    /// presentation loop behind both [`crate::sim::run_sample`] and
    /// [`crate::sim::infer_sample`] runs this same code.
    ///
    /// # Panics
    ///
    /// Panics if any channel index is out of range.
    pub fn deliver_input_spikes(&mut self, spikes: &[u32], ops: &mut OpCounts) {
        let (weights, mut state) = self.split();
        state.deliver_input_spikes(&Weights::Read(weights), spikes, ops);
    }

    /// Advances all populations by one timestep and routes competition.
    ///
    /// Order of events within a step:
    /// 1. excitatory layer integrates and fires,
    /// 2. excitatory spikes update post traces and trigger inhibition
    ///    (directly or through the inhibitory layer),
    /// 3. the inhibitory layer (if present) integrates and fires,
    ///    feeding back `all-but-source` inhibition.
    ///
    /// Returns the number of excitatory spikes this step; the spike flags
    /// remain readable via `self.exc.spiked()`.
    pub fn step(&mut self, dt_ms: f32, ops: &mut OpCounts) -> u32 {
        self.split().1.step(dt_ms, ops)
    }

    /// Settles dynamic state between samples (keeps weights and `θ`).
    pub fn settle(&mut self) {
        self.split().1.settle();
    }

    /// Splits the network into its weights and the state a presentation
    /// writes, as disjoint borrows.
    pub(crate) fn split(&mut self) -> (&mut WeightMatrix, Dynamics<'_>) {
        let Snn {
            config,
            exc,
            inh,
            weights,
            traces,
        } = self;
        let state = Dynamics {
            inhibition: config.inhibition,
            exc,
            inh: inh.as_mut(),
            traces,
        };
        (weights, state)
    }

    /// Applies per-row weight normalisation if the config enables it.
    pub fn normalize_weights(&mut self, ops: &mut OpCounts) {
        if let Some(target) = self.config.norm_target {
            self.weights.normalize_rows(target, ops);
        }
    }

    /// Actual resident memory of the model state in bytes: weights, neuron
    /// state, traces. This is the "actual run" quantity the paper's Fig. 5a
    /// validates the analytical model against.
    pub fn actual_memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let mut bytes = self.weights.len() * f;
        bytes += self.exc.len() * self.exc.state_vars() * f;
        if let Some(inh) = &self.inh {
            bytes += inh.len() * inh.state_vars() * f;
            // Fixed inter-population weights of the explicit architecture.
            bytes += (self.n_exc() + self.n_exc() * (self.n_exc() - 1)) * f;
        }
        bytes += (self.traces.x_pre().len() + self.traces.x_post().len()) * f;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn config_validates() {
        assert!(SnnConfig::with_inhibitory_layer(784, 100)
            .validate()
            .is_ok());
        assert!(SnnConfig::direct_lateral(784, 100).validate().is_ok());
    }

    #[test]
    fn explicit_layer_network_has_inh_population() {
        let mut rng = seeded_rng(2);
        let net = Snn::new(SnnConfig::with_inhibitory_layer(16, 4), &mut rng);
        assert!(net.inh.is_some());
        assert_eq!(net.inh.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn direct_lateral_network_has_no_inh_population() {
        let mut rng = seeded_rng(2);
        let net = Snn::new(SnnConfig::direct_lateral(16, 4), &mut rng);
        assert!(net.inh.is_none());
    }

    #[test]
    fn weight_count_reflects_architecture() {
        let with_inh = SnnConfig::with_inhibitory_layer(784, 400);
        let lateral = SnnConfig::direct_lateral(784, 400);
        assert_eq!(
            with_inh.weight_count(),
            784 * 400 + 400 + 400 * 399,
            "plastic + one-to-one + all-but-one"
        );
        assert_eq!(lateral.weight_count(), 784 * 400 + 1);
        assert!(lateral.weight_count() < with_inh.weight_count());
    }

    #[test]
    fn neuron_param_count_reflects_architecture() {
        let with_inh = SnnConfig::with_inhibitory_layer(784, 400);
        let lateral = SnnConfig::direct_lateral(784, 400);
        assert!(lateral.neuron_param_count() < with_inh.neuron_param_count());
        assert_eq!(lateral.neuron_param_count(), 400 * 5);
        assert_eq!(with_inh.neuron_param_count(), 400 * 5 + 400 * 4);
    }

    #[test]
    fn input_spike_raises_conductance_everywhere() {
        let mut rng = seeded_rng(3);
        let mut net = Snn::new(SnnConfig::direct_lateral(4, 3), &mut rng);
        let mut ops = OpCounts::default();
        let v_before = net.exc.voltages().to_vec();
        net.deliver_input_spike(0, &mut ops);
        net.step(0.5, &mut ops);
        // At least one neuron's voltage should move up (weights are random
        // but non-negative, and at least one is > 0 with this seed).
        let moved = net
            .exc
            .voltages()
            .iter()
            .zip(&v_before)
            .any(|(&a, &b)| a > b);
        assert!(moved);
        assert_eq!(ops.syn_events, 3);
    }

    #[test]
    fn direct_lateral_inhibits_competitors() {
        let mut rng = seeded_rng(4);
        let mut cfg = SnnConfig::direct_lateral(2, 2);
        cfg.adapt = None;
        cfg.norm_target = None;
        let mut net = Snn::new(cfg, &mut rng);
        // Hand-craft weights: neuron 0 strongly driven, neuron 1 weakly.
        net.weights.set(0, 0, 1.0);
        net.weights.set(1, 0, 0.2);
        let mut ops = OpCounts::default();
        let mut fired0 = false;
        for _ in 0..400 {
            net.deliver_input_spike(0, &mut ops);
            net.step(0.5, &mut ops);
            if net.exc.spiked()[0] {
                fired0 = true;
                break;
            }
        }
        assert!(fired0, "strongly driven neuron must fire");
        // After neuron 0 fires, neuron 1 receives inhibitory conductance:
        // its voltage must dip below what pure excitation would give.
        let v1 = net.exc.voltages()[1];
        net.step(0.5, &mut ops);
        assert!(net.exc.voltages()[1] <= v1 + 1.0);
    }

    #[test]
    fn sparse_delivery_matches_per_spike_delivery_bitwise() {
        let mut rng = seeded_rng(40);
        let cfg = SnnConfig::direct_lateral(12, 5);
        let mut a = Snn::new(cfg, &mut rng);
        let mut b = a.clone();
        let spikes = [1u32, 4, 7, 10];
        let mut ops_a = OpCounts::default();
        let mut ops_b = OpCounts::default();
        for &k in &spikes {
            a.deliver_input_spike(k as usize, &mut ops_a);
        }
        b.deliver_input_spikes(&spikes, &mut ops_b);
        // Identical conductance evolution: step both and compare voltages
        // bit for bit over a few steps.
        for _ in 0..20 {
            a.step(0.5, &mut ops_a);
            b.step(0.5, &mut ops_b);
            let va: Vec<u32> = a.exc.voltages().iter().map(|v| v.to_bits()).collect();
            let vb: Vec<u32> = b.exc.voltages().iter().map(|v| v.to_bits()).collect();
            assert_eq!(va, vb);
        }
        assert_eq!(ops_a, ops_b, "op metering must not depend on the path");
        assert_eq!(a.traces.x_pre(), b.traces.x_pre());
    }

    #[test]
    fn from_parts_reproduces_learned_state() {
        let mut rng = seeded_rng(41);
        let mut net = Snn::new(SnnConfig::direct_lateral(12, 5), &mut rng);
        net.exc.thetas_mut()[2] = 3.5;
        let rebuilt = Snn::from_parts(
            net.config.clone(),
            net.weights.as_slice().to_vec(),
            net.exc.thetas(),
        )
        .unwrap();
        assert_eq!(rebuilt.weights, net.weights);
        assert_eq!(rebuilt.exc.thetas(), net.exc.thetas());
        // Identical state must simulate identically.
        let mut ops_a = OpCounts::default();
        let mut ops_b = OpCounts::default();
        let mut a = net.clone();
        let mut b = rebuilt;
        a.settle();
        for _ in 0..10 {
            a.deliver_input_spike(1, &mut ops_a);
            b.deliver_input_spike(1, &mut ops_b);
            a.step(0.5, &mut ops_a);
            b.step(0.5, &mut ops_b);
            let va: Vec<u32> = a.exc.voltages().iter().map(|v| v.to_bits()).collect();
            let vb: Vec<u32> = b.exc.voltages().iter().map(|v| v.to_bits()).collect();
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn from_parts_validates_dimensions() {
        let cfg = SnnConfig::direct_lateral(4, 3);
        assert!(Snn::from_parts(cfg.clone(), vec![0.0; 11], &[0.0; 3]).is_err());
        assert!(Snn::from_parts(cfg.clone(), vec![0.0; 12], &[0.0; 2]).is_err());
        assert!(Snn::from_parts(cfg, vec![0.0; 12], &[0.0; 3]).is_ok());
    }

    #[test]
    fn settle_preserves_weights() {
        let mut rng = seeded_rng(5);
        let mut net = Snn::new(SnnConfig::direct_lateral(8, 4), &mut rng);
        let w_before = net.weights.clone();
        let mut ops = OpCounts::default();
        net.deliver_input_spike(3, &mut ops);
        net.step(0.5, &mut ops);
        net.settle();
        assert_eq!(net.weights, w_before);
        assert!(net.traces.x_pre().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn actual_memory_direct_lateral_is_smaller() {
        let mut rng = seeded_rng(6);
        let a = Snn::new(SnnConfig::with_inhibitory_layer(784, 200), &mut rng);
        let b = Snn::new(SnnConfig::direct_lateral(784, 200), &mut rng);
        assert!(
            b.actual_memory_bytes() < a.actual_memory_bytes(),
            "direct lateral must save memory: {} vs {}",
            b.actual_memory_bytes(),
            a.actual_memory_bytes()
        );
    }

    #[test]
    fn normalize_respects_config() {
        let mut rng = seeded_rng(7);
        let mut cfg = SnnConfig::direct_lateral(10, 2);
        cfg.norm_target = Some(5.0);
        let mut net = Snn::new(cfg, &mut rng);
        let mut ops = OpCounts::default();
        net.normalize_weights(&mut ops);
        assert!((net.weights.row_sum(0) - 5.0).abs() < 1e-3);
    }
}
