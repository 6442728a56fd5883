//! Neuron models.
//!
//! The paper uses the Leaky Integrate-and-Fire (LIF) model "since it has the
//! lowest computational complexity among the existing neuron models" (§II),
//! with conductance-based synapses and an adaptive threshold
//! `Vth + θ` where the adaptation potential `θ` grows on every spike and
//! otherwise decays. [`LifLayer`] implements a whole population of such
//! neurons in structure-of-arrays form for cache-friendly simulation; the
//! non-leaky [`IfLayer`] exists as a complexity comparison point.

use serde::{Deserialize, Serialize};

use crate::error::{SnnError, SnnResult};
use crate::ops::OpCounts;

/// Parameters of a conductance-based LIF population.
///
/// Voltages are in millivolts, times in milliseconds. Defaults follow the
/// excitatory population of Diehl & Cook (2015), the configuration the
/// paper's baseline \[2\] uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifParams {
    /// Resting membrane potential.
    pub v_rest_mv: f32,
    /// Potential the membrane is clamped to after a spike.
    pub v_reset_mv: f32,
    /// Base firing threshold (before adaptation).
    pub v_thresh_mv: f32,
    /// Membrane time constant.
    pub tau_m_ms: f32,
    /// Absolute refractory period.
    pub refrac_ms: f32,
    /// Excitatory synaptic reversal potential.
    pub e_exc_mv: f32,
    /// Inhibitory synaptic reversal potential.
    pub e_inh_mv: f32,
    /// Excitatory conductance time constant.
    pub tau_ge_ms: f32,
    /// Inhibitory conductance time constant.
    pub tau_gi_ms: f32,
}

impl LifParams {
    /// Diehl & Cook excitatory-population parameters.
    pub fn excitatory() -> Self {
        LifParams {
            v_rest_mv: -65.0,
            v_reset_mv: -65.0,
            v_thresh_mv: -52.0,
            tau_m_ms: 100.0,
            refrac_ms: 5.0,
            e_exc_mv: 0.0,
            e_inh_mv: -100.0,
            tau_ge_ms: 1.0,
            tau_gi_ms: 2.0,
        }
    }

    /// Diehl & Cook inhibitory-population parameters. Note the different
    /// constants from [`LifParams::excitatory`] — the paper's §III-B points
    /// out that storing this second parameter set is part of the memory cost
    /// of the explicit inhibitory layer.
    pub fn inhibitory() -> Self {
        LifParams {
            v_rest_mv: -60.0,
            v_reset_mv: -45.0,
            v_thresh_mv: -40.0,
            tau_m_ms: 10.0,
            refrac_ms: 2.0,
            e_exc_mv: 0.0,
            e_inh_mv: -85.0,
            tau_ge_ms: 1.0,
            tau_gi_ms: 2.0,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidParameter`] for non-positive time
    /// constants or a threshold at/below the reset potential.
    pub fn validate(&self) -> SnnResult<()> {
        for (name, v) in [
            ("tau_m_ms", self.tau_m_ms),
            ("tau_ge_ms", self.tau_ge_ms),
            ("tau_gi_ms", self.tau_gi_ms),
        ] {
            if v.is_nan() || v <= 0.0 {
                return Err(SnnError::InvalidParameter {
                    name,
                    reason: format!("time constant must be positive, got {v}"),
                });
            }
        }
        if self.refrac_ms < 0.0 {
            return Err(SnnError::InvalidParameter {
                name: "refrac_ms",
                reason: "must be non-negative".into(),
            });
        }
        if self.v_thresh_mv <= self.v_reset_mv {
            return Err(SnnError::InvalidParameter {
                name: "v_thresh_mv",
                reason: format!(
                    "threshold {} mV must exceed reset {} mV",
                    self.v_thresh_mv, self.v_reset_mv
                ),
            });
        }
        Ok(())
    }

    /// Number of per-neuron state variables this model keeps (used by the
    /// analytical memory model: `Pn` in `mem = (Pw + Pn) · BP`).
    pub fn state_vars_per_neuron(adaptive: bool) -> usize {
        // v, ge, gi, refractory counter (+ theta when adaptive).
        if adaptive {
            5
        } else {
            4
        }
    }
}

/// Adaptive-threshold (homeostasis) parameters.
///
/// On every spike the neuron's `θ` increases by `theta_plus_mv`; between
/// spikes it decays exponentially with time constant `tau_theta_ms`. The
/// effective firing threshold is `v_thresh_mv + θ`. SpikeDyn's §III-D tunes
/// `theta_plus` as `θ = cθ · θdecay · tsim`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveThreshold {
    /// Increment added to `θ` when the neuron fires.
    pub theta_plus_mv: f32,
    /// Exponential decay time constant of `θ`.
    pub tau_theta_ms: f32,
}

impl Default for AdaptiveThreshold {
    /// Diehl & Cook homeostasis: +0.05 mV per spike, very slow decay.
    fn default() -> Self {
        AdaptiveThreshold {
            theta_plus_mv: 0.05,
            tau_theta_ms: 1.0e7,
        }
    }
}

impl AdaptiveThreshold {
    /// Rescales the homeostasis for a temporally compressed experiment
    /// with `compression`× fewer samples per task.
    ///
    /// The scaling is sub-linear (`√compression`): per-event STDP rules
    /// already adapt faster per sample under compression (higher input
    /// rates, boosted retries), so a linear θ scaling would rotate winners
    /// out before they consolidate. The √ mapping was calibrated so the
    /// Diehl & Cook baseline reproduces the paper's Fig. 1(c) forgetting
    /// profile at the harness scale; see `DESIGN.md` §2.
    pub fn compressed(mut self, compression: f32) -> Self {
        let c = compression.max(1.0).sqrt();
        self.theta_plus_mv *= c;
        self.tau_theta_ms /= c;
        self
    }
}

/// A population of conductance-based LIF neurons with optional adaptive
/// thresholds, stored structure-of-arrays.
#[derive(Debug, Clone)]
pub struct LifLayer {
    params: LifParams,
    adapt: Option<AdaptiveThreshold>,
    n: usize,
    v: Vec<f32>,
    theta: Vec<f32>,
    ge: Vec<f32>,
    gi: Vec<f32>,
    refrac_left_ms: Vec<f32>,
    spiked: Vec<bool>,
    // Cached decay factors for the last-seen dt.
    cached_dt: f32,
    f_ge: f32,
    f_gi: f32,
    f_theta: f32,
}

impl LifLayer {
    /// Creates a population of `n` neurons at rest.
    pub fn new(n: usize, params: LifParams, adapt: Option<AdaptiveThreshold>) -> Self {
        let mut layer = LifLayer {
            params,
            adapt,
            n,
            v: vec![params.v_rest_mv; n],
            theta: vec![0.0; n],
            ge: vec![0.0; n],
            gi: vec![0.0; n],
            refrac_left_ms: vec![0.0; n],
            spiked: vec![false; n],
            cached_dt: f32::NAN,
            f_ge: 0.0,
            f_gi: 0.0,
            f_theta: 0.0,
        };
        layer.refresh_decay_factors(1.0);
        layer
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Model parameters.
    pub fn params(&self) -> &LifParams {
        &self.params
    }

    /// Adaptive threshold configuration, if homeostasis is enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveThreshold> {
        self.adapt.as_ref()
    }

    /// Replaces the adaptive threshold configuration. Existing per-neuron
    /// `θ` values are kept (SpikeDyn adjusts the increment/decay online
    /// without resetting accumulated adaptation).
    pub fn set_adaptive(&mut self, adapt: Option<AdaptiveThreshold>) {
        self.adapt = adapt;
        self.cached_dt = f32::NAN; // force factor refresh
    }

    /// Membrane potentials (mV).
    pub fn voltages(&self) -> &[f32] {
        &self.v
    }

    /// Adaptation potentials `θ` (mV).
    pub fn thetas(&self) -> &[f32] {
        &self.theta
    }

    /// Mutable adaptation potentials, for learning rules that rescale `θ`.
    pub fn thetas_mut(&mut self) -> &mut [f32] {
        &mut self.theta
    }

    /// Spike flags from the most recent [`LifLayer::step`].
    pub fn spiked(&self) -> &[bool] {
        &self.spiked
    }

    /// Adds excitatory conductance to neuron `j` (a presynaptic spike
    /// arriving through a synapse of weight `w`).
    #[inline]
    pub fn inject_exc(&mut self, j: usize, w: f32) {
        self.ge[j] += w;
    }

    /// Adds inhibitory conductance to neuron `j`.
    #[inline]
    pub fn inject_inh(&mut self, j: usize, w: f32) {
        self.gi[j] += w;
    }

    /// Mutable view of the excitatory conductances, for sparse delivery
    /// kernels that accumulate many presynaptic events per neuron in one
    /// pass (see [`crate::synapse::WeightMatrix::gather_active_into`] and
    /// [`crate::synapse::InputMajor::gather_active_into`]).
    #[inline]
    pub fn exc_conductances_mut(&mut self) -> &mut [f32] {
        &mut self.ge
    }

    /// Adds inhibitory conductance to every neuron except `except`, the
    /// direct lateral inhibition primitive of SpikeDyn's §III-B.
    pub fn inject_inh_all_but(&mut self, except: usize, w: f32, ops: &mut OpCounts) {
        for (j, gi) in self.gi.iter_mut().enumerate() {
            if j != except {
                *gi += w;
            }
        }
        ops.syn_events += (self.n as u64).saturating_sub(1);
    }

    fn refresh_decay_factors(&mut self, dt: f32) {
        if dt == self.cached_dt {
            return;
        }
        self.cached_dt = dt;
        self.f_ge = (-dt / self.params.tau_ge_ms).exp();
        self.f_gi = (-dt / self.params.tau_gi_ms).exp();
        self.f_theta = match &self.adapt {
            Some(a) => (-dt / a.tau_theta_ms).exp(),
            None => 1.0,
        };
    }

    /// Advances the population by one timestep of `dt` milliseconds.
    ///
    /// Conductances decay exponentially, membranes integrate the
    /// conductance-weighted reversal-potential drive, and neurons whose
    /// potential crosses `v_thresh + θ` fire (recorded in
    /// [`LifLayer::spiked`]) and are clamped to reset + refractory.
    ///
    /// Returns the number of spikes emitted this step. Operation counts are
    /// accumulated into `ops`.
    pub fn step(&mut self, dt: f32, ops: &mut OpCounts) -> u32 {
        self.refresh_decay_factors(dt);
        // Three fresh exponentials only when dt changes; steady-state steps
        // reuse cached factors, which is what a vectorised simulator does.
        let p = self.params;
        let adaptive = self.adapt.is_some();
        let mut spikes = 0u32;
        for j in 0..self.n {
            // Conductance decay.
            self.ge[j] *= self.f_ge;
            self.gi[j] *= self.f_gi;
            if adaptive {
                self.theta[j] *= self.f_theta;
            }
            if self.refrac_left_ms[j] > 0.0 {
                self.refrac_left_ms[j] -= dt;
                self.v[j] = p.v_reset_mv;
                self.spiked[j] = false;
                continue;
            }
            // Conductance-based membrane integration (Euler).
            let dv = (p.v_rest_mv - self.v[j])
                + self.ge[j] * (p.e_exc_mv - self.v[j])
                + self.gi[j] * (p.e_inh_mv - self.v[j]);
            self.v[j] += dv * (dt / p.tau_m_ms);
            let thresh = p.v_thresh_mv + self.theta[j];
            if self.v[j] >= thresh {
                self.spiked[j] = true;
                self.v[j] = p.v_reset_mv;
                self.refrac_left_ms[j] = p.refrac_ms;
                if let Some(a) = &self.adapt {
                    self.theta[j] += a.theta_plus_mv;
                }
                spikes += 1;
            } else {
                self.spiked[j] = false;
            }
        }
        let n = self.n as u64;
        ops.neuron_updates += n;
        ops.decay_mults += n * if adaptive { 3 } else { 2 };
        ops.comparisons += n;
        ops.spikes += u64::from(spikes);
        // Vectorised equivalents: ge decay, gi decay, (theta decay),
        // integrate, threshold+reset.
        ops.kernel_launches += if adaptive { 5 } else { 4 };
        spikes
    }

    /// Resets dynamic state (voltage, conductances, refractory timers) to
    /// rest while keeping the learned adaptation `θ`. Called between
    /// samples: homeostasis is long-term state, membrane dynamics are not.
    pub fn settle(&mut self) {
        self.v.fill(self.params.v_rest_mv);
        self.ge.fill(0.0);
        self.gi.fill(0.0);
        self.refrac_left_ms.fill(0.0);
        self.spiked.fill(false);
    }

    /// Full reset including adaptation, returning the layer to its
    /// just-constructed state.
    pub fn reset(&mut self) {
        self.settle();
        self.theta.fill(0.0);
    }

    /// Per-neuron state-variable count for the analytical memory model.
    pub fn state_vars(&self) -> usize {
        LifParams::state_vars_per_neuron(self.adapt.is_some())
    }

    /// Splits the layer into its spike flags (shared) and adaptation
    /// potentials (mutable) in one borrow, so a learning rule can read
    /// spikes while rescaling `θ`.
    pub fn spiked_and_thetas_mut(&mut self) -> (&[bool], &mut [f32]) {
        (&self.spiked, &mut self.theta)
    }
}

/// A population of non-leaky integrate-and-fire neurons.
///
/// Provided as the complexity floor the paper alludes to when motivating
/// LIF: an IF neuron only accumulates weighted input and compares against a
/// threshold. Used in unit tests and the op-count ablations.
#[derive(Debug, Clone)]
pub struct IfLayer {
    n: usize,
    v: Vec<f32>,
    v_thresh: f32,
    v_reset: f32,
    spiked: Vec<bool>,
}

impl IfLayer {
    /// Creates `n` IF neurons with the given threshold and reset.
    pub fn new(n: usize, v_thresh: f32, v_reset: f32) -> Self {
        IfLayer {
            n,
            v: vec![v_reset; n],
            v_thresh,
            v_reset,
            spiked: vec![false; n],
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds input drive to neuron `j`.
    #[inline]
    pub fn inject(&mut self, j: usize, w: f32) {
        self.v[j] += w;
    }

    /// Advances one step: thresholds and resets. Returns spike count.
    pub fn step(&mut self, ops: &mut OpCounts) -> u32 {
        let mut spikes = 0;
        for j in 0..self.n {
            if self.v[j] >= self.v_thresh {
                self.spiked[j] = true;
                self.v[j] = self.v_reset;
                spikes += 1;
            } else {
                self.spiked[j] = false;
            }
        }
        ops.neuron_updates += self.n as u64;
        ops.comparisons += self.n as u64;
        ops.spikes += u64::from(spikes);
        ops.kernel_launches += 2; // threshold + reset
        spikes
    }

    /// Spike flags from the most recent step.
    pub fn spiked(&self) -> &[bool] {
        &self.spiked
    }

    /// Resets all membranes.
    pub fn reset(&mut self) {
        self.v.fill(self.v_reset);
        self.spiked.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_ops() -> OpCounts {
        OpCounts::default()
    }

    #[test]
    fn excitatory_params_validate() {
        assert!(LifParams::excitatory().validate().is_ok());
        assert!(LifParams::inhibitory().validate().is_ok());
    }

    #[test]
    fn bad_tau_rejected() {
        let mut p = LifParams::excitatory();
        p.tau_m_ms = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn threshold_below_reset_rejected() {
        let mut p = LifParams::excitatory();
        p.v_thresh_mv = p.v_reset_mv - 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn resting_neuron_stays_at_rest() {
        let mut l = LifLayer::new(3, LifParams::excitatory(), None);
        let mut ops = quiet_ops();
        for _ in 0..100 {
            assert_eq!(l.step(0.5, &mut ops), 0);
        }
        for &v in l.voltages() {
            assert!((v - LifParams::excitatory().v_rest_mv).abs() < 1e-3);
        }
    }

    #[test]
    fn strong_excitation_causes_spike() {
        let mut l = LifLayer::new(1, LifParams::excitatory(), None);
        let mut ops = quiet_ops();
        let mut spiked = false;
        for _ in 0..200 {
            l.inject_exc(0, 0.5); // sustained strong drive
            if l.step(0.5, &mut ops) > 0 {
                spiked = true;
                break;
            }
        }
        assert!(spiked, "sustained strong excitation must elicit a spike");
        assert!(ops.spikes >= 1);
    }

    #[test]
    fn refractory_period_blocks_immediate_respike() {
        let p = LifParams::excitatory();
        let mut l = LifLayer::new(1, p, None);
        let mut ops = quiet_ops();
        // Drive until first spike.
        loop {
            l.inject_exc(0, 1.0);
            if l.step(0.5, &mut ops) > 0 {
                break;
            }
        }
        // During the 5 ms refractory window (10 steps at 0.5 ms) no spike
        // can occur regardless of drive.
        for _ in 0..9 {
            l.inject_exc(0, 5.0);
            assert_eq!(l.step(0.5, &mut ops), 0, "spiked inside refractory");
        }
    }

    #[test]
    fn theta_grows_on_spike_and_decays() {
        let adapt = AdaptiveThreshold {
            theta_plus_mv: 1.0,
            tau_theta_ms: 10.0, // fast decay so the test can see it
        };
        let mut l = LifLayer::new(1, LifParams::excitatory(), Some(adapt));
        let mut ops = quiet_ops();
        loop {
            l.inject_exc(0, 1.0);
            if l.step(0.5, &mut ops) > 0 {
                break;
            }
        }
        let after_spike = l.thetas()[0];
        assert!(after_spike >= 1.0);
        for _ in 0..100 {
            l.step(0.5, &mut ops);
        }
        assert!(
            l.thetas()[0] < after_spike * 0.1,
            "theta should decay substantially: {} -> {}",
            after_spike,
            l.thetas()[0]
        );
    }

    #[test]
    fn inhibition_lowers_voltage() {
        let mut l = LifLayer::new(1, LifParams::excitatory(), None);
        let mut ops = quiet_ops();
        l.inject_inh(0, 1.0);
        for _ in 0..20 {
            l.step(0.5, &mut ops);
        }
        assert!(l.voltages()[0] < LifParams::excitatory().v_rest_mv);
    }

    #[test]
    fn inject_all_but_skips_source() {
        let mut l = LifLayer::new(4, LifParams::excitatory(), None);
        let mut ops = quiet_ops();
        l.inject_inh_all_but(2, 1.0, &mut ops);
        let before = l.voltages().to_vec();
        for _ in 0..10 {
            l.step(0.5, &mut ops);
        }
        // Neuron 2 saw no inhibition so it stays at rest; others dip below.
        assert!((l.voltages()[2] - before[2]).abs() < 1e-4);
        for j in [0usize, 1, 3] {
            assert!(l.voltages()[j] < before[j]);
        }
        assert_eq!(ops.syn_events, 3);
    }

    #[test]
    fn settle_keeps_theta_reset_clears_it() {
        let adapt = AdaptiveThreshold::default();
        let mut l = LifLayer::new(1, LifParams::excitatory(), Some(adapt));
        let mut ops = quiet_ops();
        loop {
            l.inject_exc(0, 1.0);
            if l.step(0.5, &mut ops) > 0 {
                break;
            }
        }
        assert!(l.thetas()[0] > 0.0);
        l.settle();
        assert!(l.thetas()[0] > 0.0, "settle must preserve homeostasis");
        assert_eq!(l.voltages()[0], LifParams::excitatory().v_rest_mv);
        l.reset();
        assert_eq!(l.thetas()[0], 0.0);
    }

    #[test]
    fn op_counts_scale_with_population() {
        let mut l = LifLayer::new(10, LifParams::excitatory(), None);
        let mut ops = quiet_ops();
        l.step(0.5, &mut ops);
        assert_eq!(ops.neuron_updates, 10);
        assert_eq!(ops.decay_mults, 20); // ge + gi, no theta
        let mut l2 = LifLayer::new(10, LifParams::excitatory(), Some(Default::default()));
        let mut ops2 = quiet_ops();
        l2.step(0.5, &mut ops2);
        assert_eq!(ops2.decay_mults, 30); // ge + gi + theta
    }

    #[test]
    fn if_layer_thresholds() {
        let mut l = IfLayer::new(2, 1.0, 0.0);
        let mut ops = quiet_ops();
        l.inject(0, 1.5);
        let spikes = l.step(&mut ops);
        assert_eq!(spikes, 1);
        assert!(l.spiked()[0]);
        assert!(!l.spiked()[1]);
        // Membrane reset: no second spike without new input.
        assert_eq!(l.step(&mut ops), 0);
    }

    #[test]
    fn state_var_counts() {
        assert_eq!(LifParams::state_vars_per_neuron(false), 4);
        assert_eq!(LifParams::state_vars_per_neuron(true), 5);
        let l = LifLayer::new(1, LifParams::excitatory(), Some(Default::default()));
        assert_eq!(l.state_vars(), 5);
    }
}
