//! The clock-driven simulation engine.
//!
//! [`run_sample`] presents one rate-coded sample to a network for the
//! configured presentation window (plus rest), invoking an optional
//! [`Plasticity`] rule each step. This is the single code path every method
//! in the reproduction goes through — baseline, ASP and SpikeDyn differ
//! only in the plasticity object and the network's inhibition wiring, so
//! energy comparisons are apples-to-apples. [`infer_sample`] runs the same
//! loop for inference: it reads a shared [`WeightMatrix`] and writes only a
//! per-sample [`NeuronState`].

use rand::Rng;
use serde::{Deserialize, Serialize};

pub use crate::config::PresentConfig;
use crate::encoding::PoissonEncoder;
use crate::network::{Dynamics, NeuronState, Snn};
use crate::ops::OpCounts;
use crate::stdp::TraceSet;
use crate::synapse::WeightMatrix;

/// Everything a learning rule may touch during one simulation step.
///
/// The simulator splits the network into disjoint mutable borrows so rules
/// can update weights and thresholds while reading spikes and traces.
#[derive(Debug)]
pub struct PlasticityCtx<'a> {
    /// Plastic input → excitatory weights.
    pub weights: &'a mut WeightMatrix,
    /// Synaptic traces (read-only; the engine maintains them).
    pub traces: &'a TraceSet,
    /// Excitatory spike flags of this step.
    pub exc_spiked: &'a [bool],
    /// Input channels that spiked this step.
    pub input_spikes: &'a [u32],
    /// Per-neuron adaptation potentials `θ` (mutable: SpikeDyn rescales).
    pub thetas: &'a mut [f32],
    /// Step index within the current sample (0-based).
    pub step: u32,
    /// Integration timestep in ms.
    pub dt_ms: f32,
    /// True during the presentation window, false during rest.
    pub in_presentation: bool,
    /// Operation counters.
    pub ops: &'a mut OpCounts,
}

/// A learning rule plugged into the engine.
///
/// Implementations: plain pair STDP (baseline), ASP, SpikeDyn's Alg. 2 —
/// see the `snn-baselines` and `spikedyn` crates.
pub trait Plasticity {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Called once before the first step of each sample.
    fn begin_sample(&mut self, n_exc: usize, n_input: usize);

    /// Called after every simulation step with fresh spike information.
    fn on_step(&mut self, ctx: &mut PlasticityCtx<'_>);

    /// Called after the last step of each sample (normalisation etc.).
    fn end_sample(&mut self, ctx: &mut PlasticityCtx<'_>);

    /// Serialises the rule's *persistent* (cross-sample) state for
    /// checkpointing. Per-sample scratch that `begin_sample` resets need
    /// not be included. Stateless rules return an empty buffer (the
    /// default).
    ///
    /// Each rule defines its own byte layout; the only contract is that
    /// [`Plasticity::import_state`] on a freshly built rule of the same
    /// configuration restores behaviour bit-exactly.
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Plasticity::export_state`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnnError::DimensionMismatch`] when the buffer does
    /// not match the rule's expected layout. The default implementation
    /// (for stateless rules) accepts only an empty buffer.
    fn import_state(&mut self, bytes: &[u8]) -> crate::SnnResult<()> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(crate::SnnError::DimensionMismatch {
                expected: 0,
                got: bytes.len(),
                what: "plasticity state buffer",
            })
        }
    }
}

/// Outcome of presenting one sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleResult {
    /// Spikes emitted by each excitatory neuron during the presentation
    /// window(s) of the accepted attempt.
    pub exc_spike_counts: Vec<u32>,
    /// Total input spikes delivered.
    pub input_spikes: u64,
    /// Number of boosted re-presentations that were needed (0 = first try).
    pub retries: u32,
    /// Total steps simulated including retries and rest.
    pub steps_run: u32,
}

impl SampleResult {
    /// Sum of excitatory spikes.
    pub fn total_exc_spikes(&self) -> u32 {
        self.exc_spike_counts.iter().sum()
    }

    /// Index of the most active excitatory neuron, `None` if silent.
    pub fn winner(&self) -> Option<usize> {
        let (idx, &max) = self
            .exc_spike_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if max == 0 {
            None
        } else {
            Some(idx)
        }
    }
}

/// The weights a presentation reads, and whether it may learn: inference
/// borrows them shared; training lends them, with the rule, to its hooks.
enum Weights<'a> {
    Read(&'a WeightMatrix),
    Learn(&'a mut WeightMatrix, &'a mut dyn Plasticity),
}

impl Weights<'_> {
    fn matrix(&self) -> &WeightMatrix {
        match self {
            Weights::Read(weights) => weights,
            Weights::Learn(weights, _) => weights,
        }
    }

    fn begin_sample(&mut self, n_exc: usize, n_input: usize) {
        if let Weights::Learn(_, rule) = self {
            rule.begin_sample(n_exc, n_input);
        }
    }

    /// Invokes the plasticity hook, if any, with disjoint borrows of the
    /// weights and the state. The argument list mirrors `PlasticityCtx`
    /// field by field; bundling them into a struct would just move the
    /// same list one call deeper.
    #[allow(clippy::too_many_arguments)]
    fn hook(
        &mut self,
        state: &mut Dynamics<'_>,
        input_spikes: &[u32],
        step: u32,
        dt_ms: f32,
        in_presentation: bool,
        end_of_sample: bool,
        ops: &mut OpCounts,
    ) {
        let Weights::Learn(weights, plasticity) = self else {
            return;
        };
        let (exc_spiked, thetas) = state.exc.spiked_and_thetas_mut();
        let mut ctx = PlasticityCtx {
            weights,
            traces: state.traces,
            exc_spiked,
            input_spikes,
            thetas,
            step,
            dt_ms,
            in_presentation,
            ops,
        };
        if end_of_sample {
            plasticity.end_sample(&mut ctx);
        } else {
            plasticity.on_step(&mut ctx);
        }
    }
}

/// Presents one rate-coded sample to the network.
///
/// `rates_hz` gives the Poisson rate of each input channel (see
/// [`PoissonEncoder::rates_hz`]). If a [`crate::config::RetryPolicy`] is
/// configured and the excitatory layer stays too quiet, rates are boosted
/// and the presentation repeats (Diehl & Cook protocol). The rest window
/// runs with zero input after the accepted presentation.
///
/// The network is settled (membranes, conductances, traces — not weights or
/// `θ`) before the first attempt and between retries.
///
/// # Panics
///
/// Panics if `rates_hz.len()` differs from the network input size.
pub fn run_sample<R: Rng + ?Sized>(
    net: &mut Snn,
    rates_hz: &[f32],
    cfg: &PresentConfig,
    plasticity: Option<&mut dyn Plasticity>,
    rng: &mut R,
    ops: &mut OpCounts,
) -> SampleResult {
    let (weights, state) = net.split();
    let weights = match plasticity {
        Some(rule) => Weights::Learn(weights, rule),
        None => Weights::Read(weights),
    };
    present(weights, state, rates_hz, cfg, rng, ops)
}

/// Presents one rate-coded sample for inference: the [`run_sample`] loop
/// without plasticity, reading `weights` and writing only `state`.
///
/// Results, op counts and the final `state` are bit-identical to
/// `run_sample` with no plasticity on a network holding `weights` and
/// `state`'s populations and traces. Because the weights are only read,
/// any number of states can share one matrix across threads.
///
/// # Panics
///
/// Panics if `state` was built for a network of another shape than
/// `weights`, or if `rates_hz.len()` differs from the input size.
pub fn infer_sample<R: Rng + ?Sized>(
    weights: &WeightMatrix,
    state: &mut NeuronState,
    rates_hz: &[f32],
    cfg: &PresentConfig,
    rng: &mut R,
    ops: &mut OpCounts,
) -> SampleResult {
    assert!(
        state.exc.len() == weights.n_post() && state.traces.x_pre().len() == weights.n_pre(),
        "neuron state must match the weight matrix's shape"
    );
    present(
        Weights::Read(weights),
        state.dynamics(),
        rates_hz,
        cfg,
        rng,
        ops,
    )
}

/// The presentation loop behind [`run_sample`] and [`infer_sample`].
fn present<R: Rng + ?Sized>(
    mut weights: Weights<'_>,
    mut state: Dynamics<'_>,
    rates_hz: &[f32],
    cfg: &PresentConfig,
    rng: &mut R,
    ops: &mut OpCounts,
) -> SampleResult {
    let n_input = weights.matrix().n_pre();
    let n_exc = state.exc.len();
    assert_eq!(
        rates_hz.len(),
        n_input,
        "rate vector must match network input size"
    );
    let present_steps = cfg.present_steps();
    let rest_steps = cfg.rest_steps();
    let max_retries = cfg.retry.map_or(0, |r| r.max_retries);
    let min_spikes = cfg.retry.map_or(0, |r| r.min_spikes);
    let boost = cfg.retry.map_or(1.0, |r| r.rate_scale);

    let mut boosted: Vec<f32> = rates_hz.to_vec();
    let mut attempt = 0u32;
    let mut steps_run = 0u32;
    let mut counts = vec![0u32; n_exc];
    let mut input_spikes_total = 0u64;
    let mut spike_buf: Vec<u32> = Vec::with_capacity(64);

    loop {
        state.settle();
        counts.fill(0);
        let mut attempt_input_spikes = 0u64;
        weights.begin_sample(n_exc, n_input);
        for step in 0..present_steps {
            PoissonEncoder::sample_step(&boosted, cfg.dt_ms, rng, &mut spike_buf, ops);
            state.deliver_input_spikes(weights.matrix(), &spike_buf, ops);
            if !spike_buf.is_empty() {
                // Batched equivalents: one weight-column gather/add kernel
                // and one pre-trace update kernel per step with input spikes.
                ops.kernel_launches += 2;
            }
            attempt_input_spikes += spike_buf.len() as u64;
            state.step(cfg.dt_ms, ops);
            for (j, &s) in state.exc.spiked().iter().enumerate() {
                if s {
                    counts[j] += 1;
                }
            }
            weights.hook(&mut state, &spike_buf, step, cfg.dt_ms, true, false, ops);
            steps_run += 1;
        }
        input_spikes_total += attempt_input_spikes;
        let total: u32 = counts.iter().sum();
        if total >= min_spikes || attempt >= max_retries {
            // Rest window: zero input, network settles dynamically.
            spike_buf.clear();
            for step in 0..rest_steps {
                state.step(cfg.dt_ms, ops);
                weights.hook(
                    &mut state,
                    &spike_buf,
                    present_steps + step,
                    cfg.dt_ms,
                    false,
                    false,
                    ops,
                );
                steps_run += 1;
            }
            weights.hook(
                &mut state,
                &spike_buf,
                present_steps + rest_steps,
                cfg.dt_ms,
                false,
                true,
                ops,
            );
            return SampleResult {
                exc_spike_counts: counts,
                input_spikes: input_spikes_total,
                retries: attempt,
                steps_run,
            };
        }
        attempt += 1;
        for r in &mut boosted {
            *r *= boost;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Inhibition, SnnConfig};
    use crate::neuron::{AdaptiveThreshold, LifLayer};
    use crate::rng::seeded_rng;
    use crate::stdp::TraceSet;

    fn tiny_net(seed: u64) -> Snn {
        let mut cfg = SnnConfig::direct_lateral(16, 4);
        cfg.norm_target = None;
        Snn::new(cfg, &mut seeded_rng(seed))
    }

    #[test]
    fn silent_input_yields_no_spikes() {
        let mut net = tiny_net(1);
        let mut ops = OpCounts::default();
        let res = run_sample(
            &mut net,
            &[0.0; 16],
            &PresentConfig::fast(),
            None,
            &mut seeded_rng(2),
            &mut ops,
        );
        assert_eq!(res.total_exc_spikes(), 0);
        assert_eq!(res.input_spikes, 0);
        assert_eq!(res.winner(), None);
    }

    #[test]
    fn strong_input_drives_spikes() {
        let mut net = tiny_net(3);
        // Make every weight strong so drive is guaranteed.
        for j in 0..4 {
            for k in 0..16 {
                net.weights.set(j, k, 0.8);
            }
        }
        let mut ops = OpCounts::default();
        let res = run_sample(
            &mut net,
            &[200.0; 16],
            &PresentConfig::fast(),
            None,
            &mut seeded_rng(4),
            &mut ops,
        );
        assert!(res.total_exc_spikes() > 0, "strong drive must cause spikes");
        assert!(res.winner().is_some());
        assert!(res.input_spikes > 0);
    }

    #[test]
    fn steps_run_matches_config_without_retry() {
        let mut net = tiny_net(5);
        let cfg = PresentConfig {
            retry: None,
            ..PresentConfig::fast()
        };
        let mut ops = OpCounts::default();
        let res = run_sample(
            &mut net,
            &[0.0; 16],
            &cfg,
            None,
            &mut seeded_rng(6),
            &mut ops,
        );
        assert_eq!(res.steps_run, cfg.total_steps());
        assert_eq!(res.retries, 0);
    }

    #[test]
    fn retry_policy_boosts_quiet_samples() {
        let mut net = tiny_net(7);
        // Weak weights + weak input: first attempt will be quiet.
        for j in 0..4 {
            for k in 0..16 {
                net.weights.set(j, k, 0.05);
            }
        }
        let cfg = PresentConfig {
            dt_ms: 1.0,
            t_present_ms: 50.0,
            t_rest_ms: 0.0,
            retry: Some(crate::config::RetryPolicy {
                min_spikes: 1,
                rate_scale: 4.0,
                max_retries: 3,
            }),
        };
        let mut ops = OpCounts::default();
        let res = run_sample(
            &mut net,
            &[5.0; 16],
            &cfg,
            None,
            &mut seeded_rng(8),
            &mut ops,
        );
        // Either it spiked eventually (retries > 0 likely) or gave up after
        // max_retries; both exercise the loop. With a 4× rate scale it
        // should fire.
        assert!(
            res.total_exc_spikes() >= 1 || res.retries == 3,
            "boosting should eventually elicit spikes"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut net = tiny_net(10);
            let mut ops = OpCounts::default();
            run_sample(
                &mut net,
                &[100.0; 16],
                &PresentConfig::fast(),
                None,
                &mut seeded_rng(11),
                &mut ops,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plasticity_hooks_fire() {
        #[derive(Default)]
        struct Probe {
            begun: u32,
            steps: u32,
            ended: u32,
            saw_presentation: bool,
            saw_rest: bool,
        }
        impl Plasticity for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn begin_sample(&mut self, _: usize, _: usize) {
                self.begun += 1;
            }
            fn on_step(&mut self, ctx: &mut PlasticityCtx<'_>) {
                self.steps += 1;
                if ctx.in_presentation {
                    self.saw_presentation = true;
                } else {
                    self.saw_rest = true;
                }
            }
            fn end_sample(&mut self, _: &mut PlasticityCtx<'_>) {
                self.ended += 1;
            }
        }
        let mut net = tiny_net(12);
        let mut probe = Probe::default();
        let cfg = PresentConfig {
            retry: None,
            ..PresentConfig::fast()
        };
        let mut ops = OpCounts::default();
        run_sample(
            &mut net,
            &[50.0; 16],
            &cfg,
            Some(&mut probe),
            &mut seeded_rng(13),
            &mut ops,
        );
        assert_eq!(probe.begun, 1);
        assert_eq!(probe.ended, 1);
        assert_eq!(probe.steps, cfg.total_steps());
        assert!(probe.saw_presentation);
        assert!(probe.saw_rest);
    }

    #[test]
    fn inhibitory_layer_network_runs() {
        let mut cfg = SnnConfig::with_inhibitory_layer(16, 4);
        cfg.norm_target = None;
        let mut net = Snn::new(cfg, &mut seeded_rng(20));
        for j in 0..4 {
            for k in 0..16 {
                net.weights.set(j, k, 0.8);
            }
        }
        let mut ops = OpCounts::default();
        let res = run_sample(
            &mut net,
            &[200.0; 16],
            &PresentConfig::fast(),
            None,
            &mut seeded_rng(21),
            &mut ops,
        );
        assert!(res.total_exc_spikes() > 0);
        // Inhibitory population must have been stepped: with 4 inh + 4 exc
        // neurons over N steps, neuron updates exceed the exc-only count.
        let cfg2 = PresentConfig::fast();
        assert!(ops.neuron_updates >= u64::from(cfg2.total_steps()) * 8);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Presents a quiet, a moderate and a loud sample through `run_sample`
    /// (no plasticity) and through `infer_sample` on a copy of the same
    /// state, with non-zero `θ` carried from sample to sample, asserting
    /// bit identity after each. Returns whether any sample spiked and
    /// whether any retried.
    fn compare_entry_points(cfg: SnnConfig, present: &PresentConfig, seed: u64) -> (bool, bool) {
        let label = format!("{:?} adapt={:?} {present:?}", cfg.inhibition, cfg.adapt);
        let mut reference = Snn::new(cfg, &mut seeded_rng(seed));
        for (j, theta) in reference.exc.thetas_mut().iter_mut().enumerate() {
            *theta = 0.5 * (j + 1) as f32;
        }
        let weights = reference.weights.clone();
        let mut state = NeuronState::new(&reference);
        let (mut spiked, mut retried) = (false, false);
        for (i, base_hz) in [5.0_f32, 60.0, 200.0].into_iter().enumerate() {
            let rates: Vec<f32> = (0..16)
                .map(|k| base_hz * ((k % 4) + 1) as f32 / 4.0)
                .collect();
            let seed = 100 + i as u64;
            let mut ops_ref = OpCounts::default();
            let expect = run_sample(
                &mut reference,
                &rates,
                present,
                None,
                &mut seeded_rng(seed),
                &mut ops_ref,
            );
            let mut ops = OpCounts::default();
            let got = infer_sample(
                &reference.weights,
                &mut state,
                &rates,
                present,
                &mut seeded_rng(seed),
                &mut ops,
            );
            assert_eq!(got, expect, "{label}");
            assert_eq!(ops, ops_ref, "{label}");
            let exc = |l: &LifLayer| (bits(l.thetas()), bits(l.voltages()));
            assert_eq!(exc(&state.exc), exc(&reference.exc), "{label}");
            assert_eq!(
                state.inh.as_ref().map(exc),
                reference.inh.as_ref().map(exc),
                "{label}"
            );
            let traces = |t: &TraceSet| (bits(t.x_pre()), bits(t.x_post()));
            assert_eq!(traces(&state.traces), traces(&reference.traces), "{label}");
            spiked |= expect.total_exc_spikes() > 0;
            retried |= expect.retries > 0;
        }
        assert_eq!(reference.weights, weights, "{label}: weights written");
        (spiked, retried)
    }

    #[test]
    fn infer_sample_matches_run_sample_bitwise() {
        let boosted = Some(crate::config::RetryPolicy {
            min_spikes: 4,
            rate_scale: 3.0,
            max_retries: 3,
        });
        let (mut configs, mut spiking, mut retrying) = (0, 0, 0);
        for inhibition in [
            Inhibition::direct_lateral(),
            Inhibition::inhibitory_layer(),
            Inhibition::None,
        ] {
            for adapt in [Some(AdaptiveThreshold::default()), None] {
                for retry in [None, boosted] {
                    for t_rest_ms in [0.0, 20.0] {
                        let cfg = SnnConfig {
                            inhibition,
                            adapt,
                            w_init_max: 1.0,
                            norm_target: None,
                            ..SnnConfig::direct_lateral(16, 5)
                        };
                        let present = PresentConfig {
                            dt_ms: 1.0,
                            t_present_ms: 50.0,
                            t_rest_ms,
                            retry,
                        };
                        let (spiked, retried) = compare_entry_points(cfg, &present, configs);
                        configs += 1;
                        spiking += u32::from(spiked);
                        retrying += u32::from(retried);
                    }
                }
            }
        }
        assert_eq!(configs, 24);
        assert!(spiking > 0, "no config spiked");
        assert!(retrying > 0, "no config retried");
    }

    #[test]
    #[should_panic(expected = "neuron state must match")]
    fn infer_sample_rejects_state_of_another_shape() {
        let net = tiny_net(32);
        let other = Snn::new(SnnConfig::direct_lateral(16, 5), &mut seeded_rng(33));
        let mut state = NeuronState::new(&other);
        let _ = infer_sample(
            &net.weights,
            &mut state,
            &[0.0; 16],
            &PresentConfig::fast(),
            &mut seeded_rng(34),
            &mut OpCounts::default(),
        );
    }

    #[test]
    #[should_panic(expected = "rate vector")]
    fn wrong_rate_length_panics() {
        let mut net = tiny_net(30);
        let mut ops = OpCounts::default();
        let _ = run_sample(
            &mut net,
            &[0.0; 3],
            &PresentConfig::fast(),
            None,
            &mut seeded_rng(31),
            &mut ops,
        );
    }
}
