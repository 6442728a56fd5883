//! The layered ladder: one learner stepped over a stream, with every rung
//! below `OnlineLearner::step` re-run on an exact copy of the state the
//! step starts from, so each rung's time is measured on the identical
//! inputs and seeds the step itself uses.
//!
//! Rungs, bottom up: the kernel (`snn_core::sim::run_sample` under the
//! inference protocol), the engine (`Engine::infer_batch`), the trainer
//! (`Trainer::train_image`, `Trainer::fit_assignment_with`), the
//! checkpoint codec (`ModelSnapshot::to_bytes`) and the learner
//! (`OnlineLearner::step`).

use std::time::Instant;

use snn_core::config::PresentConfig;
use snn_core::encoding::PoissonEncoder;
use snn_core::ops::OpCounts;
use snn_core::rng::{derive_seed, seeded_rng};
use snn_core::sim::run_sample;
use snn_data::Image;
use snn_online::{OnlineConfig, OnlineLearner};
use spikedyn::Trainer;

use crate::stats::{median, self_time};

/// Per-call rung timings (µs) and the checks the ladder made.
#[derive(Debug, Default)]
pub struct Ladder {
    /// One per sample.
    pub run_sample_us: Vec<f64>,
    /// One per batch.
    pub infer_batch_us: Vec<f64>,
    /// One per sample.
    pub train_image_us: Vec<f64>,
    /// One per assignment refit.
    pub fit_us: Vec<f64>,
    /// One per step.
    pub step_us: Vec<f64>,
    /// One per batch boundary.
    pub encode_us: Vec<f64>,
    /// Samples stepped under the ladder (the warm-up batch excluded).
    pub samples: u64,
    /// Samples per batch.
    pub batch_len: usize,
    /// Equality checks made (kernel vs engine spike counts, refit rung vs
    /// the learner's own assignment).
    pub checks: u64,
    /// Checks that failed.
    pub mismatches: u64,
    /// The learner's replica-pool hit rate at the end.
    pub pool_hit_rate: f64,
    /// The learner's final checkpoint.
    pub final_bytes: Vec<u8>,
}

impl Ladder {
    /// Pools another ladder episode's per-call timings into this one.
    pub fn absorb(&mut self, other: Ladder) {
        self.run_sample_us.extend(other.run_sample_us);
        self.infer_batch_us.extend(other.infer_batch_us);
        self.train_image_us.extend(other.train_image_us);
        self.fit_us.extend(other.fit_us);
        self.step_us.extend(other.step_us);
        self.encode_us.extend(other.encode_us);
        let weight = self.samples as f64 / (self.samples + other.samples).max(1) as f64;
        self.pool_hit_rate = weight * self.pool_hit_rate + (1.0 - weight) * other.pool_hit_rate;
        self.samples += other.samples;
    }

    /// Median µs per `step`.
    pub fn step_median(&self) -> f64 {
        median(&self.step_us)
    }

    /// Step time per sample not spent in the infer, train and refit rungs.
    pub fn self_us_per_sample(&self) -> f64 {
        let children = [
            self.infer_batch_us.iter().sum::<f64>(),
            self.train_image_us.iter().sum::<f64>(),
            self.fit_us.iter().sum::<f64>(),
        ];
        self_time(self.step_us.iter().sum(), &children) / self.samples.max(1) as f64
    }

    /// Each rung's share of total step time: infer, train, refit, self.
    pub fn shares(&self) -> [(&'static str, f64); 4] {
        let step: f64 = self.step_us.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let infer = self.infer_batch_us.iter().sum::<f64>() / step;
        let train = self.train_image_us.iter().sum::<f64>() / step;
        let refit = self.fit_us.iter().sum::<f64>() / step;
        [
            ("infer", infer),
            ("train", train),
            ("refit", refit),
            ("self", 1.0 - infer - train - refit),
        ]
    }

    /// Batch-parallel speed-up of the engine over the scalar kernel.
    pub fn batch_speedup(&self) -> f64 {
        let batch = median(&self.infer_batch_us);
        if batch <= 0.0 {
            return 0.0;
        }
        self.batch_len as f64 * median(&self.run_sample_us) / batch
    }

    /// Adds the ladder's per-layer readings to `values`.
    pub fn report(&self, values: &mut crate::metrics::Values) {
        values.insert("snn-core.run_sample_us", median(&self.run_sample_us));
        values.insert("snn-runtime.infer_batch_us", median(&self.infer_batch_us));
        values.insert("snn-runtime.batch_speedup", self.batch_speedup());
        values.insert("snn-runtime.pool_hit_rate", self.pool_hit_rate);
        values.insert("spikedyn.train_image_us", median(&self.train_image_us));
        values.insert("spikedyn.fit_assignment_us", median(&self.fit_us));
        values.insert("snn-online.step_us", self.step_median());
        values.insert("snn-online.self_us_per_sample", self.self_us_per_sample());
    }

    /// Human-readable rung table.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "ladder: {} samples in batches of {}; run_sample {:.0} us/sample, infer_batch {:.0} us/batch (speed-up {:.2}), train_image {:.0} us/sample, fit_assignment {:.0} us x{}, step {:.0} us, to_bytes {:.0} us",
            self.samples,
            self.batch_len,
            median(&self.run_sample_us),
            median(&self.infer_batch_us),
            self.batch_speedup(),
            median(&self.train_image_us),
            median(&self.fit_us),
            self.fit_us.len(),
            self.step_median(),
            median(&self.encode_us),
        )];
        let shares: Vec<String> = self
            .shares()
            .iter()
            .map(|(rung, share)| format!("{rung} {:.1}%", share * 100.0))
            .collect();
        lines.push(format!("ladder: share of step time: {}", shares.join(", ")));
        lines
    }
}

/// Steps a fresh learner built from `config` over `batches` (the first
/// batch is the untimed warm-up), timing every rung at each batch.
pub fn run(config: &OnlineConfig, batches: &[&[Image]]) -> Result<Ladder, String> {
    let mut learner = OnlineLearner::new(config.clone());
    let (warm_up, timed) = batches.split_first().ok_or("empty stream")?;
    learner.step(warm_up).map_err(|e| e.to_string())?;
    let mut ladder = Ladder {
        batch_len: warm_up.len(),
        ..Ladder::default()
    };
    let mut engine = None;
    for batch in timed {
        let snap = learner.checkpoint();
        let t = Instant::now();
        let bytes = snap.to_bytes();
        ladder.encode_us.push(us(t));
        std::hint::black_box(bytes);

        // Engine rung: the batch seed the step's prequential inference
        // will draw, on a long-lived hot-swapped engine like the learner's.
        let state = &snap.trainer;
        let seed = derive_seed(state.infer_master, state.infer_calls);
        let engine = match &mut engine {
            Some(engine) => engine,
            None => engine.insert(
                Trainer::restore(state.clone())
                    .map_err(|e| e.to_string())?
                    .engine(),
            ),
        };
        engine
            .hot_swap(&state.weights, &state.thetas)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let batched = engine.infer_batch(batch, seed);
        ladder.infer_batch_us.push(us(t));

        // Kernel rung: the same samples, seeds and inference protocol, one
        // at a time on one replica.
        let mut replica = Trainer::restore(state.clone())
            .map_err(|e| e.to_string())?
            .net;
        let scaled: Vec<f32> = state
            .thetas
            .iter()
            .map(|t| t * state.method.infer_theta_scale())
            .collect();
        let present = PresentConfig {
            t_rest_ms: 0.0,
            ..state.present
        };
        let encoder = PoissonEncoder::new(state.max_rate_hz);
        for (i, (img, expect)) in batch.iter().zip(&batched).enumerate() {
            replica.exc.thetas_mut().copy_from_slice(&scaled);
            let mut ops = OpCounts::default();
            let t = Instant::now();
            let rates = encoder.rates_hz(img.pixels());
            let result = run_sample(
                &mut replica,
                &rates,
                &present,
                None,
                &mut seeded_rng(derive_seed(seed, i as u64)),
                &mut ops,
            );
            ladder.run_sample_us.push(us(t));
            ladder.checks += 1;
            if result.exc_spike_counts != expect.exc_spike_counts {
                ladder.mismatches += 1;
            }
        }

        // Trainer rungs on a copy restored from the same state; its batch
        // seed cursor skips the prequential call the step makes first.
        let mut copy = state.clone();
        copy.infer_calls += 1;
        let mut trainer = Trainer::restore(copy).map_err(|e| e.to_string())?;
        for img in batch.iter() {
            let t = Instant::now();
            trainer.train_image(img);
            ladder.train_image_us.push(us(t));
        }
        let after = snap.samples_seen + batch.len() as u64;
        let refit = after >= snap.last_assign_at + config.assign_every;
        let mut fitted = None;
        if refit {
            let mut reservoir = snap.reservoir.clone();
            reservoir.extend(batch.iter().cloned());
            let keep = reservoir.len().saturating_sub(config.reservoir_capacity);
            let t = Instant::now();
            let assignment = trainer
                .fit_assignment_with(engine, &reservoir[keep..], config.n_classes)
                .map_err(|e| e.to_string())?;
            ladder.fit_us.push(us(t));
            fitted = Some(assignment);
        }

        let t = Instant::now();
        learner.step(batch).map_err(|e| e.to_string())?;
        ladder.step_us.push(us(t));
        ladder.samples += batch.len() as u64;
        if let Some(assignment) = fitted {
            ladder.checks += 1;
            if learner.assignment() != Some(&assignment) {
                ladder.mismatches += 1;
            }
        }
    }
    ladder.pool_hit_rate = learner.pool_stats().hit_rate();
    ladder.final_bytes = learner.checkpoint().to_bytes();
    Ok(ladder)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
