//! Golden digests of absolute outputs.
//!
//! Every other bit-exactness test is relative: served against in-process,
//! batch against sequential, `infer_sample` against `run_sample`. A kernel
//! change that moved every path the same way would pass all of them. These
//! tests pin FNV-1a-64 digests of what the code actually computes:
//!
//! * SpikeDyn `OnlineLearner` checkpoints at N100 and N400 after a short
//!   synthetic stream (`OnlineConfig::fast`, 150× compression), which
//!   cover training, prequential inference and the assignment refit;
//! * Baseline and ASP trainer weights and `θ` after a few training
//!   samples, which cover the explicit inhibitory layer and both rules;
//! * `Engine::infer_batch_metered` spike counts and op counts for a fixed
//!   batch, on a fresh engine and on one built from a trained trainer.
//!
//! A change that is meant to move any of these outputs must re-pin the
//! digest and say which outputs moved and why.

use snn_core::config::PresentConfig;
use snn_core::network::SnnConfig;
use snn_data::{Image, SyntheticDigits};
use snn_online::codec::fnv1a;
use snn_online::{OnlineConfig, OnlineLearner};
use snn_runtime::{BatchOutcome, Engine, EngineConfig};
use spikedyn::{Method, Trainer};

/// A fixed 14×14 stream cycling through the ten classes.
fn stream(seed: u64, n: u64) -> Vec<Image> {
    let gen = SyntheticDigits::new(seed);
    (0..n)
        .map(|i| gen.sample((i % 10) as u8, i).downsample(2))
        .collect()
}

fn f32_bytes(xs: &[f32]) -> impl Iterator<Item = u8> + '_ {
    xs.iter().flat_map(|x| x.to_bits().to_le_bytes())
}

/// Digest of a batch's per-sample results and its aggregate op counts.
fn outcome_digest(outcome: &BatchOutcome) -> u64 {
    let mut bytes = Vec::new();
    for result in &outcome.results {
        for &count in &result.exc_spike_counts {
            bytes.extend(count.to_le_bytes());
        }
        bytes.extend(result.input_spikes.to_le_bytes());
        bytes.extend(result.retries.to_le_bytes());
        bytes.extend(result.steps_run.to_le_bytes());
    }
    bytes.extend(format!("{:?}", outcome.ops).bytes());
    fnv1a(&bytes)
}

#[test]
fn spikedyn_learner_checkpoints_match_their_golden_digests() {
    for (n_exc, samples, expect) in [
        (100, 48, 0xedac_9f6e_32c1_3607),
        (400, 24, 0xeb6f_37f7_c833_44fb),
    ] {
        let mut learner = OnlineLearner::new(OnlineConfig::fast(Method::SpikeDyn, n_exc));
        for batch in stream(11, samples).chunks(8) {
            learner.step(batch).unwrap();
        }
        let digest = fnv1a(&learner.checkpoint().to_bytes());
        assert_eq!(
            digest, expect,
            "N{n_exc} checkpoint changed: {digest:#018x}"
        );
    }
}

#[test]
fn baseline_and_asp_weights_match_their_golden_digests() {
    for (method, expect) in [
        (Method::Baseline, 0xaf5f_ee6d_cf60_4fc9),
        (Method::Asp, 0x23ce_079e_5ca5_00ac),
    ] {
        let mut trainer =
            Trainer::with_compression(method, 196, 40, PresentConfig::fast(), 150.0, 5)
                .with_max_rate(255.0);
        trainer.train_on(&stream(12, 6));
        let state = trainer.snapshot_state();
        let bytes: Vec<u8> = f32_bytes(&state.weights)
            .chain(f32_bytes(&state.thetas))
            .collect();
        let digest = fnv1a(&bytes);
        assert_eq!(digest, expect, "{method:?} weights changed: {digest:#018x}");
    }
}

#[test]
fn engine_spike_counts_match_their_golden_digests() {
    let images = stream(13, 12);
    let fresh = Engine::new(
        EngineConfig::new(SnnConfig::direct_lateral(196, 100), 7)
            .with_present(PresentConfig {
                t_rest_ms: 0.0,
                ..PresentConfig::fast()
            })
            .with_max_rate(255.0),
    );
    let outcome = fresh.infer_batch_metered(&images, 3);
    assert!(
        outcome.total_exc_spikes() > 0,
        "the fresh engine must spike"
    );
    let digest = outcome_digest(&outcome);
    assert_eq!(
        digest, 0xceba_9ca9_c471_bb39,
        "fresh engine outputs changed: {digest:#018x}"
    );

    let mut trainer =
        Trainer::with_compression(Method::Asp, 196, 40, PresentConfig::fast(), 150.0, 8)
            .with_max_rate(255.0);
    trainer.train_on(&stream(14, 6));
    let outcome = trainer.engine().infer_batch_metered(&images, 4);
    assert!(
        outcome.total_exc_spikes() > 0,
        "the trained engine must spike"
    );
    let digest = outcome_digest(&outcome);
    assert_eq!(
        digest, 0x3a0b_d77b_4ea0_e435,
        "trained engine outputs changed: {digest:#018x}"
    );
}
