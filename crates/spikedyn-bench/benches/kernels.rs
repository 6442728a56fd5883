//! Criterion micro-benchmarks of the simulator kernels and of one full
//! training sample per method — the performance counterpart of the
//! experiment binaries (which measure *modelled* GPU cost, not host
//! wall-clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snn_core::config::PresentConfig;
use snn_core::encoding::PoissonEncoder;
use snn_core::neuron::{AdaptiveThreshold, LifLayer, LifParams};
use snn_core::ops::OpCounts;
use snn_core::rng::seeded_rng;
use snn_core::sim::run_sample;
use snn_core::stdp::{PairStdp, TraceParams, TraceSet};
use snn_core::synapse::WeightMatrix;
use snn_data::{Image, Scenario, SyntheticDigits};
use spikedyn::{Method, Trainer};
use std::hint::black_box;

fn bench_lif_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lif_step");
    for n in [100usize, 400] {
        let mut layer = LifLayer::new(
            n,
            LifParams::excitatory(),
            Some(AdaptiveThreshold::default()),
        );
        let mut ops = OpCounts::default();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(layer.step(0.5, &mut ops)))
        });
    }
    group.finish();
}

fn bench_poisson_encode(c: &mut Criterion) {
    let encoder = PoissonEncoder::default();
    let intensities = vec![0.3f32; 784];
    let rates = encoder.rates_hz(&intensities);
    let mut rng = seeded_rng(1);
    let mut out = Vec::new();
    let mut ops = OpCounts::default();
    c.bench_function("poisson_encode_784", |b| {
        b.iter(|| {
            PoissonEncoder::sample_step(&rates, 0.5, &mut rng, &mut out, &mut ops);
            black_box(out.len())
        })
    });
}

fn bench_stdp_updates(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let mut weights = WeightMatrix::random_uniform(400, 784, 0.3, 1.0, &mut rng);
    let mut traces = TraceSet::new(784, 400, TraceParams::default());
    let mut ops = OpCounts::default();
    traces.on_pre_spike(10, &mut ops);
    traces.on_post_spike(5, &mut ops);
    let rule = PairStdp::default();
    c.bench_function("stdp_post_spike_784in", |b| {
        b.iter(|| rule.apply_post_spike(&mut weights, &traces, black_box(5), &mut ops))
    });
    c.bench_function("stdp_pre_spike_400out", |b| {
        b.iter(|| rule.apply_pre_spike(&mut weights, &traces, black_box(10), &mut ops))
    });
}

fn bench_weight_decay(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    let mut weights = WeightMatrix::random_uniform(400, 784, 0.3, 1.0, &mut rng);
    let mut ops = OpCounts::default();
    c.bench_function("weight_decay_313k", |b| {
        b.iter(|| weights.decay_all(black_box(0.9999), &mut ops))
    });
}

fn bench_train_sample_per_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_sample");
    group.sample_size(10);
    let gen = SyntheticDigits::new(4);
    let img = gen.sample(3, 0).downsample(2);
    for method in Method::all() {
        group.bench_function(method.label(), |b| {
            let mut trainer =
                Trainer::with_compression(method, 196, 100, PresentConfig::fast(), 150.0, 4)
                    .with_max_rate(255.0);
            b.iter(|| black_box(trainer.train_image(&img).total_exc_spikes()))
        });
    }
    group.finish();
}

fn bench_full_network_step(c: &mut Criterion) {
    use snn_core::network::{Snn, SnnConfig};
    let mut group = c.benchmark_group("network_step");
    for (name, cfg) in [
        (
            "inhibitory_layer_400",
            SnnConfig::with_inhibitory_layer(784, 400),
        ),
        ("direct_lateral_400", SnnConfig::direct_lateral(784, 400)),
    ] {
        let mut net = Snn::new(cfg, &mut seeded_rng(5));
        let mut ops = OpCounts::default();
        group.bench_function(name, |b| {
            b.iter(|| {
                net.deliver_input_spike(black_box(17), &mut ops);
                black_box(net.step(0.5, &mut ops))
            })
        });
    }
    group.finish();
}

/// The MNIST stand-in's generator: one 28×28 digit, and one session
/// stream shaped like perfbench's `serve-closed` sessions (1000 scenario
/// samples, downsampled to 14×14).
fn bench_data(c: &mut Criterion) {
    let gen = SyntheticDigits::new(6);
    let mut group = c.benchmark_group("data");
    let mut i = 0u64;
    group.bench_function("synthetic_digit_28x28", |b| {
        b.iter(|| {
            i += 1;
            black_box(gen.sample((i % 10) as u8, i))
        })
    });
    let classes: Vec<u8> = (0..10).collect();
    group.sample_size(10);
    group.bench_function("scenario_stream_1000_downsample2", |b| {
        b.iter(|| {
            let stream: Vec<Image> = Scenario::RecurringTasks
                .stream(&gen, &classes, 1000, 7, 0)
                .into_iter()
                .map(|img| img.downsample(2))
                .collect();
            black_box(stream)
        })
    });
    group.finish();
}

/// Scalar `run_sample` loop vs `Engine::infer_batch` at batch sizes
/// 1/8/64 — the speedup the `snn-runtime` subsystem exists to deliver.
/// Both sides run the identical per-sample work (same seeds, same
/// presentation loop and sparse kernel); the batched side adds rayon
/// fan-out over one shared weight matrix and pooled per-sample neuron
/// state.
fn bench_scalar_vs_engine_batch(c: &mut Criterion) {
    use snn_core::network::SnnConfig;
    use snn_runtime::{Engine, EngineConfig};

    let gen = SyntheticDigits::new(12);
    let images: Vec<Image> = (0..64)
        .map(|i| gen.sample((i % 10) as u8, i).downsample(2))
        .collect();
    let present = PresentConfig {
        t_rest_ms: 0.0,
        retry: None,
        ..PresentConfig::fast()
    };
    let engine = Engine::new(
        EngineConfig::new(SnnConfig::direct_lateral(196, 100), 12)
            .with_present(present)
            .with_max_rate(255.0),
    );
    let mut group = c.benchmark_group("infer_throughput");
    group.sample_size(10);
    for &batch_size in &[1usize, 8, 64] {
        let samples = &images[..batch_size];
        group.bench_with_input(
            BenchmarkId::new("scalar_run_sample", batch_size),
            &batch_size,
            |b, _| {
                // The seed's original path: one network, one sample at a
                // time through the scalar simulation loop. θ is restored
                // before every sample exactly as `Trainer::infer_image`
                // (and the engine) do, so both sides run identical
                // per-sample dynamics.
                let mut net = engine.network().clone();
                let thetas: Vec<f32> = net.exc.thetas().to_vec();
                let mut ops = OpCounts::default();
                b.iter(|| {
                    let mut spikes = 0u64;
                    for (i, img) in samples.iter().enumerate() {
                        net.exc.thetas_mut().copy_from_slice(&thetas);
                        let rates = PoissonEncoder::new(255.0).rates_hz(img.pixels());
                        let mut rng = seeded_rng(snn_core::rng::derive_seed(7, i as u64));
                        let r = run_sample(
                            &mut net,
                            &rates,
                            engine.present(),
                            None,
                            &mut rng,
                            &mut ops,
                        );
                        spikes += u64::from(r.total_exc_spikes());
                    }
                    black_box(spikes)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine_infer_batch", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    let mut spikes = 0u64;
                    for batch in snn_data::batches(samples, batch_size) {
                        spikes += engine
                            .infer_batch(batch, 7)
                            .iter()
                            .map(|r| u64::from(r.total_exc_spikes()))
                            .sum::<u64>();
                    }
                    black_box(spikes)
                })
            },
        );
    }
    group.finish();
}

fn bench_inference_sample(c: &mut Criterion) {
    let gen = SyntheticDigits::new(7);
    let img = gen.sample(5, 0).downsample(2);
    let encoder = PoissonEncoder::new(255.0);
    let rates = encoder.rates_hz(img.pixels());
    let mut net = snn_core::network::Snn::new(
        snn_core::network::SnnConfig::direct_lateral(196, 100),
        &mut seeded_rng(8),
    );
    let cfg = PresentConfig {
        t_rest_ms: 0.0,
        retry: None,
        ..PresentConfig::fast()
    };
    let mut rng = seeded_rng(9);
    let mut ops = OpCounts::default();
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    group.bench_function("spikedyn_arch_100n_sample", |b| {
        b.iter(|| {
            black_box(
                run_sample(&mut net, &rates, &cfg, None, &mut rng, &mut ops).total_exc_spikes(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lif_step,
    bench_poisson_encode,
    bench_stdp_updates,
    bench_weight_decay,
    bench_train_sample_per_method,
    bench_full_network_step,
    bench_data,
    bench_scalar_vs_engine_batch,
    bench_inference_sample,
);
criterion_main!(benches);
