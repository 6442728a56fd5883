//! `learn-n400`: the paper's N400 network as one in-process
//! `OnlineLearner`, stepped in 8-sample batches over seeded
//! recurring-tasks streams. No scheduler, wire or router is on the path,
//! so kernel, plasticity and engine changes show here and serving-tier
//! changes must read as no change.
//!
//! A run cycles through [`STREAMS`] fixed episodes (fresh learner, untimed
//! warm-up step, timed steps), each on its own stream of the seed, until
//! every episode has run at least twice and `--seconds` of timed stepping
//! have accumulated. Repeats of an episode must end at byte-identical
//! checkpoints; timings are medians over all episodes; quality and energy
//! are means over the distinct streams, so they depend on the seed alone.

use std::time::{Duration, Instant};

use neuro_energy::GpuSpec;
use snn_core::ops::OpCounts;
use snn_core::rng::derive_seed;
use snn_data::{Image, Scenario, SyntheticDigits};
use snn_online::{ModelSnapshot, OnlineConfig, OnlineLearner};
use spikedyn::Method;

use crate::ladder::{self, Ladder};
use crate::metrics::{Values, PER_LAYER};
use crate::stats::{median, percentile, supported_tail};
use crate::{host, Args, Outcome};

/// Excitatory neurons: the paper's N400 network.
const N_EXC: usize = 400;

/// Samples per episode, warm-up batch included.
const EPISODE: u64 = 256;

/// Distinct streams (and learner seeds) a run cycles through.
const STREAMS: usize = 4;

/// Classes the recurring tasks cycle over. Four keep prequential accuracy
/// well above chance within one episode, so it resolves changes.
const CLASSES: u8 = 4;

fn config(seed: u64, stream: usize) -> OnlineConfig {
    let mut config = OnlineConfig::fast(Method::SpikeDyn, N_EXC);
    config.seed = derive_seed(seed, 10 + stream as u64);
    config
}

fn batches(seed: u64, stream: usize) -> Vec<Vec<Image>> {
    let gen = SyntheticDigits::new(derive_seed(seed, 20 + stream as u64));
    let classes: Vec<u8> = (0..CLASSES).collect();
    let images: Vec<Image> = Scenario::RecurringTasks
        .stream(
            &gen,
            &classes,
            EPISODE,
            derive_seed(seed, 30 + stream as u64),
            0,
        )
        .into_iter()
        .map(|img| img.downsample(2))
        .collect();
    let batch = config(seed, stream).batch_size;
    images.chunks(batch).map(<[Image]>::to_vec).collect()
}

/// What one untraced episode measured.
struct Episode {
    stream: usize,
    setup: Duration,
    /// Wall time of every timed step, in ms.
    step_ms: Vec<f64>,
    timed_samples: u64,
    timed_wall: Duration,
    cpu_s: f64,
    busy_us: u64,
    correct: u64,
    final_bytes: Vec<u8>,
    samples: u64,
    train_ops: OpCounts,
    infer_ops: OpCounts,
    drift_events: usize,
}

fn episode(seed: u64, stream: usize) -> Result<Episode, String> {
    let t0 = Instant::now();
    let batches = batches(seed, stream);
    let mut learner = OnlineLearner::new(config(seed, stream));
    let (warm_up, timed) = batches.split_first().ok_or("empty stream")?;
    let out = learner.step(warm_up).map_err(|e| e.to_string())?;
    let mut correct = count_correct(warm_up, &out.predictions);
    let setup = t0.elapsed();

    let cpu0 = host::cpu_seconds()?;
    let busy0 = learner.engine_stats().busy_us;
    let start = Instant::now();
    let mut step_ms = Vec::with_capacity(timed.len());
    let mut timed_samples = 0;
    for batch in timed {
        let t = Instant::now();
        let out = learner.step(batch).map_err(|e| e.to_string())?;
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        timed_samples += batch.len() as u64;
        correct += count_correct(batch, &out.predictions);
    }
    let timed_wall = start.elapsed();
    let trainer = learner.trainer();
    Ok(Episode {
        stream,
        setup,
        step_ms,
        timed_samples,
        timed_wall,
        cpu_s: host::cpu_seconds()? - cpu0,
        busy_us: learner.engine_stats().busy_us - busy0,
        correct,
        final_bytes: learner.checkpoint().to_bytes(),
        samples: learner.samples_seen(),
        train_ops: trainer.train_ops,
        infer_ops: trainer.infer_ops,
        drift_events: learner.drift_events().len(),
    })
}

/// Correct prequential predictions among one step's replies.
pub fn count_correct(batch: &[Image], predictions: &[Option<u8>]) -> u64 {
    batch
        .iter()
        .zip(predictions)
        .filter(|(img, p)| **p == Some(img.label))
        .count() as u64
}

/// Episodes until each stream has run twice and `seconds` of timed
/// stepping have accumulated.
fn episodes(seed: u64, seconds: f64) -> Result<Vec<Episode>, String> {
    let mut out: Vec<Episode> = Vec::new();
    let mut timed = 0.0;
    while out.len() < 2 * STREAMS || timed < seconds {
        let ep = episode(seed, out.len() % STREAMS)?;
        timed += ep.timed_wall.as_secs_f64();
        out.push(ep);
    }
    Ok(out)
}

/// Runs the workload; the traced run adds the rung ladder.
pub fn run(args: &Args, nproc: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The traced run first repeats the untraced one: its rates are the
    // tracing-overhead baseline and its checkpoints the ladder's reference.
    let eps = episodes(args.seed, args.seconds)?;
    let firsts = &eps[..STREAMS];

    // Correctness gate: repeated work must end at identical state, and
    // the state must survive the checkpoint codec and a resume.
    for ep in &eps[STREAMS..] {
        out.check(
            ep.final_bytes == eps[ep.stream].final_bytes,
            "repeated episodes end at different checkpoints",
        );
    }
    for ep in firsts {
        let resumed = ModelSnapshot::from_bytes(&ep.final_bytes)
            .map_err(|e| e.to_string())
            .and_then(|snap| OnlineLearner::resume(snap).map_err(|e| e.to_string()));
        out.check(
            resumed.is_ok_and(|l| l.checkpoint().to_bytes() == ep.final_bytes),
            "checkpoint does not round-trip through to_bytes -> from_bytes -> resume",
        );
    }
    out.attempted += eps
        .iter()
        .map(|ep| ep.step_ms.len() as u64 + 1)
        .sum::<u64>();

    let step_ms: Vec<f64> = eps
        .iter()
        .flat_map(|ep| ep.step_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = eps.iter().map(|ep| ep.setup.as_secs_f64()).collect();
    let rates: Vec<f64> = eps
        .iter()
        .map(|ep| ep.timed_samples as f64 / ep.timed_wall.as_secs_f64())
        .collect();
    let sps = median(&rates);
    let p50 = percentile(&step_ms, 0.5).ok_or("too few steps for a median")?;
    let p99 = supported_tail(&step_ms, 0.99).ok_or("too few steps for a tail percentile")?;
    let gpu = GpuSpec::gtx_1080_ti();
    let samples: u64 = firsts.iter().map(|ep| ep.samples).sum();
    let train_j: f64 = firsts.iter().map(|ep| gpu.energy_j(&ep.train_ops)).sum();
    let infer_j: f64 = firsts.iter().map(|ep| gpu.energy_j(&ep.infer_ops)).sum();
    let correct: u64 = firsts.iter().map(|ep| ep.correct).sum();
    let e = &mut out.e2e;
    e.insert("setup_s", median(&setups));
    e.insert("samples_per_s", sps);
    e.insert("ingest_p50_ms", p50.value);
    e.insert("ingest_p99_ms", p99.value);
    e.insert("train_mj_per_sample", train_j * 1e3 / samples as f64);
    e.insert("infer_mj_per_sample", infer_j * 1e3 / samples as f64);
    e.insert("preq_accuracy", correct as f64 / samples as f64);
    e.insert("peak_rss_mb", host::peak_rss_mb()?);
    let (slowest, fastest) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    out.notes.push(format!(
        "{} episodes over {STREAMS} streams of {EPISODE} samples ({slowest:.1} to {fastest:.1} samples/s); ingest_p99_ms is p{:.2} of {} steps ({} beyond)",
        eps.len(),
        p99.q * 100.0,
        p99.n,
        p99.beyond
    ));

    if args.trace {
        let ladder = ladder_episodes(args.seed, firsts, &mut out)?;
        out.notes.extend(ladder.describe());
        let l = &mut out.layer;
        ladder.report(l);
        l.insert("snn-online.checkpoint_encode_us", median(&ladder.encode_us));
        let mut ops = OpCounts::default();
        for ep in firsts {
            ops.accumulate(&ep.train_ops);
            ops.accumulate(&ep.infer_ops);
        }
        let drifts: usize = firsts.iter().map(|ep| ep.drift_events).sum();
        let bytes: usize = firsts.iter().map(|ep| ep.final_bytes.len()).sum();
        op_counts(l, &ops, samples, drifts, bytes as f64 / STREAMS as f64);
        let busy: u64 = eps.iter().map(|ep| ep.busy_us).sum();
        let wall: f64 = eps.iter().map(|ep| ep.timed_wall.as_secs_f64()).sum();
        let cpu: f64 = eps.iter().map(|ep| ep.cpu_s).sum();
        l.insert(
            "snn-runtime.infer_busy_share",
            busy as f64 / 1e6 / (wall * nproc as f64),
        );
        l.insert("host.cpu_busy_share", cpu / (wall * nproc as f64));
        let traced_sps = ladder.samples as f64 / (ladder.step_us.iter().sum::<f64>() / 1e6);
        l.insert("loadgen.trace_overhead", traced_sps / sps - 1.0);
        for name in PER_LAYER.iter().map(|m| m.name) {
            l.entry(name).or_insert(0.0);
        }
    }
    Ok(out)
}

/// One ladder episode per stream, each checked against the untraced
/// episode on the same stream; their per-call timings pooled.
fn ladder_episodes(seed: u64, firsts: &[Episode], out: &mut Outcome) -> Result<Ladder, String> {
    let mut pooled: Option<Ladder> = None;
    for ep in firsts {
        let batches = batches(seed, ep.stream);
        let refs: Vec<&[Image]> = batches.iter().map(Vec::as_slice).collect();
        let l = ladder::run(&config(seed, ep.stream), &refs)?;
        out.check_many(
            l.checks,
            l.mismatches,
            "a rung disagrees with the step it replays",
        );
        out.check(
            l.final_bytes == ep.final_bytes,
            "traced and untraced runs end at different checkpoints",
        );
        match &mut pooled {
            None => pooled = Some(l),
            Some(all) => all.absorb(l),
        }
    }
    pooled.ok_or_else(|| "no ladder episodes".to_string())
}

/// The exact per-sample op counts of a run (training plus inference),
/// its drift events and its mean checkpoint size.
pub fn op_counts(values: &mut Values, ops: &OpCounts, samples: u64, drifts: usize, bytes: f64) {
    let per = |x: u64| x as f64 / samples.max(1) as f64;
    values.insert("snn-core.syn_events_per_sample", per(ops.syn_events));
    values.insert(
        "snn-core.weight_updates_per_sample",
        per(ops.weight_updates),
    );
    // SpikeDyn has no inhibitory population, so every neuron spike the
    // substrate counts is excitatory.
    values.insert("snn-core.exc_spikes_per_sample", per(ops.spikes));
    values.insert(
        "snn-core.computed_bytes_per_sample",
        computed_bytes(ops) / samples.max(1) as f64,
    );
    values.insert("snn-online.checkpoint_bytes", bytes);
    values.insert("snn-online.drift_events", drifts as f64);
}

/// Bytes the counted operations touch, computed (not measured) from f32
/// element sizes: a synaptic event reads a weight and updates a
/// conductance (12 B); a weight update, neuron update, decay or trace
/// update is a read-modify-write of one f32 (8 B); a comparison reads two
/// f32 (8 B); an encode draw writes one (4 B).
fn computed_bytes(ops: &OpCounts) -> f64 {
    (12 * ops.syn_events
        + 8 * (ops.weight_updates + ops.neuron_updates + ops.decay_mults + ops.trace_updates)
        + 8 * ops.comparisons
        + 4 * ops.encode_ops) as f64
}
