//! Serve experiment — load-generating the `snn-serve` multi-session
//! layer: sessions × throughput × latency.
//!
//! Starts an in-process [`SnnServer`], opens N concurrent sessions (one
//! client thread each, cycling through the four `snn_data::scenario`
//! drift streams), and drives every session's stream over TCP in
//! micro-batches while timing each `ingest` round trip. Reports
//! per-session accuracy/drift/energy (from the server's own accounting)
//! plus aggregate throughput and latency percentiles — the serving
//! analogue of the `online` experiment's learner-quality table.
//!
//! Latency numbers are wall-clock and machine-dependent; the *learner*
//! columns are deterministic (each session's results are bit-identical
//! to a single-process run of the same stream, whatever the concurrency
//! — that property is pinned by `tests/serve_sessions.rs`, not here).

use std::time::{Duration, Instant};

use snn_data::{Scenario, SyntheticDigits};
use snn_serve::{
    ServeClient, ServeLimits, ServerConfig, SessionSpec, SnnServer, PROTO_V2, PROTO_VERSION,
};
use spikedyn::Method;

use crate::output::{latency_breakdown, pct, Json, Table};
use crate::scale::HarnessScale;

/// Scale profile of one serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Harness-scale run (sessions and stream length track
    /// [`HarnessScale`]).
    Standard,
    /// Seconds-long smoke profile (`--fast`), used by CI and `run_all`.
    Smoke,
}

/// Protocol generation the load-generator clients speak, from
/// `SNN_SERVE_PROTO` (`1` or `2`). Unset means proto 2: the emitted
/// `BENCH_serve.json` is the committed perf trajectory, and its headline
/// numbers are the binary-framing path — a bare re-run must not silently
/// overwrite them with proto-1 figures. CI pins each leg explicitly
/// (proto 1 first, proto 2 last) so both framings stay load tested and
/// the artifact left behind is always the proto-2 one.
fn client_proto() -> u32 {
    match std::env::var("SNN_SERVE_PROTO").ok().as_deref() {
        Some("1") => PROTO_VERSION,
        _ => PROTO_V2,
    }
}

fn sessions(profile: Profile) -> usize {
    match profile {
        Profile::Standard => 8,
        Profile::Smoke => 4,
    }
}

fn samples_per_session(scale: &HarnessScale, profile: Profile) -> u64 {
    match profile {
        Profile::Standard => scale.samples_per_task * 3,
        Profile::Smoke => 32,
    }
}

/// The session spec one load-generator client opens.
pub fn spec(scale: &HarnessScale, profile: Profile, session: usize) -> SessionSpec {
    SessionSpec {
        method: Method::SpikeDyn,
        n_exc: match profile {
            Profile::Standard => scale.n_small,
            Profile::Smoke => 12,
        },
        n_input: 196,
        n_classes: 10,
        seed: scale.seed + session as u64,
        batch_size: 8,
        assign_every: 16,
        reservoir_capacity: 24,
        metric_window: 24,
        drift_window: 12,
    }
}

struct SessionOutcome {
    id: String,
    scenario: Scenario,
    samples: u64,
    accuracy: f64,
    drift_events: u64,
    per_sample_mj: f64,
    latencies: Vec<Duration>,
    /// Bytes this session's client moved on the wire (tx, rx), framing
    /// included.
    wire: (u64, u64),
}

fn drive_session(
    addr: std::net::SocketAddr,
    scale: &HarnessScale,
    profile: Profile,
    session: usize,
) -> SessionOutcome {
    let scenario = Scenario::all()[session % Scenario::all().len()];
    let spec = spec(scale, profile, session);
    let id = format!("load-{session}");
    let mut client =
        ServeClient::connect_with_proto(addr, client_proto()).expect("connect to server");
    client.open(&id, spec.clone()).expect("open session");

    let gen = SyntheticDigits::new(spec.seed);
    let classes: Vec<u8> = (0..10).collect();
    let total = samples_per_session(scale, profile);
    let stream: Vec<_> = scenario
        .stream(&gen, &classes, total, spec.seed, 0)
        .into_iter()
        .map(|img| img.downsample(2))
        .collect();

    let mut latencies = Vec::with_capacity(stream.len() / spec.batch_size + 1);
    let mut samples = 0;
    for chunk in stream.chunks(spec.batch_size) {
        let t0 = Instant::now();
        let outcome = loop {
            match client.ingest(&id, chunk) {
                Ok(outcome) => break outcome,
                // Backpressure is a *client* concern by design: back off
                // and resubmit.
                Err(e) if e.server_code() == Some("backpressure") => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("ingest failed: {e}"),
            }
        };
        latencies.push(t0.elapsed());
        samples = outcome.samples_seen;
    }
    let energy = client.energy(&id).expect("energy report");
    let report = client.close(&id).expect("close session");
    SessionOutcome {
        id,
        scenario,
        samples,
        accuracy: report.accuracy,
        drift_events: report.drift_events,
        per_sample_mj: energy.per_sample_j * 1e3,
        latencies,
        wire: client.wire_bytes(),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the experiment at the given profile and returns the rendered
/// report and its `BENCH_serve.json` object. Only the binaries write the
/// artifact, so the smoke test below leaves the committed copy alone.
pub fn run_profile(scale: &HarnessScale, profile: Profile) -> (String, Json) {
    let n_sessions = sessions(profile);
    let server = SnnServer::start(
        "127.0.0.1:0",
        ServerConfig {
            limits: ServeLimits {
                max_sessions: n_sessions,
                ..ServeLimits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr();

    let wall = Instant::now();
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_sessions)
            .map(|i| s.spawn(move || drive_session(addr, scale, profile, i)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall.elapsed();
    let stats = server.stats();
    // Scrape the server's own telemetry before it goes away: the BENCH
    // artifact's latency percentiles come from the server-side
    // `serve.req.ingest_us` histogram, not the client-side stopwatch.
    let scrape = ServeClient::connect(addr)
        .expect("connect for the metrics scrape")
        .metrics()
        .expect("well-formed metrics exposition");
    server.shutdown();

    let mut table = Table::new(
        "Serve: sessions x throughput x latency (snn-serve load generator)",
        &[
            "session", "scenario", "samples", "acc%", "drifts", "mJ/smp", "mean ms", "p95 ms",
        ],
    );
    let mut all_latencies: Vec<Duration> = Vec::new();
    let mut total_samples = 0u64;
    for o in &outcomes {
        let mean_ms = o.latencies.iter().map(Duration::as_secs_f64).sum::<f64>()
            / o.latencies.len().max(1) as f64
            * 1e3;
        let mut sorted = o.latencies.clone();
        sorted.sort();
        table.row(&[
            o.id.clone(),
            o.scenario.label().to_string(),
            o.samples.to_string(),
            pct(o.accuracy),
            o.drift_events.to_string(),
            format!("{:.2}", o.per_sample_mj),
            format!("{mean_ms:.2}"),
            format!("{:.2}", percentile(&sorted, 0.95).as_secs_f64() * 1e3),
        ]);
        all_latencies.extend(o.latencies.iter().copied());
        total_samples += o.samples;
    }
    let wire_tx: u64 = outcomes.iter().map(|o| o.wire.0).sum();
    let wire_rx: u64 = outcomes.iter().map(|o| o.wire.1).sum();
    let mut out = table.render();
    all_latencies.sort();
    out.push_str(&format!(
        "aggregate — proto {}: {} B sent, {} B received on the wire\n",
        client_proto(),
        wire_tx,
        wire_rx,
    ));
    out.push_str(&format!(
        "aggregate — {} sessions, {} samples in {:.2}s = {:.0} samples/s; \
         ingest latency p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms; \
         {} scheduler checkouts ({:.1} ingests/checkout)\n",
        n_sessions,
        total_samples,
        wall.as_secs_f64(),
        total_samples as f64 / wall.as_secs_f64().max(f64::EPSILON),
        percentile(&all_latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&all_latencies, 0.95).as_secs_f64() * 1e3,
        all_latencies
            .last()
            .copied()
            .unwrap_or_default()
            .as_secs_f64()
            * 1e3,
        stats.ticks,
        all_latencies.len() as f64 / stats.ticks.max(1) as f64,
    ));
    let _ = table.write_csv("serve_load");

    let ingest_us = scrape.histogram("serve.req.ingest_us");
    let proto = client_proto();
    let mut bench = Json::new();
    bench
        .str("experiment", "serve")
        .int("proto", u64::from(proto))
        .int("wire_tx_bytes", wire_tx)
        .int("wire_rx_bytes", wire_rx)
        .int(
            "server_rx_bytes",
            scrape.counter(&format!("serve.wire.p{proto}.rx_bytes")),
        )
        .int("sessions", n_sessions as u64)
        .int("samples", total_samples)
        .num("wall_s", wall.as_secs_f64())
        .num(
            "throughput_sps",
            total_samples as f64 / wall.as_secs_f64().max(f64::EPSILON),
        )
        .int("ingest_p50_us", ingest_us.quantile(0.50))
        .int("ingest_p95_us", ingest_us.quantile(0.95))
        .int("ingest_p99_us", ingest_us.quantile(0.99))
        .int("requests", scrape.counter("serve.requests"))
        .int("ticks", stats.ticks)
        .int("drift_events", scrape.counter("online.drift_events"))
        .num("total_j", scrape.gauge("serve.total_j"))
        .raw("latency_breakdown", latency_breakdown(&scrape));
    (out, bench)
}

/// Runs the standard-profile experiment.
pub fn run(scale: &HarnessScale) -> (String, Json) {
    run_profile(scale, Profile::Standard)
}

/// Runs the smoke-profile experiment (the `run_all` entry point — the
/// full-scale serve run is a standalone binary concern).
pub fn run_smoke(scale: &HarnessScale) -> (String, Json) {
    run_profile(scale, Profile::Smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_covers_all_sessions_and_scenarios() {
        let scale = HarnessScale {
            samples_per_task: 8,
            ..Default::default()
        };
        let (out, _) = run_profile(&scale, Profile::Smoke);
        for i in 0..sessions(Profile::Smoke) {
            assert!(out.contains(&format!("load-{i}")), "missing session {i}");
        }
        for scenario in Scenario::all() {
            assert!(out.contains(scenario.label()), "missing {scenario}");
        }
        assert!(out.contains("samples/s"));
    }

    #[test]
    fn percentile_is_monotone() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!(percentile(&lat, 0.5) <= percentile(&lat, 0.95));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(percentile(&lat, 1.0), Duration::from_millis(100));
    }
}
