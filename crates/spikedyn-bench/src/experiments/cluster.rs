//! Cluster experiment — load-generating the `snn-cluster` router:
//! aggregate throughput for 1 vs N `snn-serve` shards.
//!
//! For each shard count, starts an in-process [`Cluster`], spawns the
//! shards, opens N concurrent sessions through the router (one client
//! thread each, cycling the `snn_data::scenario` drift streams), and
//! drives every stream in micro-batches while timing each `ingest`
//! round trip. On multi-shard runs every session additionally
//! **live-migrates itself to another shard halfway through its stream**,
//! so the scaling numbers include the checkpoint→restore cost of
//! rebalancing under load (the bit-identity of that move is pinned by
//! `tests/cluster_shards.rs`, not here).
//!
//! After the scaling runs, a **chaos drill** starts a shadowing cluster
//! (one spawned shard plus one externally-owned victim), drives every
//! session to its halfway mark, waits until every victim-resident
//! session's shadow provably covers that mark, kills the victim
//! abruptly, and requires every session to finish through the
//! restore-from-shadow failover — zero dropped sessions, **zero lost
//! samples** (each close report's server-side count must equal the full
//! stream, and every failover/restore in the post-mortem journal must
//! carry the shadowed prefix, never an empty blob), at least one
//! failover, and the observed shadow-lag/failover-latency numbers land
//! in `BENCH_cluster.json`.
//! The drill watches itself over the wire: a live `subscribe` stream
//! feeds an `snn-slo` engine throughout (a deliberately unattainable
//! ingest-latency canary proves the alert path fires), and afterwards
//! the merged `cluster-journal` post-mortem — including the dead
//! victim's black-box copy — is required to chain
//! `probe_fail → shard_down → failover` by rid and becomes the
//! `POSTMORTEM_cluster.journal` artifact.
//!
//! Last, a **wire comparison** drives one checkpoint-heavy workload
//! once with a proto 1 client and once with a proto 2 client and pins
//! the binary framing's payload reduction on the router's client-facing
//! byte counters.
//!
//! Latency and throughput are wall-clock and machine-dependent; the
//! learner outcomes are deterministic.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_data::{Scenario, SyntheticDigits};
use snn_serve::{ServeClient, ServerConfig, SessionSpec, SnnServer, PROTO_V2, PROTO_VERSION};
use snn_slo::{Objective, Signal, SloEngine, SloPolicy};
use spikedyn::Method;

use crate::output::{json_array, latency_breakdown, Json, Table};
use crate::scale::HarnessScale;

/// Scale profile of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Harness-scale run.
    Standard,
    /// Seconds-long smoke profile (`--fast`), used by CI and `run_all`.
    Smoke,
}

/// Protocol generation the load-generator clients speak to the router,
/// from `SNN_CLUSTER_PROTO` (`1` or `2`). Unset means proto 2: the
/// emitted `BENCH_cluster.json` is the committed perf trajectory, and
/// its headline numbers are the binary-framing path — a bare re-run
/// must not silently overwrite them with proto-1 figures. CI pins each
/// leg explicitly (proto 1 first, proto 2 last) so both framings stay
/// load tested and the artifact left behind is always the proto-2 one.
/// The router↔shard relay always speaks proto 2.
fn client_proto() -> u32 {
    match std::env::var("SNN_CLUSTER_PROTO").ok().as_deref() {
        Some("1") => PROTO_VERSION,
        _ => PROTO_V2,
    }
}

fn shard_counts(profile: Profile) -> &'static [usize] {
    match profile {
        Profile::Standard => &[1, 2, 4],
        Profile::Smoke => &[1, 2],
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

/// The session spec one load-generator client opens (mirrors the `serve`
/// experiment's profile so 1-shard cluster numbers are comparable to a
/// bare server).
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
    samples: u64,
    migrations: usize,
    latencies: Vec<Duration>,
}

fn drive_session(
    cluster: &Cluster,
    scale: &HarnessScale,
    profile: Profile,
    session: usize,
    migrate_midway: bool,
) -> SessionOutcome {
    let scenario = Scenario::all()[session % Scenario::all().len()];
    let spec = spec(scale, profile, session);
    let id = format!("cl-{session}");
    let mut client = ServeClient::connect_with_proto(cluster.local_addr(), client_proto())
        .expect("connect to router");
    client.open(&id, spec.clone()).expect("open session");

    let gen = SyntheticDigits::new(spec.seed);
    let classes: Vec<u8> = (0..10).collect();
    let total = samples_per_session(scale, profile);
    let stream: Vec<_> = scenario
        .stream(&gen, &classes, total, spec.seed, 0)
        .into_iter()
        .map(|img| img.downsample(2))
        .collect();

    let chunks: Vec<&[snn_data::Image]> = stream.chunks(spec.batch_size).collect();
    let mut latencies = Vec::with_capacity(chunks.len());
    let mut samples = 0;
    let mut migrations = 0;
    for (batch_idx, chunk) in chunks.iter().enumerate() {
        if migrate_midway && batch_idx == chunks.len() / 2 {
            // Live-migrate this session to another shard mid-stream; the
            // load keeps flowing right after.
            let here = cluster.session_shard(&id).expect("session is routed");
            let shard_ids = cluster.shard_ids();
            if let Some(&there) = shard_ids.iter().find(|&&s| s != here) {
                cluster.migrate_session(&id, there).expect("live migration");
                migrations += 1;
            }
        }
        let t0 = Instant::now();
        let outcome = loop {
            match client.ingest(&id, chunk) {
                Ok(outcome) => break outcome,
                Err(e) if e.server_code() == Some("backpressure") => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("ingest failed: {e}"),
            }
        };
        latencies.push(t0.elapsed());
        samples = outcome.samples_seen;
    }
    client.close(&id).expect("close session");
    SessionOutcome {
        samples,
        migrations,
        latencies,
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct RunOutcome {
    shards: usize,
    samples: u64,
    migrations: usize,
    wall: Duration,
    latencies: Vec<Duration>,
    shard_joules: Vec<f64>,
    /// The merged `cluster-metrics` exposition scraped at the end of the
    /// run (router registry + every shard's).
    telemetry: snn_obs::Snapshot,
}

/// Scrapes one exposition verb (`metrics` or `cluster-metrics`) through
/// the router and parses it, panicking loudly on any malformation — CI
/// runs this binary with `--fast`, so a scrape regression fails the
/// cluster smoke job rather than rotting silently.
fn scrape_expo(client: &mut ServeClient, verb: &str) -> snn_obs::Snapshot {
    let reply = client
        .call_raw(verb)
        .unwrap_or_else(|e| panic!("{verb} round trip failed: {e}"));
    let resp = snn_serve::protocol::parse_response(&reply)
        .unwrap_or_else(|e| panic!("{verb} reply is not a protocol line: {e} ({reply})"));
    let hex = resp
        .get("data")
        .unwrap_or_else(|| panic!("{verb} reply carries no data field: {reply}"));
    let bytes = snn_serve::protocol::hex_decode(hex)
        .unwrap_or_else(|e| panic!("{verb} payload is not hex: {e}"));
    let text =
        String::from_utf8(bytes).unwrap_or_else(|e| panic!("{verb} payload is not UTF-8: {e}"));
    snn_obs::Snapshot::parse(&text)
        .unwrap_or_else(|e| panic!("{verb} exposition is malformed: {e}"))
}

fn run_one(scale: &HarnessScale, profile: Profile, n_shards: usize) -> RunOutcome {
    let cluster =
        Cluster::start("127.0.0.1:0", ClusterConfig::default()).expect("bind an ephemeral port");
    for _ in 0..n_shards {
        cluster
            .spawn_shard(ServerConfig::default())
            .expect("spawn shard");
    }
    let n_sessions = sessions(profile);
    let migrate_midway = n_shards > 1;

    let wall = Instant::now();
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|s| {
        let cluster = &cluster;
        let handles: Vec<_> = (0..n_sessions)
            .map(|i| s.spawn(move || drive_session(cluster, scale, profile, i, migrate_midway)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall.elapsed();
    let stats = cluster.stats();
    // Smoke-scrape both exposition verbs while the cluster is still up:
    // the router's own registry must parse, and the fan-out must merge
    // every shard cleanly. The merged snapshot feeds BENCH_cluster.json.
    let mut scraper = ServeClient::connect_with_proto(cluster.local_addr(), client_proto())
        .expect("connect for scrape");
    let router_only = scrape_expo(&mut scraper, "metrics");
    assert!(
        router_only.counters.contains_key("cluster.relays"),
        "router metrics must expose the relay counter"
    );
    let telemetry = scrape_expo(&mut scraper, "cluster-metrics");
    cluster.shutdown();

    let mut latencies: Vec<Duration> = outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    latencies.sort();
    RunOutcome {
        shards: n_shards,
        samples: outcomes.iter().map(|o| o.samples).sum(),
        migrations: outcomes.iter().map(|o| o.migrations).sum(),
        wall,
        latencies,
        shard_joules: stats.shards.iter().map(|s| s.total_j).collect(),
        telemetry,
    }
}

/// Samples per session in the chaos drill — a correctness exercise, not
/// a throughput measurement, so it stays smoke-sized at every profile.
const CHAOS_SAMPLES: u64 = 32;

struct ChaosOutcome {
    sessions: usize,
    finished: usize,
    failovers: u64,
    failover_p50_us: u64,
    max_shadow_lag: f64,
    /// SLO alerts the drill's live subscription fired (a deliberately
    /// unattainable ingest-latency canary guarantees at least one, so
    /// the streamed-telemetry → alert path is exercised end to end).
    alerts_fired: u64,
    /// `cluster.subscribe.drops` after the drill — frames the router
    /// discarded for slow subscribers (usually 0 here; reported so a
    /// lossy run is visible in the trajectory).
    subscribe_drops: u64,
    /// Events in the merged post-mortem journal.
    postmortem_events: u64,
    /// The merged post-mortem journal text (the
    /// `POSTMORTEM_cluster.journal` artifact).
    postmortem: String,
    /// Samples the clients streamed that the servers do not hold at
    /// close time — the drill's silent-loss measure, asserted to be 0
    /// (every failover must recover the whole shadowed prefix, and the
    /// arming gate guarantees the shadows covered everything sent).
    lost_samples: u64,
    /// Nodes in the merged `cluster-trace` tree assembled for the
    /// incident rid — the "explain the outage" smoke: the assembler
    /// must still work after the home shard is dead, sourcing the
    /// victim's phases from its black-box journal.
    trace_nodes: u64,
}

/// One chaos load generator: opens a session, ingests its stream in
/// batches, and **holds at the halfway mark until the victim shard has
/// been killed** — so every session provably crosses the kill
/// mid-stream. Any error (dead backend, failover window, backpressure)
/// is retried against a deadline; returns the session's final
/// *server-side* sample count from the close report (`None` if the
/// session never recovered). Client-side completion alone is not
/// success: a failover that restored an empty shadow would still let
/// every ingest call succeed while silently dropping the pre-kill half
/// of the stream, so the caller must compare the returned count against
/// the samples actually sent.
fn drive_chaos_session(
    cluster: &Cluster,
    scale: &HarnessScale,
    profile: Profile,
    session: usize,
    opened: &AtomicUsize,
    ingested: &AtomicU64,
    killed: &AtomicBool,
) -> Option<u64> {
    let spec = spec(scale, profile, session);
    let id = format!("ch-{session}");
    let mut client = ServeClient::connect_with_proto(cluster.local_addr(), client_proto())
        .expect("connect to router");
    client.open(&id, spec.clone()).expect("open chaos session");
    opened.fetch_add(1, Ordering::SeqCst);

    let gen = SyntheticDigits::new(spec.seed);
    let classes: Vec<u8> = (0..10).collect();
    let scenario = Scenario::all()[session % Scenario::all().len()];
    let stream: Vec<_> = scenario
        .stream(&gen, &classes, CHAOS_SAMPLES, spec.seed, 0)
        .into_iter()
        .map(|img| img.downsample(2))
        .collect();
    let chunks: Vec<&[snn_data::Image]> = stream.chunks(spec.batch_size).collect();
    for (batch_idx, chunk) in chunks.iter().enumerate() {
        if batch_idx == chunks.len() / 2 {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !killed.load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "the drill never killed the victim"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client.ingest(&id, chunk) {
                Ok(_) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    eprintln!("chaos session {id} never recovered: {e}");
                    return None;
                }
            }
        }
        ingested.fetch_add(chunk.len() as u64, Ordering::SeqCst);
    }
    client.close(&id).ok().map(|report| report.samples)
}

/// The chaos drill: kill a shard mid-stream under load and require every
/// session to finish through the restore-from-shadow failover.
fn run_chaos(scale: &HarnessScale, profile: Profile) -> ChaosOutcome {
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            limits: ClusterLimits {
                health_interval: Duration::from_millis(40),
                probes_to_kill: 2,
                shadow_interval: Some(Duration::from_millis(25)),
                ..ClusterLimits::default()
            },
        },
    )
    .expect("bind an ephemeral port");
    cluster.spawn_shard(ServerConfig::default()).expect("spawn");
    // The victim runs outside the cluster so the drill can kill it
    // behind the router's back — exactly what a crashed shard looks like.
    let victim_server =
        SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("start victim");
    let victim = cluster
        .attach_shard(victim_server.local_addr())
        .expect("attach victim");

    let n_sessions = sessions(profile);
    let opened = AtomicUsize::new(0);
    let ingested = AtomicU64::new(0);
    let killed = AtomicBool::new(false);
    let drill_done = AtomicBool::new(false);
    let total = n_sessions as u64 * CHAOS_SAMPLES;

    let (finals, max_shadow_lag, alerts_fired) = std::thread::scope(|s| {
        let cluster = &cluster;
        let (opened, ingested, killed) = (&opened, &ingested, &killed);
        let drill_done = &drill_done;
        let handles: Vec<_> = (0..n_sessions)
            .map(|i| {
                s.spawn(move || {
                    drive_chaos_session(cluster, scale, profile, i, opened, ingested, killed)
                })
            })
            .collect();

        // Subscribe to the router's live telemetry stream for the whole
        // drill. Shadow-lag comes from pushed frames, not polls, and an
        // SLO engine evaluates every frame: a deliberately unattainable
        // ingest-latency canary (p99 < 1 µs) must fire under load, so
        // the wire path `subscribe → SloEngine → alert` is proven every
        // run. The policy is deliberately hair-triggered (one violating
        // frame in a 4-frame window fires) because the drill's load
        // arrives in bursts around the kill, not as a steady stream.
        let mut subscription =
            ServeClient::connect_with_proto(cluster.local_addr(), client_proto())
                .expect("connect subscriber")
                .subscribe(10)
                .expect("subscribe to the router");
        let subscriber = s.spawn(move || {
            let mut engine = SloEngine::new(
                vec![
                    Objective {
                        name: "ingest-canary".into(),
                        signal: Signal::VerbLatencyP99Us("ingest".into()),
                        threshold: 1.0,
                    },
                    Objective {
                        name: "rejects".into(),
                        signal: Signal::RejectRate,
                        threshold: 0.5,
                    },
                ],
                SloPolicy {
                    window: 4,
                    burn_threshold: 0.25,
                    min_samples: 1,
                },
            );
            let mut max_lag = 0.0f64;
            let mut alerts = 0u64;
            let mut frames = 0u64;
            while !drill_done.load(Ordering::SeqCst) {
                let push = match subscription.next() {
                    Ok(push) => push,
                    Err(_) => break, // clean shutdown ends the stream
                };
                frames += 1;
                max_lag = max_lag.max(push.metrics.gauge("cluster.shadow_lag"));
                alerts += engine.observe(&push.metrics, push.seq * 10_000).len() as u64;
            }
            (max_lag, alerts, frames)
        });

        // Wait for every session to open, then make sure at least one
        // lives on the victim (the ring may have placed none there).
        let deadline = Instant::now() + Duration::from_secs(30);
        while opened.load(Ordering::SeqCst) < n_sessions {
            assert!(Instant::now() < deadline, "chaos sessions never opened");
            std::thread::sleep(Duration::from_millis(2));
        }
        if !(0..n_sessions)
            .map(|i| format!("ch-{i}"))
            .any(|id| cluster.session_shard(&id) == Some(victim))
        {
            cluster
                .migrate_session("ch-0", victim)
                .expect("seed the victim shard");
        }
        // Don't pull the trigger before EVERY session is parked at its
        // halfway barrier (so `ingested` can no longer move and nothing
        // is in flight) and every victim-resident session's shadow
        // PROVABLY covers that halfway mark. A shadow merely *existing*
        // is not enough: the shadower's first sweep usually parks a
        // seq-0 blob taken before any ingest landed, and killing on that
        // evidence restores an empty learner — every pre-kill sample is
        // then lost while the clients finish none the wiser, which is
        // exactly the silent-loss failure this drill exists to rule
        // out. (No migrations run here, so the set of victim-resident
        // sessions is stable.)
        let halfway = CHAOS_SAMPLES / 2;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let armed = ingested.load(Ordering::SeqCst) == total / 2
                && (0..n_sessions)
                    .map(|i| format!("ch-{i}"))
                    .filter(|id| cluster.session_shard(id) == Some(victim))
                    .all(|id| {
                        cluster
                            .session_shadow(&id)
                            .is_some_and(|(_, seq)| seq >= halfway)
                    });
            if armed {
                break;
            }
            assert!(Instant::now() < deadline, "chaos drill never armed");
            std::thread::sleep(Duration::from_millis(5));
        }
        victim_server.shutdown();
        killed.store(true, Ordering::SeqCst);

        let finals: Vec<Option<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        drill_done.store(true, Ordering::SeqCst);
        let (max_lag, alerts, frames) = subscriber.join().unwrap();
        assert!(frames >= 1, "the drill must stream at least one frame");
        (finals, max_lag, alerts)
    });
    let finished = finals.iter().filter(|f| f.is_some()).count();
    // The drill armed only after every shadow covered the halfway mark
    // and every session was parked there (nothing in flight), so the
    // failovers recover the whole pre-kill half and NO sample may be
    // lost: each session's final server-side count must equal exactly
    // what its client streamed. This is the server-side half of the
    // zero-loss claim — client-side completion alone would also pass
    // with an empty restore.
    let lost_samples: u64 = finals
        .iter()
        .map(|f| CHAOS_SAMPLES.saturating_sub(f.unwrap_or(0)))
        .sum();
    for (i, samples) in finals.iter().enumerate() {
        if let Some(samples) = samples {
            assert_eq!(
                *samples, CHAOS_SAMPLES,
                "chaos session ch-{i} closed with {samples}/{CHAOS_SAMPLES} samples \
                 on the server — the failover silently lost data"
            );
        }
    }

    // The merged scrape must still work after a shard death: the dead
    // shard left the pool, the router's failover telemetry remains.
    let mut scraper = ServeClient::connect_with_proto(cluster.local_addr(), client_proto())
        .expect("connect for scrape");
    let telemetry = scrape_expo(&mut scraper, "cluster-metrics");

    // Fetch the merged post-mortem journal — router + live shards + the
    // victim's black-box copy — and require its tail to explain the
    // failover: strikes and the death verdict share one incident rid,
    // and each failover cites that incident.
    let journal_text = scrape_journal_text(&mut scraper);
    let journal = snn_obs::JournalSnapshot::parse(&journal_text)
        .unwrap_or_else(|e| panic!("post-mortem journal is malformed: {e}"));
    let down = journal
        .events
        .iter()
        .find(|e| e.kind == "cluster.shard_down" && e.field("shard") == Some(&victim.to_string()))
        .expect("post-mortem records the victim's death");
    assert!(!down.rid.is_empty(), "the death verdict is rid-attributed");
    assert!(
        journal
            .events
            .iter()
            .any(|e| e.kind == "cluster.probe_fail" && e.rid == down.rid),
        "the probe strikes share the incident rid {}",
        down.rid
    );
    assert!(
        journal
            .events
            .iter()
            .any(|e| e.kind == "cluster.failover" && e.field("cause") == Some(&down.rid)),
        "at least one failover cites incident {} as its cause",
        down.rid
    );
    // Every failover must restore real progress. The drill armed only
    // after each victim session's shadow covered the halfway mark, so a
    // seq-0 failover (or a restore reporting an empty learner) here
    // means restore-from-shadow regressed into replaying a blank blob —
    // the post-mortem must refuse to greenlight it.
    let halfway = CHAOS_SAMPLES / 2;
    for e in journal
        .events
        .iter()
        .filter(|e| e.kind == "cluster.failover")
    {
        let seq = e.field("seq").and_then(|v| v.parse::<u64>().ok());
        assert!(
            seq.is_some_and(|s| s >= halfway),
            "failover of {} restored seq {seq:?}, expected >= {halfway}: \
             the shadow did not cover the pre-kill stream",
            e.field("id").map_or("?", |v| v),
        );
    }
    for e in journal.events.iter().filter(|e| e.kind == "serve.restore") {
        let samples = e.field("samples").and_then(|v| v.parse::<u64>().ok());
        assert!(
            samples.is_some_and(|s| s >= halfway),
            "restore of {} landed with {samples:?} samples, expected >= {halfway}: \
             the shadowed blob was (nearly) empty",
            e.field("id").map_or("?", |v| v),
        );
    }
    // The incident rid from the post-mortem must be traceable on
    // demand: `cluster-trace` assembles the merged tree even though the
    // victim shard is gone (its events come from the frozen black-box
    // journal), and the tree names the death verdict.
    let tree = scraper
        .cluster_trace(&down.rid)
        .unwrap_or_else(|e| panic!("cluster-trace rid={} failed: {e}", down.rid));
    assert_eq!(tree.rid, down.rid, "trace tree is for the incident rid");
    let rendered = tree.render();
    assert!(
        rendered.contains("event.cluster.shard_down"),
        "the incident trace must contain the death verdict:\n{rendered}"
    );
    let trace_nodes = tree.root.count() as u64;
    cluster.shutdown();

    let outcome = ChaosOutcome {
        sessions: n_sessions,
        finished,
        failovers: telemetry.counter("cluster.failovers"),
        failover_p50_us: telemetry.histogram("cluster.failover_us").quantile(0.50),
        max_shadow_lag,
        alerts_fired,
        subscribe_drops: telemetry.counter("cluster.subscribe.drops"),
        postmortem_events: journal.events.len() as u64,
        postmortem: journal_text,
        lost_samples,
        trace_nodes,
    };
    assert_eq!(
        outcome.finished, outcome.sessions,
        "chaos drill dropped sessions"
    );
    assert_eq!(
        outcome.lost_samples, 0,
        "chaos drill lost samples across the failover"
    );
    assert!(
        outcome.failovers >= 1,
        "the kill must exercise at least one failover"
    );
    assert!(
        outcome.alerts_fired >= 1,
        "the canary objective must fire over the subscription"
    );
    outcome
}

/// Fetches the merged `cluster-journal` dump through the router and
/// returns the decoded journal text (the post-mortem artifact body).
fn scrape_journal_text(client: &mut ServeClient) -> String {
    let reply = client
        .call_raw("cluster-journal")
        .unwrap_or_else(|e| panic!("cluster-journal round trip failed: {e}"));
    let resp = snn_serve::protocol::parse_response(&reply)
        .unwrap_or_else(|e| panic!("cluster-journal reply is not a protocol line: {e} ({reply})"));
    let hex = resp
        .get("data")
        .unwrap_or_else(|| panic!("cluster-journal reply carries no data field: {reply}"));
    let bytes = snn_serve::protocol::hex_decode(hex)
        .unwrap_or_else(|e| panic!("cluster-journal payload is not hex: {e}"));
    String::from_utf8(bytes).unwrap_or_else(|e| panic!("cluster-journal payload is not UTF-8: {e}"))
}

/// Client-facing byte totals of one [`wire_run`]: what the `data=`
/// payloads occupied on the client↔router wire, and the whole
/// lines/frames around them.
struct WireRun {
    payload_bytes: u64,
    wire_bytes: u64,
}

/// Drives one checkpoint-heavy workload with a client speaking the given
/// protocol generation and reads the router's client-facing
/// `cluster.wire.p{N}.*` counters back. The cluster is quieted (no
/// probes, no shadow sweeps) so the byte counts are exactly the
/// workload's — the p1 and p2 runs move bit-identical payloads, and the
/// only difference on the client wire is the framing.
fn wire_run(scale: &HarnessScale, profile: Profile, proto: u32) -> WireRun {
    let cluster = Cluster::start(
        "127.0.0.1:0",
        ClusterConfig {
            limits: ClusterLimits {
                health_interval: Duration::from_secs(60),
                shadow_interval: None,
                ..ClusterLimits::default()
            },
        },
    )
    .expect("bind an ephemeral port");
    cluster
        .spawn_shard(ServerConfig::default())
        .expect("spawn shard");
    let mut client =
        ServeClient::connect_with_proto(cluster.local_addr(), proto).expect("connect to router");
    let spec = spec(scale, profile, 0);
    let id = "wire";
    client.open(id, spec.clone()).expect("open session");

    let gen = SyntheticDigits::new(spec.seed);
    let classes: Vec<u8> = (0..10).collect();
    let stream: Vec<_> = Scenario::all()[0]
        .stream(&gen, &classes, 16, spec.seed, 0)
        .into_iter()
        .map(|img| img.downsample(2))
        .collect();
    for chunk in stream.chunks(spec.batch_size) {
        client.ingest(id, chunk).expect("ingest");
    }
    // The checkpoint-heavy half: snapshot blobs, the traffic the binary
    // framing exists for.
    for _ in 0..4 {
        let snapshot = client.checkpoint(id).expect("checkpoint");
        assert!(!snapshot.is_empty(), "checkpoint must carry a payload");
    }
    client.close(id).expect("close session");

    let telemetry = scrape_expo(&mut client, "metrics");
    cluster.shutdown();
    let p = if proto >= PROTO_V2 { 2 } else { 1 };
    WireRun {
        payload_bytes: telemetry.counter(&format!("cluster.wire.p{p}.payload_bytes")),
        wire_bytes: telemetry.counter(&format!("cluster.wire.p{p}.rx_bytes"))
            + telemetry.counter(&format!("cluster.wire.p{p}.tx_bytes")),
    }
}

/// Runs the identical workload once per client protocol and pins the
/// framing's headline claim: proto 2 moves the same payloads in at least
/// 2× fewer payload bytes (hex text vs raw binary).
fn compare_wire(scale: &HarnessScale, profile: Profile) -> (WireRun, WireRun) {
    let p1 = wire_run(scale, profile, PROTO_VERSION);
    let p2 = wire_run(scale, profile, PROTO_V2);
    assert!(
        p1.payload_bytes > 0 && p2.payload_bytes > 0,
        "both client runs must move payload bytes (p1 {}, p2 {})",
        p1.payload_bytes,
        p2.payload_bytes
    );
    let ratio = p1.payload_bytes as f64 / p2.payload_bytes as f64;
    assert!(
        ratio >= 2.0,
        "proto 2 must move ≥2x fewer payload bytes than proto 1 \
         (p1 {} B, p2 {} B, ratio {ratio:.3})",
        p1.payload_bytes,
        p2.payload_bytes
    );
    (p1, p2)
}

/// Runs the experiment at the given profile and returns the rendered
/// report, its `BENCH_cluster.json` object and the
/// `POSTMORTEM_cluster.journal` text. Only the binaries write the
/// artifacts, so the smoke test below leaves the committed copies alone.
pub fn run_profile(scale: &HarnessScale, profile: Profile) -> (String, Json, String) {
    let runs: Vec<RunOutcome> = shard_counts(profile)
        .iter()
        .map(|&n| run_one(scale, profile, n))
        .collect();

    let mut table = Table::new(
        "Cluster: aggregate throughput, 1 vs N snn-serve shards (snn-cluster router)",
        &[
            "shards",
            "sessions",
            "samples",
            "migrations",
            "samples/s",
            "p50 ms",
            "p95 ms",
        ],
    );
    for run in &runs {
        table.row(&[
            run.shards.to_string(),
            sessions(profile).to_string(),
            run.samples.to_string(),
            run.migrations.to_string(),
            format!(
                "{:.0}",
                run.samples as f64 / run.wall.as_secs_f64().max(f64::EPSILON)
            ),
            format!(
                "{:.2}",
                percentile(&run.latencies, 0.50).as_secs_f64() * 1e3
            ),
            format!(
                "{:.2}",
                percentile(&run.latencies, 0.95).as_secs_f64() * 1e3
            ),
        ]);
    }
    let mut out = table.render();
    if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
        let base = first.samples as f64 / first.wall.as_secs_f64().max(f64::EPSILON);
        let top = last.samples as f64 / last.wall.as_secs_f64().max(f64::EPSILON);
        out.push_str(&format!(
            "aggregate — {} shard(s) {:.0} samples/s vs {} shard(s) {:.0} samples/s \
             ({:.2}x, wall-clock); {} mid-stream live migration(s); \
             per-shard joules on the largest run: [{}]\n",
            first.shards,
            base,
            last.shards,
            top,
            top / base.max(f64::EPSILON),
            runs.iter().map(|r| r.migrations).sum::<usize>(),
            last.shard_joules
                .iter()
                .map(|j| format!("{j:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    let _ = table.write_csv("cluster_scaling");

    let chaos = run_chaos(scale, profile);
    out.push_str(&format!(
        "chaos — shard killed mid-stream: {}/{} sessions finished with \
         {} sample(s) lost, {} failover(s) (p50 {} µs), max shadow lag \
         {:.0} sample(s); {} SLO alert(s) fired over the live \
         subscription ({} frame(s) dropped); post-mortem journal: \
         {} event(s) → POSTMORTEM_cluster.journal; incident \
         cluster-trace: {} node(s)\n",
        chaos.finished,
        chaos.sessions,
        chaos.lost_samples,
        chaos.failovers,
        chaos.failover_p50_us,
        chaos.max_shadow_lag,
        chaos.alerts_fired,
        chaos.subscribe_drops,
        chaos.postmortem_events,
        chaos.trace_nodes,
    ));

    let (wire_p1, wire_p2) = compare_wire(scale, profile);
    out.push_str(&format!(
        "wire — client payload bytes on an identical checkpoint-heavy \
         workload, proto 1 vs proto 2: {} B vs {} B ({:.2}x); whole \
         lines/frames: {} B vs {} B ({:.2}x)\n",
        wire_p1.payload_bytes,
        wire_p2.payload_bytes,
        wire_p1.payload_bytes as f64 / wire_p2.payload_bytes.max(1) as f64,
        wire_p1.wire_bytes,
        wire_p2.wire_bytes,
        wire_p1.wire_bytes as f64 / wire_p2.wire_bytes.max(1) as f64,
    ));

    let client_p = if client_proto() >= PROTO_V2 { 2 } else { 1 };
    let run_objects = runs.iter().map(|run| {
        let migrate_us = run.telemetry.histogram("cluster.migrate_us");
        let migrate_bytes = run.telemetry.histogram("cluster.migrate_bytes");
        let mut j = Json::new();
        j.int("shards", run.shards as u64)
            .int("sessions", sessions(profile) as u64)
            .int("samples", run.samples)
            .num("wall_s", run.wall.as_secs_f64())
            .num(
                "throughput_sps",
                run.samples as f64 / run.wall.as_secs_f64().max(f64::EPSILON),
            )
            .num(
                "ingest_p50_ms",
                percentile(&run.latencies, 0.50).as_secs_f64() * 1e3,
            )
            .num(
                "ingest_p95_ms",
                percentile(&run.latencies, 0.95).as_secs_f64() * 1e3,
            )
            .int(
                "wire_rx_bytes",
                run.telemetry
                    .counter(&format!("cluster.wire.p{client_p}.rx_bytes")),
            )
            .int(
                "wire_tx_bytes",
                run.telemetry
                    .counter(&format!("cluster.wire.p{client_p}.tx_bytes")),
            )
            .int("migrations", run.telemetry.counter("cluster.migrations"))
            .int("migrate_p50_us", migrate_us.quantile(0.50))
            .num("migrate_mean_bytes", migrate_bytes.mean())
            .int("relays", run.telemetry.counter("cluster.relays"))
            .num("total_j", run.telemetry.gauge("serve.total_j"))
            // Zero in the scaling runs (no shadowing, nothing dies);
            // the chaos drill's numbers live in the `chaos` object.
            .int("failovers", run.telemetry.counter("cluster.failovers"))
            .int(
                "failover_p50_us",
                run.telemetry
                    .histogram("cluster.failover_us")
                    .quantile(0.50),
            )
            .num("max_shadow_lag", run.telemetry.gauge("cluster.shadow_lag"));
        j.render()
    });
    let chaos_json = {
        let mut j = Json::new();
        j.int("sessions", chaos.sessions as u64)
            .int("finished", chaos.finished as u64)
            .int("failovers", chaos.failovers)
            .int("failover_p50_us", chaos.failover_p50_us)
            .num("max_shadow_lag", chaos.max_shadow_lag)
            .int("alerts_fired", chaos.alerts_fired)
            .int("subscribe_drops", chaos.subscribe_drops)
            .int("postmortem_events", chaos.postmortem_events)
            .int("lost_samples", chaos.lost_samples)
            .int("trace_nodes", chaos.trace_nodes);
        j.render()
    };
    let wire_json = {
        let mut j = Json::new();
        j.int("p1_payload_bytes", wire_p1.payload_bytes)
            .int("p2_payload_bytes", wire_p2.payload_bytes)
            .num(
                "payload_ratio",
                wire_p1.payload_bytes as f64 / wire_p2.payload_bytes.max(1) as f64,
            )
            .int("p1_wire_bytes", wire_p1.wire_bytes)
            .int("p2_wire_bytes", wire_p2.wire_bytes)
            .num(
                "wire_ratio",
                wire_p1.wire_bytes as f64 / wire_p2.wire_bytes.max(1) as f64,
            );
        j.render()
    };
    let mut bench = Json::new();
    bench
        .str("experiment", "cluster")
        .int("proto", u64::from(client_proto()))
        .raw("runs", json_array(run_objects))
        .raw("chaos", chaos_json)
        .raw("wire", wire_json);
    // Where did the wall time go, cluster-wide: the merged telemetry of
    // the largest scaling run carries every shard's phase histograms.
    if let Some(last) = runs.last() {
        bench.raw("latency_breakdown", latency_breakdown(&last.telemetry));
    }
    (out, bench, chaos.postmortem)
}

/// Runs the standard-profile experiment.
pub fn run(scale: &HarnessScale) -> (String, Json, String) {
    run_profile(scale, Profile::Standard)
}

/// Runs the smoke-profile experiment (the `run_all` entry point — the
/// full-scale cluster run is a standalone binary concern).
pub fn run_smoke(scale: &HarnessScale) -> (String, Json, String) {
    run_profile(scale, Profile::Smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_reports_one_vs_two_shards_and_migrations() {
        let scale = HarnessScale {
            samples_per_task: 8,
            ..Default::default()
        };
        let (out, _, _) = run_profile(&scale, Profile::Smoke);
        assert!(out.contains("=== Cluster"), "missing table:\n{out}");
        assert!(
            out.contains("1 shard(s)") && out.contains("2 shard(s)"),
            "aggregate must compare 1 vs 2 shards:\n{out}"
        );
        assert!(out.contains("samples/s"));
        assert!(
            out.contains("live migration"),
            "migration drill must be reported:\n{out}"
        );
        assert!(
            out.contains("chaos — shard killed mid-stream"),
            "chaos drill must be reported:\n{out}"
        );
        assert!(
            out.contains("failover(s)"),
            "chaos drill must report failovers:\n{out}"
        );
        assert!(
            out.contains("SLO alert(s) fired"),
            "chaos drill must report the streamed SLO alerts:\n{out}"
        );
        assert!(
            out.contains("POSTMORTEM_cluster.journal"),
            "chaos drill must dump the post-mortem artifact:\n{out}"
        );
        assert!(
            out.contains("incident cluster-trace:"),
            "chaos drill must assemble the incident trace:\n{out}"
        );
        assert!(
            out.contains("wire — client payload bytes"),
            "the dual-proto wire comparison must be reported:\n{out}"
        );
    }
}
