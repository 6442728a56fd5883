//! Workspace-level guarantees of the self-healing layer (the router's
//! shadowing/failover machinery):
//!
//! * **Kill a shard mid-stream and every session finishes.** With
//!   shadowing enabled, sessions homed on a shard that dies abruptly
//!   resume from their replicated checkpoints on a live shard; clients
//!   ride out the detection window with retries and never lose a
//!   session.
//! * **Failover is bit-exact.** Every failed-over session finishes with
//!   a wire checkpoint byte-identical to a single-process
//!   `OnlineLearner` fed the same stream with the same ingest-call
//!   partitioning — the kill changes *where* the learner runs, never
//!   *what* it computes.
//! * **Failover is traced across tiers.** The merged `cluster-metrics`
//!   scrape carries the router's `cluster.failover` span and the target
//!   shard's `serve.restore` span stitched by the same request id.
//!
//! There is no autoscaler; shard joins and drains under live sessions
//! are pinned in `tests/cluster_shards.rs`. Replay-gap disclosure and
//! fail-fast staleness are pinned by `snn-cluster`'s in-crate tests.

mod common;

use std::time::{Duration, Instant};

use common::{ingest_through_failover, stream, tiny_spec};
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_serve::{ServeClient, ServerConfig, SnnServer};

/// Scrapes and parses one exposition verb through the router.
fn scrape(client: &mut ServeClient, verb: &str) -> snn_obs::Snapshot {
    let reply = client.call_raw(verb).expect("scrape round trip");
    let resp = snn_serve::protocol::parse_response(&reply).expect("scrape reply parses");
    let hex = resp.get("data").expect("scrape reply carries data");
    let bytes = snn_serve::protocol::hex_decode(hex).expect("scrape payload is hex");
    let text = String::from_utf8(bytes).expect("scrape payload is UTF-8");
    snn_obs::Snapshot::parse(&text).expect("exposition parses")
}

#[test]
fn killed_shard_sessions_finish_bit_exact_and_failover_is_traced() {
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
    .unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    // The victim runs outside the cluster so the test can kill it
    // behind the router's back — an abrupt crash, not a drain.
    let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let victim = cluster.attach_shard(external.local_addr()).unwrap();

    let n_sessions = 6u64;
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    for s in 0..n_sessions {
        client.open(&format!("k-{s}"), tiny_spec(s)).unwrap();
    }
    // The ring may have placed nothing on the victim; seed it so the
    // kill is guaranteed to matter.
    if !(0..n_sessions).any(|s| cluster.session_shard(&format!("k-{s}")) == Some(victim)) {
        cluster.migrate_session("k-0", victim).unwrap();
    }

    // First half of every stream, in one ingest call each (the
    // reference learner below mirrors this call partitioning exactly).
    for s in 0..n_sessions {
        client
            .ingest(&format!("k-{s}"), &stream(s, 16)[..8])
            .unwrap();
    }

    // Let the shadower park every victim-resident session at exactly
    // seq 8 before pulling the trigger: the failover then provably
    // restores the checkpoint the reference is rebuilt from.
    let doomed: Vec<String> = (0..n_sessions)
        .map(|s| format!("k-{s}"))
        .filter(|id| cluster.session_shard(id) == Some(victim))
        .collect();
    assert!(
        !doomed.is_empty(),
        "the victim shard hosts at least one session"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !doomed
        .iter()
        .all(|id| cluster.session_shadow(id).map(|(_, seq)| seq) == Some(8))
    {
        assert!(Instant::now() < deadline, "shadower never parked seq 8");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Kill. No drain, no goodbye: the router finds out from its probes.
    external.shutdown();

    // Second half of every stream — the doomed sessions ride out the
    // detection + failover window on retries, then finish on a live
    // shard. Nothing is lost: the shadow was at seq 8 and so was the
    // stream when the shard died.
    for s in 0..n_sessions {
        ingest_through_failover(&mut client, &format!("k-{s}"), &stream(s, 16)[8..]);
    }

    // Every failed-over session left the victim…
    for id in &doomed {
        let now = cluster.session_shard(id);
        assert!(
            now.is_some() && now != Some(victim),
            "{id} must fail over, not drop"
        );
    }

    // …and every session (failed-over or not) is bit-identical to a
    // single-process learner fed the same two ingest calls.
    for s in 0..n_sessions {
        let id = format!("k-{s}");
        let full = stream(s, 16);
        let mut reference = snn_online::OnlineLearner::new(tiny_spec(s).online_config());
        reference.ingest_batch(&full[..8]).unwrap();
        reference.ingest_batch(&full[8..]).unwrap();
        assert_eq!(
            client.checkpoint(&id).unwrap(),
            reference.checkpoint().to_bytes(),
            "{id}: checkpoint must be bit-identical across the kill"
        );
    }

    // The merged scrape stitches the failover across tiers: the
    // router's cluster.failover span and the restore it drove on the
    // target shard share one request id.
    let telemetry = scrape(&mut client, "cluster-metrics");
    assert_eq!(
        telemetry.counter("cluster.failovers"),
        doomed.len() as u64,
        "every victim session failed over exactly once"
    );
    assert!(telemetry.histogram("cluster.failover_us").count() >= 1);
    let failover_spans: Vec<_> = telemetry
        .spans
        .iter()
        .filter(|sp| sp.name == "cluster.failover")
        .collect();
    assert_eq!(
        failover_spans.len(),
        doomed.len(),
        "one failover span per victim session"
    );
    for span in failover_spans {
        assert!(!span.rid.is_empty(), "failover spans carry a rid");
        assert!(
            telemetry
                .spans
                .iter()
                .any(|sp| sp.name == "serve.restore" && sp.rid == span.rid),
            "the target shard's restore span stitches to failover rid {}",
            span.rid
        );
    }

    for s in 0..n_sessions {
        client.close(&format!("k-{s}")).unwrap();
    }
    cluster.shutdown();
}
