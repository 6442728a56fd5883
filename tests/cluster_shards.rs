//! Workspace-level guarantees of the `snn-cluster` layer:
//!
//! * **Migration bit-identity** (the pinned invariant): a session opened
//!   through the router and live-migrated between two shards mid-stream
//!   finishes with a wire checkpoint **byte-identical** to the same
//!   stream served unmigrated on one shard — and to a single-process
//!   `OnlineLearner`. Serving topology changes *where* a learner runs,
//!   never *what* it computes.
//! * **Drain bit-identity**: draining a shard (the shutdown path) moves
//!   its sessions without perturbing a single bit of their streams.
//! * **Join bit-identity**: spawning a shard into a cluster with live
//!   sessions rebalances the ones its ring points claim, again without
//!   perturbing a single bit of their streams.
//!
//! Ring-hash unit tests (uniformity, minimal reshuffle on join/leave)
//! live in `snn-cluster/src/ring.rs`.

use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use snn_cluster::{Cluster, ClusterConfig};
use snn_data::{Image, Scenario, SyntheticDigits};
use snn_serve::{ServeClient, ServerConfig, SessionSpec};
use spikedyn::Method;

/// How long a session may take to reach, or be released from, its
/// halfway mark before the test counts it as hung.
const PARK_DEADLINE: Duration = Duration::from_secs(30);

/// A tiny 7×7-input profile so multi-shard streams stay fast.
fn tiny_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        method: Method::SpikeDyn,
        n_exc: 8,
        n_input: 49,
        n_classes: 10,
        seed,
        batch_size: 4,
        assign_every: 8,
        reservoir_capacity: 12,
        metric_window: 12,
        drift_window: 8,
    }
}

/// The scenario's deterministic stream, downsampled onto the 7×7 profile.
fn scenario_stream(scenario: Scenario, seed: u64, total: u64) -> Vec<Image> {
    let gen = SyntheticDigits::new(seed);
    let classes: Vec<u8> = (0..10).collect();
    scenario
        .stream(&gen, &classes, total, seed, 0)
        .into_iter()
        .map(|img| img.downsample(4))
        .collect()
}

fn two_shard_cluster() -> Cluster {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    cluster
}

/// Streams one session over its own router connection; returns its
/// predictions and final wire checkpoint. It reports on `parked` at its
/// halfway mark and holds until `resume` fires. A `migrate`d session then
/// moves to the *other* shard and, 8 samples later, hops back — two
/// migrations, zero pauses from the client's point of view.
fn drive_session(
    cluster: &Cluster,
    id: &str,
    seed: u64,
    stream: &[Image],
    migrate: bool,
    parked: Sender<()>,
    resume: Receiver<()>,
) -> (Vec<Option<u8>>, Vec<u8>) {
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    client.open(id, tiny_spec(seed)).unwrap();
    let mut preds = Vec::new();
    let mut ingest = |client: &mut ServeClient, samples: &[Image]| {
        for chunk in samples.chunks(4) {
            preds.extend(client.ingest(id, chunk).unwrap().predictions);
        }
    };
    ingest(&mut client, &stream[..16]);
    parked.send(()).unwrap();
    resume
        .recv_timeout(PARK_DEADLINE)
        .expect("every session parks at its halfway mark");
    if migrate {
        let first_home = cluster.session_shard(id).unwrap();
        let other = cluster
            .shard_ids()
            .into_iter()
            .find(|&s| s != first_home)
            .expect("two shards");
        cluster.migrate_session(id, other).unwrap();
        assert_eq!(cluster.session_shard(id), Some(other));
        ingest(&mut client, &stream[16..24]);
        cluster.migrate_session(id, first_home).unwrap();
        ingest(&mut client, &stream[24..]);
    } else {
        ingest(&mut client, &stream[16..]);
    }
    let last = client.checkpoint(id).unwrap();
    client.close(id).unwrap();
    (preds, last)
}

#[test]
fn migrated_session_finishes_bit_identical_to_unmigrated() {
    let cluster = two_shard_cluster();
    let scenarios = [Scenario::GradualDrift, Scenario::RecurringTasks];
    let streams: Vec<Vec<Image>> = scenarios
        .iter()
        .enumerate()
        .map(|(i, &scenario)| scenario_stream(scenario, 60 + i as u64, 32))
        .collect();

    // Each stream is served twice through the router: unmigrated (the
    // reference, on whatever shard the ring picks) and moving. One client
    // thread per session; all four park halfway and resume together, so
    // the moves race the other sessions' relays to the same shards.
    let served: Vec<(Vec<Option<u8>>, Vec<u8>)> = std::thread::scope(|scope| {
        let (parked_tx, parked) = mpsc::channel();
        let mut resumes = Vec::new();
        let mut handles = Vec::new();
        for (i, (scenario, stream)) in scenarios.iter().zip(&streams).enumerate() {
            let seed = 60 + i as u64;
            for (migrate, role) in [(false, "fixed"), (true, "moved")] {
                let (go, resume) = mpsc::channel();
                resumes.push(go);
                let id = format!("{role}-{}", scenario.label());
                let (cluster, parked) = (&cluster, parked_tx.clone());
                let session =
                    move || drive_session(cluster, &id, seed, stream, migrate, parked, resume);
                handles.push(scope.spawn(session));
            }
        }
        drop(parked_tx);
        for _ in 0..handles.len() {
            parked
                .recv_timeout(PARK_DEADLINE)
                .expect("every session parks at its halfway mark");
        }
        for go in &resumes {
            go.send(()).unwrap();
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (scenario, stream)) in scenarios.into_iter().zip(&streams).enumerate() {
        let seed = 60 + i as u64;
        let label = scenario.label();
        let (fixed_preds, fixed_final) = &served[2 * i];
        let (moved_preds, moved_final) = &served[2 * i + 1];

        assert_eq!(
            moved_preds, fixed_preds,
            "{label}: migrated and unmigrated predictions must match"
        );
        assert_eq!(
            moved_final, fixed_final,
            "{label}: final wire checkpoints must be byte-identical across migration"
        );

        // Triple-check against a single-process learner: the cluster adds
        // nothing and loses nothing.
        let mut local = snn_online::OnlineLearner::new(tiny_spec(seed).online_config());
        let mut local_preds = Vec::new();
        for chunk in stream.chunks(4) {
            local_preds.extend(local.ingest_batch(chunk).unwrap());
        }
        assert_eq!(moved_preds, &local_preds, "{label}: local reference preds");
        assert_eq!(
            moved_final,
            &local.checkpoint().to_bytes(),
            "{label}: local reference checkpoint"
        );
    }
    cluster.shutdown();
}

#[test]
fn draining_a_shard_mid_stream_perturbs_nothing() {
    let cluster = two_shard_cluster();
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    let n_sessions = 4u64;
    let streams: Vec<Vec<Image>> = (0..n_sessions)
        .map(|s| scenario_stream(Scenario::NoiseBurst, 80 + s, 24))
        .collect();

    for (s, stream) in streams.iter().enumerate() {
        let id = format!("dr-{s}");
        client.open(&id, tiny_spec(80 + s as u64)).unwrap();
        for chunk in stream[..12].chunks(4) {
            client.ingest(&id, chunk).unwrap();
        }
    }
    // Drain whichever shard currently holds dr-0 (guaranteed non-empty),
    // then finish every stream on the survivor.
    let drained = cluster.session_shard("dr-0").unwrap();
    let moved = cluster.drain_shard(drained).unwrap();
    assert!(moved >= 1, "dr-0 lived on the drained shard");
    assert_eq!(cluster.shard_ids().len(), 1);

    for (s, stream) in streams.iter().enumerate() {
        let id = format!("dr-{s}");
        for chunk in stream[12..].chunks(4) {
            client.ingest(&id, chunk).unwrap();
        }
        let served = client.checkpoint(&id).unwrap();
        let mut local = snn_online::OnlineLearner::new(tiny_spec(80 + s as u64).online_config());
        for chunk in stream.chunks(4) {
            local.ingest_batch(chunk).unwrap();
        }
        assert_eq!(
            served,
            local.checkpoint().to_bytes(),
            "session dr-{s} must be bit-identical after the drain"
        );
        client.close(&id).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn joining_a_shard_mid_stream_perturbs_nothing() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    let n_sessions = 6u64;
    let streams: Vec<Vec<Image>> = (0..n_sessions)
        .map(|s| scenario_stream(Scenario::NoiseBurst, 90 + s, 24))
        .collect();

    for (s, stream) in streams.iter().enumerate() {
        let id = format!("jn-{s}");
        client.open(&id, tiny_spec(90 + s as u64)).unwrap();
        for chunk in stream[..12].chunks(4) {
            client.ingest(&id, chunk).unwrap();
        }
    }
    // The join rebalances every session the new ring places on the
    // joined shard, then every stream finishes wherever it now lives.
    let joined = cluster.spawn_shard(ServerConfig::default()).unwrap();
    assert!(
        (0..n_sessions).any(|s| cluster.session_shard(&format!("jn-{s}")) == Some(joined)),
        "the join moved at least one session onto the new shard"
    );

    for (s, stream) in streams.iter().enumerate() {
        let id = format!("jn-{s}");
        for chunk in stream[12..].chunks(4) {
            client.ingest(&id, chunk).unwrap();
        }
        let served = client.checkpoint(&id).unwrap();
        let mut local = snn_online::OnlineLearner::new(tiny_spec(90 + s as u64).online_config());
        for chunk in stream.chunks(4) {
            local.ingest_batch(chunk).unwrap();
        }
        assert_eq!(
            served,
            local.checkpoint().to_bytes(),
            "session jn-{s} must be bit-identical after the join"
        );
        client.close(&id).unwrap();
    }
    cluster.shutdown();
}
