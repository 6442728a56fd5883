//! The chaos drill: kill a shard under concurrent load and prove, from
//! the servers' side, that nothing was lost and that the incident
//! explains itself.
//!
//! Four sessions stream through a shadowing router, one client thread
//! each (even sessions speak proto 1, odd ones proto 2). Every session
//! parks at its halfway mark, and the victim shard dies only once all of
//! them are parked and every victim-resident shadow covers that mark.
//! The sessions then finish through restore-from-shadow failover while a
//! live `subscribe` stream feeds an SLO engine. Afterwards:
//!
//! * every session closes with its whole stream counted server-side,
//! * no failover or restore in the post-mortem journal replayed a
//!   shadow older than the halfway mark,
//! * the merged scrape counts the failovers, and the deliberately
//!   unattainable ingest canary fired over the subscription, and
//! * `cluster-trace` assembles the incident even though its shard is
//!   gone.
//!
//! Bit-exactness across a kill is pinned by `tests/cluster_heal.rs`, the
//! post-mortem rid chain by `tests/postmortem.rs`.

mod common;

use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use common::{ingest_through_failover, stream, tiny_spec};
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_obs::JournalSnapshot;
use snn_serve::{ServeClient, ServerConfig, SnnServer, PROTO_V2, PROTO_VERSION};
use snn_slo::{Objective, Signal, SloEngine, SloPolicy};

const SESSIONS: u64 = 4;
const SAMPLES: u64 = 32;
const HALFWAY: u64 = SAMPLES / 2;
/// How long any single wait in the drill may take before it counts as
/// hung.
const DEADLINE: Duration = Duration::from_secs(30);

/// One exposition or journal verb through the router, decoded to text.
fn scrape_text(client: &mut ServeClient, verb: &str) -> String {
    let reply = client.call_raw(verb).expect("scrape round trip");
    let resp = snn_serve::protocol::parse_response(&reply).expect("scrape reply parses");
    let hex = resp.get("data").expect("scrape reply carries data");
    let bytes = snn_serve::protocol::hex_decode(hex).expect("scrape payload is hex");
    String::from_utf8(bytes).expect("scrape payload is UTF-8")
}

fn scrape(client: &mut ServeClient, verb: &str) -> snn_obs::Snapshot {
    snn_obs::Snapshot::parse(&scrape_text(client, verb)).expect("exposition parses")
}

/// One drill client: streams the first half of session `s`, reports on
/// `parked`, holds until `resume` fires after the kill, streams the rest
/// through the failover and returns the server-side sample count from
/// the close report.
fn drive_session(router: SocketAddr, s: u64, parked: Sender<()>, resume: Receiver<()>) -> u64 {
    let id = format!("ch-{s}");
    let proto = if s.is_multiple_of(2) {
        PROTO_VERSION
    } else {
        PROTO_V2
    };
    let mut client = ServeClient::connect_with_proto(router, proto).expect("connect");
    let full = stream(s, SAMPLES);
    let (first, second) = full.split_at(HALFWAY as usize);
    for chunk in first.chunks(4) {
        client.ingest(&id, chunk).expect("pre-kill ingest");
    }
    parked.send(()).expect("the drill is waiting");
    resume
        .recv_timeout(DEADLINE)
        .expect("the drill never killed the victim");
    for chunk in second.chunks(4) {
        ingest_through_failover(&mut client, &id, chunk);
    }
    client.close(&id).expect("close").samples
}

#[test]
fn shard_killed_under_load_loses_nothing_and_explains_itself() {
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
    // The victim runs outside the cluster so the drill can kill it
    // behind the router's back — an abrupt crash, not a drain.
    let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let victim = cluster.attach_shard(external.local_addr()).unwrap();
    let router = cluster.local_addr();

    let mut client = ServeClient::connect_with_proto(router, PROTO_V2).unwrap();
    let ids: Vec<String> = (0..SESSIONS).map(|s| format!("ch-{s}")).collect();
    for (s, id) in (0..SESSIONS).zip(&ids) {
        client.open(id, tiny_spec(s)).unwrap();
    }
    // Placement is a pure function of the ids, and seeding the victim by
    // migration would journal a restore from before the halfway mark.
    let doomed: Vec<&String> = ids
        .iter()
        .filter(|id| cluster.session_shard(id) == Some(victim))
        .collect();
    assert!(
        !doomed.is_empty(),
        "the ring places a session on the victim"
    );

    // For the whole drill a live subscription feeds an SLO engine. The
    // ingest canary (p99 under 1 µs) cannot be met, so the path
    // `subscribe → SloEngine → alert` must fire. The policy is
    // hair-triggered because the load arrives in bursts around the kill.
    let mut subscription = ServeClient::connect_with_proto(router, PROTO_V2)
        .unwrap()
        .subscribe(10)
        .unwrap();

    let (closed, (frames, alerts)) = std::thread::scope(|scope| {
        // Every channel sender below lives in this closure, so a panic
        // here releases the threads waiting on it instead of hanging.
        let (stop, stopped) = mpsc::channel::<()>();
        let subscriber = scope.spawn(move || {
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
            let (mut frames, mut alerts) = (0u64, 0u64);
            while stopped.try_recv() == Err(TryRecvError::Empty) {
                // A clean shutdown ends the stream.
                let Ok(push) = subscription.next() else { break };
                frames += 1;
                alerts += engine.observe(&push.metrics, push.seq * 10_000).len() as u64;
            }
            (frames, alerts)
        });

        let (parked_tx, parked) = mpsc::channel();
        let mut resume = Vec::new();
        let clients: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let (go, wait) = mpsc::channel();
                resume.push(go);
                let parked = parked_tx.clone();
                scope.spawn(move || drive_session(router, s, parked, wait))
            })
            .collect();
        drop(parked_tx);
        for _ in 0..SESSIONS {
            parked
                .recv_timeout(DEADLINE)
                .expect("every session parks at its halfway mark");
        }
        // Nothing is in flight now. Kill only once every victim-resident
        // shadow covers the halfway mark: the shadower's first sweep
        // parks a seq-0 blob, and killing on that evidence restores empty
        // learners while every client still finishes — the silent loss
        // this drill exists to rule out.
        let deadline = Instant::now() + DEADLINE;
        while !doomed.iter().all(|id| {
            cluster
                .session_shadow(id)
                .is_some_and(|(_, seq)| seq >= HALFWAY)
        }) {
            assert!(
                Instant::now() < deadline,
                "the shadows never covered the halfway mark"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        external.shutdown();
        for go in resume {
            go.send(()).unwrap();
        }
        let closed: Vec<u64> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        drop(stop);
        (closed, subscriber.join().unwrap())
    });

    // Server-side completeness: a failover that restored an empty shadow
    // would still let every client call succeed.
    for (id, samples) in ids.iter().zip(&closed) {
        assert_eq!(
            *samples, SAMPLES,
            "{id} closed with {samples}/{SAMPLES} samples on the server: the failover lost data"
        );
    }
    assert!(frames >= 1, "the drill must stream at least one frame");
    assert!(
        alerts >= 1,
        "the canary objective must fire over the subscription"
    );

    // Both exposition verbs still parse after a shard death.
    let router_only = scrape(&mut client, "metrics");
    assert!(
        router_only.counters.contains_key("cluster.relays"),
        "router metrics expose the relay counter"
    );
    let telemetry = scrape(&mut client, "cluster-metrics");
    assert!(
        telemetry.counter("cluster.failovers") >= 1,
        "the kill must exercise at least one failover"
    );
    assert!(
        telemetry.counters.contains_key("cluster.subscribe.drops"),
        "the merged scrape reports subscriber drops"
    );

    // The merged post-mortem (router, live shard and the victim's
    // black-box copy) must never show a failover or restore that
    // replayed a shadow from before the halfway mark.
    let journal = JournalSnapshot::parse(&scrape_text(&mut client, "cluster-journal"))
        .expect("journal parses");
    assert!(
        journal.events.iter().any(|e| e.kind == "cluster.failover"),
        "the post-mortem records the failovers"
    );
    for (kind, key) in [("cluster.failover", "seq"), ("serve.restore", "samples")] {
        for e in journal.events.iter().filter(|e| e.kind == kind) {
            let value = e.field(key).and_then(|v| v.parse::<u64>().ok());
            assert!(
                value.is_some_and(|v| v >= HALFWAY),
                "{kind} of {:?} carries {key}={value:?}, expected >= {HALFWAY}",
                e.field("id")
            );
        }
    }

    // The incident assembles on demand although its shard is dead: the
    // victim's phases come from its frozen black-box journal.
    let down = journal
        .events
        .iter()
        .find(|e| e.kind == "cluster.shard_down" && e.field("shard") == Some(&victim.to_string()))
        .expect("the post-mortem records the victim's death");
    let tree = client.cluster_trace(&down.rid).expect("incident trace");
    assert_eq!(tree.rid, down.rid, "the tree is the incident's");
    let rendered = tree.render();
    assert!(
        rendered.contains("event.cluster.shard_down"),
        "the incident trace names the death verdict:\n{rendered}"
    );
    assert!(
        tree.root.count() >= 2,
        "the incident trace is a real tree:\n{rendered}"
    );

    cluster.shutdown();
}
