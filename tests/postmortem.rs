//! Workspace-level guarantee of the flight recorder: after a chaos
//! kill, one `cluster-journal` scrape returns a merged post-mortem
//! whose tail *explains* the failover end to end —
//!
//! * the victim's last pre-death journal is present (captured by the
//!   router's black-box sweep while the shard still answered probes),
//! * every probe strike and the death verdict share one incident
//!   request id, and
//! * each failover names that incident as its `cause` and reappears as
//!   the target shard's `serve.restore` under the failover's own rid —
//!
//! so the whole chain `probe_fail → shard_down → failover → restore`
//! is walkable by rid from a single artifact, with no shard left to
//! ask.

mod common;

use std::time::{Duration, Instant};

use common::{ingest_through_failover, stream, tiny_spec};
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_obs::JournalSnapshot;
use snn_serve::{ServeClient, ServerConfig, SnnServer};

/// One `cluster-journal` round trip, decoded into the merged snapshot.
fn cluster_journal(client: &mut ServeClient) -> JournalSnapshot {
    let reply = client.call_raw("cluster-journal").expect("journal scrape");
    let resp = snn_serve::protocol::parse_response(&reply).expect("journal reply parses");
    let hex = resp.get("data").expect("journal reply carries data");
    let bytes = snn_serve::protocol::hex_decode(hex).expect("journal payload is hex");
    let text = String::from_utf8(bytes).expect("journal payload is UTF-8");
    JournalSnapshot::parse(&text).expect("journal text parses")
}

#[test]
fn postmortem_journal_tail_explains_the_failover_by_rid() {
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
    let internal = cluster.spawn_shard(ServerConfig::default()).unwrap();
    // The victim runs outside the cluster so the test can kill it
    // behind the router's back — an abrupt crash, not a drain.
    let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let victim = cluster.attach_shard(external.local_addr()).unwrap();

    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
    for s in 0..2u64 {
        client.open(&format!("pm-{s}"), tiny_spec(s)).unwrap();
    }
    // Land pm-0 on the victim *by migration*: the migration's restore is
    // journaled on the victim and nowhere else, so its presence in the
    // final merged journal proves the black-box capture survived the
    // process the events died with.
    if cluster.session_shard("pm-0") == Some(victim) {
        cluster.migrate_session("pm-0", internal).unwrap();
    }
    cluster.migrate_session("pm-0", victim).unwrap();

    for s in 0..2u64 {
        client
            .ingest(&format!("pm-{s}"), &stream(s, 16)[..8])
            .unwrap();
    }

    // Park every victim-resident shadow at seq 8, then give the health
    // loop a few ticks to refresh its black-box copy of the victim's
    // journal (it re-captures after every successful probe).
    let doomed: Vec<String> = (0..2u64)
        .map(|s| format!("pm-{s}"))
        .filter(|id| cluster.session_shard(id) == Some(victim))
        .collect();
    assert!(doomed.contains(&"pm-0".to_string()));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !doomed
        .iter()
        .all(|id| cluster.session_shadow(id).map(|(_, seq)| seq) == Some(8))
    {
        assert!(Instant::now() < deadline, "shadower never parked seq 8");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(250));

    // Kill. No drain, no goodbye: the router finds out from its probes.
    external.shutdown();
    for s in 0..2u64 {
        ingest_through_failover(&mut client, &format!("pm-{s}"), &stream(s, 16)[8..]);
    }

    let journal = cluster_journal(&mut client);

    // The death verdict names the victim and carries the incident rid…
    let down = journal
        .events
        .iter()
        .find(|e| e.kind == "cluster.shard_down" && e.field("shard") == Some(&victim.to_string()))
        .expect("merged journal records the shard death");
    let incident = down.rid.clone();
    assert!(!incident.is_empty(), "shard death is rid-attributed");

    // …every probe strike of the incident shares that rid and precedes
    // the verdict (same recording clock: all router-side events)…
    let strikes: Vec<_> = journal
        .events
        .iter()
        .filter(|e| e.kind == "cluster.probe_fail" && e.rid == incident)
        .collect();
    assert!(
        strikes.len() >= 2,
        "both strikes of the 2-probe verdict share the incident rid: {strikes:?}"
    );
    assert!(
        strikes.iter().all(|e| e.at_us <= down.at_us),
        "strikes precede the verdict"
    );

    // …each failover cites the incident as its cause and reappears on
    // the target shard as `serve.restore` under the failover's own rid.
    let failovers: Vec<_> = journal
        .events
        .iter()
        .filter(|e| e.kind == "cluster.failover" && e.field("cause") == Some(&incident))
        .collect();
    assert_eq!(
        failovers.len(),
        doomed.len(),
        "one failover per victim session, each citing the incident"
    );
    for fo in &failovers {
        assert!(fo.at_us >= down.at_us, "failovers follow the verdict");
        assert!(!fo.rid.is_empty() && fo.rid != incident);
        let id = fo.field("id").expect("failover names its session");
        assert!(
            journal
                .events
                .iter()
                .any(|e| e.kind == "serve.restore" && e.rid == fo.rid && e.field("id") == Some(id)),
            "restore of {id} stitches to failover rid {}",
            fo.rid
        );
    }

    // Black-box capture: pm-0's *migration* restore only ever existed in
    // the dead victim's journal, yet the merged post-mortem has it —
    // plus the failover restore — so the session restores twice.
    let pm0_restores = journal
        .events
        .iter()
        .filter(|e| e.kind == "serve.restore" && e.field("id") == Some("pm-0"))
        .count();
    assert!(
        pm0_restores >= 2,
        "victim's frozen journal contributes the pre-death restore (saw {pm0_restores})"
    );

    for s in 0..2u64 {
        client.close(&format!("pm-{s}")).unwrap();
    }
    cluster.shutdown();
}
