//! Trace assembly under topology churn (`DESIGN.md` §14): the
//! `cluster-trace` assembler must keep explaining requests when the
//! cluster is anything but static.
//!
//! * **Live migration** — a session's requests stay traceable before
//!   and after a mid-stream move, and the migration's own rid
//!   assembles into a tree whose shard-side `checkpoint`/`restore`
//!   phases span two processes.
//! * **Shard-kill failover** — after the home shard dies behind the
//!   router's back, the rid of a request that shard served still
//!   assembles: the live tiers contribute their spans, and the dead
//!   shard's part of the story is sourced from its frozen black-box
//!   journal (`via=journal` leaves). A trace must never go dark just
//!   because the process that served it did.

mod common;

use std::time::{Duration, Instant};

use common::{ingest_through_failover, stream, tiny_spec};
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_serve::protocol::{format_request, parse_response, Request};
use snn_serve::{ServeClient, ServerConfig, SnnServer};

/// True when any node in the subtree carries the phase label.
fn has_phase(node: &snn_obs::TraceNode, phase: &str) -> bool {
    node.phase == phase || node.children.iter().any(|c| has_phase(c, phase))
}

/// Sends a raw request line and returns (reply fields, the rid the
/// routed reply carried).
fn call_for_rid(client: &mut ServeClient, line: &str) -> String {
    let reply = client.call_raw(line).expect("round trip");
    let resp = parse_response(&reply).expect("well-formed reply");
    resp.get("rid")
        .unwrap_or_else(|| panic!("routed reply must carry a rid: {reply}"))
        .to_string()
}

#[test]
fn trace_assembly_survives_a_live_migration() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();

    let full = stream(80, 16);
    client.open("roam", tiny_spec(80)).unwrap();
    let rid_before = call_for_rid(
        &mut client,
        &format_request(&Request::Ingest {
            id: "roam".to_string(),
            images: full[..8].to_vec(),
        }),
    );

    let here = cluster.session_shard("roam").unwrap();
    let there = cluster
        .shard_ids()
        .into_iter()
        .find(|&s| s != here)
        .unwrap();
    cluster.migrate_session("roam", there).unwrap();
    let rid_after = call_for_rid(
        &mut client,
        &format_request(&Request::Ingest {
            id: "roam".to_string(),
            images: full[8..].to_vec(),
        }),
    );

    // Requests on both sides of the move assemble the full phase chain —
    // the post-move tree is built from a *different* shard's spans, and
    // the assembler cannot tell (nor should it).
    for rid in [&rid_before, &rid_after] {
        let tree = client.cluster_trace(rid).unwrap();
        assert_eq!(tree.rid, *rid);
        assert_eq!(tree.root.phase, "accept");
        for phase in ["relay", "request", "queue_wait", "exec"] {
            assert!(
                has_phase(&tree.root, phase),
                "rid {rid}: missing `{phase}` in:\n{}",
                tree.render()
            );
        }
    }

    // The migration's own rid tells the move's story across two shards:
    // the forwarded checkpoint (old home) and restore (new home) both
    // executed as rid-attributed requests.
    let merged = client.call_raw("cluster-metrics").unwrap();
    let resp = parse_response(&merged).unwrap();
    let text =
        String::from_utf8(snn_serve::protocol::hex_decode(resp.get("data").unwrap()).unwrap())
            .unwrap();
    let snapshot = snn_obs::Snapshot::parse(&text).unwrap();
    let migrate_rid = snapshot
        .spans
        .iter()
        .find(|s| s.name == "cluster.migrate")
        .expect("migration span in the merged scrape")
        .rid
        .clone();
    let tree = client.cluster_trace(&migrate_rid).unwrap();
    let rendered = tree.render();
    for name in ["serve.checkpoint", "serve.restore"] {
        assert!(
            rendered.contains(name),
            "migration trace must cite {name}:\n{rendered}"
        );
    }

    client.close("roam").unwrap();
    cluster.shutdown();
}

#[test]
fn trace_assembly_survives_a_shard_kill_via_the_black_box_journal() {
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
    .expect("cluster");
    cluster.spawn_shard(ServerConfig::default()).expect("shard");
    // The victim runs outside the cluster so the test can kill it
    // behind the router's back.
    let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("victim");
    let victim = cluster.attach_shard(external.local_addr()).expect("attach");

    // Open sessions via raw lines so each open reply's rid is captured —
    // the victim's flight recorder attributes its `serve.open` event to
    // exactly that rid. Keep opening until the hash ring places one on
    // the victim: that session's open was *served by* the soon-to-die
    // process, so its shard-side evidence will die with it.
    let mut client = ServeClient::connect(cluster.local_addr()).expect("connect");
    let mut open_rids = Vec::new();
    let mut n_sessions = 0u64;
    let mut doomed = None;
    while n_sessions < 3 || (doomed.is_none() && n_sessions < 16) {
        let s = n_sessions;
        let line = format_request(&Request::Open {
            id: format!("k-{s}"),
            spec: tiny_spec(s),
        });
        open_rids.push(call_for_rid(&mut client, &line));
        if doomed.is_none() && cluster.session_shard(&format!("k-{s}")) == Some(victim) {
            doomed = Some(s);
        }
        n_sessions += 1;
    }
    let doomed = doomed.expect("the ring must place some session on the victim");
    for s in 0..n_sessions {
        client
            .ingest(&format!("k-{s}"), &stream(s, 16)[..8])
            .expect("first half");
    }

    // Park every victim-resident shadow at exactly seq 8, then kill.
    let resident: Vec<String> = (0..n_sessions)
        .map(|s| format!("k-{s}"))
        .filter(|id| cluster.session_shard(id) == Some(victim))
        .collect();
    assert!(
        !resident.is_empty(),
        "the victim hosts at least one session"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !resident
        .iter()
        .all(|id| cluster.session_shadow(id).map(|(_, seq)| seq) == Some(8))
    {
        assert!(Instant::now() < deadline, "shadower never parked seq 8");
        std::thread::sleep(Duration::from_millis(10));
    }
    external.shutdown();

    // Drive every session through the failover window.
    for s in 0..n_sessions {
        let id = format!("k-{s}");
        ingest_through_failover(&mut client, &id, &stream(s, 16)[8..]);
    }

    // The incident rid (shared by the probe strikes and the death
    // verdict) must assemble even though it references a dead process.
    let reply = client.call_raw("cluster-journal").expect("journal scrape");
    let resp = parse_response(&reply).expect("well-formed journal reply");
    let text = String::from_utf8(
        snn_serve::protocol::hex_decode(resp.get("data").expect("journal data")).unwrap(),
    )
    .unwrap();
    let journal = snn_obs::JournalSnapshot::parse(&text).expect("merged journal parses");
    let down = journal
        .events
        .iter()
        .find(|e| e.name == "cluster.shard_down" && e.field("shard") == Some(&victim.to_string()))
        .expect("the journal records the victim's death");
    let incident = client.cluster_trace(&down.rid).expect("incident trace");
    assert_eq!(incident.rid, down.rid);
    let rendered = incident.render();
    assert!(
        rendered.contains("event.cluster.shard_down"),
        "incident trace names the verdict:\n{rendered}"
    );

    // The core claim: a request the DEAD shard served is still
    // explainable. Its router-side spans survive in the router's ring;
    // the shard-side evidence is gone with the process — except for the
    // black-box journal the router froze at the moment of death, whose
    // rid-attributed `serve.open` event joins the tree as a
    // `via=journal` leaf.
    let rid = &open_rids[doomed as usize];
    let tree = client
        .cluster_trace(rid)
        .expect("dead-shard request still assembles");
    assert_eq!(tree.rid, *rid);
    assert_eq!(tree.root.phase, "accept", "router spans root the tree");
    assert!(has_phase(&tree.root, "relay"));
    let rendered = tree.render();
    assert!(
        rendered.contains("event.serve.open") && rendered.contains("via=journal"),
        "the dead shard's open event must come from the black box:\n{rendered}"
    );

    for s in 0..n_sessions {
        client.close(&format!("k-{s}")).expect("close");
    }
    cluster.shutdown();
}
