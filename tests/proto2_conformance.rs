//! Differential proto 1 ↔ proto 2 conformance (`DESIGN.md` §13).
//!
//! The binary framing layer is pinned by running the **same scripted
//! workloads** over both protocols and asserting the protocols are
//! indistinguishable above the wire:
//!
//! * **Byte-identical checkpoints** — the learner's state never depends
//!   on which framing carried it.
//! * **Identical replies modulo framing** — the proto 2 frame→line
//!   reconstruction reproduces proto 1's reply lines exactly.
//! * **Identical metrics deltas** — filtered to exclude the counters
//!   that *define* the difference (wire bytes, per-proto latency) and
//!   wall-clock noise.
//! * **Torture mode** — every request frame delivered one byte at a
//!   time, so the server's reassembly sees every possible split point.
//!
//! Cluster-level conformance additionally drives a mid-stream live
//! migration under both protocols and a shard-kill failover under
//! proto 2 (the relay path itself multiplexes frames by default).

mod common;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{ingest_through_failover, stream, tiny_spec};
use snn_cluster::{Cluster, ClusterConfig, ClusterLimits};
use snn_serve::frame::{line_to_frame, Frame};
use snn_serve::protocol::{format_request, hex_decode, parse_response, Request};
use snn_serve::{ServeClient, ServerConfig, SnnServer, PROTO_V2, PROTO_VERSION};

/// Counter totals with the protocol-dependent and wall-clock-dependent
/// names removed: what must be *identical* across a proto 1 and a
/// proto 2 run of the same workload.
fn filtered_counters(snapshot: &snn_obs::Snapshot) -> BTreeMap<String, u64> {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| {
            !name.contains(".wire.") && !name.ends_with("_us") && !name.contains("uptime")
        })
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

/// Scrapes and parses one exposition verb (serve `metrics` or router
/// `cluster-metrics`).
fn scrape(client: &mut ServeClient, verb: &str) -> snn_obs::Snapshot {
    let reply = client.call_raw(verb).expect("scrape round trip");
    let resp = parse_response(&reply).expect("scrape reply parses");
    let hex = resp.get("data").expect("scrape reply carries data");
    let bytes = hex_decode(hex).expect("scrape payload is hex");
    let text = String::from_utf8(bytes).expect("scrape payload is UTF-8");
    snn_obs::Snapshot::parse(&text).expect("exposition parses")
}

/// The scripted session workload: every state-bearing verb in the
/// protocol, as raw request lines, in a fixed order. Returns the raw
/// request lines so both transports send byte-identical requests.
fn serve_script(seed: u64) -> Vec<String> {
    let id = "conf".to_string();
    let full = stream(seed, 16);
    let mut script = vec![format_request(&Request::Open {
        id: id.clone(),
        spec: tiny_spec(seed),
    })];
    for chunk in full.chunks(4) {
        script.push(format_request(&Request::Ingest {
            id: id.clone(),
            images: chunk.to_vec(),
        }));
    }
    script.push(format!("report id={id}"));
    script.push(format!("energy id={id}"));
    script.push(format!("checkpoint id={id}"));
    script
}

/// Runs the scripted workload over one protocol against a fresh server:
/// returns (reply lines, checkpoint bytes, restore/swap/close replies,
/// filtered counters, client rx bytes on the wire).
fn run_serve_workload(proto: u32) -> (Vec<String>, Vec<u8>, BTreeMap<String, u64>, u64) {
    let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("server");
    let mut client = ServeClient::connect_with_proto(server.local_addr(), proto).expect("connect");
    assert_eq!(client.proto(), proto);

    let mut replies = Vec::new();
    for line in serve_script(11) {
        replies.push(client.call_raw(&line).expect("scripted request"));
    }
    // The checkpoint reply carries the state; round-trip it through
    // restore and swap so the blob crosses the wire in both directions.
    let checkpoint = {
        let resp = parse_response(replies.last().expect("script is non-empty")).expect("parses");
        hex_decode(resp.get("data").expect("checkpoint data")).expect("checkpoint hex")
    };
    let restore_line = format_request(&Request::Restore {
        id: "conf-restored".to_string(),
        snapshot: checkpoint.clone(),
    });
    replies.push(client.call_raw(&restore_line).expect("restore"));
    let swap_line = format_request(&Request::Swap {
        id: "conf".to_string(),
        snapshot: checkpoint.clone(),
    });
    replies.push(client.call_raw(&swap_line).expect("swap"));
    replies.push(client.call_raw("close id=conf").expect("close"));
    replies.push(client.call_raw("close id=conf-restored").expect("close"));

    let counters = filtered_counters(&scrape(&mut client, "metrics"));
    let (_tx, rx) = client.wire_bytes();
    (replies, checkpoint, counters, rx)
}

#[test]
fn serve_workload_is_identical_across_protocols() {
    let (replies_1, ckpt_1, counters_1, rx_1) = run_serve_workload(PROTO_VERSION);
    let (replies_2, ckpt_2, counters_2, rx_2) = run_serve_workload(PROTO_V2);

    assert_eq!(
        replies_1, replies_2,
        "every reply line must be identical modulo framing"
    );
    assert_eq!(ckpt_1, ckpt_2, "checkpoints must be byte-identical");
    assert_eq!(
        counters_1, counters_2,
        "filtered metrics deltas must be identical"
    );
    // The same checkpoint-heavy workload must cost fewer bytes framed:
    // the blob rides as raw bytes instead of hex text.
    assert!(
        rx_2 < rx_1,
        "proto 2 must receive fewer bytes ({rx_2} vs {rx_1})"
    );
}

#[test]
fn frame_split_torture_yields_byte_identical_checkpoints() {
    // Reference run: the same script over plain proto 1.
    let (replies_ref, ckpt_ref, _, _) = run_serve_workload(PROTO_VERSION);

    // Torture run: proto 2 with every request frame written one byte at
    // a time, so the server's frame reassembly crosses every possible
    // split boundary (header/head/payload/checksum).
    let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("server");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("hello proto={PROTO_V2}\n").as_bytes())
        .expect("hello");
    let mut banner = String::new();
    BufReader::new(stream.try_clone().expect("clone"))
        .read_line(&mut banner)
        .expect("banner");
    assert!(banner.starts_with("ok proto=2"), "got {banner:?}");

    let mut reader = stream;
    let mut call_tortured = |line: &str, tag: u32| -> String {
        for byte in line_to_frame(line, tag, 0).encode() {
            writer.write_all(&[byte]).expect("single byte");
            writer.flush().expect("flush");
        }
        let frame = Frame::read_from(&mut reader)
            .expect("reply frame")
            .expect("connection stays open");
        assert_eq!(frame.tag, tag, "reply routed to the request's tag");
        frame.to_line().expect("reply decodes")
    };

    let mut replies = Vec::new();
    let mut tag = 1u32;
    // Strictly request-by-request: the torture pins reassembly, not
    // concurrent scheduling (worker threads would race reply order).
    for line in serve_script(11) {
        replies.push(call_tortured(&line, tag));
        tag += 1;
    }
    let checkpoint = {
        let resp = parse_response(replies.last().expect("non-empty")).expect("parses");
        hex_decode(resp.get("data").expect("checkpoint data")).expect("checkpoint hex")
    };
    replies.push(call_tortured(
        &format_request(&Request::Restore {
            id: "conf-restored".to_string(),
            snapshot: checkpoint.clone(),
        }),
        tag,
    ));
    replies.push(call_tortured(
        &format_request(&Request::Swap {
            id: "conf".to_string(),
            snapshot: checkpoint.clone(),
        }),
        tag + 1,
    ));
    replies.push(call_tortured("close id=conf", tag + 2));
    replies.push(call_tortured("close id=conf-restored", tag + 3));

    assert_eq!(replies, replies_ref, "tortured replies match proto 1");
    assert_eq!(
        checkpoint, ckpt_ref,
        "tortured checkpoint is byte-identical"
    );
}

/// A quiet cluster: no health probes or shadow ticks during the run, so
/// metrics deltas are a pure function of the request script.
fn quiet_cluster() -> Cluster {
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
    .expect("cluster");
    cluster.spawn_shard(ServerConfig::default()).expect("shard");
    cluster.spawn_shard(ServerConfig::default()).expect("shard");
    cluster
}

/// The scripted cluster workload: two sessions, one live-migrated to the
/// other shard and back mid-stream. Returns (predictions, checkpoints,
/// filtered merged counters, relay p2 tx bytes, the `data=` payload
/// bytes on the router's client-facing wire).
#[allow(clippy::type_complexity)]
fn run_cluster_workload(
    proto: u32,
) -> (
    Vec<Vec<Option<u8>>>,
    Vec<Vec<u8>>,
    BTreeMap<String, u64>,
    u64,
    u64,
) {
    let cluster = quiet_cluster();
    let mut client = ServeClient::connect_with_proto(cluster.local_addr(), proto).expect("connect");
    assert_eq!(client.proto(), proto);

    let mut predictions = Vec::new();
    let mut checkpoints = Vec::new();
    for (i, id) in ["fixed", "moved"].into_iter().enumerate() {
        let seed = 40 + i as u64;
        let full = stream(seed, 16);
        client.open(id, tiny_spec(seed)).expect("open");
        let mut preds = Vec::new();
        for chunk in full[..8].chunks(4) {
            preds.extend(client.ingest(id, chunk).expect("ingest").predictions);
        }
        if id == "moved" {
            // Hop to the other shard and back: two live migrations whose
            // checkpoint blobs ride the negotiated relay framing.
            let home = cluster.session_shard(id).expect("placed");
            let other = cluster
                .shard_ids()
                .into_iter()
                .find(|&s| s != home)
                .expect("two shards");
            cluster.migrate_session(id, other).expect("migrate out");
            for chunk in full[8..12].chunks(4) {
                preds.extend(client.ingest(id, chunk).expect("ingest").predictions);
            }
            cluster.migrate_session(id, home).expect("migrate home");
            for chunk in full[12..].chunks(4) {
                preds.extend(client.ingest(id, chunk).expect("ingest").predictions);
            }
        } else {
            for chunk in full[8..].chunks(4) {
                preds.extend(client.ingest(id, chunk).expect("ingest").predictions);
            }
        }
        predictions.push(preds);
        checkpoints.push(client.checkpoint(id).expect("checkpoint"));
    }

    let merged = scrape(&mut client, "cluster-metrics");
    let relay_p2 = merged.counter("cluster.relay.p2.tx_bytes");
    let counters = filtered_counters(&merged);
    let p = if proto >= PROTO_V2 { 2 } else { 1 };
    let client_rx = merged.counter(&format!("cluster.wire.p{p}.tx_bytes"));
    assert!(
        client_rx > 0,
        "the router counted its client-facing proto {proto} traffic"
    );
    let payload = merged.counter(&format!("cluster.wire.p{p}.payload_bytes"));
    for id in ["fixed", "moved"] {
        client.close(id).expect("close");
    }
    cluster.shutdown();
    (predictions, checkpoints, counters, relay_p2, payload)
}

#[test]
fn cluster_workload_with_migration_is_identical_across_protocols() {
    let (preds_1, ckpts_1, counters_1, relay_1, payload_1) = run_cluster_workload(PROTO_VERSION);
    let (preds_2, ckpts_2, counters_2, relay_2, payload_2) = run_cluster_workload(PROTO_V2);

    assert_eq!(preds_1, preds_2, "predictions must match across protocols");
    assert_eq!(
        ckpts_1, ckpts_2,
        "post-migration checkpoints must be byte-identical"
    );
    assert_eq!(
        counters_1, counters_2,
        "filtered merged metrics deltas must be identical"
    );
    // The relay negotiates proto 2 regardless of what the *client*
    // speaks: migration blobs crossed the router↔shard wire as binary
    // frames in both runs.
    assert!(relay_1 > 0, "proto 1 client still rides a proto 2 relay");
    assert!(relay_2 > 0, "proto 2 relay carried the migration blobs");
    // The binary framing's headline claim on the client wire: the same
    // payloads (hex text vs raw bytes) in at least 2x fewer bytes.
    assert!(
        payload_2 > 0 && payload_1 as f64 / payload_2 as f64 >= 2.0,
        "proto 2 must move >= 2x fewer payload bytes (p1 {payload_1} B, p2 {payload_2} B)"
    );
}

#[test]
fn proto2_sessions_survive_a_shard_kill_bit_exact() {
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

    let n_sessions = 3u64;
    let mut client =
        ServeClient::connect_with_proto(cluster.local_addr(), PROTO_V2).expect("connect");
    for s in 0..n_sessions {
        client.open(&format!("k-{s}"), tiny_spec(s)).expect("open");
    }
    if !(0..n_sessions).any(|s| cluster.session_shard(&format!("k-{s}")) == Some(victim)) {
        cluster.migrate_session("k-0", victim).expect("seed victim");
    }
    for s in 0..n_sessions {
        client
            .ingest(&format!("k-{s}"), &stream(s, 16)[..8])
            .expect("first half");
    }

    // Park every victim-resident shadow at exactly seq 8, then kill.
    let doomed: Vec<String> = (0..n_sessions)
        .map(|s| format!("k-{s}"))
        .filter(|id| cluster.session_shard(id) == Some(victim))
        .collect();
    assert!(!doomed.is_empty(), "the victim hosts at least one session");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !doomed
        .iter()
        .all(|id| cluster.session_shadow(id).map(|(_, seq)| seq) == Some(8))
    {
        assert!(Instant::now() < deadline, "shadower never parked seq 8");
        std::thread::sleep(Duration::from_millis(10));
    }
    external.shutdown();

    for s in 0..n_sessions {
        ingest_through_failover(&mut client, &format!("k-{s}"), &stream(s, 16)[8..]);
    }
    for id in &doomed {
        let now = cluster.session_shard(id);
        assert!(
            now.is_some() && now != Some(victim),
            "{id} must fail over, not drop"
        );
    }
    // Bit-exact against a single-process learner with the same ingest
    // partitioning — the kill (and the binary framing that carried the
    // shadow and restore blobs) changed nothing the learner can see.
    for s in 0..n_sessions {
        let id = format!("k-{s}");
        let full = stream(s, 16);
        let mut reference = snn_online::OnlineLearner::new(tiny_spec(s).online_config());
        reference.ingest_batch(&full[..8]).expect("reference");
        reference.ingest_batch(&full[8..]).expect("reference");
        assert_eq!(
            client.checkpoint(&id).expect("checkpoint"),
            reference.checkpoint().to_bytes(),
            "{id}: checkpoint must be bit-identical across the kill"
        );
    }

    let merged = scrape(&mut client, "cluster-metrics");
    assert_eq!(merged.counter("cluster.failovers"), doomed.len() as u64);
    assert!(
        merged.counter("cluster.relay.p2.tx_bytes") > 0,
        "shadow and restore blobs rode the binary relay"
    );
    assert!(
        merged.counter("cluster.wire.p2.rx_bytes") > 0,
        "the client side of the failover spoke proto 2 throughout"
    );
    for s in 0..n_sessions {
        client.close(&format!("k-{s}")).expect("close");
    }
    cluster.shutdown();
}
