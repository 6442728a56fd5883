//! Workspace-level guarantees of the `snn-obs` telemetry spine:
//!
//! * **Observation never perturbs results** (the pinned invariant): a
//!   session served through an instrumented `snn-serve` server — with
//!   `metrics` scrapes interleaved mid-stream — finishes with a wire
//!   checkpoint **byte-identical** to an unobserved single-process
//!   [`snn_online::OnlineLearner`] fed the same stream. Telemetry reads
//!   clocks and bumps atomics; it never touches learner state.
//! * **Cross-tier trace stitching**: a live migration shows up in a
//!   `cluster-metrics` scrape as a `cluster.migrate` span carrying its
//!   duration, payload bytes, and originating request id — and the same
//!   rid attributes the shard-side spans the migration's forwarded
//!   `checkpoint`/`restore` lines produced, across process boundaries.
//! * **Every reply is explainable**: the rid a routed reply carries can
//!   be handed straight to `cluster-trace`, which assembles the merged
//!   router+shard trace tree — rooted at the router's accept span,
//!   bounded by the client-observed latency, with the queue/exec/write
//!   split accounted.
//!
//! Unit-level exposition tests (bucket bounds, merge algebra, hammer
//! concurrency) live in `snn-obs` itself.

use snn_cluster::{Cluster, ClusterConfig};
use snn_data::{Image, Scenario, SyntheticDigits};
use snn_serve::{ServeClient, ServerConfig, SessionSpec, SnnServer};
use snn_slo::{Objective, Signal, SloEngine, SloPolicy};
use spikedyn::Method;

/// A tiny 7×7-input profile so streams stay fast.
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

#[test]
fn observed_session_is_bit_identical_to_an_unobserved_learner() {
    let server =
        SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut scraper = ServeClient::connect(addr).expect("connect scraper");

    let spec = tiny_spec(70);
    let stream = scenario_stream(Scenario::GradualDrift, 70, 32);
    client.open("watched", spec.clone()).unwrap();

    // Drive the stream with a metrics scrape after every chunk — the
    // most adversarial interleaving observation can manage.
    let mut chunks = 0u64;
    for chunk in stream.chunks(spec.batch_size) {
        client.ingest("watched", chunk).unwrap();
        chunks += 1;
        let snap = scraper.metrics().expect("mid-stream scrape");
        assert_eq!(
            snap.histogram("serve.req.ingest_us").count(),
            chunks,
            "every ingest lands in its latency histogram"
        );
    }
    let wire_checkpoint = client.checkpoint("watched").unwrap();

    // The unobserved reference: a bare learner (its `obs` is never set),
    // fed the same stream in the same chunks.
    let mut reference = snn_online::OnlineLearner::new(spec.online_config());
    for chunk in stream.chunks(spec.batch_size) {
        reference.ingest_batch(chunk).unwrap();
    }
    assert_eq!(
        wire_checkpoint,
        reference.checkpoint().to_bytes(),
        "metrics collection must never perturb learner state"
    );

    // The scrape saw real traffic, attributed to this server's instance.
    let snap = scraper.metrics().unwrap();
    assert!(snap.counter("serve.requests") >= chunks);
    assert!(
        snap.spans.iter().any(|s| s.name == "serve.ingest"),
        "wire-level spans are recorded"
    );
    client.close("watched").unwrap();
    server.shutdown();
}

#[test]
fn subscribed_journaled_slo_watched_session_is_still_bit_identical() {
    let server =
        SnnServer::start("127.0.0.1:0", ServerConfig::default()).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    // The heaviest observation stack the stack offers, all at once: a
    // live telemetry subscription streaming frames throughout the run…
    let mut sub = ServeClient::connect(addr)
        .expect("connect subscriber")
        .subscribe(20)
        .expect("subscribe");
    // …feeding an SLO engine that evaluates every frame (journaling is
    // always-on; the flight recorder needs no opt-in).
    let mut engine = SloEngine::new(
        vec![
            Objective {
                name: "rejects".into(),
                signal: Signal::RejectRate,
                threshold: 0.01,
            },
            Objective {
                name: "ingest-p99".into(),
                signal: Signal::VerbLatencyP99Us("ingest".into()),
                threshold: 60_000_000.0,
            },
        ],
        SloPolicy::default(),
    );

    let spec = tiny_spec(72);
    let stream = scenario_stream(Scenario::NoiseBurst, 72, 32);
    client.open("triple", spec.clone()).unwrap();

    let mut frames = 0u64;
    let mut alerts = Vec::new();
    let mut journaled = Vec::new();
    for chunk in stream.chunks(spec.batch_size) {
        client.ingest("triple", chunk).unwrap();
        // Block for the next pushed frame and evaluate it — the most
        // adversarial interleaving: every ingest races a sampler scrape.
        let push = sub.next().expect("frame mid-stream");
        frames += 1;
        alerts.extend(engine.observe(&push.metrics, push.seq * 20_000));
        journaled.extend(push.journal.events);
    }
    let wire_checkpoint = client.checkpoint("triple").unwrap();

    let mut reference = snn_online::OnlineLearner::new(spec.online_config());
    for chunk in stream.chunks(spec.batch_size) {
        reference.ingest_batch(chunk).unwrap();
    }
    assert_eq!(
        wire_checkpoint,
        reference.checkpoint().to_bytes(),
        "streaming + journaling + SLO evaluation must never perturb learner state"
    );

    // The observation stack really ran: frames arrived, the engine saw
    // them, and a healthy service fired nothing.
    assert_eq!(frames, 8);
    assert!(
        alerts.is_empty(),
        "a healthy service breaches no objective: {alerts:?}"
    );
    // The journal deltas carried the session's lifecycle: exactly one
    // frame's delta holds this session's serve.open (deltas never
    // re-send events).
    assert_eq!(
        journaled
            .iter()
            .filter(|e| e.name == "serve.open" && e.field("id") == Some("triple"))
            .count(),
        1,
        "the open event streams once across all frame deltas"
    );
    client.close("triple").unwrap();
    server.shutdown();
}

/// True when any node in the subtree carries the phase label.
fn has_phase(node: &snn_obs::TraceNode, phase: &str) -> bool {
    node.phase == phase || node.children.iter().any(|c| has_phase(c, phase))
}

#[test]
fn a_reply_rid_cluster_traces_to_the_client_observed_latency() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();

    let spec = tiny_spec(73);
    let stream = scenario_stream(Scenario::GradualDrift, 73, 16);
    client.open("traced", spec.clone()).unwrap();
    client.ingest("traced", &stream[..8]).unwrap();

    // Take the rid straight off a routed reply: every line through the
    // router carries its minted rid back on the ok reply.
    let line = snn_serve::protocol::format_request(&snn_serve::protocol::Request::Ingest {
        id: "traced".to_string(),
        images: stream[8..12].to_vec(),
    });
    let t0 = std::time::Instant::now();
    let reply = client.call_raw(&line).unwrap();
    let observed_us = t0.elapsed().as_micros() as u64;
    let resp = snn_serve::protocol::parse_response(&reply).expect("well-formed ingest reply");
    let rid = resp
        .get("rid")
        .expect("routed replies carry their rid")
        .to_string();
    // Router instances are numbered process-wide, so the prefix is this
    // router's own instance, whatever sibling tests started first.
    let metrics = client.call_raw("metrics").unwrap();
    let instance = snn_serve::protocol::parse_response(&metrics)
        .expect("well-formed metrics reply")
        .get("instance")
        .expect("metrics replies name their instance")
        .to_string();
    assert!(
        rid.starts_with(&format!("{instance}-")),
        "router-minted rid {rid} carries instance {instance}"
    );

    // …and ask the router to explain it: the merged tree roots at the
    // router's accept span, whose duration is the request as the
    // outermost tier saw it — it cannot exceed the client-observed
    // round trip, and every shard-side phase hangs underneath.
    let tree = client.cluster_trace(&rid).unwrap();
    assert_eq!(tree.rid, rid);
    assert_eq!(tree.root.phase, "accept", "the accept span roots the tree");
    assert!(tree.root.dur_us > 0, "the root covers real time");
    assert!(
        tree.root.dur_us <= observed_us,
        "root {} µs cannot exceed the client-observed {} µs",
        tree.root.dur_us,
        observed_us
    );
    for phase in ["relay", "request", "queue_wait", "exec", "write"] {
        assert!(
            has_phase(&tree.root, phase),
            "missing `{phase}` phase in:\n{}",
            tree.render()
        );
    }
    let shares = tree.shares();
    let sum = shares.queue_share() + shares.exec_share() + shares.write_share();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "queue+exec+write shares must account for each other: {sum}"
    );

    // The rendered document is canonical: parse ∘ render is byte-stable,
    // and re-assembling later only ever extends the tree (the trace
    // request itself is rid-attributed traffic) without moving the root.
    let rendered = tree.render();
    let reparsed = snn_obs::TraceTree::parse(&rendered).expect("trace document parses");
    assert_eq!(reparsed.render(), rendered, "render ∘ parse is byte-stable");
    let again = client.cluster_trace(&rid).unwrap();
    assert_eq!(again.root.phase, tree.root.phase);
    assert_eq!(again.root.dur_us, tree.root.dur_us);
    assert!(again.root.count() >= tree.root.count());

    // Tracing is observation like any other: the session's checkpoint
    // stays byte-identical to a bare learner fed the same stream.
    let wire_checkpoint = client.checkpoint("traced").unwrap();
    let mut reference = snn_online::OnlineLearner::new(spec.online_config());
    reference.ingest_batch(&stream[..8]).unwrap();
    reference.ingest_batch(&stream[8..12]).unwrap();
    assert_eq!(
        wire_checkpoint,
        reference.checkpoint().to_bytes(),
        "trace assembly must never perturb learner state"
    );

    client.close("traced").unwrap();
    cluster.shutdown();
}

#[test]
fn cluster_metrics_scrape_reports_migration_with_its_request_id() {
    let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    cluster.spawn_shard(ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(cluster.local_addr()).unwrap();

    let spec = tiny_spec(71);
    let stream = scenario_stream(Scenario::RecurringTasks, 71, 16);
    client.open("mover", spec.clone()).unwrap();
    client.ingest("mover", &stream[..8]).unwrap();

    let here = cluster.session_shard("mover").unwrap();
    let there = cluster
        .shard_ids()
        .into_iter()
        .find(|&s| s != here)
        .unwrap();
    cluster.migrate_session("mover", there).unwrap();
    client.ingest("mover", &stream[8..]).unwrap();

    // Scrape the whole cluster while the migrated session is live.
    let reply = client.call_raw("cluster-metrics").unwrap();
    let resp = snn_serve::protocol::parse_response(&reply).expect("well-formed reply");
    assert_eq!(resp.get("shards"), Some("2"));
    assert_eq!(resp.get("scraped"), Some("2"), "both shards answered");
    let text = String::from_utf8(
        snn_serve::protocol::hex_decode(resp.get("data").expect("data field")).unwrap(),
    )
    .unwrap();
    let merged = snn_obs::Snapshot::parse(&text).expect("merged exposition parses");

    // The migration is visible in the merged counters and histograms…
    assert_eq!(merged.counter("cluster.migrations"), 1);
    assert_eq!(merged.histogram("cluster.migrate_us").count(), 1);
    assert!(merged.histogram("cluster.migrate_bytes").mean() > 0.0);

    // …and as a span carrying duration, bytes, and the originating rid.
    let span = merged
        .spans
        .iter()
        .find(|s| s.name == "cluster.migrate")
        .expect("cluster.migrate span in the merged scrape");
    assert!(span.dur_us > 0, "migration duration recorded");
    let bytes: u64 = span.field("bytes").unwrap().parse().unwrap();
    assert!(bytes > 0, "migration payload bytes recorded");
    assert_eq!(span.field("from"), Some(here.to_string().as_str()));
    assert_eq!(span.field("to"), Some(there.to_string().as_str()));
    let rid = span.rid.clone();
    assert!(
        rid.starts_with('c'),
        "migrations are router-minted control-plane work: {rid}"
    );

    // The same rid attributes the shard-side spans produced by the
    // migration's forwarded checkpoint/restore lines — one id stitches
    // the move across process boundaries.
    for name in ["serve.checkpoint", "serve.restore"] {
        assert!(
            merged.spans.iter().any(|s| s.name == name && s.rid == rid),
            "missing shard-side {name} span under rid {rid}"
        );
    }

    // Satellite: the stats fan-out reports per-shard scrape latency.
    let raw = client.call_raw("cluster-stats").unwrap();
    assert!(
        raw.contains("s0_scrape_us=") && raw.contains("s1_scrape_us="),
        "cluster-stats must report per-shard scrape latency: {raw}"
    );

    client.close("mover").unwrap();
    cluster.shutdown();
}
