//! # snn-serve — multi-session serving layer over `snn-online`
//!
//! SpikeDyn (Putra & Shafique, DAC 2021) frames continual learning as an
//! always-on capability; PR 2's `snn-online` made one learner durable,
//! but still hosted exactly one `OnlineLearner` behind an in-process
//! loop. This crate is the layer that makes the repro a *service*: a
//! thread-per-connection TCP server (`std::net` only — this build
//! environment has no crates.io) speaking a small line-delimited
//! protocol, multiplexing **N independent learner sessions** behind
//! session ids.
//!
//! ## What a session gets
//!
//! * **Admission control and backpressure** — a hard session cap and a
//!   bounded per-session job queue that rejects (never buffers) overload;
//!   see [`ServeLimits`] and `DESIGN.md` §8 for the exact rules.
//! * **Work-conserving scheduling** — one persistent worker per core
//!   checks out whichever session became ready first, runs at most
//!   [`ServeLimits::max_jobs_per_tick`] of its jobs and hands it straight
//!   back, so no session waits for another's work to end. Every session
//!   owns its learner's engine, as an in-process learner does; the
//!   engine's workers read its one input-major weight copy and keep only
//!   small per-sample neuron state between batches.
//! * **Durability over the wire** — `checkpoint` streams out the full
//!   [`snn_online::ModelSnapshot`]; `restore` opens a new session from
//!   one; `swap` hot-swaps a *running* session onto one without
//!   rebuilding its engine.
//! * **Per-session accounting** — prequential accuracy/forgetting/drift
//!   reports and `neuro-energy` op-meter totals priced on the server's
//!   device model.
//!
//! ## Determinism over the wire
//!
//! Serving changes *where* a learner runs, not *what* it computes: a
//! session fed a stream over TCP — however its checkouts interleave with
//! other sessions' — produces bit-identical predictions and checkpoints
//! to a single-process [`snn_online::OnlineLearner`] fed the same
//! batches, and a session restored from a wire checkpoint finishes
//! bit-identical to one that never paused. Pinned by this crate's tests
//! and the workspace-level `tests/serve_sessions.rs`.
//!
//! ## Quick example
//!
//! ```
//! use snn_serve::{ServeClient, ServerConfig, SessionSpec, SnnServer};
//! use snn_data::SyntheticDigits;
//!
//! let server = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//!
//! let spec = SessionSpec { n_exc: 6, n_input: 49, batch_size: 4, ..SessionSpec::default() };
//! client.open("demo", spec).unwrap();
//! let gen = SyntheticDigits::new(7);
//! let batch: Vec<_> = (0..4).map(|i| gen.sample(i % 3, i.into()).downsample(4)).collect();
//! let outcome = client.ingest("demo", &batch).unwrap();
//! assert_eq!(outcome.predictions.len(), 4);
//!
//! let snapshot = client.checkpoint("demo").unwrap(); // full durable state
//! client.restore("demo-2", &snapshot).unwrap();      // second live session
//! client.close("demo").unwrap();
//! client.close("demo-2").unwrap();
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod frame;
pub mod front;
pub mod mux;
pub(crate) mod obs;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;

pub use client::{
    ClientError, ClientResult, IngestOutcome, Push, ServeClient, Subscription, WireReport,
};
pub use frame::{Frame, FrameError};
pub use front::{accept_loop, subscribe_ack};
pub use mux::{run_mux, MuxClient, MuxHost};
pub use protocol::{ProtocolError, Request, Response, SessionSpec, PROTO_V2, PROTO_VERSION};
pub use server::{ServerConfig, SnnServer};
pub use session::{ServeError, ServeLimits, ServerStats, SessionManager};

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::{Image, SyntheticDigits};
    use spikedyn::Method;

    fn tiny_spec(seed: u64) -> SessionSpec {
        SessionSpec {
            method: Method::SpikeDyn,
            n_exc: 6,
            n_input: 49,
            n_classes: 4,
            seed,
            batch_size: 4,
            assign_every: 8,
            reservoir_capacity: 8,
            metric_window: 8,
            drift_window: 8,
        }
    }

    fn stream(seed: u64, n: u64) -> Vec<Image> {
        let gen = SyntheticDigits::new(seed);
        (0..n)
            .map(|i| gen.sample((i % 4) as u8, i).downsample(4))
            .collect()
    }

    fn start_server(limits: ServeLimits) -> SnnServer {
        SnnServer::start(
            "127.0.0.1:0",
            ServerConfig {
                limits,
                ..ServerConfig::default()
            },
        )
        .expect("bind an ephemeral port")
    }

    #[test]
    fn end_to_end_session_lifecycle_over_tcp() {
        let server = start_server(ServeLimits::default());
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();

        client.open("s1", tiny_spec(3)).unwrap();
        let s = stream(3, 16);
        let mut positions = Vec::new();
        for chunk in s.chunks(4) {
            let outcome = client.ingest("s1", chunk).unwrap();
            assert_eq!(outcome.predictions.len(), 4);
            positions.push(outcome.samples_seen);
        }
        assert_eq!(positions, vec![4, 8, 12, 16]);

        let report = client.report("s1").unwrap();
        assert_eq!(report.samples, 16);
        assert!((0.0..=1.0).contains(&report.accuracy));
        let energy = client.energy("s1").unwrap();
        assert!(energy.train_j > 0.0 && energy.infer_j > 0.0);

        let stats = client.stats().unwrap();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.total_samples, 16);
        assert!(stats.ticks >= 4, "each batch is at least one tick");

        let closed = client.close("s1").unwrap();
        assert_eq!(closed.samples, 16);
        assert_eq!(client.stats().unwrap().sessions, 0);
        assert_eq!(
            client.report("s1").unwrap_err().server_code(),
            Some("unknown-session")
        );
        server.shutdown();
    }

    #[test]
    fn served_session_is_bit_identical_to_local_learner() {
        let server = start_server(ServeLimits::default());
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("mirror", tiny_spec(9)).unwrap();
        let mut local = snn_online::OnlineLearner::new(tiny_spec(9).online_config());
        for chunk in stream(9, 16).chunks(4) {
            let served = client.ingest("mirror", chunk).unwrap();
            let local_preds = local.ingest_batch(chunk).unwrap();
            assert_eq!(served.predictions, local_preds);
        }
        let wire_snapshot = client.checkpoint("mirror").unwrap();
        assert_eq!(
            wire_snapshot,
            local.checkpoint().to_bytes(),
            "wire checkpoint must equal the local learner's, byte for byte"
        );
        server.shutdown();
    }

    #[test]
    fn journal_dump_and_subscription_stream_over_the_wire() {
        let server = start_server(ServeLimits::default());
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("j1", tiny_spec(4)).unwrap();
        client.ingest("j1", &stream(4, 4)).unwrap();

        // The flight recorder saw the admission.
        let journal = client.journal().unwrap();
        assert!(
            journal
                .of_kind("serve.open")
                .any(|e| e.field("id") == Some("j1")),
            "open event recorded: {journal:?}"
        );
        assert!(journal.total >= 1);

        // A dedicated connection streams frames with rising seq numbers
        // and parseable payloads.
        let sub_client = ServeClient::connect_with_timeout(
            server.local_addr(),
            std::time::Duration::from_secs(5),
        )
        .unwrap();
        let mut sub = sub_client.subscribe(20).unwrap();
        let first = sub.next().unwrap();
        let second = sub.next().unwrap();
        assert!(second.seq > first.seq, "{} !> {}", second.seq, first.seq);
        assert!(first.metrics.counter("serve.requests") > 0);
        assert!(second.journal.total >= first.journal.total);

        client.close("j1").unwrap();
        server.shutdown();
        // Shutdown ends the stream: past any frames still buffered, the
        // subscriber reads a clean end of stream, not a read timeout.
        let end = loop {
            if let Err(e) = sub.next() {
                break e;
            }
        };
        assert!(
            matches!(&end, ClientError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{end:?}"
        );
    }

    #[test]
    fn admission_and_input_validation_over_the_wire() {
        let server = start_server(ServeLimits {
            max_sessions: 1,
            queue_capacity: 4,
            max_batch: 8,
            ..ServeLimits::default()
        });
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("only", tiny_spec(1)).unwrap();
        assert_eq!(
            client.open("only", tiny_spec(1)).unwrap_err().server_code(),
            Some("duplicate-session")
        );
        assert_eq!(
            client.open("more", tiny_spec(2)).unwrap_err().server_code(),
            Some("admission")
        );
        // Batch larger than max_batch.
        assert_eq!(
            client
                .ingest("only", &stream(1, 9))
                .unwrap_err()
                .server_code(),
            Some("bad-request")
        );
        // Wrong sample shape reaches the learner and comes back typed.
        let native = SyntheticDigits::new(1).sample(0, 0); // 28×28, session expects 7×7
        assert_eq!(
            client.ingest("only", &[native]).unwrap_err().server_code(),
            Some("learner")
        );
        // Garbage snapshots.
        assert_eq!(
            client.restore("r", &[1, 2, 3]).unwrap_err().server_code(),
            Some("snapshot")
        );
        assert_eq!(
            client.swap("only", &[9; 64]).unwrap_err().server_code(),
            Some("snapshot")
        );
        server.shutdown();
    }

    #[test]
    fn hello_handshake_accepts_matching_and_rejects_mismatched_proto() {
        use std::io::{BufRead, BufReader, Write};
        let server = start_server(ServeLimits::default());
        // ServeClient::connect already performed a successful handshake.
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.hello().unwrap(), protocol::PROTO_VERSION);
        // A mismatched client is refused with a stable code, on a raw
        // socket so the typed client cannot paper over it.
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw.write_all(b"hello proto=999\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("err code=proto-mismatch"),
            "got {reply:?}"
        );
        // The versioned banner: ok + proto field.
        raw.write_all(b"hello proto=1\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ok proto=1"),
            "versioned banner, got {reply:?}"
        );
        server.shutdown();
    }

    #[test]
    fn probe_and_scrape_traffic_never_evicts_request_spans() {
        // A router's health sweep sends every shard a `ping`, a
        // `journal` and a `stats` per interval. Were those spans, a ring's worth of
        // probes would evict the request spans a trace is built from.
        for proto in [PROTO_VERSION, PROTO_V2] {
            let server = start_server(ServeLimits::default());
            let mut client = ServeClient::connect_with_proto(server.local_addr(), proto).unwrap();
            client.open("kept", tiny_spec(5)).unwrap();
            for _ in 0..snn_obs::SPAN_RING {
                client.ping().unwrap();
                client.journal().unwrap();
            }
            let snap = client.metrics().unwrap();
            assert!(
                snap.spans.iter().any(|s| s.name == "serve.open"),
                "proto {proto}: the open span survives a ring's worth of probes"
            );
            assert_eq!(
                snap.histogram("serve.req.ping_us").count(),
                snn_obs::SPAN_RING as u64,
                "proto {proto}: probes are still timed"
            );
            server.shutdown();
        }
    }

    fn evict_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snn-serve-evict-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create evict dir");
        dir
    }

    #[test]
    fn evicted_session_round_trips_through_its_disk_checkpoint() {
        let dir = evict_dir("wire");
        let server = SnnServer::start(
            "127.0.0.1:0",
            ServerConfig {
                evict_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("v", tiny_spec(5)).unwrap();
        let s = stream(5, 8);
        client.ingest("v", &s[..4]).unwrap();
        let reference = client.checkpoint("v").unwrap();

        let path = client.evict("v").unwrap();
        // Later requests carry the restore path as the whole message.
        let err = client.report("v").unwrap_err();
        assert_eq!(err.server_code(), Some("session-evicted"));
        match &err {
            ClientError::Server { msg, .. } => assert_eq!(msg, &path),
            other => panic!("unexpected {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!((stats.sessions, stats.evicted_sessions), (0, 1));
        assert!(stats.total_j > 0.0, "retired joules still counted");

        // The on-disk checkpoint is the session, bit for bit; restoring
        // it under the same id supersedes the tombstone.
        let snap = snn_online::ModelSnapshot::load(std::path::Path::new(&path)).unwrap();
        assert_eq!(snap.to_bytes(), reference);
        assert_eq!(client.restore("v", &reference).unwrap(), 4);
        client.ingest("v", &s[4..]).unwrap();
        client.close("v").unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn idle_sessions_are_swept_to_disk() {
        let dir = evict_dir("idle");
        let server = SnnServer::start(
            "127.0.0.1:0",
            ServerConfig {
                limits: ServeLimits {
                    idle_timeout: Some(std::time::Duration::from_millis(40)),
                    ..ServeLimits::default()
                },
                evict_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("lazy", tiny_spec(2)).unwrap();
        client.ingest("lazy", &stream(2, 4)).unwrap();
        // Wait out the timeout plus sweep latency.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = client.stats().unwrap();
            if stats.evicted_sessions == 1 {
                assert_eq!(stats.sessions, 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "idle sweep never evicted the session"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let err = client.report("lazy").unwrap_err();
        assert_eq!(err.server_code(), Some("session-evicted"));
        assert!(
            std::path::Path::new(&match err {
                ClientError::Server { msg, .. } => msg,
                other => panic!("unexpected {other:?}"),
            })
            .exists(),
            "sweep checkpoint exists on disk"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn malformed_lines_get_bad_request_not_disconnect() {
        use std::io::{BufRead, BufReader, Write};
        let server = start_server(ServeLimits::default());
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        for line in ["nonsense\n", "open\n", "ingest id=x data=zz\n", "ping\n"] {
            raw.write_all(line.as_bytes()).unwrap();
            raw.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            if line == "ping\n" {
                assert!(reply.starts_with("ok "), "got {reply:?}");
            } else {
                assert!(
                    reply.starts_with("err code=bad-request"),
                    "line {line:?} got {reply:?}"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn truncated_final_line_is_never_dispatched() {
        use std::io::Write;
        let server = start_server(ServeLimits::default());
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("keep", tiny_spec(1)).unwrap();
        // A dying client's partial `close` must not execute: without a
        // trailing newline the request is dropped at EOF (a cut-short
        // `close id=keep-x` would otherwise close the wrong session).
        {
            let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
            raw.write_all(b"close id=keep").unwrap(); // no newline, then RST/EOF
            raw.flush().unwrap();
        }
        // Give the (now EOF'd) connection thread a moment to run.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            client.stats().unwrap().sessions,
            1,
            "truncated close must not have executed"
        );
        client.close("keep").unwrap();
        server.shutdown();
    }

    #[test]
    fn a_running_session_never_holds_up_another_sessions_reply() {
        // `slow`'s long ingest occupies one scheduler worker; `fast` must
        // be answered by another while it runs, not after it.
        if rayon::current_num_threads() < 2 {
            eprintln!("skipped: one scheduler worker cannot overlap two sessions");
            return;
        }
        let server = start_server(ServeLimits::default());
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client.open("slow", SessionSpec::default()).unwrap();
        client.open("fast", tiny_spec(1)).unwrap();
        let ticks = server.stats().ticks;

        let gen = SyntheticDigits::new(11);
        let batch: Vec<Image> = (0..256u64)
            .map(|i| gen.sample((i % 4) as u8, i).downsample(2))
            .collect();
        let addr = server.local_addr();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let slow = std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            let outcome = client.ingest("slow", &batch).unwrap();
            done_tx.send(outcome.samples_seen).unwrap();
        });
        // The checkout counter moved and nothing is queued: `slow` is
        // checked out and its ingest is running.
        let t0 = std::time::Instant::now();
        loop {
            let stats = server.stats();
            if stats.ticks > ticks && stats.queued_jobs == 0 {
                break;
            }
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(60),
                "slow's ingest was never checked out"
            );
            std::thread::yield_now();
        }

        assert_eq!(client.report("fast").unwrap().samples, 0);
        assert!(
            done_rx.try_recv().is_err(),
            "fast's report waited for slow's ingest to finish"
        );
        assert_eq!(
            server.stats().total_samples,
            0,
            "slow's checkout ended before fast was answered"
        );
        assert_eq!(done_rx.recv().unwrap(), 256);
        slow.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_server() {
        let server = start_server(ServeLimits::default());
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|s| {
                std::thread::spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let id = format!("c{s}");
                    client.open(&id, tiny_spec(s)).unwrap();
                    for chunk in stream(s, 12).chunks(4) {
                        client.ingest(&id, chunk).unwrap();
                    }
                    let report = client.close(&id).unwrap();
                    assert_eq!(report.samples, 12);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.sessions, 0);
        assert_eq!(stats.total_samples, 48);
        server.shutdown();
    }
}
