//! # snn-cluster — consistent-hash session router over `snn-serve` shards
//!
//! PR 4 made one `snn-serve` process host many continual-learning
//! sessions; this crate is the front tier that makes *many processes*
//! one deployment. A [`Cluster`] speaks the existing line protocol to
//! clients (any [`snn_serve::ServeClient`] works unchanged — the router
//! answers the `hello proto=…` handshake itself) and consistent-hashes
//! session ids onto N backend shards, forwarding raw request lines
//! without re-encoding payloads.
//!
//! ## What the cluster adds
//!
//! * **Placement** — a virtual-node hash ring ([`HashRing`]) assigns new
//!   sessions to shards; joins and leaves reshuffle only a fair share.
//! * **Live migration** — sessions move between shards as wire
//!   checkpoints (`checkpoint` → `restore` → `close`), under a per-session
//!   route lock so no request interleaves with the move. A migrated
//!   session finishes **bit-identical** to one that never moved (pinned
//!   by `tests/cluster_shards.rs`).
//! * **Health** — a checker pings every shard; a dead shard leaves the
//!   ring and its sessions fail fast with `err code=shard-down` instead
//!   of timing out one by one.
//! * **Admission** — a cluster-wide session cap, plus optional
//!   per-session energy budgets (`open … budget_j=0.5`), metered from
//!   admission: every ingest reply carries the session's cumulative
//!   joules, and once the spend since admission exceeds the budget the
//!   router evicts the session to disk, answering later requests with
//!   `err code=session-evicted` whose message is the restore path.
//! * **Observability** — `cluster-stats` aggregates per-shard session
//!   counts, queue depths, samples, joules, and scrape latencies;
//!   `cluster-metrics` scrapes every live shard's `snn-obs` exposition
//!   on a bounded per-shard deadline and merges it with the router's
//!   own (relay latency, migration duration/bytes, probe outcomes).
//!   Relayed lines carry a request id as their final field, so spans
//!   recorded on different tiers stitch back together by rid.
//!
//! ## Quick example
//!
//! ```
//! use snn_cluster::{Cluster, ClusterConfig};
//! use snn_serve::{ServeClient, ServerConfig, SessionSpec};
//! use snn_data::SyntheticDigits;
//!
//! let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
//! cluster.spawn_shard(ServerConfig::default()).unwrap();
//! cluster.spawn_shard(ServerConfig::default()).unwrap();
//!
//! // Any snn-serve client speaks to the cluster as if it were one shard.
//! let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
//! let spec = SessionSpec { n_exc: 6, n_input: 49, batch_size: 4, ..SessionSpec::default() };
//! client.open("demo", spec).unwrap();
//! let gen = SyntheticDigits::new(7);
//! let batch: Vec<_> = (0..4).map(|i| gen.sample(i % 3, i.into()).downsample(4)).collect();
//! client.ingest("demo", &batch).unwrap();
//!
//! // Live-migrate the session to the other shard; the stream continues
//! // bit-identically.
//! let here = cluster.session_shard("demo").unwrap();
//! let there = cluster.shard_ids().into_iter().find(|&s| s != here).unwrap();
//! cluster.migrate_session("demo", there).unwrap();
//! client.ingest("demo", &batch).unwrap();
//! client.close("demo").unwrap();
//! cluster.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod heal;
mod migrate;
mod obs;
pub mod ring;
pub mod router;

pub use ring::{HashRing, ShardId};
pub use router::{Cluster, ClusterConfig, ClusterLimits, ClusterStats, ShardStats};

use std::fmt;

/// Everything that can go wrong in the cluster control plane, with a
/// stable wire code per variant ([`ClusterError::code`]).
#[derive(Debug)]
pub enum ClusterError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A backend speaks a different protocol generation and was refused.
    ProtoMismatch {
        /// The offending shard.
        shard: ShardId,
        /// The server's rejection detail.
        detail: String,
    },
    /// The shard is marked dead.
    ShardDown(ShardId),
    /// No shard with this id is attached.
    UnknownShard(ShardId),
    /// No session with this id is routed.
    UnknownSession(String),
    /// The ring has no shards to place onto.
    NoShards,
    /// A backend answered a forwarded call with a transport-level error.
    Backend {
        /// The shard that failed.
        shard: ShardId,
        /// What happened.
        detail: String,
    },
    /// A live migration failed; the session keeps serving on its source.
    Migration {
        /// The session that did not move.
        id: String,
        /// What happened.
        detail: String,
    },
    /// A restore-from-shadow failover found no shadow it could prove
    /// current (absent, rejected, or at a different sequence than the
    /// router last parked). The session fails fast instead of resuming
    /// from state it cannot vouch for.
    ShadowStale {
        /// The session that could not be failed over.
        id: String,
        /// What made the shadow unprovable.
        detail: String,
    },
    /// The cluster is shutting down.
    Shutdown,
}

impl ClusterError {
    /// The stable machine-readable code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            ClusterError::Io(_) => "io",
            ClusterError::ProtoMismatch { .. } => "proto-mismatch",
            ClusterError::ShardDown(_) => "shard-down",
            ClusterError::UnknownShard(_) => "unknown-shard",
            ClusterError::UnknownSession(_) => "unknown-session",
            ClusterError::NoShards => "no-shards",
            ClusterError::Backend { .. } => "backend",
            ClusterError::Migration { .. } => "migration",
            ClusterError::ShadowStale { .. } => "shadow-stale",
            ClusterError::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::ProtoMismatch { shard, detail } => {
                write!(f, "shard {shard} protocol mismatch: {detail}")
            }
            ClusterError::ShardDown(shard) => write!(f, "shard {shard} is down"),
            ClusterError::UnknownShard(shard) => write!(f, "no shard {shard}"),
            ClusterError::UnknownSession(id) => write!(f, "no session {id}"),
            ClusterError::NoShards => write!(f, "cluster has no live shards"),
            ClusterError::Backend { shard, detail } => {
                write!(f, "shard {shard} transport error: {detail}")
            }
            ClusterError::Migration { id, detail } => {
                write!(f, "migration of session {id} failed: {detail}")
            }
            ClusterError::ShadowStale { id, detail } => {
                write!(
                    f,
                    "failover of session {id} has no provable shadow: {detail}"
                )
            }
            ClusterError::Shutdown => write!(f, "cluster shutting down"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_data::{Image, SyntheticDigits};
    use snn_serve::{ServeClient, ServeLimits, ServerConfig, SessionSpec, SnnServer};
    use spikedyn::Method;
    use std::time::Duration;

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

    fn two_shard_cluster() -> Cluster {
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        cluster
    }

    #[test]
    fn sessions_spread_and_serve_through_the_router() {
        let cluster = two_shard_cluster();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        for s in 0..6u64 {
            let id = format!("spread-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            let out = client.ingest(&id, &stream(s, 4)).unwrap();
            assert_eq!(out.predictions.len(), 4);
        }
        let stats = cluster.stats();
        assert_eq!(stats.sessions, 6);
        assert_eq!(stats.total_samples, 24);
        assert_eq!(stats.shards.len(), 2);
        assert!(
            stats.shards.iter().all(|s| s.alive),
            "both shards healthy: {stats:?}"
        );
        // The per-shard counts must add up to the routed total.
        assert_eq!(
            stats.shards.iter().map(|s| s.sessions).sum::<usize>(),
            6,
            "shard-side sessions: {stats:?}"
        );
        for s in 0..6u64 {
            client.close(&format!("spread-{s}")).unwrap();
        }
        assert_eq!(cluster.stats().sessions, 0);
        cluster.shutdown();
    }

    #[test]
    fn router_speaks_the_handshake_and_aggregate_stats() {
        let cluster = two_shard_cluster();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        assert_eq!(client.hello().unwrap(), snn_serve::PROTO_VERSION);
        client.ping().unwrap();
        // The typed stats call works against the aggregate line.
        let stats = client.stats().unwrap();
        assert_eq!(stats.sessions, 0);
        assert_eq!(stats.max_sessions, ClusterLimits::default().max_sessions);
        // cluster-stats is the per-shard view.
        let raw = client.call_raw("cluster-stats").unwrap();
        assert!(raw.starts_with("ok shards=2"), "got {raw:?}");
        assert!(
            raw.contains("s0_alive=1") && raw.contains("s1_alive=1"),
            "got {raw:?}"
        );
        // Each shard heard one `hello`: its relay connection's handshake,
        // whose banner also carries the shard's `evict=` capability.
        let raw = client.call_raw("cluster-metrics").unwrap();
        let resp = snn_serve::protocol::parse_response(&raw).unwrap();
        let hex = snn_serve::protocol::hex_decode(resp.get("data").unwrap()).unwrap();
        let merged = snn_obs::Snapshot::parse(&String::from_utf8(hex).unwrap()).unwrap();
        assert_eq!(merged.histogram("serve.req.hello_us").count(), 2);
        cluster.shutdown();
    }

    #[test]
    fn cluster_admission_cap_applies_before_any_shard() {
        let cluster = Cluster::start(
            "127.0.0.1:0",
            ClusterConfig {
                limits: ClusterLimits {
                    max_sessions: 2,
                    ..ClusterLimits::default()
                },
            },
        )
        .unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        client.open("a", tiny_spec(1)).unwrap();
        client.open("b", tiny_spec(2)).unwrap();
        assert_eq!(
            client.open("c", tiny_spec(3)).unwrap_err().server_code(),
            Some("admission")
        );
        assert_eq!(
            client.open("a", tiny_spec(1)).unwrap_err().server_code(),
            Some("duplicate-session")
        );
        // Closing frees cluster capacity again.
        client.close("a").unwrap();
        client.open("c", tiny_spec(3)).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn openless_cluster_and_unknown_sessions_fail_cleanly() {
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        assert_eq!(
            client.open("x", tiny_spec(1)).unwrap_err().server_code(),
            Some("no-shards")
        );
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        assert_eq!(
            client.report("ghost").unwrap_err().server_code(),
            Some("unknown-session")
        );
        cluster.shutdown();
    }

    #[test]
    fn shard_rejection_releases_the_cluster_reservation() {
        // One shard with max_sessions=1: the second open is rejected by
        // the *shard*; the router must free its reservation so capacity
        // is not leaked.
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        cluster
            .spawn_shard(ServerConfig {
                limits: ServeLimits {
                    max_sessions: 1,
                    ..ServeLimits::default()
                },
                ..ServerConfig::default()
            })
            .unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        client.open("one", tiny_spec(1)).unwrap();
        assert_eq!(
            client.open("two", tiny_spec(2)).unwrap_err().server_code(),
            Some("admission")
        );
        assert_eq!(cluster.stats().sessions, 1, "failed open left no ghost");
        client.close("one").unwrap();
        client.open("two", tiny_spec(2)).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn dead_shard_is_detected_and_its_sessions_fail_fast() {
        let cluster = Cluster::start(
            "127.0.0.1:0",
            ClusterConfig {
                limits: ClusterLimits {
                    health_interval: Duration::from_millis(40),
                    ..ClusterLimits::default()
                },
            },
        )
        .unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        // The victim shard runs *outside* the cluster so the test can
        // kill it behind the router's back.
        let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let victim_shard = cluster.attach_shard(external.local_addr()).unwrap();

        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        // Open sessions until one lands on the doomed shard.
        let mut doomed = None;
        for s in 0..16u64 {
            let id = format!("d-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            if cluster.session_shard(&id) == Some(victim_shard) {
                doomed = Some(id);
                break;
            }
        }
        let doomed = doomed.expect("some session lands on the victim shard");

        external.shutdown();
        // Wait for the health checker to notice.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster
            .stats()
            .shards
            .iter()
            .any(|s| s.id == victim_shard && s.alive)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "health checker never marked the shard dead"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // The doomed session is gone (failed fast), new opens avoid the
        // dead shard, and survivors keep serving.
        assert_eq!(
            client.report(&doomed).unwrap_err().server_code(),
            Some("unknown-session")
        );
        client.open("after", tiny_spec(99)).unwrap();
        assert_ne!(cluster.session_shard("after"), Some(victim_shard));
        client.ingest("after", &stream(99, 4)).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn shadowed_session_survives_its_shard_dying() {
        // Shadowing on: a session served by a shard that dies resumes
        // bit-exactly from its last shadowed checkpoint on a live shard,
        // and the samples ingested after that checkpoint are disclosed
        // as replay_gap on the next reply — never silently dropped.
        let cluster = Cluster::start(
            "127.0.0.1:0",
            ClusterConfig {
                limits: ClusterLimits {
                    health_interval: Duration::from_millis(40),
                    shadow_interval: Some(Duration::from_millis(30)),
                    ..ClusterLimits::default()
                },
            },
        )
        .unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        // The victim runs outside the cluster so the test can kill it
        // behind the router's back.
        let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let victim_shard = cluster.attach_shard(external.local_addr()).unwrap();

        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        let mut doomed = None;
        for s in 0..32u64 {
            let id = format!("sh-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            if cluster.session_shard(&id) == Some(victim_shard) {
                doomed = Some((id, s));
                break;
            }
            client.close(&id).unwrap();
        }
        let (doomed, seed) = doomed.expect("some session lands on the victim shard");

        // Phase one: ingest 8 samples and wait until the shadower has
        // parked them on the other shard.
        let phase_one = stream(seed, 8);
        client.ingest(&doomed, &phase_one).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.session_shadow(&doomed).map(|(_, seq)| seq) != Some(8) {
            assert!(
                std::time::Instant::now() < deadline,
                "shadower never parked the checkpoint"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (holder, _) = cluster.session_shadow(&doomed).unwrap();
        assert_ne!(
            holder, victim_shard,
            "a shadow never lives on its home shard"
        );

        // Phase two: 4 more samples, then kill the shard abruptly. The
        // sweep may or may not have re-parked them before the kill; what
        // the failover restores is whatever was parked at kill time.
        client.ingest(&doomed, &stream(seed, 12)[8..]).unwrap();
        external.shutdown();
        let (_, shadow_seq) = cluster.session_shadow(&doomed).unwrap();

        // Wait for death + failover.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.session_shard(&doomed) == Some(victim_shard) {
            assert!(
                std::time::Instant::now() < deadline,
                "failover never re-pointed the session"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            cluster.session_shard(&doomed).is_some(),
            "session must fail over, not drop"
        );

        // The first reply after the failover discloses the gap…
        let raw = client.call_raw(&format!("report id={doomed}")).unwrap();
        assert!(raw.starts_with("ok"), "failed-over session serves: {raw}");
        let expect_gap = 12 - shadow_seq;
        assert!(
            raw.contains(&format!(" replay_gap={expect_gap}")),
            "reply must disclose the {expect_gap}-sample gap: {raw}"
        );
        // …and exactly once.
        let raw = client.call_raw(&format!("report id={doomed}")).unwrap();
        assert!(!raw.contains("replay_gap"), "gap reported once: {raw}");

        // Bit-exactness: the failed-over session is the reference
        // learner fed exactly the shadowed prefix, with the same
        // ingest-call partitioning the client used (8 then 4).
        assert!(
            shadow_seq == 8 || shadow_seq == 12,
            "shadow sequences are exactly the checkpointed sample counts: {shadow_seq}"
        );
        let full = stream(seed, 12);
        let mut reference = snn_online::OnlineLearner::new(tiny_spec(seed).online_config());
        reference.ingest_batch(&full[..8]).unwrap();
        if shadow_seq == 12 {
            reference.ingest_batch(&full[8..]).unwrap();
        }
        assert_eq!(
            client.checkpoint(&doomed).unwrap(),
            reference.checkpoint().to_bytes(),
            "failover must resume bit-exactly from the shadowed checkpoint"
        );

        // The stream continues on the survivor.
        client.ingest(&doomed, &stream(seed, 4)).unwrap();
        client.close(&doomed).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn over_budget_session_is_evicted_with_a_restore_path() {
        let cluster = two_shard_cluster();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        // A vanishingly small budget: the first ingest overruns it.
        let open = snn_serve::protocol::format_request(&snn_serve::Request::Open {
            id: "thrifty".into(),
            spec: tiny_spec(5),
        });
        let reply = client.call_raw(&format!("{open} budget_j=1e-12")).unwrap();
        assert!(reply.starts_with("ok"), "open failed: {reply}");
        // The overrunning ingest itself still succeeds…
        client.ingest("thrifty", &stream(5, 4)).unwrap();
        // …but the session is evicted before the next request.
        let err = client.report("thrifty").unwrap_err();
        assert_eq!(err.server_code(), Some("session-evicted"));
        let path = match err {
            snn_serve::ClientError::Server { msg, .. } => msg,
            other => panic!("unexpected {other:?}"),
        };
        // The checkpoint on disk is the session at eviction time.
        let snap = snn_online::ModelSnapshot::load(std::path::Path::new(&path)).unwrap();
        let mut reference = snn_online::OnlineLearner::new(tiny_spec(5).online_config());
        reference.ingest_batch(&stream(5, 4)).unwrap();
        assert_eq!(snap.to_bytes(), reference.checkpoint().to_bytes());
        assert_eq!(cluster.stats().evicted_sessions, 1);
        // Restoring the checkpoint (same id) supersedes the tombstone —
        // and a fresh budget meters only NEW work: the carried history
        // (≈ j1 joules) must not be billed against it. A lifetime-based
        // check would evict again right after the next ingest.
        let j1 = {
            let e = reference.energy(&neuro_energy::GpuSpec::gtx_1080_ti());
            e.train_j + e.infer_j
        };
        let restore = snn_serve::protocol::format_request(&snn_serve::Request::Restore {
            id: "thrifty".into(),
            snapshot: snap.to_bytes(),
        });
        let reply = client
            .call_raw(&format!("{restore} budget_j={}", 1.9 * j1))
            .unwrap();
        assert!(reply.starts_with("ok"), "restore failed: {reply}");
        client.ingest("thrifty", &stream(5, 4)).unwrap(); // new spend ≈ j1 < 1.9·j1
        client
            .report("thrifty")
            .expect("restored session must not be evicted for its pre-restore history");
        cluster.shutdown();
    }

    #[test]
    fn shard_side_idle_eviction_is_mirrored_by_the_router() {
        // The shard evicts on its own (idle-timeout sweep); the router
        // must mirror the eviction out of a relayed reply, or the id
        // would stay routed forever (capacity leak + duplicate-session
        // on every re-open).
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        cluster
            .spawn_shard(ServerConfig {
                limits: ServeLimits {
                    // Long enough that back-to-back requests through the
                    // router never race the sweep on a loaded test box.
                    idle_timeout: Some(Duration::from_millis(300)),
                    ..ServeLimits::default()
                },
                ..ServerConfig::default()
            })
            .unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        client.open("lazy", tiny_spec(3)).unwrap();
        client.ingest("lazy", &stream(3, 4)).unwrap();

        // Wait for the shard's sweep — watching shard stats, because a
        // `report` poll would itself refresh the session's idle clock.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster
            .stats()
            .shards
            .first()
            .is_none_or(|s| s.sessions > 0)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "shard idle sweep never evicted the session"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // The first post-eviction request relays session-evicted and
        // syncs the router table.
        let err = client.report("lazy").unwrap_err();
        assert_eq!(err.server_code(), Some("session-evicted"));
        let stats = cluster.stats();
        assert_eq!(
            (stats.sessions, stats.evicted_sessions),
            (0, 1),
            "router mirrored the shard-side eviction"
        );
        // The tombstone still answers the restore path…
        let err = client.energy("lazy").unwrap_err();
        assert_eq!(err.server_code(), Some("session-evicted"));
        // …and the id is reusable, not wedged on duplicate-session.
        client.open("lazy", tiny_spec(3)).unwrap();
        client.ingest("lazy", &stream(3, 4)).unwrap();
        client.close("lazy").unwrap();
        cluster.shutdown();
    }

    #[test]
    fn hot_swap_cannot_evade_an_energy_budget() {
        // A swap replaces the learner's cumulative op counters; without
        // baseline rebasing, swapping onto a fresh snapshot would reset
        // the router's notion of spend and let a client dodge its budget
        // forever.
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        cluster.spawn_shard(ServerConfig::default()).unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();

        // Price one 4-sample phase locally: j1 joules.
        let mut reference = snn_online::OnlineLearner::new(tiny_spec(6).online_config());
        reference.ingest_batch(&stream(6, 4)).unwrap();
        let j1 = {
            let e = reference.energy(&neuro_energy::GpuSpec::gtx_1080_ti());
            e.train_j + e.infer_j
        };

        // Budget for ~1.9 phases; phase one spends ≈ j1.
        let open = snn_serve::protocol::format_request(&snn_serve::Request::Open {
            id: "sw".into(),
            spec: tiny_spec(6),
        });
        let reply = client
            .call_raw(&format!("{open} budget_j={}", 1.9 * j1))
            .unwrap();
        assert!(reply.starts_with("ok"), "open failed: {reply}");
        client.ingest("sw", &stream(6, 4)).unwrap();
        client.report("sw").expect("phase one is within budget");

        // Swap onto a fresh zero-op snapshot (counters collapse to 0),
        // then spend another phase: cumulative spend ≈ 2·j1 > 1.9·j1,
        // so the budget must still trip.
        let fresh = snn_online::OnlineLearner::new(tiny_spec(6).online_config())
            .checkpoint()
            .to_bytes();
        client.swap("sw", &fresh).unwrap();
        client.ingest("sw", &stream(6, 4)).unwrap();
        let err = client
            .report("sw")
            .expect_err("swapping must not reset budget spend");
        assert_eq!(err.server_code(), Some("session-evicted"));
        cluster.shutdown();
    }

    #[test]
    fn budgeted_open_is_refused_on_shards_that_cannot_evict() {
        // An attached external shard without an evict directory can never
        // enforce a budget by checkpointing; the router must refuse the
        // budget up front instead of silently voiding it.
        let cluster = Cluster::start("127.0.0.1:0", ClusterConfig::default()).unwrap();
        let external = SnnServer::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        cluster.attach_shard(external.local_addr()).unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();

        let open = snn_serve::protocol::format_request(&snn_serve::Request::Open {
            id: "capped".into(),
            spec: tiny_spec(2),
        });
        let reply = client.call_raw(&format!("{open} budget_j=0.5")).unwrap();
        assert!(
            reply.starts_with("err code=bad-request"),
            "budgeted open must be refused: {reply}"
        );
        // Without a budget the shard serves fine.
        client.open("capped", tiny_spec(2)).unwrap();
        client.ingest("capped", &stream(2, 4)).unwrap();
        client.close("capped").unwrap();
        cluster.shutdown();
        external.shutdown();
    }

    #[test]
    fn unqueried_shard_evictions_are_reconciled_by_the_health_loop() {
        // The shard idle-sweeps a session whose client never returns; no
        // relayed reply ever mentions it, so only the health loop's
        // reconcile pass can release the route (otherwise the id would
        // hold cluster admission capacity forever).
        let cluster = Cluster::start(
            "127.0.0.1:0",
            ClusterConfig {
                limits: ClusterLimits {
                    health_interval: Duration::from_millis(60),
                    ..ClusterLimits::default()
                },
            },
        )
        .unwrap();
        cluster
            .spawn_shard(ServerConfig {
                limits: ServeLimits {
                    idle_timeout: Some(Duration::from_millis(300)),
                    ..ServeLimits::default()
                },
                ..ServerConfig::default()
            })
            .unwrap();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        client.open("ghost", tiny_spec(4)).unwrap();
        client.ingest("ghost", &stream(4, 4)).unwrap();

        // No further traffic for the session: the route must clear on
        // its own.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = cluster.stats();
            if (stats.sessions, stats.evicted_sessions) == (0, 1) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "reconcile never released the evicted route: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        // The id is reusable immediately.
        client.open("ghost", tiny_spec(4)).unwrap();
        client.close("ghost").unwrap();
        cluster.shutdown();
    }

    #[test]
    fn drain_shard_live_migrates_every_session_off() {
        let cluster = two_shard_cluster();
        let shard_ids = cluster.shard_ids();
        let mut client = ServeClient::connect(cluster.local_addr()).unwrap();
        for s in 0..6u64 {
            let id = format!("m-{s}");
            client.open(&id, tiny_spec(s)).unwrap();
            client.ingest(&id, &stream(s, 4)).unwrap();
        }
        let drained = shard_ids[0];
        let kept = shard_ids[1];
        let moved = cluster.drain_shard(drained).unwrap();
        assert_eq!(cluster.shard_ids(), vec![kept]);
        // Every session still serves, now on the surviving shard.
        for s in 0..6u64 {
            let id = format!("m-{s}");
            assert_eq!(cluster.session_shard(&id), Some(kept));
            client.ingest(&id, &stream(s, 4)).unwrap();
        }
        let stats = cluster.stats();
        assert_eq!(stats.sessions, 6);
        assert!(
            moved <= 6,
            "at most every session moved (those already on the survivor stay): {moved}"
        );
        cluster.shutdown();
    }
}
