//! Router-side observability: one [`snn_obs::Registry`] per [`crate::Cluster`]
//! plus cached handles for every control-plane metric, so recording is
//! always a lock-free atomic op (handle lookup happens once, here).
//!
//! The registry is per-router, never process-global, for the same reason
//! `snn-serve`'s is per-manager: the test and experiment harnesses run a
//! router *and* its in-process shards in one process, and the
//! `cluster-metrics` fan-out must see each registry separately before
//! merging them itself.
//!
//! Metric names follow the `DESIGN.md` §10 scheme
//! (`<layer>.<subsystem>.<metric>[_unit]`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snn_obs::{Counter, Gauge, Histogram, Registry};
use snn_serve::frame::line_payload_len;
use snn_serve::{PROTO_V2, PROTO_VERSION};

/// Process-wide instance sequence: each router gets a distinct rid
/// prefix (`c0`, `c1`, …), disjoint from the `s<n>` prefixes shards
/// mint, so a rid names its minting tier unambiguously.
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Cached metric handles of one cluster router.
#[derive(Debug)]
pub(crate) struct ClusterObs {
    pub(crate) registry: Arc<Registry>,
    /// `cluster.relays` — request lines forwarded to a shard (any verb).
    pub(crate) relays: Arc<Counter>,
    /// `cluster.relay_us` — wall time of one relayed round trip,
    /// including routing, budget enforcement, and the shard's work.
    pub(crate) relay_us: Arc<Histogram>,
    /// `cluster.probe.ok` / `.fail` — health-probe outcomes.
    pub(crate) probe_ok: Arc<Counter>,
    /// See [`ClusterObs::probe_ok`].
    pub(crate) probe_fail: Arc<Counter>,
    /// `cluster.shard_down` — shards declared dead after
    /// [`crate::router`]'s strike limit of failed probes.
    pub(crate) shard_down: Arc<Counter>,
    /// `cluster.rebalances` — ring-driven rebalance passes run.
    pub(crate) rebalances: Arc<Counter>,
    /// `cluster.sessions_moved` — sessions live-migrated by rebalances.
    pub(crate) sessions_moved: Arc<Counter>,
    /// `cluster.migrations` / `.migration_fail` — live migration
    /// outcomes (any trigger: rebalance, drain, or the ops hook).
    pub(crate) migrations: Arc<Counter>,
    /// See [`ClusterObs::migrations`].
    pub(crate) migration_fail: Arc<Counter>,
    /// `cluster.migrate_us` — wall time of one completed migration
    /// (checkpoint → restore → close).
    pub(crate) migrate_us: Arc<Histogram>,
    /// `cluster.migrate_bytes` — decoded snapshot payload per migration.
    pub(crate) migrate_bytes: Arc<Histogram>,
    /// `cluster.scrape_us` — per-shard wall time of `stats`/`metrics`
    /// fan-out scrapes (each bounded by the scrape deadline).
    pub(crate) scrape_us: Arc<Histogram>,
    /// `cluster.scrape_fail` — fan-out scrapes of a live shard that
    /// timed out or answered garbage. Each failure also ticks a dynamic
    /// per-shard counter (`cluster.scrape_fail.s<id>`) and a journal
    /// event naming the shard, so the culprit is never anonymous.
    pub(crate) scrape_fail: Arc<Counter>,
    /// `cluster.subscribe.drops` — `push` frames dropped because a
    /// router subscriber drained slower than the sampling interval (the
    /// stream never blocks the sampler; subscribers detect the loss by
    /// `seq` gaps).
    pub(crate) subscribe_drops: Arc<Counter>,
    /// `cluster.shadows_pushed` / `.shadow_push_fail` — shadow-replica
    /// pushes by the shadower sweep (checkpoint on the home shard →
    /// `shadow` store on the ring successor).
    pub(crate) shadows_pushed: Arc<Counter>,
    /// See [`ClusterObs::shadows_pushed`].
    pub(crate) shadow_push_fail: Arc<Counter>,
    /// `cluster.shadow_bytes` — decoded snapshot payload per shadow push.
    pub(crate) shadow_bytes: Arc<Histogram>,
    /// `cluster.shadow_lag` — worst per-session gap, in samples, between
    /// what a session has ingested and what its shadow replica holds
    /// (refreshed by each shadower sweep; this is exactly what a
    /// failover at that instant would report as `replay_gap`).
    pub(crate) shadow_lag: Arc<Gauge>,
    /// `cluster.failovers` / `.failover_fail` — restore-from-shadow
    /// outcomes when a shard is declared dead. A failed failover falls
    /// back to the fail-fast drop the cluster always did.
    pub(crate) failovers: Arc<Counter>,
    /// See [`ClusterObs::failovers`].
    pub(crate) failover_fail: Arc<Counter>,
    /// `cluster.failover_us` — wall time of one completed failover
    /// (shadow fetch → restore → route re-point).
    pub(crate) failover_us: Arc<Histogram>,
    /// `cluster.failover_bytes` — decoded snapshot payload per failover.
    pub(crate) failover_bytes: Arc<Histogram>,
    /// `cluster.wire.p2.tags_in_flight` — request frames the router's
    /// proto 2 demux has admitted but not yet answered (flow-control
    /// window occupancy, capped by the mux inflight limit).
    pub(crate) tags_in_flight: Arc<Gauge>,
    /// `cluster.wire.p2.writer_queue` — reply/push frames queued behind
    /// the router's shared proto 2 writer thread.
    pub(crate) writer_queue: Arc<Gauge>,
    /// Subscriber sequence: each router subscription stream gets a
    /// distinct per-subscriber drop counter
    /// (`cluster.subscribe.drops.sub<N>`), so one slow consumer is
    /// attributable instead of anonymous in the aggregate.
    sub_seq: AtomicU64,
    /// `cluster.wire.p1.{rx,tx,payload}_bytes` — client-facing bytes on
    /// the wire over proto 1 connections (line bytes).
    pub(crate) wire_p1: WireObs,
    /// `cluster.wire.p2.{rx,tx,payload}_bytes` — client-facing bytes on
    /// the wire over proto 2 connections (whole frames). Both client
    /// families see the same requests, so comparing their payload
    /// counters on one workload is the framing's payload-reduction
    /// measurement.
    pub(crate) wire_p2: WireObs,
    /// `cluster.relay.p2.{rx,tx,payload}_bytes` — shard-facing bytes
    /// moved by the relay path (always proto 2).
    pub(crate) relay_wire: WireObs,
}

/// One protocol generation's byte counters under one prefix
/// (`<prefix>.p<N>.{rx,tx,payload}_bytes`), cloned into every
/// [`crate::backend::Backend`] so the relay path can count bytes where
/// they actually move.
#[derive(Debug, Clone)]
pub(crate) struct WireObs {
    proto: u32,
    rx: Arc<Counter>,
    tx: Arc<Counter>,
    /// `.payload_bytes` — bytes the `data=` payloads themselves occupied
    /// on the wire: hex characters under proto 1, raw bytes under proto 2.
    /// This is the denominator-free form of the framing's "proto 2 moves
    /// ≥2× fewer payload bytes" claim.
    payload: Arc<Counter>,
}

impl WireObs {
    /// Pre-creates `<prefix>.p<proto>.{rx,tx,payload}_bytes`.
    fn new(registry: &Registry, prefix: &str, proto: u32) -> Self {
        let counter = |what: &str| registry.counter(&format!("{prefix}.p{proto}.{what}_bytes"));
        WireObs {
            proto,
            rx: counter("rx"),
            tx: counter("tx"),
            payload: counter("payload"),
        }
    }

    /// Counts one exchange's whole lines or frames.
    pub(crate) fn count(&self, rx_bytes: u64, tx_bytes: u64) {
        self.rx.add(rx_bytes);
        self.tx.add(tx_bytes);
    }

    /// Counts the `data=` payloads of one request/reply pair as they
    /// crossed the wire: the hex characters of both lines under proto 1,
    /// half that — the raw bytes a frame carries — under proto 2.
    pub(crate) fn count_payload(&self, line: &str, reply: &str) {
        let hex = line_payload_len(line) + line_payload_len(reply);
        self.payload
            .add(if self.proto >= PROTO_V2 { hex / 2 } else { hex });
    }
}

impl ClusterObs {
    /// A fresh registry with every control-plane handle pre-created, so
    /// a scrape of an idle router already shows the full schema.
    pub(crate) fn new() -> Self {
        let instance = format!("c{}", INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed));
        let registry = Arc::new(Registry::new(&instance));
        ClusterObs {
            relays: registry.counter("cluster.relays"),
            relay_us: registry.histogram("cluster.relay_us"),
            probe_ok: registry.counter("cluster.probe.ok"),
            probe_fail: registry.counter("cluster.probe.fail"),
            shard_down: registry.counter("cluster.shard_down"),
            rebalances: registry.counter("cluster.rebalances"),
            sessions_moved: registry.counter("cluster.sessions_moved"),
            migrations: registry.counter("cluster.migrations"),
            migration_fail: registry.counter("cluster.migration_fail"),
            migrate_us: registry.histogram("cluster.migrate_us"),
            migrate_bytes: registry.histogram("cluster.migrate_bytes"),
            scrape_us: registry.histogram("cluster.scrape_us"),
            scrape_fail: registry.counter("cluster.scrape_fail"),
            subscribe_drops: registry.counter("cluster.subscribe.drops"),
            shadows_pushed: registry.counter("cluster.shadows_pushed"),
            shadow_push_fail: registry.counter("cluster.shadow_push_fail"),
            shadow_bytes: registry.histogram("cluster.shadow_bytes"),
            shadow_lag: registry.gauge("cluster.shadow_lag"),
            failovers: registry.counter("cluster.failovers"),
            failover_fail: registry.counter("cluster.failover_fail"),
            failover_us: registry.histogram("cluster.failover_us"),
            failover_bytes: registry.histogram("cluster.failover_bytes"),
            tags_in_flight: registry.gauge("cluster.wire.p2.tags_in_flight"),
            writer_queue: registry.gauge("cluster.wire.p2.writer_queue"),
            sub_seq: AtomicU64::new(0),
            wire_p1: WireObs::new(&registry, "cluster.wire", PROTO_VERSION),
            wire_p2: WireObs::new(&registry, "cluster.wire", PROTO_V2),
            relay_wire: WireObs::new(&registry, "cluster.relay", PROTO_V2),
            registry,
        }
    }

    /// The client-facing byte counters of protocol generation `proto`.
    pub(crate) fn wire(&self, proto: u32) -> &WireObs {
        if proto >= PROTO_V2 {
            &self.wire_p2
        } else {
            &self.wire_p1
        }
    }

    /// Registers one subscription stream: its sequence number and its
    /// dedicated drop counter (`cluster.subscribe.drops.sub<N>`). The
    /// aggregate `cluster.subscribe.drops` keeps counting every drop;
    /// the per-subscriber counter pins which stream lost frames.
    pub(crate) fn subscriber(&self) -> (u64, Arc<Counter>) {
        let seq = self.sub_seq.fetch_add(1, Ordering::Relaxed);
        let drops = self
            .registry
            .counter(&format!("cluster.subscribe.drops.sub{seq}"));
        (seq, drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routers_get_distinct_cluster_rid_prefixes() {
        let a = ClusterObs::new();
        let b = ClusterObs::new();
        assert_ne!(a.registry.instance(), b.registry.instance());
        assert!(a.registry.instance().starts_with('c'));
        assert!(a.registry.mint_rid().starts_with("c"));
    }

    #[test]
    fn schema_is_fixed_before_any_traffic() {
        let obs = ClusterObs::new();
        let snap = obs.registry.snapshot();
        for name in [
            "cluster.relays",
            "cluster.probe.ok",
            "cluster.probe.fail",
            "cluster.shard_down",
            "cluster.rebalances",
            "cluster.sessions_moved",
            "cluster.migrations",
            "cluster.migration_fail",
            "cluster.scrape_fail",
            "cluster.subscribe.drops",
            "cluster.shadows_pushed",
            "cluster.shadow_push_fail",
            "cluster.failovers",
            "cluster.failover_fail",
            "cluster.wire.p1.rx_bytes",
            "cluster.wire.p1.tx_bytes",
            "cluster.wire.p1.payload_bytes",
            "cluster.wire.p2.rx_bytes",
            "cluster.wire.p2.tx_bytes",
            "cluster.wire.p2.payload_bytes",
            "cluster.relay.p2.rx_bytes",
            "cluster.relay.p2.tx_bytes",
            "cluster.relay.p2.payload_bytes",
        ] {
            assert!(snap.counters.contains_key(name), "missing {name}");
        }
        // The relay is proto 2 only: no always-zero proto 1 family.
        assert!(
            !snap
                .counters
                .keys()
                .any(|k| k.starts_with("cluster.relay.p1.")),
            "relay proto 1 counters must not exist"
        );
        for name in [
            "cluster.relay_us",
            "cluster.migrate_us",
            "cluster.migrate_bytes",
            "cluster.scrape_us",
            "cluster.shadow_bytes",
            "cluster.failover_us",
            "cluster.failover_bytes",
        ] {
            assert!(snap.histograms.contains_key(name), "missing {name}");
        }
        for name in [
            "cluster.shadow_lag",
            "cluster.wire.p2.tags_in_flight",
            "cluster.wire.p2.writer_queue",
        ] {
            assert!(snap.gauges.contains_key(name), "missing {name}");
        }
    }

    #[test]
    fn subscribers_get_distinct_drop_counters() {
        let obs = ClusterObs::new();
        let (a, drops_a) = obs.subscriber();
        let (b, drops_b) = obs.subscriber();
        assert_ne!(a, b);
        drops_a.inc();
        drops_a.inc();
        drops_b.inc();
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counters[&format!("cluster.subscribe.drops.sub{a}")], 2);
        assert_eq!(snap.counters[&format!("cluster.subscribe.drops.sub{b}")], 1);
    }
}
