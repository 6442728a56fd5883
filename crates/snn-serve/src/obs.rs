//! Server-side observability: one [`snn_obs::Registry`] per server
//! instance plus cached handles for every hot-path metric, so recording
//! is always a lock-free atomic op (handle lookup happens once, here).
//!
//! The registry is **per [`crate::SessionManager`]**, never
//! process-global: the test and experiment harnesses run several servers
//! (cluster shards) in one process, and a cluster-wide scrape must see
//! each shard's numbers separately before merging them itself.
//!
//! Metric names follow the `DESIGN.md` §10 scheme
//! (`<layer>.<subsystem>.<metric>[_unit]`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snn_obs::{Counter, Gauge, Histogram, Registry};
use snn_online::LearnerObs;

/// Verbs with a dedicated `serve.req.<verb>_us` latency histogram.
/// Anything else — unknown or hostile verbs included — lands in
/// `serve.req.other_us`, so a port scanner can never mint unbounded
/// metric names.
const VERBS: &[&str] = &[
    "hello",
    "ping",
    "stats",
    "metrics",
    "open",
    "ingest",
    "report",
    "energy",
    "checkpoint",
    "restore",
    "swap",
    "shadow",
    "evict",
    "close",
    "journal",
    "subscribe",
    "trace",
];

/// Control verbs: health probes, scrapes and trace reads. They keep
/// their latency histograms, exemplars and counters but record no ring
/// span: a router's health loop alone sends every shard a `ping` and a
/// `journal` per interval, enough to evict the request spans a trace is
/// assembled from.
const CONTROL_VERBS: &[&str] = &["ping", "stats", "metrics", "journal", "trace"];

/// The verb a wire request's ring spans are named after (`serve.<verb>`),
/// or `None` for a control verb, which records none. Unknown verbs
/// collapse to `other`, mirroring the metric fallback, so hostile input
/// cannot pollute the ring with garbage names.
pub(crate) fn span_verb(verb: &str) -> Option<&'static str> {
    (!CONTROL_VERBS.contains(&verb)).then(|| canonical(verb))
}

/// `verb` if it is in [`VERBS`], else `other`.
fn canonical(verb: &str) -> &'static str {
    VERBS
        .iter()
        .find(|&&v| v == verb)
        .copied()
        .unwrap_or("other")
}

/// Process-wide instance sequence: each manager gets a distinct rid
/// prefix (`s0`, `s1`, …) so rids minted by co-hosted shards never
/// collide.
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Cached metric handles of one server instance.
#[derive(Debug)]
pub(crate) struct ServeObs {
    pub(crate) registry: Arc<Registry>,
    /// `serve.requests` — wire requests handled (any verb, any outcome).
    pub(crate) requests: Arc<Counter>,
    /// `serve.admission_rejects` — opens/restores refused at the limit
    /// (duplicates included).
    pub(crate) admission_rejects: Arc<Counter>,
    /// `serve.backpressure_rejects` — submits refused on a full queue.
    pub(crate) backpressure_rejects: Arc<Counter>,
    /// `serve.evictions` — sessions checkpointed to disk and freed.
    pub(crate) evictions: Arc<Counter>,
    /// `serve.shadows` — shadow checkpoints currently parked on this
    /// server by other shards' routers.
    pub(crate) shadows: Arc<Gauge>,
    /// `serve.shadow.store_bytes` — size of each stored shadow blob.
    pub(crate) shadow_bytes: Arc<Histogram>,
    /// `serve.ingest.batch_size` — samples per ingest job.
    pub(crate) ingest_batch: Arc<Histogram>,
    /// `serve.subscribe.drops` — push frames dropped because a
    /// subscriber's bounded buffer was full (slow consumer). The sampler
    /// never blocks: it counts here and moves on. Per-subscriber
    /// breakdowns live next to it as `serve.subscribe.drops.sub<N>`
    /// (see [`ServeObs::subscriber`]).
    pub(crate) subscribe_drops: Arc<Counter>,
    /// `serve.phase.queue_wait_us` — time a job sat in its session queue
    /// between submit and its session's checkout by a scheduler worker
    /// (the queue-wait phase of the request trace).
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// `serve.phase.exec_us` — engine compute time per job (the exec
    /// phase of the request trace).
    pub(crate) exec_us: Arc<Histogram>,
    /// `serve.phase.write_us` — reply serialize/write time (the write
    /// phase of the request trace).
    pub(crate) write_us: Arc<Histogram>,
    /// `serve.wire.p2.tags_in_flight` — requests concurrently being
    /// served on multiplexed connections (sampled at each demux step).
    pub(crate) tags_in_flight: Arc<Gauge>,
    /// `serve.wire.p2.writer_queue` — response/push frames queued at the
    /// proto 2 writer threads, not yet on the socket.
    pub(crate) writer_queue: Arc<Gauge>,
    /// `serve.tick_us` — wall time of one checkout: a worker running one
    /// session's jobs (the name predates the per-session scheduler).
    pub(crate) tick_us: Arc<Histogram>,
    /// `serve.tick.jobs` — jobs executed per checkout.
    pub(crate) tick_jobs: Arc<Histogram>,
    /// `serve.session.retired_mj` — per-session modelled millijoules
    /// spent on this server, recorded when the session closes or evicts.
    pub(crate) retired_mj: Arc<Histogram>,
    /// `online.checkpoint.encode_us` / `_bytes` — snapshot wire encoding.
    pub(crate) encode_us: Arc<Histogram>,
    /// See [`ServeObs::encode_us`].
    pub(crate) encode_bytes: Arc<Histogram>,
    /// `online.checkpoint.decode_us` / `_bytes` — snapshot wire decoding
    /// (restore and swap payloads).
    pub(crate) decode_us: Arc<Histogram>,
    /// See [`ServeObs::decode_us`].
    pub(crate) decode_bytes: Arc<Histogram>,
    /// `runtime.infer.batches` / `.samples` / `.busy_us` — engine work,
    /// fed by per-checkout deltas of each learner's engine counters.
    pub(crate) infer_batches: Arc<Counter>,
    /// See [`ServeObs::infer_batches`].
    pub(crate) infer_samples: Arc<Counter>,
    /// See [`ServeObs::infer_batches`].
    pub(crate) infer_busy_us: Arc<Counter>,
    /// `serve.wire.p{1,2}.rx_bytes` / `.tx_bytes` — frame-level bytes on
    /// the wire per protocol generation (proto 1 counts line bytes,
    /// proto 2 counts whole frames, header and checksum included).
    wire_rx: [Arc<Counter>; 2],
    /// See [`ServeObs::wire_rx`].
    wire_tx: [Arc<Counter>; 2],
    verb_us: HashMap<&'static str, Arc<Histogram>>,
    other_us: Arc<Histogram>,
    /// `serve.proto.p{1,2}.<verb>_us` — per-protocol verb latency, so a
    /// proto rollout's effect is visible per verb without a redeploy.
    proto_verb_us: [HashMap<&'static str, Arc<Histogram>>; 2],
    /// See [`ServeObs::proto_verb_us`] (the hostile-verb bucket).
    proto_other_us: [Arc<Histogram>; 2],
    /// Subscription sequence: each subscriber (proto 1 stream or proto 2
    /// push tag) gets the next number, labelling its drop counter.
    sub_seq: AtomicU64,
    /// Per-rid phase breakdown the scheduler stashes for the wire layer:
    /// rid → (queue_wait_us, exec_us). Taken (removed) when the request's
    /// latency exemplar is recorded, so a tail sample carries its own
    /// queue/exec split. Bounded: at capacity the map is cleared — the
    /// notes are best-effort annotation, never load-bearing state.
    phase_notes: std::sync::Mutex<HashMap<String, (u64, u64)>>,
}

/// Bound on stashed per-rid phase notes (see [`ServeObs::note_phases`]).
const PHASE_NOTE_CAP: usize = 1024;

impl ServeObs {
    /// A fresh registry with every hot-path handle pre-created. Creating
    /// the handles eagerly also fixes the exposition's name set, so a
    /// scrape of an idle server already shows the full schema.
    pub(crate) fn new() -> Self {
        let instance = format!("s{}", INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed));
        let registry = Arc::new(Registry::new(&instance));
        let verb_us = VERBS
            .iter()
            .map(|&v| (v, registry.histogram(&format!("serve.req.{v}_us"))))
            .collect();
        let proto_verb_us = [1u32, 2].map(|p| {
            VERBS
                .iter()
                .map(|&v| (v, registry.histogram(&format!("serve.proto.p{p}.{v}_us"))))
                .collect()
        });
        let proto_other_us =
            [1u32, 2].map(|p| registry.histogram(&format!("serve.proto.p{p}.other_us")));
        let wire_rx = [1u32, 2].map(|p| registry.counter(&format!("serve.wire.p{p}.rx_bytes")));
        let wire_tx = [1u32, 2].map(|p| registry.counter(&format!("serve.wire.p{p}.tx_bytes")));
        ServeObs {
            requests: registry.counter("serve.requests"),
            admission_rejects: registry.counter("serve.admission_rejects"),
            backpressure_rejects: registry.counter("serve.backpressure_rejects"),
            evictions: registry.counter("serve.evictions"),
            shadows: registry.gauge("serve.shadows"),
            shadow_bytes: registry.histogram("serve.shadow.store_bytes"),
            ingest_batch: registry.histogram("serve.ingest.batch_size"),
            subscribe_drops: registry.counter("serve.subscribe.drops"),
            queue_wait_us: registry.histogram("serve.phase.queue_wait_us"),
            exec_us: registry.histogram("serve.phase.exec_us"),
            write_us: registry.histogram("serve.phase.write_us"),
            tags_in_flight: registry.gauge("serve.wire.p2.tags_in_flight"),
            writer_queue: registry.gauge("serve.wire.p2.writer_queue"),
            tick_us: registry.histogram("serve.tick_us"),
            tick_jobs: registry.histogram("serve.tick.jobs"),
            retired_mj: registry.histogram("serve.session.retired_mj"),
            encode_us: registry.histogram("online.checkpoint.encode_us"),
            encode_bytes: registry.histogram("online.checkpoint.encode_bytes"),
            decode_us: registry.histogram("online.checkpoint.decode_us"),
            decode_bytes: registry.histogram("online.checkpoint.decode_bytes"),
            infer_batches: registry.counter("runtime.infer.batches"),
            infer_samples: registry.counter("runtime.infer.samples"),
            infer_busy_us: registry.counter("runtime.infer.busy_us"),
            other_us: registry.histogram("serve.req.other_us"),
            verb_us,
            wire_rx,
            wire_tx,
            proto_verb_us,
            proto_other_us,
            sub_seq: AtomicU64::new(0),
            phase_notes: std::sync::Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// Registers a new subscriber: its sequence number plus its
    /// dedicated drop counter (`serve.subscribe.drops.sub<N>`), created
    /// eagerly so even a drop-free subscriber shows up in the scrape.
    pub(crate) fn subscriber(&self) -> (u64, Arc<Counter>) {
        let seq = self.sub_seq.fetch_add(1, Ordering::Relaxed);
        let drops = self
            .registry
            .counter(&format!("serve.subscribe.drops.sub{seq}"));
        (seq, drops)
    }

    /// Stashes a request's queue/exec phase split for the wire layer to
    /// attach to its latency exemplar (keyed by rid; empty rids are
    /// unattributed work and are skipped).
    pub(crate) fn note_phases(&self, rid: &str, queue_us: u64, exec_us: u64) {
        if rid.is_empty() {
            return;
        }
        let mut notes = self.phase_notes.lock().expect("phase notes poisoned");
        if notes.len() >= PHASE_NOTE_CAP {
            notes.clear();
        }
        notes.insert(rid.to_string(), (queue_us, exec_us));
    }

    /// Takes (removes) the stashed phase split for `rid`, if any.
    pub(crate) fn take_phases(&self, rid: &str) -> Option<(u64, u64)> {
        self.phase_notes
            .lock()
            .expect("phase notes poisoned")
            .remove(rid)
    }

    /// Records one completed request against the verb latency histogram
    /// *and* its tail-latency exemplar: the exemplar keeps the rid plus
    /// the canonical verb and — when the scheduler stashed one — the
    /// request's queue/exec phase split, so a bad p99 bucket points at a
    /// concrete, explainable request.
    pub(crate) fn record_request(&self, verb: &str, dur: std::time::Duration, rid: &str) {
        self.verb_hist(verb).record_duration(dur);
        let verb = canonical(verb);
        let us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let mut fields: Vec<(&str, String)> = vec![("verb", verb.to_string())];
        if let Some((queue_us, exec_us)) = self.take_phases(rid) {
            fields.push(("queue_us", queue_us.to_string()));
            fields.push(("exec_us", exec_us.to_string()));
        }
        self.registry
            .exemplar(&format!("serve.req.{verb}_us"), us, rid, &fields);
    }

    /// The latency histogram for `verb` (the `other` bucket for verbs
    /// outside [`VERBS`]).
    pub(crate) fn verb_hist(&self, verb: &str) -> &Arc<Histogram> {
        self.verb_us.get(verb).unwrap_or(&self.other_us)
    }

    /// Index into the fixed per-protocol metric arrays: everything at or
    /// above proto 2 shares the binary-framing bucket.
    fn proto_idx(proto: u32) -> usize {
        usize::from(proto >= 2)
    }

    /// The per-protocol latency histogram for `verb` (with the same
    /// hostile-verb collapse rule as [`ServeObs::verb_hist`]).
    pub(crate) fn proto_verb_hist(&self, proto: u32, verb: &str) -> &Arc<Histogram> {
        let i = Self::proto_idx(proto);
        self.proto_verb_us[i]
            .get(verb)
            .unwrap_or(&self.proto_other_us[i])
    }

    /// Counts frame-level bytes on the wire for one protocol generation.
    pub(crate) fn count_wire(&self, proto: u32, rx_bytes: u64, tx_bytes: u64) {
        let i = Self::proto_idx(proto);
        self.wire_rx[i].add(rx_bytes);
        self.wire_tx[i].add(tx_bytes);
    }

    /// The handles a hosted [`snn_online::OnlineLearner`] records its
    /// lifecycle events through (drift, adaptive responses, checkpoint
    /// build time).
    pub(crate) fn learner_obs(&self) -> LearnerObs {
        LearnerObs {
            drift_events: self.registry.counter("online.drift_events"),
            adaptive_responses: self.registry.counter("online.adaptive_responses"),
            checkpoint_build_us: self.registry.histogram("online.checkpoint.build_us"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_verbs_share_one_histogram() {
        let obs = ServeObs::new();
        obs.verb_hist("ingest").record(5);
        obs.verb_hist("GET / HTTP/1.1").record(7);
        obs.verb_hist("%%%").record(9);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.histogram("serve.req.ingest_us").count(), 1);
        assert_eq!(
            snap.histogram("serve.req.other_us").count(),
            2,
            "hostile verbs collapse into one bucket"
        );
        // The schema is fixed at construction: every known verb's
        // histogram exists before any request arrives.
        for v in VERBS {
            assert!(
                snap.histograms.contains_key(&format!("serve.req.{v}_us")),
                "missing serve.req.{v}_us"
            );
        }
    }

    #[test]
    fn request_exemplars_carry_phase_notes() {
        let obs = ServeObs::new();
        obs.note_phases("s9-1", 40, 60);
        obs.record_request("ingest", std::time::Duration::from_micros(120), "s9-1");
        let snap = obs.registry.snapshot();
        let e = snap.worst_exemplar("serve.req.ingest_us").unwrap();
        assert_eq!(e.rid, "s9-1");
        assert_eq!(e.field("verb"), Some("ingest"));
        assert_eq!(e.field("queue_us"), Some("40"));
        assert_eq!(e.field("exec_us"), Some("60"));
        assert!(obs.take_phases("s9-1").is_none(), "notes are take-once");
        // Hostile verbs collapse into the `other` exemplar like the
        // histogram fallback, so they cannot mint unbounded names.
        obs.record_request(
            "GET / HTTP/1.1",
            std::time::Duration::from_micros(7),
            "s9-2",
        );
        let snap = obs.registry.snapshot();
        assert_eq!(
            snap.worst_exemplar("serve.req.other_us").unwrap().rid,
            "s9-2"
        );
    }

    #[test]
    fn subscribers_get_distinct_drop_counters() {
        let obs = ServeObs::new();
        let (s0, c0) = obs.subscriber();
        let (s1, c1) = obs.subscriber();
        assert_ne!(s0, s1);
        c1.inc();
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter(&format!("serve.subscribe.drops.sub{s1}")), 1);
        assert_eq!(snap.counter(&format!("serve.subscribe.drops.sub{s0}")), 0);
        drop(c0);
    }

    #[test]
    fn instances_get_distinct_rid_prefixes() {
        let a = ServeObs::new();
        let b = ServeObs::new();
        assert_ne!(a.registry.instance(), b.registry.instance());
    }
}
