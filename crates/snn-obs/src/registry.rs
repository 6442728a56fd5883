//! The metrics registry: named counters/gauges/histograms, the record
//! rings that retain recent spans and journal events, and rid minting.
//!
//! One registry per serving instance (an `snn-serve` server or an
//! `snn-cluster` router). Instances are per-object rather than
//! process-global because the test and experiment harnesses run many
//! shards *in one process* — a global registry would conflate them and
//! a cluster scrape would multiply-count every shard.
//!
//! Handle lookup (`counter`/`gauge`/`histogram`) takes a short mutex on
//! a name map; hot paths call it once at construction, cache the `Arc`,
//! and then touch only lock-free atomics.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::expo::Snapshot;
use crate::journal::JournalSnapshot;
use crate::metrics::{bucket_region, Counter, Exemplar, Gauge, Histogram};
use crate::record::{sanitize, valid_name, valid_rid, Record};

/// How many recent spans a registry retains (older spans are dropped;
/// counters and histograms carry the long-run aggregate).
pub const SPAN_RING: usize = 256;

/// How many recent journal events a registry retains (older events are
/// dropped and counted in the journal's `dropped`).
pub const JOURNAL_RING: usize = 512;

/// A bounded ring of records, one per retention class ([`SPAN_RING`]
/// spans, [`JOURNAL_RING`] journal events). Overflow drops the oldest
/// record and counts it — truncation is visible, never silent.
#[derive(Debug)]
struct Ring {
    cap: usize,
    state: Mutex<RingState>,
}

#[derive(Debug, Default)]
struct RingState {
    records: VecDeque<Record>,
    /// Records ever pushed (retained or dropped).
    total: u64,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            state: Mutex::new(RingState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState> {
        self.state.lock().expect("record ring poisoned")
    }

    fn push(&self, record: Record) {
        let mut ring = self.lock();
        ring.total += 1;
        if ring.records.len() >= self.cap {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// A point-in-time copy: the ever-pushed total, the drop count, and
    /// the retained records oldest first.
    fn snapshot(&self) -> JournalSnapshot {
        let ring = self.lock();
        JournalSnapshot {
            total: ring.total,
            dropped: ring.dropped,
            events: ring.records.iter().cloned().collect(),
        }
    }
}

/// A per-instance metrics registry. See the module docs.
#[derive(Debug)]
pub struct Registry {
    instance: String,
    birth: Instant,
    rid_seq: AtomicU64,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Recent spans; the drop count rides every exposition as the
    /// `obs.spans_dropped` counter.
    spans: Ring,
    /// Tail-latency exemplars: per histogram name, the slowest sample's
    /// rid (and context) per bucket region. Bounded by construction
    /// (histogram count × [`crate::HIST_REGIONS`]).
    exemplars: Mutex<BTreeMap<String, BTreeMap<usize, Exemplar>>>,
    /// The flight recorder (see [`crate::journal`]); its drop count
    /// rides every exposition as the `obs.journal_dropped` counter.
    journal: Ring,
}

impl Registry {
    /// Creates an empty registry. `instance` prefixes minted rids (it
    /// must satisfy [`crate::valid_rid`]'s alphabet) and identifies this
    /// registry in merged scrapes.
    pub fn new(instance: &str) -> Self {
        assert!(
            valid_rid(instance),
            "registry instance must be a valid rid prefix"
        );
        Registry {
            instance: instance.to_string(),
            birth: Instant::now(),
            rid_seq: AtomicU64::new(0),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Ring::new(SPAN_RING),
            exemplars: Mutex::new(BTreeMap::new()),
            journal: Ring::new(JOURNAL_RING),
        }
    }

    /// The instance label rids are minted under.
    pub fn instance(&self) -> &str {
        &self.instance
    }

    /// Mints a fresh request id: `<instance>-<seq>`.
    pub fn mint_rid(&self) -> String {
        let n = self.rid_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{}-{n}", self.instance)
    }

    /// The counter registered under `name` (created at zero on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        Arc::clone(
            self.counters
                .lock()
                .expect("counter map poisoned")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge registered under `name` (created at zero on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        Arc::clone(
            self.gauges
                .lock()
                .expect("gauge map poisoned")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram registered under `name` (created empty on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        Arc::clone(
            self.histograms
                .lock()
                .expect("histogram map poisoned")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Records a completed span of `dur` ending now. Reserved keys
    /// (`rid`, `start_us`, `dur_us`) and values outside the protocol
    /// token alphabet are sanitised, never rejected — tracing must not
    /// fail work that succeeded.
    pub fn span(&self, name: &str, rid: &str, dur: Duration, fields: &[(&str, String)]) {
        self.spans.push(self.record(name, rid, dur, fields));
    }

    /// The record of `dur` ending now that [`Registry::span`] and
    /// [`Registry::journal_event`] retain: invalid rids become
    /// unattributed, reserved keys are dropped, names, keys and values
    /// are sanitised.
    fn record(&self, name: &str, rid: &str, dur: Duration, fields: &[(&str, String)]) -> Record {
        let dur_us = dur.as_micros().min(u128::from(u64::MAX)) as u64;
        Record {
            start_us: self.uptime_us().saturating_sub(dur_us),
            name: sanitize(name),
            rid: if valid_rid(rid) {
                rid.to_string()
            } else {
                String::new()
            },
            dur_us,
            fields: fields
                .iter()
                .filter(|(k, _)| !matches!(*k, "rid" | "start_us" | "dur_us"))
                .map(|(k, v)| (sanitize(k), sanitize(v)))
                .collect(),
        }
    }

    /// Records a tail-latency exemplar for the histogram `name`: if
    /// `value` is the slowest sample yet seen in its bucket region, the
    /// region's exemplar becomes `(value, rid, fields)`. Unattributed
    /// samples (invalid rid) are skipped — an exemplar's whole point is
    /// the rid link to a trace. Same sanitisation discipline as
    /// [`Registry::span`]: names and fields are repaired, never
    /// rejected. Off the hot path this is one short mutex; callers
    /// record exemplars next to `Histogram::record`, not inside engine
    /// loops.
    pub fn exemplar(&self, name: &str, value: u64, rid: &str, fields: &[(&str, String)]) {
        if !valid_rid(rid) {
            return;
        }
        let candidate = Exemplar {
            region: bucket_region(value),
            value,
            rid: rid.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (sanitize(k), sanitize(v)))
                .collect(),
        };
        let mut map = self.exemplars.lock().expect("exemplar map poisoned");
        let regions = map.entry(sanitize(name)).or_default();
        match regions.get(&candidate.region) {
            Some(existing) if !candidate.beats(existing) => {}
            _ => {
                regions.insert(candidate.region, candidate);
            }
        }
    }

    /// Records one flight-recorder event, stamped now: a record with no
    /// duration, sanitised as [`Registry::span`] sanitises — journaling
    /// must not fail work that succeeded. The ring is bounded; overflow
    /// drops the oldest event and counts it.
    pub fn journal_event(&self, kind: &str, rid: &str, fields: &[(&str, String)]) {
        self.journal
            .push(self.record(kind, rid, Duration::ZERO, fields));
    }

    /// A point-in-time copy of the flight-recorder ring, with the
    /// ever-recorded total and drop count (the total lets a subscriber
    /// turn consecutive snapshots into an exact event delta).
    pub fn journal_snapshot(&self) -> JournalSnapshot {
        self.journal.snapshot()
    }

    /// Microseconds since this registry was created (the span clock).
    pub fn uptime_us(&self) -> u64 {
        self.birth.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// A point-in-time copy of every metric and the span ring. The
    /// synthetic `obs.spans_dropped` / `obs.journal_dropped` counters
    /// ride along, so ring truncation shows up in every scrape.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let spans = self.spans.snapshot();
        counters.insert("obs.spans_dropped".to_string(), spans.dropped);
        counters.insert(
            "obs.journal_dropped".to_string(),
            self.journal.lock().dropped,
        );
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let exemplars = self
            .exemplars
            .lock()
            .expect("exemplar map poisoned")
            .iter()
            .map(|(name, regions)| (name.clone(), regions.values().cloned().collect()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: spans.events,
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new("t0");
        r.counter("a.b").inc();
        r.counter("a.b").add(2);
        assert_eq!(r.counter("a.b").get(), 3);
        r.gauge("g").set(1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        r.histogram("h").record(7);
        assert_eq!(r.histogram("h").snapshot().count(), 1);
    }

    #[test]
    fn rids_are_unique_and_prefixed() {
        let r = Registry::new("s9");
        let a = r.mint_rid();
        let b = r.mint_rid();
        assert_ne!(a, b);
        assert!(a.starts_with("s9-"));
        assert!(valid_rid(&a));
    }

    #[test]
    fn span_ring_is_bounded_and_sanitised() {
        let r = Registry::new("t1");
        for i in 0..(SPAN_RING + 10) {
            r.span(
                "x",
                "t1-1",
                Duration::from_micros(i as u64),
                &[
                    ("k", "has space\"quote".to_string()),
                    ("rid", "evil".into()),
                ],
            );
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), SPAN_RING, "ring stays bounded");
        assert_eq!(
            snap.counter("obs.spans_dropped"),
            10,
            "overflow is counted, not silent"
        );
        let last = snap.spans.last().unwrap();
        assert_eq!(last.field("k"), Some("has_space_quote"));
        assert_eq!(last.field("rid"), None, "reserved keys are dropped");
    }

    #[test]
    fn journal_ring_is_bounded_with_visible_drops() {
        let r = Registry::new("t3");
        for i in 0..(JOURNAL_RING + 5) {
            r.journal_event(
                "serve.open",
                "t3-1",
                &[("i", i.to_string()), ("k", "bad value\"".to_string())],
            );
        }
        let j = r.journal_snapshot();
        assert_eq!(j.events.len(), JOURNAL_RING, "ring stays bounded");
        assert_eq!(j.dropped, 5);
        assert_eq!(j.total, (JOURNAL_RING + 5) as u64);
        // The oldest events went first; the newest survives, sanitised.
        let last = j.events.last().unwrap();
        assert_eq!(
            last.field("i"),
            Some((JOURNAL_RING + 4).to_string().as_str())
        );
        assert_eq!(last.field("k"), Some("bad_value_"));
        // And the drop count rides the metrics exposition too.
        assert_eq!(r.snapshot().counter("obs.journal_dropped"), 5);
    }

    #[test]
    fn exemplars_keep_the_slowest_rid_per_region() {
        let r = Registry::new("t4");
        // Same region (octave 1024..2047): the slower sample wins,
        // whatever the arrival order.
        r.exemplar("serve.req.ingest_us", 1100, "t4-1", &[]);
        r.exemplar(
            "serve.req.ingest_us",
            1500,
            "t4-2",
            &[("verb", "ingest".to_string())],
        );
        r.exemplar("serve.req.ingest_us", 1200, "t4-3", &[]);
        // A different region keeps its own exemplar.
        r.exemplar("serve.req.ingest_us", 5, "t4-4", &[]);
        // Invalid rid: skipped entirely.
        r.exemplar("serve.req.ingest_us", 9999, "not a rid", &[]);
        let snap = r.snapshot();
        let ex = snap.exemplars.get("serve.req.ingest_us").unwrap();
        assert_eq!(ex.len(), 2, "one exemplar per touched region");
        let slow = ex.iter().max_by_key(|e| e.value).unwrap();
        assert_eq!(slow.value, 1500);
        assert_eq!(slow.rid, "t4-2");
        assert_eq!(slow.field("verb"), Some("ingest"));
    }

    #[test]
    fn invalid_rid_is_recorded_as_unattributed() {
        let r = Registry::new("t2");
        r.span("x", "not a rid", Duration::ZERO, &[]);
        assert_eq!(r.snapshot().spans[0].rid, "");
    }
}
