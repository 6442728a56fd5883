//! `snn-obs` — observability substrate for the SpikeDyn serving stack.
//!
//! A zero-dependency (std-only) metrics and tracing library shared by
//! every layer of the stack:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]): lock-free
//!   primitives whose hot path is one or two relaxed atomic adds, so the
//!   engine and scheduler can record without perturbing timing — and
//!   *never* results, which depend only on persisted seeds (pinned by
//!   `tests/obs_metrics.rs`).
//! * **Records** ([`Record`]): spans and journal events are one record
//!   shape — `name`, `rid`, `start_us`, `dur_us`, `k=v` fields; an
//!   event has no duration — written and parsed by one line codec in
//!   every document, merged under one canonical order, with one
//!   [`ParseError`] for the three documents.
//! * **Registry** ([`Registry`]): per-instance named metric handles, one
//!   bounded record ring in two retention classes ([`SPAN_RING`] recent
//!   spans, [`JOURNAL_RING`] journal events), and request-id minting.
//!   One registry per server/router instance — the harness runs many
//!   shards in one process, so nothing here is process-global.
//! * **Tracing**: a request id (`rid`) is minted where a request first
//!   enters the stack and propagated as a trailing `rid=` field on
//!   forwarded protocol lines; spans recorded at every layer carry it,
//!   so one client request is traceable across router, shards, and
//!   scheduler workers. Spans carrying `phase=`/`parent=` fields assemble
//!   into parent-linked [`TraceTree`]s with a versioned `# snn-trace v1`
//!   codec and a deterministic critical-path report (`DESIGN.md` §14).
//! * **Exemplars** ([`Exemplar`]): per-histogram tail-latency exemplars
//!   — the slowest sample per bucket region keeps its rid and context,
//!   so a bad p99 links directly to a concrete trace.
//! * **Exposition** ([`Snapshot`]): a line-oriented text format whose
//!   render/parse pair is self-inverse, with associative snapshot
//!   merging — the basis of the `metrics` wire verb and the cluster-wide
//!   `cluster-metrics` fan-out scrape.
//! * **Flight recorder** ([`JournalSnapshot`]): the always-on ring of
//!   events (admissions, rejects, drift, evictions, probe failures,
//!   failovers) as a versioned text document with an associative merge —
//!   the post-mortem complement to metrics, served over the `journal`
//!   wire verb and merged cluster-wide by `cluster-journal`.
//!
//! Naming scheme, trace propagation rules, and the record-line grammar
//! are specified in `DESIGN.md` §10; the journal event schema and
//! subscribe/streaming semantics in `DESIGN.md` §12.

#![deny(missing_docs)]

mod expo;
mod journal;
mod metrics;
mod record;
mod registry;
mod trace;

pub use expo::{Snapshot, EXPO_HEADER};
pub use journal::{JournalSnapshot, JOURNAL_HEADER};
pub use metrics::{
    bucket_index, bucket_region, bucket_upper_bound, Counter, Exemplar, Gauge, Histogram,
    HistogramSnapshot, HIST_BUCKETS, HIST_REGIONS,
};
pub use record::{valid_name, valid_rid, ParseError, Record, MAX_RID};
pub use registry::{Registry, JOURNAL_RING, SPAN_RING};
pub use trace::{TraceNode, TraceShares, TraceTree, PARENT_KEY, PHASE_KEY, TRACE_HEADER};

#[cfg(test)]
mod hammer {
    use super::*;
    use rayon::prelude::*;
    use std::sync::Mutex;

    // The vendored rayon exposes by-ref `par_iter`; drive the atomics
    // from many workers through take-once slots.
    #[test]
    fn concurrent_counter_and_histogram_increments_are_exact() {
        const WORKERS: usize = 16;
        const PER_WORKER: u64 = 10_000;
        let r = Registry::new("hammer");
        let counter = r.counter("c");
        let hist = r.histogram("h");
        let lanes: Vec<Mutex<u64>> = (0..WORKERS).map(|i| Mutex::new(i as u64)).collect();
        lanes.par_iter().for_each(|lane| {
            let seed = *lane.lock().unwrap();
            for i in 0..PER_WORKER {
                counter.inc();
                hist.record(seed * PER_WORKER + i);
            }
        });
        assert_eq!(counter.get(), WORKERS as u64 * PER_WORKER);
        let snap = hist.snapshot();
        assert_eq!(snap.count(), WORKERS as u64 * PER_WORKER);
        // Sum of 0..WORKERS*PER_WORKER.
        let n = WORKERS as u64 * PER_WORKER;
        assert_eq!(snap.sum, n * (n - 1) / 2);
    }

    #[test]
    fn concurrent_spans_never_exceed_the_ring() {
        let r = Registry::new("hammer2");
        let lanes: Vec<Mutex<u64>> = (0..8).map(Mutex::new).collect();
        lanes.par_iter().for_each(|lane| {
            let _lane = lane.lock().unwrap();
            for _ in 0..200 {
                r.span("s", "hammer2-1", std::time::Duration::from_micros(1), &[]);
            }
        });
        assert_eq!(r.snapshot().spans.len(), SPAN_RING);
    }

    #[test]
    fn concurrent_rids_are_unique() {
        let r = Registry::new("rid");
        let lanes: Vec<Mutex<Vec<String>>> = (0..8).map(|_| Mutex::new(Vec::new())).collect();
        lanes.par_iter().for_each(|lane| {
            let mut out = lane.lock().unwrap();
            for _ in 0..500 {
                out.push(r.mint_rid());
            }
        });
        let mut all: Vec<String> = lanes
            .iter()
            .flat_map(|l| l.lock().unwrap().clone())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "every minted rid is unique");
    }
}
