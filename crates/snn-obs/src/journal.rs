//! The flight-recorder journal (version 1) and its text codec.
//!
//! A journal is a fixed-size ring of **events** — admissions, rejects,
//! drift, evictions, probe failures, failovers — recorded always-on by
//! every tier next to its metrics registry. Where metrics answer "how
//! much / how fast", the journal answers "what happened, in what order,
//! to whom". An event is a [`Record`] with no duration: a dotted name
//! (`cluster.shard_down`), the request id that caused it, its
//! birth-relative timestamp, and free-form `k=v` context.
//!
//! The ring is the registry's second retention class
//! ([`crate::JOURNAL_RING`] events, next to [`crate::SPAN_RING`] spans)
//! and lock-cheap (one short mutex per record), so it can stay on in
//! production paths. Overflow drops the *oldest* event and counts the
//! drop — truncation is visible, never silent.
//!
//! A journal snapshot renders as a versioned text document whose `event`
//! lines are the record codec without a duration:
//!
//! ```text
//! # snn-journal v1
//! meta total=<u64> dropped=<u64>
//! event <name> <rid|-> <start_us> [k=v ...]
//! ```
//!
//! [`JournalSnapshot::render`] ∘ [`JournalSnapshot::parse`] is an
//! identity (pinned by this module's tests). Merging concatenates event
//! multisets in the one canonical record order and sums the `meta`
//! counters — the basis of the router's merged post-mortem dump
//! (`cluster-journal`), where one document stitches the router's
//! probe-failure/failover chain to the shards' restore events by rid.
//! Timestamps are per-instance birth offsets, so cross-instance order is
//! approximate; *within* one instance it is exact, and rid stitching is
//! exact everywhere.

use std::fmt::Write as _;

use crate::record::{body, merge_records, parse_record, write_record, ParseError, Record};

/// The header every rendered journal starts with.
pub const JOURNAL_HEADER: &str = "# snn-journal v1";

/// A point-in-time copy of one journal ring (or a merge of several).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalSnapshot {
    /// Events ever recorded (not just retained). `total` minus
    /// `events.len()` minus `dropped` is always zero for a single
    /// registry; after a merge the fields are sums.
    pub total: u64,
    /// Events the ring dropped to stay bounded.
    pub dropped: u64,
    /// Retained events: recording order for a single registry, canonical
    /// record order after a merge.
    pub events: Vec<Record>,
}

impl JournalSnapshot {
    /// An empty journal.
    pub fn new() -> Self {
        JournalSnapshot::default()
    }

    /// Folds `other` into `self`: events concatenate into a canonically
    /// sorted multiset, `total`/`dropped` add.
    pub fn merge(&mut self, other: &JournalSnapshot) {
        self.total += other.total;
        self.dropped += other.dropped;
        merge_records(&mut self.events, &other.events);
    }

    /// Convenience: the retained events named `kind`, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> {
        self.events.iter().filter(move |e| e.name == kind)
    }

    /// Renders the journal text (ends with a newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{JOURNAL_HEADER}");
        let _ = writeln!(out, "meta total={} dropped={}", self.total, self.dropped);
        for e in &self.events {
            out.push_str("event");
            write_record(&mut out, &e.name, &e.rid, e.start_us, None, &e.fields);
            out.push('\n');
        }
        out
    }

    /// Parses text produced by [`JournalSnapshot::render`] (or a
    /// concatenation-free merge of such texts — `meta` lines sum).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on a missing/unknown header, malformed
    /// lines, or invalid names/rids/field keys. Parsing allocates
    /// proportionally to the input text only — no field in the format
    /// pre-sizes anything.
    pub fn parse(text: &str) -> Result<JournalSnapshot, ParseError> {
        let mut snap = JournalSnapshot::new();
        for (n, mut tok) in body(text, JOURNAL_HEADER)? {
            let err = |reason: &str| ParseError::at(n, reason);
            match tok.next().unwrap_or_default() {
                "meta" => {
                    for pair in tok {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| err("meta field is not k=v"))?;
                        let v = v
                            .parse::<u64>()
                            .map_err(|_| err("meta value is not a u64"))?;
                        match k {
                            "total" => snap.total += v,
                            "dropped" => snap.dropped += v,
                            _ => return Err(err("unknown meta field")),
                        }
                    }
                }
                "event" => snap
                    .events
                    .push(parse_record(&mut tok, false).map_err(err)?),
                _ => return Err(err("unknown line kind")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> JournalSnapshot {
        let r = Registry::new("j0");
        r.journal_event(
            "serve.open",
            "j0-1",
            &[("id", "a".to_string()), ("shard", "0".to_string())],
        );
        r.journal_event("serve.reject.admission", "j0-2", &[("id", "b".to_string())]);
        r.journal_event("cluster.shard_down", "", &[]);
        r.journal_snapshot()
    }

    #[test]
    fn render_parse_is_an_identity() {
        let snap = sample();
        let text = snap.render();
        assert!(text.starts_with(JOURNAL_HEADER));
        let parsed = JournalSnapshot::parse(&text).expect("round trip");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn merge_is_associative_and_sums_meta() {
        let a = sample();
        let b = sample();
        let mut c = JournalSnapshot::new();
        c.total = 10;
        c.dropped = 7;
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.total, a.total + b.total + 10);
        assert_eq!(ab_c.dropped, 7);
        let parsed = JournalSnapshot::parse(&ab_c.render()).unwrap();
        assert_eq!(parsed, ab_c);
    }

    #[test]
    fn hostile_text_is_rejected_with_line_numbers() {
        let cases = [
            ("", 1),
            ("# wrong header\n", 1),
            ("# snn-journal v1\nevent\n", 2),
            ("# snn-journal v1\nevent bad kind - 1\n", 2),
            ("# snn-journal v1\nevent x !rid! 1\n", 2),
            ("# snn-journal v1\nevent x - notanumber\n", 2),
            ("# snn-journal v1\nevent x - 1 loose\n", 2),
            ("# snn-journal v1\nmeta total=x\n", 2),
            ("# snn-journal v1\nmeta shrug=1\n", 2),
            ("# snn-journal v1\nwhatever\n", 2),
        ];
        for (text, line) in cases {
            match JournalSnapshot::parse(text) {
                Err(e) => assert_eq!(e.line, line, "case {text:?}: {e}"),
                Ok(_) => panic!("case {text:?} must fail"),
            }
        }
    }

    #[test]
    fn of_kind_filters_in_order() {
        let snap = sample();
        let opens: Vec<_> = snap.of_kind("serve.open").collect();
        assert_eq!(opens.len(), 1);
        assert_eq!(opens[0].field("id"), Some("a"));
        assert_eq!(snap.of_kind("nope").count(), 0);
    }
}
