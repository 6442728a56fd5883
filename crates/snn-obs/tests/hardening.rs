//! Fuzz-ish hardening of the three text codecs (`Snapshot::parse`,
//! `JournalSnapshot::parse` and `TraceTree::parse`) against hostile
//! input: truncations at every byte, line reorderings and duplications
//! (the two order-insensitive formats), and randomised byte mutations.
//! The contract under attack:
//!
//! * **No panics** — every input returns `Ok` or a clean `Err`.
//! * **Bounded allocation** — nothing in any format pre-sizes
//!   buffers from attacker-claimed lengths; a tiny input claiming huge
//!   counts parses into fixed-size structures.
//! * **Clean errors** — failures carry a 1-based line number that
//!   actually lies within the input.
//! * **One rule** — every record line (`span`, `event`, `node`) refuses
//!   a field key that is not a valid name.

use snn_obs::{JournalSnapshot, Registry, Snapshot, TraceTree, HIST_BUCKETS};
use std::time::Duration;

/// A tiny deterministic xorshift generator, so the "fuzz" corpus is
/// reproducible without any external randomness dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn sample_expo() -> String {
    let r = Registry::new("fz0");
    r.counter("serve.requests").add(1234);
    r.gauge("serve.sessions").set(-3.25);
    let h = r.histogram("serve.req.ingest_us");
    for v in [0, 3, 17, 4096, u64::MAX] {
        h.record(v);
    }
    r.span(
        "serve.ingest",
        "fz0-1",
        Duration::from_micros(55),
        &[("id", "load-1".to_string()), ("bytes", "99".to_string())],
    );
    r.snapshot().render()
}

fn sample_journal() -> String {
    let r = Registry::new("fz1");
    for i in 0..8 {
        r.journal_event(
            "cluster.failover",
            "fz1-3",
            &[("id", format!("s-{i}")), ("cause", "fz1-1".to_string())],
        );
    }
    r.journal_snapshot().render()
}

fn sample_trace() -> String {
    let r = Registry::new("fz2");
    let phase = |p: &str, parent: Option<&str>| {
        let mut f = vec![("phase", p.to_string()), ("id", "load-1".to_string())];
        f.extend(parent.map(|q| ("parent", q.to_string())));
        f
    };
    r.span(
        "cluster.phase.accept",
        "fz2-1",
        Duration::from_micros(90),
        &phase("accept", None),
    );
    r.span(
        "serve.ingest",
        "fz2-1",
        Duration::from_micros(70),
        &phase("request", Some("accept")),
    );
    r.span(
        "serve.exec.ingest",
        "fz2-1",
        Duration::from_micros(40),
        &phase("exec", Some("request")),
    );
    r.journal_event("serve.open", "fz2-1", &[("id", "load-1".to_string())]);
    let (spans, events) = (r.snapshot().spans, r.journal_snapshot().events);
    TraceTree::assemble("fz2-1", &spans, &events)
        .expect("the sample trace assembles")
        .render()
}

/// Every prefix of a valid document parses without panicking, and any
/// error names a line inside the prefix.
fn truncations_are_clean<T>(text: &str, parse: impl Fn(&str) -> Result<T, (usize, String)>) {
    for cut in 0..=text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let prefix = &text[..cut];
        if let Err((line, reason)) = parse(prefix) {
            let lines = prefix.lines().count().max(1);
            assert!(
                line >= 1 && line <= lines,
                "error line {line} outside {lines}-line input ({reason})"
            );
        }
    }
}

#[test]
fn truncated_expositions_never_panic() {
    truncations_are_clean(&sample_expo(), |t| {
        Snapshot::parse(t).map_err(|e| (e.line, e.reason))
    });
}

#[test]
fn truncated_journals_never_panic() {
    truncations_are_clean(&sample_journal(), |t| {
        JournalSnapshot::parse(t).map_err(|e| (e.line, e.reason))
    });
}

#[test]
fn truncated_traces_never_panic() {
    truncations_are_clean(&sample_trace(), |t| {
        TraceTree::parse(t).map_err(|e| (e.line, e.reason))
    });
}

/// Body lines may arrive in any order (a merged artifact, a hand-edited
/// dump): reordering and duplicating them must parse or fail cleanly —
/// and pure reordering must succeed, since both formats are
/// order-insensitive below the header.
#[test]
fn reordered_and_duplicated_lines_are_handled() {
    for text in [sample_expo(), sample_journal()] {
        let mut lines: Vec<&str> = text.lines().collect();
        let header = lines.remove(0);
        lines.reverse();
        let reordered = format!("{header}\n{}\n", lines.join("\n"));
        if text.starts_with("# snn-obs") {
            Snapshot::parse(&reordered).expect("reordered exposition parses");
        } else {
            JournalSnapshot::parse(&reordered).expect("reordered journal parses");
        }
        // Duplicating every line must not panic either (counters sum,
        // gauges last-write-win, journal events repeat).
        let mut doubled = String::from(header);
        doubled.push('\n');
        for l in &lines {
            doubled.push_str(l);
            doubled.push('\n');
            doubled.push_str(l);
            doubled.push('\n');
        }
        let _ = Snapshot::parse(&doubled);
        let _ = JournalSnapshot::parse(&doubled);
    }
}

/// Randomised byte mutations: flip/insert/delete bytes all over valid
/// documents. Nothing may panic; errors must carry in-range lines.
#[test]
fn mutated_documents_never_panic() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for base in [sample_expo(), sample_journal(), sample_trace()] {
        for _ in 0..400 {
            let mut bytes = base.clone().into_bytes();
            for _ in 0..(1 + rng.next() % 4) {
                if bytes.is_empty() {
                    break;
                }
                let pos = (rng.next() as usize) % bytes.len();
                match rng.next() % 3 {
                    0 => bytes[pos] = (rng.next() % 256) as u8,
                    1 => {
                        bytes.remove(pos);
                    }
                    _ => bytes.insert(pos, (rng.next() % 128) as u8),
                }
            }
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            let lines = text.lines().count().max(1);
            if let Err(e) = Snapshot::parse(&text) {
                assert!(e.line >= 1 && e.line <= lines, "{e}");
            }
            if let Err(e) = JournalSnapshot::parse(&text) {
                assert!(e.line >= 1 && e.line <= lines, "{e}");
            }
            if let Err(e) = TraceTree::parse(&text) {
                assert!(e.line >= 1 && e.line <= lines, "{e}");
            }
        }
    }
}

/// A tiny input claiming enormous values parses into fixed-size
/// structures: the formats carry no length fields, so an attacker
/// cannot make the parser allocate beyond the input's own size.
#[test]
fn huge_claims_do_not_inflate_allocation() {
    let max = u64::MAX;
    let text = format!(
        "# snn-obs v1\nhist h {max} 0:{max},{}:{max}\n",
        HIST_BUCKETS - 1
    );
    let snap = Snapshot::parse(&text).expect("extreme-but-valid hist parses");
    let h = snap.histogram("h");
    assert_eq!(h.counts.len(), HIST_BUCKETS, "bucket vector is fixed-size");
    assert_eq!(h.sum, max);

    // An out-of-range bucket index is refused, not used to index or size
    // anything.
    let attack = format!("# snn-obs v1\nhist h 1 {}:1\n", usize::MAX);
    let err = Snapshot::parse(&attack).expect_err("out-of-range bucket refused");
    assert_eq!(err.line, 2);

    // Journal meta counters saturate the parse only through u64 checks.
    let j = format!("# snn-journal v1\nmeta total={max} dropped={max}\nevent x - {max}\n");
    let parsed = JournalSnapshot::parse(&j).expect("extreme journal parses");
    assert_eq!(parsed.events.len(), 1, "one line, one event");
}

/// One parse rule for every record line: a field key that fails
/// `valid_name` is refused on a `span`, an `event` and a `node` line
/// alike, at the line that carries it.
#[test]
fn every_record_line_refuses_an_invalid_field_key() {
    for pair in ["=v", "b@d=1", "has space=1"] {
        let expo = format!("# snn-obs v1\nspan x - 1 2 {pair}\n");
        let journal = format!("# snn-journal v1\nevent x - 1 {pair}\n");
        let trace = format!("# snn-trace v1\ntrace rid=r-1\nnode 0 a b - 1 2 {pair}\n");
        let lines = [
            Snapshot::parse(&expo).map(drop).map_err(|e| e.line),
            JournalSnapshot::parse(&journal)
                .map(drop)
                .map_err(|e| e.line),
            TraceTree::parse(&trace).map(drop).map_err(|e| e.line),
        ];
        assert_eq!(lines, [Err(2), Err(2), Err(3)], "field {pair:?}");
    }
}
