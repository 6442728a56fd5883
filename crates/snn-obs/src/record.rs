//! The one record shape behind spans and journal events, its line
//! codec, and the parse error shared by every `snn-obs` document.
//!
//! A [`Record`] is either a **span** — one completed piece of work (a
//! wire request, a scheduler job, a live migration) — or a **journal
//! event** — one thing that happened (an admission, a probe failure, a
//! failover). Both carry a dotted name, the request id that caused them
//! (`rid`), a birth-relative start and free-form `k=v` context; an event
//! is a record with no duration (`dur_us` 0).
//!
//! Three documents carry records, each as one line whose tail is this
//! module's codec ([`write_record`] / [`parse_record`]):
//!
//! ```text
//! span <name> <rid> <start_us> <dur_us> [k=v ...]                  # snn-obs v1
//! event <name> <rid> <start_us> [k=v ...]                          # snn-journal v1
//! node <depth> <phase> <name> <rid> <start_us> <dur_us> [k=v ...]  # snn-trace v1
//! ```
//!
//! One parse rule holds for every line kind: names and field keys pass
//! [`valid_name`], a rid passes [`valid_rid`] or is `-` (unattributed),
//! numbers are `u64`, and values are free tokens. Merging concatenates
//! record multisets in the one canonical order (`Record`'s `Ord`), so
//! every merge stays associative.

use std::fmt::Write as _;
use std::str::Split;

/// Maximum rid length in bytes.
pub const MAX_RID: usize = 64;

/// Whether `name` is a well-formed metric name: non-empty, at most 128
/// bytes of `[A-Za-z0-9._-]`, dotted by convention (`layer.subsystem.
/// metric_unit`).
pub fn valid_name(name: &str) -> bool {
    is_token(name, 128)
}

/// Whether `rid` is a well-formed request id (non-empty, at most
/// [`MAX_RID`] bytes of `[A-Za-z0-9._-]` — the same token alphabet as
/// session ids, so a rid can ride any protocol line unquoted).
pub fn valid_rid(rid: &str) -> bool {
    is_token(rid, MAX_RID)
}

fn is_token(s: &str, max: usize) -> bool {
    !s.is_empty() && s.len() <= max && s.chars().all(token_char)
}

fn token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')
}

/// Replaces every character outside the token alphabet with `_` and
/// bounds the length, so a record can never break line framing or a
/// document's grammar.
pub(crate) fn sanitize(s: &str) -> String {
    let mut out: String = s
        .chars()
        .take(128)
        .map(|c| if token_char(c) { c } else { '_' })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One span or journal event. The fields are declared in the canonical
/// order — start, name, rid, duration, context — so the derived `Ord` is
/// the one order every merge sorts records by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Record {
    /// Start offset in microseconds since the recording registry's birth.
    pub start_us: u64,
    /// What ran or happened (dotted name, e.g. `serve.ingest`,
    /// `cluster.failover`).
    pub name: String,
    /// The originating request id; empty for unattributed records.
    pub rid: String,
    /// Duration in microseconds; 0 for a journal event.
    pub dur_us: u64,
    /// Extra key/value context (e.g. `id`, `shard`, `phase`).
    pub fields: Vec<(String, String)>,
}

impl Record {
    /// The value of `key` in [`Record::fields`], if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Folds `theirs` into `ours` as one canonically sorted multiset.
pub(crate) fn merge_records(ours: &mut Vec<Record>, theirs: &[Record]) {
    ours.extend_from_slice(theirs);
    ours.sort();
}

/// Appends a record line's tail: ` <name> <rid|-> <start_us>`, then
/// ` <dur_us>` for line kinds that carry one (`span`, `node`), then
/// ` k=v` per field.
pub(crate) fn write_record(
    out: &mut String,
    name: &str,
    rid: &str,
    start_us: u64,
    dur_us: Option<u64>,
    fields: &[(String, String)],
) {
    let rid = if rid.is_empty() { "-" } else { rid };
    let _ = write!(out, " {name} {rid} {start_us}");
    if let Some(dur_us) = dur_us {
        let _ = write!(out, " {dur_us}");
    }
    write_fields(out, fields);
}

/// Appends ` k=v` per field.
pub(crate) fn write_fields(out: &mut String, fields: &[(String, String)]) {
    for (k, v) in fields {
        let _ = write!(out, " {k}={v}");
    }
}

/// Parses the tail [`write_record`] writes; `with_dur` says whether the
/// line kind carries a duration. Returns the reason on failure (the
/// caller knows the line).
pub(crate) fn parse_record<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    with_dur: bool,
) -> Result<Record, &'static str> {
    let name = tok.next().ok_or("missing name")?;
    if !valid_name(name) {
        return Err("invalid name");
    }
    let rid = match tok.next().ok_or("missing rid")? {
        "-" => String::new(),
        rid if valid_rid(rid) => rid.to_string(),
        _ => return Err("invalid rid"),
    };
    let start_us = tok
        .next()
        .ok_or("missing start_us")?
        .parse::<u64>()
        .map_err(|_| "start_us is not a u64")?;
    let dur_us = if with_dur {
        tok.next()
            .ok_or("missing dur_us")?
            .parse::<u64>()
            .map_err(|_| "dur_us is not a u64")?
    } else {
        0
    };
    Ok(Record {
        start_us,
        name: name.to_string(),
        rid,
        dur_us,
        fields: parse_fields(tok)?,
    })
}

/// Parses trailing `k=v` tokens; every key must pass [`valid_name`].
pub(crate) fn parse_fields<'a>(
    tok: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, &'static str> {
    tok.map(|pair| match pair.split_once('=') {
        Some((k, v)) if valid_name(k) => Ok((k.to_string(), v.to_string())),
        Some(_) => Err("invalid field key"),
        None => Err("field is not k=v"),
    })
    .collect()
}

/// A parse error in an exposition, journal or trace document, with the
/// 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl ParseError {
    pub(crate) fn at(line: usize, reason: &str) -> ParseError {
        ParseError {
            line,
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// A document's body: checks that the first line is `header`, then
/// yields every other line that is neither blank nor a `#` comment as
/// its 1-based number and its space-separated tokens.
pub(crate) fn body<'a>(
    text: &'a str,
    header: &str,
) -> Result<impl Iterator<Item = (usize, Split<'a, char>)>, ParseError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first.trim_end() == header => {}
        _ => return Err(ParseError::at(1, &format!("missing `{header}` header"))),
    }
    Ok(lines.enumerate().filter_map(|(i, raw)| {
        let line = raw.trim_end();
        (!line.is_empty() && !line.starts_with('#')).then(|| (i + 2, line.split(' ')))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_validation() {
        assert!(valid_rid("s3-17"));
        assert!(valid_rid("c0-1.retry_2"));
        assert!(!valid_rid(""));
        assert!(!valid_rid("has space"));
        assert!(!valid_rid("quote\""));
        assert!(!valid_rid(&"x".repeat(MAX_RID + 1)));
        assert!(valid_name(&"x".repeat(128)));
        assert!(!valid_name(&"x".repeat(129)));
        assert_eq!(sanitize("a b\"c"), "a_b_c");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn field_lookup() {
        let r = Record {
            start_us: 0,
            name: "serve.ingest".into(),
            rid: "s0-1".into(),
            dur_us: 5,
            fields: vec![("id".into(), "a".into())],
        };
        assert_eq!(r.field("id"), Some("a"));
        assert_eq!(r.field("missing"), None);
    }

    #[test]
    fn the_tail_round_trips_with_and_without_a_duration() {
        let r = Record {
            start_us: 7,
            name: "cluster.failover".into(),
            rid: String::new(),
            dur_us: 0,
            fields: vec![("id".into(), "a=b".into())],
        };
        for with_dur in [true, false] {
            let mut line = String::from("x");
            let dur = with_dur.then_some(r.dur_us);
            write_record(&mut line, &r.name, &r.rid, r.start_us, dur, &r.fields);
            let mut tok = line.split(' ').skip(1);
            assert_eq!(parse_record(&mut tok, with_dur), Ok(r.clone()), "{line}");
        }
    }
}
