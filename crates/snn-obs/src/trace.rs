//! Parent-linked trace trees assembled from spans and journal events.
//!
//! A span is one completed piece of work — a wire request, a scheduler
//! job, a live migration — recorded as a [`Record`] stamped with the
//! request id (`rid`) that originated it. Rids are minted at the first
//! tier that sees a request (the `snn-serve` wire layer, or the cluster
//! router for relayed lines) and propagated as a trailing `rid=` field
//! on forwarded protocol lines, so one client request's spans share a
//! rid across every layer and shard it touched.
//!
//! ## Trace trees
//!
//! Spans that participate in a request's **trace tree** carry two extra
//! fields: `phase=<label>` names the phase of the request the span
//! covers (`accept`, `relay`, `request`, `demux_wait`, `queue_wait`,
//! `exec`, `write`), and `parent=<label>` names the phase it nests
//! under. Linkage is by phase *label*, not by numeric span id — labels
//! are deterministic and ride the record codec's `k=v` context
//! unchanged. All spans sharing one rid, collected across every process
//! that touched the request, assemble into one [`TraceTree`]; journal
//! events carrying the rid (including a dead shard's black-box journal)
//! ride along as zero-duration `event.<name>` leaves, so a trace
//! survives the death of the shard that served it. The tree renders as a versioned
//! `# snn-trace v1` document whose `node` lines end in the record codec,
//! with an embedded (comment-prefixed) critical-path report; see
//! `DESIGN.md` §14.

use std::fmt::Write as _;

use crate::record::{
    body, parse_fields, parse_record, valid_name, valid_rid, write_record, ParseError, Record,
};

/// The header every rendered `snn-trace` document starts with.
pub const TRACE_HEADER: &str = "# snn-trace v1";

/// Span field key naming the span's phase within a trace tree.
pub const PHASE_KEY: &str = "phase";

/// Span field key naming the phase a span nests under.
pub const PARENT_KEY: &str = "parent";

/// One node of an assembled [`TraceTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Phase label (`accept`, `relay`, `request`, `queue_wait`, …;
    /// journal-derived leaves use `event.<kind>`).
    pub phase: String,
    /// The span or journal-event name that produced the node.
    pub name: String,
    /// The request id (every node of one tree shares it).
    pub rid: String,
    /// Start offset in microseconds, birth-relative to the *recording*
    /// instance — exact within one process, approximate across them.
    pub start_us: u64,
    /// Duration in microseconds (journal-derived leaves carry 0).
    pub dur_us: u64,
    /// Extra context (the `phase`/`parent` linkage keys are stripped).
    pub fields: Vec<(String, String)>,
    /// Child phases, in canonical order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// The value of `key` in [`TraceNode::fields`], if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Microseconds spent in this phase itself, excluding child phases
    /// (saturating: overlapping children cannot drive it negative).
    pub fn self_us(&self) -> u64 {
        self.dur_us
            .saturating_sub(self.children.iter().map(|c| c.dur_us).sum())
    }

    /// Total nodes in this subtree, this node included.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(TraceNode::count).sum::<usize>()
    }

    /// A childless node for `phase` made of one record.
    fn leaf(phase: String, r: Record) -> TraceNode {
        TraceNode {
            phase,
            name: r.name,
            rid: r.rid,
            start_us: r.start_us,
            dur_us: r.dur_us,
            fields: r.fields,
            children: Vec::new(),
        }
    }

    /// Depth-first search for the first node (pre-order) with `phase`.
    fn find_phase_mut(&mut self, phase: &str) -> Option<&mut TraceNode> {
        if self.phase == phase {
            return Some(self);
        }
        self.children
            .iter_mut()
            .find_map(|c| c.find_phase_mut(phase))
    }

    /// Sums `dur_us` over every node in the subtree whose phase
    /// satisfies `pred`.
    fn sum_where(&self, pred: &dyn Fn(&str) -> bool) -> u64 {
        let own = if pred(&self.phase) { self.dur_us } else { 0 };
        own + self.children.iter().map(|c| c.sum_where(pred)).sum::<u64>()
    }

    fn sort_rec(&mut self) {
        self.children.sort_by(node_cmp);
        for c in &mut self.children {
            c.sort_rec();
        }
    }
}

fn node_cmp(a: &TraceNode, b: &TraceNode) -> std::cmp::Ordering {
    (a.start_us, &a.phase, &a.name, a.dur_us, &a.fields)
        .cmp(&(b.start_us, &b.phase, &b.name, b.dur_us, &b.fields))
}

/// The per-phase share breakdown of a trace: what fraction of the root
/// duration was spent waiting in queues, computing, and writing replies.
/// Shares are fractions of `queue+exec+write` (they sum to 1.0 whenever
/// any of the three phases was observed), so the three-way split is
/// meaningful even when coarser wrapper phases overlap them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceShares {
    /// Microseconds spent in `demux_wait` + `queue_wait` phases.
    pub queue_us: u64,
    /// Microseconds spent in `exec` phases.
    pub exec_us: u64,
    /// Microseconds spent in `write` phases.
    pub write_us: u64,
}

impl TraceShares {
    fn total(&self) -> u64 {
        self.queue_us + self.exec_us + self.write_us
    }

    /// Queue-wait fraction of the accounted time (0 when nothing was
    /// accounted).
    pub fn queue_share(&self) -> f64 {
        share(self.queue_us, self.total())
    }

    /// Compute fraction of the accounted time.
    pub fn exec_share(&self) -> f64 {
        share(self.exec_us, self.total())
    }

    /// Reply-write fraction of the accounted time.
    pub fn write_share(&self) -> f64 {
        share(self.write_us, self.total())
    }
}

fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// One request's assembled trace tree. See the module docs for the
/// linkage rules and [`TraceTree::assemble`] for how flat spans and
/// journal events become a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The request id every node shares.
    pub rid: String,
    /// The root phase (its `dur_us` is the request's end-to-end time as
    /// observed by the outermost instrumented tier).
    pub root: TraceNode,
}

impl TraceTree {
    /// Assembles the trace tree for `rid` from a flat span multiset
    /// (typically the rid-filtered spans of several merged snapshots)
    /// plus journal events carrying the rid (a dead shard's black-box
    /// journal keeps its part of the story when its spans are
    /// unscrapeable).
    ///
    /// Both inputs are records and pass through one loop. Rules, all
    /// deterministic in the input multisets:
    /// * spans without a `phase` field are ignored;
    /// * the root is the parentless span node with the largest
    ///   `dur_us` (ties broken canonically);
    /// * a `parent=<label>` link attaches to the first pre-order node
    ///   whose phase is `<label>`; unresolvable links attach under the
    ///   root;
    /// * journal events become zero-duration `event.<name>` leaves
    ///   under the root, marked `via=journal`;
    /// * the `phase`/`parent` linkage keys never reach a node's fields;
    /// * every child list is canonically sorted.
    ///
    /// Returns `None` when nothing at all references the rid.
    pub fn assemble(rid: &str, spans: &[Record], events: &[Record]) -> Option<TraceTree> {
        let tagged = spans.iter().map(|r| (r, false));
        let tagged = tagged.chain(events.iter().map(|r| (r, true)));
        let mut candidates: Vec<(Option<String>, TraceNode)> = Vec::new();
        for (record, journaled) in tagged.filter(|(r, _)| r.rid == rid) {
            let (phase, parent) = if journaled {
                (format!("event.{}", record.name), None)
            } else if let Some(phase) = record.field(PHASE_KEY) {
                (
                    phase.to_string(),
                    record.field(PARENT_KEY).map(str::to_string),
                )
            } else {
                continue;
            };
            let mut record = record.clone();
            record
                .fields
                .retain(|(k, _)| k != PHASE_KEY && k != PARENT_KEY);
            if journaled {
                record
                    .fields
                    .push(("via".to_string(), "journal".to_string()));
            }
            candidates.push((parent, TraceNode::leaf(phase, record)));
        }
        if candidates.is_empty() {
            return None;
        }
        candidates.sort_by(|a, b| node_cmp(&a.1, &b.1).then_with(|| a.0.cmp(&b.0)));

        // Root: the parentless non-event node covering the most time; a
        // journal-only trace gets a synthetic root so the dead shard's
        // events still render as a tree.
        let root_idx = candidates
            .iter()
            .enumerate()
            .filter(|(_, (parent, node))| parent.is_none() && !node.phase.starts_with("event."))
            .max_by(|(ai, (_, a)), (bi, (_, b))| {
                a.dur_us
                    .cmp(&b.dur_us)
                    .then_with(|| node_cmp(b, a))
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i);
        let mut root = match root_idx {
            Some(i) => candidates.remove(i).1,
            None => TraceNode {
                phase: "root".to_string(),
                name: "trace.root".to_string(),
                rid: rid.to_string(),
                start_us: 0,
                dur_us: 0,
                fields: vec![("synthetic".to_string(), "1".to_string())],
                children: Vec::new(),
            },
        };

        // Attach by parent label, re-scanning until a pass makes no
        // progress (a child can arrive before its parent is attached),
        // then park the unresolvable remainder under the root.
        let mut remaining = candidates;
        loop {
            let mut progressed = false;
            let mut still: Vec<(Option<String>, TraceNode)> = Vec::new();
            for (parent, node) in remaining {
                let slot = parent
                    .as_deref()
                    .and_then(|label| root.find_phase_mut(label));
                match slot {
                    Some(p) => {
                        p.children.push(node);
                        progressed = true;
                    }
                    None => still.push((parent, node)),
                }
            }
            remaining = still;
            if !progressed {
                break;
            }
        }
        for (_, node) in remaining {
            root.children.push(node);
        }
        root.sort_rec();
        Some(TraceTree {
            rid: rid.to_string(),
            root,
        })
    }

    /// The queue/exec/write time split across the whole tree.
    pub fn shares(&self) -> TraceShares {
        TraceShares {
            queue_us: self
                .root
                .sum_where(&|p| p == "queue_wait" || p == "demux_wait"),
            exec_us: self.root.sum_where(&|p| p == "exec"),
            write_us: self.root.sum_where(&|p| p == "write"),
        }
    }

    /// The critical path: from the root downward, always descending into
    /// the child covering the most time. Returns `(phase, dur_us,
    /// self_us)` per step, root first.
    pub fn critical_path(&self) -> Vec<(String, u64, u64)> {
        let mut path = Vec::new();
        let mut node = &self.root;
        loop {
            path.push((node.phase.clone(), node.dur_us, node.self_us()));
            match node
                .children
                .iter()
                .max_by(|a, b| a.dur_us.cmp(&b.dur_us).then_with(|| node_cmp(b, a)))
            {
                Some(next) if next.dur_us > 0 => node = next,
                _ => return path,
            }
        }
    }

    /// Renders the versioned trace document: the node tree in pre-order
    /// (depth-prefixed), followed by a comment-prefixed critical-path
    /// report. [`TraceTree::parse`] skips comments and recomputes the
    /// report, so render ∘ parse ∘ render is byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{TRACE_HEADER}");
        let _ = writeln!(
            out,
            "trace rid={} nodes={} root_us={}",
            self.rid,
            self.root.count(),
            self.root.dur_us
        );
        fn emit(out: &mut String, node: &TraceNode, depth: usize) {
            let _ = write!(out, "node {depth} {}", node.phase);
            let dur = Some(node.dur_us);
            write_record(out, &node.name, &node.rid, node.start_us, dur, &node.fields);
            out.push('\n');
            for c in &node.children {
                emit(out, c, depth + 1);
            }
        }
        emit(&mut out, &self.root, 0);
        let _ = writeln!(out, "# critical path (phase total_us self_us):");
        for (phase, dur, self_us) in self.critical_path() {
            let _ = writeln!(out, "#   {phase} {dur} {self_us}");
        }
        let s = self.shares();
        let _ = writeln!(
            out,
            "# shares queue_wait={:.4} exec={:.4} write={:.4}",
            s.queue_share(),
            s.exec_share(),
            s.write_share()
        );
        out
    }

    /// Parses a document produced by [`TraceTree::render`] (comment
    /// lines — including the embedded report — are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on a missing header, malformed lines,
    /// depth jumps, or invalid names/rids/field keys.
    pub fn parse(text: &str) -> Result<TraceTree, ParseError> {
        let mut rid: Option<String> = None;
        // Stack of (depth, node); closing a depth folds the node into
        // its parent's child list.
        let mut stack: Vec<(usize, TraceNode)> = Vec::new();
        let mut root: Option<TraceNode> = None;
        let fold =
            |stack: &mut Vec<(usize, TraceNode)>, root: &mut Option<TraceNode>, down_to: usize| {
                while stack.len() > down_to {
                    let (_, done) = stack.pop().expect("checked len");
                    match stack.last_mut() {
                        Some((_, parent)) => parent.children.push(done),
                        None => *root = Some(done),
                    }
                }
            };
        for (n, mut tok) in body(text, TRACE_HEADER)? {
            let err = |reason: &str| ParseError::at(n, reason);
            match tok.next().unwrap_or_default() {
                "trace" => {
                    // nodes=/root_us= are derived; tolerated, not trusted.
                    for (k, v) in parse_fields(tok).map_err(err)? {
                        if k == "rid" {
                            if !valid_rid(&v) {
                                return Err(err("invalid rid"));
                            }
                            rid = Some(v);
                        }
                    }
                }
                "node" => {
                    let depth = tok
                        .next()
                        .ok_or_else(|| err("missing depth"))?
                        .parse::<usize>()
                        .map_err(|_| err("depth is not a usize"))?;
                    let phase = tok.next().ok_or_else(|| err("missing phase"))?;
                    if !valid_name(phase) {
                        return Err(err("invalid phase"));
                    }
                    let node = TraceNode::leaf(
                        phase.to_string(),
                        parse_record(&mut tok, true).map_err(err)?,
                    );
                    if depth > stack.len() {
                        return Err(err("node depth jumps past its parent"));
                    }
                    fold(&mut stack, &mut root, depth);
                    if depth == 0 && root.is_some() {
                        return Err(err("multiple root nodes"));
                    }
                    stack.push((depth, node));
                }
                _ => return Err(err("unknown line kind")),
            }
        }
        fold(&mut stack, &mut root, 0);
        let root = root.ok_or_else(|| ParseError::at(1, "document has no nodes"))?;
        let rid = rid.ok_or_else(|| ParseError::at(1, "document has no trace line"))?;
        Ok(TraceTree { rid, root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, rid: &str, start: u64, dur: u64, fields: &[(&str, &str)]) -> Record {
        Record {
            name: name.into(),
            rid: rid.into(),
            start_us: start,
            dur_us: dur,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn request_spans(rid: &str) -> Vec<Record> {
        vec![
            // Router side.
            span(
                "cluster.phase.accept",
                rid,
                100,
                1000,
                &[("phase", "accept")],
            ),
            span(
                "cluster.relay.ingest",
                rid,
                120,
                900,
                &[("phase", "relay"), ("parent", "accept"), ("verb", "ingest")],
            ),
            // Shard side (different clock).
            span(
                "serve.ingest",
                rid,
                40,
                800,
                &[("phase", "request"), ("parent", "relay"), ("id", "a")],
            ),
            span(
                "serve.phase.queue_wait",
                rid,
                50,
                300,
                &[("phase", "queue_wait"), ("parent", "request")],
            ),
            span(
                "serve.exec.ingest",
                rid,
                350,
                420,
                &[("phase", "exec"), ("parent", "request"), ("id", "a")],
            ),
            span(
                "serve.phase.write",
                rid,
                800,
                60,
                &[("phase", "write"), ("parent", "request")],
            ),
            // A span without a phase never enters the tree.
            span("serve.noise", rid, 0, 5, &[]),
            // A different rid never enters the tree.
            span("serve.ingest", "other-1", 0, 5, &[("phase", "request")]),
        ]
    }

    #[test]
    fn assembly_links_phases_across_processes() {
        let spans = request_spans("c0-7");
        let tree = TraceTree::assemble("c0-7", &spans, &[]).expect("tree");
        assert_eq!(tree.rid, "c0-7");
        assert_eq!(tree.root.phase, "accept");
        assert_eq!(tree.root.dur_us, 1000);
        assert_eq!(tree.root.count(), 6, "noise and foreign spans excluded");
        assert_eq!(tree.root.children.len(), 1);
        let relay = &tree.root.children[0];
        assert_eq!(relay.phase, "relay");
        let request = &relay.children[0];
        assert_eq!(request.phase, "request");
        let kids: Vec<&str> = request.children.iter().map(|c| c.phase.as_str()).collect();
        assert_eq!(kids, ["queue_wait", "exec", "write"]);
        // Self time: request 800 minus its children 300+420+60.
        assert_eq!(request.self_us(), 20);
        let shares = tree.shares();
        assert_eq!(shares.queue_us, 300);
        assert_eq!(shares.exec_us, 420);
        assert_eq!(shares.write_us, 60);
        let total = shares.queue_share() + shares.exec_share() + shares.write_share();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1: {total}");
        // Critical path descends through the biggest child each level.
        let crit: Vec<String> = tree
            .critical_path()
            .into_iter()
            .map(|(p, _, _)| p)
            .collect();
        assert_eq!(crit, ["accept", "relay", "request", "exec"]);
    }

    #[test]
    fn journal_events_ride_as_leaves_and_survive_missing_spans() {
        // A journal event is a record with no duration.
        let events = vec![
            span("serve.open", "c0-7", 33, 0, &[("id", "a")]),
            span("cluster.failover", "other", 44, 0, &[]),
        ];
        // With spans: the event hangs off the root as an event leaf.
        let tree = TraceTree::assemble("c0-7", &request_spans("c0-7"), &events).unwrap();
        let leaf = tree
            .root
            .children
            .iter()
            .find(|c| c.phase == "event.serve.open")
            .expect("journal leaf");
        assert_eq!(leaf.dur_us, 0);
        assert_eq!(leaf.field("via"), Some("journal"));
        assert_eq!(leaf.field("id"), Some("a"));
        // Without any spans (dead shard, ring rotated): journal-only
        // trace still assembles under a synthetic root.
        let tree = TraceTree::assemble("c0-7", &[], &events).unwrap();
        assert_eq!(tree.root.phase, "root");
        assert_eq!(tree.root.children.len(), 1);
        // Nothing at all: no tree.
        assert!(TraceTree::assemble("ghost-1", &[], &events).is_none());
    }

    #[test]
    fn orphan_parents_park_under_the_root() {
        let spans = vec![
            span("a", "r-1", 0, 100, &[("phase", "accept")]),
            span(
                "b",
                "r-1",
                10,
                50,
                &[("phase", "lost"), ("parent", "no-such-phase")],
            ),
        ];
        let tree = TraceTree::assemble("r-1", &spans, &[]).unwrap();
        assert_eq!(tree.root.children.len(), 1);
        assert_eq!(tree.root.children[0].phase, "lost");
    }

    #[test]
    fn render_parse_is_stable() {
        let tree = TraceTree::assemble(
            "c0-7",
            &request_spans("c0-7"),
            &[span("serve.open", "c0-7", 33, 0, &[("id", "a")])],
        )
        .unwrap();
        let text = tree.render();
        assert!(text.starts_with(TRACE_HEADER));
        assert!(text.contains("# critical path"));
        assert!(text.contains("# shares queue_wait="));
        let parsed = TraceTree::parse(&text).expect("round trip");
        assert_eq!(parsed, tree);
        assert_eq!(parsed.render(), text, "render is byte-stable");
    }

    #[test]
    fn hostile_trace_text_is_rejected_with_line_numbers() {
        let cases = [
            ("", 1),
            ("# wrong\n", 1),
            ("# snn-trace v1\ntrace rid=!bad!\n", 2),
            ("# snn-trace v1\ntrace rid=r-1\nnode\n", 3),
            ("# snn-trace v1\ntrace rid=r-1\nnode x a b - 1 2\n", 3),
            ("# snn-trace v1\ntrace rid=r-1\nnode 1 a b - 1 2\n", 3),
            (
                "# snn-trace v1\ntrace rid=r-1\nnode 0 a b - 1 2\nnode 0 c d - 1 2\n",
                4,
            ),
            ("# snn-trace v1\ntrace rid=r-1\nnode 0 a b - 1 2 loose\n", 3),
            ("# snn-trace v1\ntrace rid=r-1\nnode 0 a b - 1 2 =v\n", 3),
            ("# snn-trace v1\ntrace rid=r-1\n", 1),
            ("# snn-trace v1\nnode 0 a b - 1 2\n", 1),
            ("# snn-trace v1\ntrace rid=r-1\nwhatever\n", 3),
        ];
        for (text, line) in cases {
            match TraceTree::parse(text) {
                Err(e) => assert_eq!(e.line, line, "case {text:?}: {e}"),
                Ok(_) => panic!("case {text:?} must fail"),
            }
        }
    }
}
