//! Splits each traced request's client latency across the layers.
//!
//! For one request the server records a `net_request` root (on its
//! per-request worker thread), a `request` child that ends on the shard
//! that answered, and an `admission_wait` interval. The request's time
//! then splits into:
//!
//! * **wire** — client latency minus `net_request` (framing, loopback
//!   TCP, the handler's read and admission);
//! * **dispatch** — `net_request` self time;
//! * **admission wait** — queued until a shard popped the batch;
//! * **the shard window** — from that pop to the reply. At each instant
//!   of it, the innermost span executing on the shard's thread names the
//!   layer that held the request up. This charges shared work (a grouped
//!   build, another group's answer, a session turn batched ahead) to
//!   every request that waited for it, and attributes bench wrapper
//!   spans opened with no ambient parent (the fragment path's
//!   `qa.retrieve`/`qa.answer`) by interval containment on that thread.
//!   Instants no span covers are *unattributed*.

use qkb_obs::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// The layers of the split.
pub const LAYERS: [&str; 6] = ["net", "serve", "qa", "core", "session", "journal"];

/// Layer of a span executing on a shard thread, and the timed per-layer
/// metric its self time feeds (if any).
pub fn classify(name: &str) -> Option<(&'static str, Option<&'static str>)> {
    Some(match name {
        "fragment_lookup" => ("serve", Some("serve.lookup_us")),
        "grouped_build" | "solo_build" | "answer" | "stage1_doc" => ("serve", None),
        "qa.retrieve" => ("qa", Some("qa.retrieve_us")),
        "qa.answer" => ("qa", Some("qa.answer_us")),
        "qa.doc_texts" => ("qa", None),
        "preprocess" => ("core", Some("core.preprocess_us")),
        "graph" => ("core", Some("core.graph_us")),
        "resolve" | "resolve_component" => ("core", Some("core.resolve_us")),
        "canonicalize" | "canon_decide" | "canon_apply" | "stream_into_kb" | "extend_kb"
        | "build_kb" | "build_kb_grouped" => ("core", Some("core.canonicalize_us")),
        "stage1" => ("core", None),
        "session_turn" => ("session", Some("session.turn_wait_us")),
        "session_extend" | "session_fork" | "prefix_freeze" => ("session", None),
        "journal.append" => ("journal", None),
        _ => return None,
    })
}

/// A half-open interval `[start, end)` in recorder microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Iv {
    pub start: u64,
    pub end: u64,
    pub name: &'static str,
}

/// Span duration minus the union of its children's intervals (children
/// may overlap each other, run on other threads, or stick out).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.0;
    for (s, e) in kids {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// One thread's timeline as disjoint segments, each labelled with the
/// innermost span covering it. Spans on one thread nest; a span that
/// sticks out of its enclosing one (µs rounding) is clipped to it.
pub fn innermost_timeline(mut spans: Vec<Iv>) -> Vec<Iv> {
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    let mut out: Vec<Iv> = Vec::new();
    let mut stack: Vec<Iv> = Vec::new();
    let mut cursor = 0u64;
    let emit = |out: &mut Vec<Iv>, start: u64, end: u64, name: &'static str| {
        if end > start {
            out.push(Iv { start, end, name });
        }
    };
    for mut iv in spans {
        while let Some(top) = stack.last().copied() {
            if top.end > iv.start {
                break;
            }
            emit(&mut out, cursor, top.end, top.name);
            cursor = top.end;
            stack.pop();
        }
        if let Some(top) = stack.last() {
            emit(&mut out, cursor, iv.start, top.name);
            iv.end = iv.end.min(top.end);
        }
        cursor = iv.start;
        stack.push(iv);
    }
    while let Some(top) = stack.pop() {
        emit(&mut out, cursor, top.end, top.name);
        cursor = top.end;
    }
    out
}

/// Adds the time each label covers inside `[a, b)` to `acc`; returns the
/// covered total.
pub fn overlap(timeline: &[Iv], a: u64, b: u64, acc: &mut HashMap<&'static str, u64>) -> u64 {
    let first = timeline.partition_point(|s| s.end <= a);
    let mut covered = 0;
    for seg in &timeline[first..] {
        if seg.start >= b {
            break;
        }
        let d = seg.end.min(b) - seg.start.max(a);
        *acc.entry(seg.name).or_default() += d;
        covered += d;
    }
    covered
}

/// Per-request split, all in microseconds.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Index of the client request this split belongs to.
    pub client: usize,
    pub client_us: u64,
    pub wire_us: u64,
    pub dispatch_us: u64,
    pub admission_us: u64,
    /// Shard-window time by span name.
    pub by_span: HashMap<&'static str, u64>,
    pub unattributed_us: u64,
}

impl Split {
    /// Time per layer (wire and dispatch are `net`, admission is
    /// `serve`, shard spans by [`classify`]).
    pub fn by_layer(&self) -> HashMap<&'static str, u64> {
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        *out.entry("net").or_default() += self.wire_us + self.dispatch_us;
        *out.entry("serve").or_default() += self.admission_us;
        for (name, &us) in &self.by_span {
            if let Some((layer, _)) = classify(name) {
                *out.entry(layer).or_default() += us;
            }
        }
        out
    }

    /// Time per timed layer metric.
    pub fn by_metric(&self) -> HashMap<&'static str, u64> {
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for (name, &us) in &self.by_span {
            if let Some((_, Some(metric))) = classify(name) {
                *out.entry(metric).or_default() += us;
            }
        }
        out
    }
}

/// Spans that run on a shard thread but do not mean the thread was busy
/// for their whole interval: the request root (opened on the worker
/// thread) and the admission wait (started at enqueue).
fn executing(rec: &SpanRecord) -> bool {
    !rec.instant && !matches!(rec.name, "request" | "admission_wait" | "net_request")
}

/// Splits every request whose client interval `(sent, done)` (recorder
/// µs) contains a `net_request` root. Roots are taken in start order and
/// each is matched to the sent, unmatched client request with the
/// earliest reply that still covers it. Returns the splits and the count
/// of client requests left unmatched.
pub fn split_requests(records: &[SpanRecord], clients: &[(u64, u64)]) -> (Vec<Split>, usize) {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in records {
        if r.parent != 0 {
            children.entry(r.parent).or_default().push(r);
        }
    }
    let mut timelines: HashMap<u64, Vec<Iv>> = HashMap::new();
    let mut raw: HashMap<u64, Vec<Iv>> = HashMap::new();
    for r in records.iter().filter(|r| executing(r)) {
        raw.entry(r.thread).or_default().push(Iv {
            start: r.start_us,
            end: r.start_us + r.dur_us,
            name: r.name,
        });
    }
    for (thread, spans) in raw {
        timelines.insert(thread, innermost_timeline(spans));
    }

    let mut roots: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "net_request" && r.parent == 0)
        .collect();
    roots.sort_by_key(|r| (r.start_us, r.id));
    let mut order: Vec<usize> = (0..clients.len()).collect();
    order.sort_by_key(|&i| clients[i]);
    // Clients sent by the current root's start, keyed by reply time.
    let mut open: BTreeMap<(u64, usize), usize> = BTreeMap::new();
    let mut next_client = 0usize;
    let mut matched = 0usize;
    let mut splits = Vec::new();
    for root in roots {
        let (rs, re) = (root.start_us, root.start_us + root.dur_us);
        while next_client < order.len() && clients[order[next_client]].0 <= rs {
            let i = order[next_client];
            open.insert((clients[i].1, i), i);
            next_client += 1;
        }
        let kids = children.get(&root.id).map(Vec::as_slice).unwrap_or(&[]);
        let Some(req) = kids.iter().find(|k| k.name == "request") else {
            continue;
        };
        // The tightest open client that still covers the root.
        let Some((&key, &ci)) = open.range((re, 0)..).next() else {
            continue;
        };
        open.remove(&key);
        matched += 1;
        let (cs, ce) = clients[ci];
        let req_end = req.start_us + req.dur_us;
        let admission = children
            .get(&req.id)
            .and_then(|ks| ks.iter().find(|k| k.name == "admission_wait"))
            .map(|a| (a.start_us, a.start_us + a.dur_us));
        let pop = admission.map_or(req.start_us, |a| a.1.min(req_end));
        let mut split = Split {
            client: ci,
            client_us: ce - cs,
            wire_us: (ce - cs).saturating_sub(root.dur_us),
            dispatch_us: self_time(
                (rs, re),
                &kids
                    .iter()
                    .map(|k| (k.start_us, k.start_us + k.dur_us))
                    .collect::<Vec<_>>(),
            ),
            admission_us: pop - req.start_us,
            ..Split::default()
        };
        let covered = timelines
            .get(&req.thread)
            .map_or(0, |t| overlap(t, pop, req_end, &mut split.by_span));
        split.unattributed_us = (req_end - pop) - covered;
        // Anything `by_span` holds that no layer claims is unattributed.
        let unknown: u64 = split
            .by_span
            .iter()
            .filter(|(n, _)| classify(n).is_none())
            .map(|(_, &us)| us)
            .sum();
        split.unattributed_us += unknown;
        splits.push(split);
    }
    (splits, clients.len() - matched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        dur: u64,
        thread: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace: 1,
            id,
            parent,
            name,
            start_us: start,
            dur_us: dur,
            thread,
            instant: false,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Children [10,40) and [30,60) overlap: their union is 50 µs.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child sticking out of the parent only counts inside it; a
        // nested grandchild-like duplicate adds nothing.
        assert_eq!(self_time((0, 100), &[(90, 130), (20, 30), (22, 28)]), 80);
        assert_eq!(self_time((5, 5), &[]), 0);
    }

    #[test]
    fn timeline_labels_each_instant_with_the_innermost_span() {
        let iv = |start, end, name| Iv { start, end, name };
        let t = innermost_timeline(vec![
            iv(0, 100, "outer"),
            iv(10, 50, "mid"),
            iv(20, 30, "inner"),
            iv(60, 70, "late"),
            iv(65, 75, "sticks_out"),
        ]);
        let names: Vec<(u64, u64, &str)> = t.iter().map(|s| (s.start, s.end, s.name)).collect();
        assert_eq!(
            names,
            vec![
                (0, 10, "outer"),
                (10, 20, "mid"),
                (20, 30, "inner"),
                (30, 50, "mid"),
                (50, 60, "outer"),
                (60, 65, "late"),
                (65, 70, "sticks_out"),
                (70, 100, "outer"),
            ]
        );
    }

    #[test]
    fn orphan_spans_are_attributed_by_containment_on_the_shard_thread() {
        const SHARD: u64 = 7;
        let records = vec![
            rec(1, 0, "net_request", 100, 200, 3),
            rec(2, 1, "request", 110, 150, SHARD),
            rec(3, 2, "admission_wait", 110, 20, SHARD),
            // Lookup parented to the request, with an orphan retrieve
            // (no ambient parent) inside it.
            rec(4, 2, "fragment_lookup", 135, 30, SHARD),
            rec(5, 0, "qa.retrieve", 140, 20, SHARD),
            // An orphan answer inside the request window only.
            rec(6, 0, "qa.answer", 200, 40, SHARD),
            // An orphan on another thread overlapping in time: not ours.
            rec(7, 0, "qa.answer", 150, 50, 9),
        ];
        let (splits, unmatched) = split_requests(&records, &[(90, 320)]);
        assert_eq!((splits.len(), unmatched), (1, 0));
        let s = &splits[0];
        assert_eq!(s.client_us, 230);
        assert_eq!(s.wire_us, 30);
        assert_eq!(s.dispatch_us, 50);
        assert_eq!(s.admission_us, 20);
        assert_eq!(s.by_span["qa.retrieve"], 20);
        assert_eq!(s.by_span["fragment_lookup"], 10);
        assert_eq!(s.by_span["qa.answer"], 40);
        // Window [130, 260) = 130 µs, 70 covered.
        assert_eq!(s.unattributed_us, 60);
        let layers = s.by_layer();
        assert_eq!(layers["qa"], 60);
        assert_eq!(layers["net"], 80);
        assert_eq!(layers["serve"], 30);
        let total: u64 = layers.values().sum::<u64>() + s.unattributed_us;
        assert_eq!(total, s.client_us);
    }

    #[test]
    fn roots_match_the_tightest_covering_client_request() {
        let records = vec![
            rec(1, 0, "net_request", 12, 10, 3),
            rec(2, 1, "request", 13, 8, 5),
            rec(3, 0, "net_request", 15, 10, 4),
            rec(4, 3, "request", 16, 8, 5),
        ];
        // Two pipelined requests sent at 10 and 11; a third never reached
        // the server.
        let (splits, unmatched) = split_requests(&records, &[(10, 30), (11, 40), (50, 60)]);
        assert_eq!(splits.len(), 2);
        assert_eq!(unmatched, 1);
        assert_eq!(splits[0].client_us, 20);
        assert_eq!(splits[1].client_us, 29);

        // The first root fits inside both clients; giving it the earliest
        // sent one would leave the second root without a cover.
        let records = vec![
            rec(1, 0, "net_request", 5, 15, 3),
            rec(2, 1, "request", 6, 10, 5),
            rec(3, 0, "net_request", 10, 80, 4),
            rec(4, 3, "request", 11, 70, 5),
        ];
        let (splits, unmatched) = split_requests(&records, &[(0, 100), (1, 30)]);
        assert_eq!((splits.len(), unmatched), (2, 0));
        assert_eq!((splits[0].client_us, splits[1].client_us), (29, 100));
    }
}
