//! Seeded traffic generators.
//!
//! Every request the benchmark sends is a pure function of the seed and
//! its position in a workload, so the same seed gives the same bytes on
//! the wire. Generated one-shot questions and session turns carry a tag
//! (`" #f<i>"`, `" #s<session>.<turn>"`) that the bench-side engine
//! resolves to the document set drawn here; untagged questions go through
//! real BM25 retrieval.
//!
//! The document pool (distinct texts minus every document the hot
//! questions retrieve) is cut into one slice per workload, so no two
//! workloads ever draw the same document.

use std::collections::VecDeque;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream, index)`, independent of every
    /// other key.
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1) over ranks `0..n` for any `n` up to the table size:
/// `P(rank r) ∝ 1 / (r + 1)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// `harmonic[k]` = H(k + 1).
    harmonic: Vec<f64>,
}

impl Zipf {
    pub fn new(max_n: usize) -> Self {
        let mut h = 0.0;
        let harmonic = (1..=max_n.max(1))
            .map(|k| {
                h += 1.0 / k as f64;
                h
            })
            .collect();
        Zipf { harmonic }
    }

    /// A rank in `0..n` (`0 < n <= max_n`).
    pub fn sample(&self, rng: &mut Rng, n: usize) -> usize {
        let table = &self.harmonic[..n];
        let u = rng.unit() * table[n - 1];
        table.partition_point(|&h| h < u).min(n - 1)
    }
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QaHot,
    QaFresh,
    SessionDurable,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QaHot,
        Workload::QaFresh,
        Workload::SessionDurable,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QaHot => "qa_hot",
            Workload::QaFresh => "qa_fresh",
            Workload::SessionDurable => "session_durable",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop offered rate in requests/s (`None` = closed loop).
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::QaFresh => Some(FRESH_RPS),
            Workload::Mixed => Some(MIXED_RPS),
            _ => None,
        }
    }

    /// Seconds of traffic sent before the measured window and discarded.
    pub fn ramp_secs(self) -> f64 {
        match self {
            Workload::QaHot => 1.0,
            Workload::QaFresh | Workload::Mixed => 2.0,
            Workload::SessionDurable => SESSION_RAMP_SECS,
        }
    }

    pub fn has_sessions(self) -> bool {
        matches!(self, Workload::SessionDurable | Workload::Mixed)
    }
}

/// `qa_fresh` offered rate: about a third of its capacity (~330/s on a
/// 2-core x86-64 VM, where 400/s saturates). A shared host that slows to
/// half speed for a while still leaves it well short of saturation: in
/// one such spell p95 reached 73 ms at 160/s against 27 ms at 100/s.
pub const FRESH_RPS: f64 = 100.0;
/// `mixed` offered rate.
pub const MIXED_RPS: f64 = 300.0;
/// `mixed` traffic shares: hot one-shot, fresh one-shot, session turn.
pub const MIXED_SHARES: [f64; 3] = [0.70, 0.15, 0.15];
/// `session_durable` ramp: long enough that the run opens more sessions
/// than the store holds (`session_max`), so pressure eviction runs.
pub const SESSION_RAMP_SECS: f64 = 2.0;
/// Closed-loop pipelining depth per connection on `qa_hot`.
pub const HOT_DEPTH: usize = 4;
/// Concurrent sessions on the session workloads (two per connection).
pub const SESSION_LANES: usize = 4;
/// Turns per session.
pub const TURNS: usize = 6;
/// Session topics, their opening size and follow-up pool size.
pub const TOPICS: usize = 24;
pub const OPENING_DOCS: usize = 6;
pub const TOPIC_POOL: usize = 30;
/// Resident documents each follow-up turn repeats.
pub const REPEATED_DOCS: usize = 3;

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// An untagged trends question (real BM25 retrieval).
    Hot { question: usize },
    /// A one-shot question over generated doc set `index`.
    Fresh { question: usize, index: usize },
    /// Turn `turn` of session `session`.
    Turn {
        question: usize,
        session: usize,
        turn: usize,
    },
}

/// A topic: its opening documents and the pool follow-ups draw from.
#[derive(Clone, Debug)]
struct Topic {
    opening: Vec<usize>,
    pool: Vec<usize>,
}

/// The seeded source of every document set one workload uses.
#[derive(Clone, Debug)]
pub struct Generator {
    seed: u64,
    n_questions: usize,
    /// Never-seen documents handed out two per fresh request, in order.
    fresh: Vec<usize>,
    topics: Vec<Topic>,
    zipf: Zipf,
}

/// Stream keys of [`Rng::keyed`].
const S_FRESH: u64 = 1;
const S_SESSION: u64 = 2;
const S_LANE: u64 = 3;
const S_MIXED: u64 = 4;
const S_PERMUTE: u64 = 5;
/// Seed of the fixed permutation that cuts the pool into slices.
const POOL_SEED: u64 = 0x5EED;

/// The kind of `mixed` slot `i`: 0 hot, 1 fresh, 2 session turn.
fn mixed_kind(seed: u64, i: usize) -> usize {
    let u = Rng::keyed(seed, S_MIXED, i as u64 + 2).unit();
    if u < MIXED_SHARES[0] {
        0
    } else if u < MIXED_SHARES[0] + MIXED_SHARES[1] {
        1
    } else {
        2
    }
}

/// Requests an open-loop workload sends over `secs` measured seconds.
fn open_requests(workload: Workload, secs: f64) -> usize {
    ((workload.ramp_secs() + secs) * workload.rate().unwrap_or(0.0)).round() as usize
}

impl Generator {
    /// The generator of `workload` for a run of `secs` measured seconds.
    /// `pool` is the distinct-document pool; fails when the pool cannot
    /// give every workload its own documents for that long.
    ///
    /// The pool is cut into the same slices for every seed (a fixed
    /// permutation), and the seed permutes only within a slice: a run
    /// consumes its whole fresh slice, so every seed meets the same
    /// documents — and the same few expensive ones — in another order.
    pub fn new(
        workload: Workload,
        seed: u64,
        secs: f64,
        pool: &[usize],
        n_questions: usize,
    ) -> Result<Self, String> {
        let mut base = pool.to_vec();
        Rng::keyed(POOL_SEED, S_PERMUTE, 0).shuffle(&mut base);
        // Slice order: qa_fresh fresh | session topics | mixed topics |
        // mixed fresh — disjoint for any one `secs`.
        let topic_docs = TOPICS * (OPENING_DOCS + TOPIC_POOL);
        let mixed_fresh = (0..open_requests(Workload::Mixed, secs))
            .filter(|&i| mixed_kind(seed, i) == 1)
            .count();
        let sizes = [
            2 * open_requests(Workload::QaFresh, secs) + 2,
            topic_docs,
            topic_docs,
            2 * mixed_fresh + 2,
        ];
        let needed: usize = sizes.iter().sum();
        if needed > base.len() {
            return Err(format!(
                "--seconds {secs} needs {needed} distinct documents, the corpus has {}",
                base.len()
            ));
        }
        let mut slices = Vec::new();
        let mut rest = base.as_slice();
        for size in sizes {
            let (head, tail) = rest.split_at(size);
            let mut slice = head.to_vec();
            Rng::keyed(seed, S_PERMUTE, slices.len() as u64).shuffle(&mut slice);
            slices.push(slice);
            rest = tail;
        }
        let (fresh, topic_slice) = match workload {
            Workload::QaFresh => (slices[0].clone(), Vec::new()),
            Workload::SessionDurable => (Vec::new(), slices[1].clone()),
            Workload::Mixed => (slices[3].clone(), slices[2].clone()),
            Workload::QaHot => (Vec::new(), Vec::new()),
        };
        let topics = topic_slice
            .chunks(OPENING_DOCS + TOPIC_POOL)
            .map(|c| Topic {
                opening: c[..OPENING_DOCS].to_vec(),
                pool: c[OPENING_DOCS..].to_vec(),
            })
            .collect();
        Ok(Generator {
            seed,
            n_questions,
            zipf: Zipf::new(fresh.len().max(n_questions).max(TOPICS)),
            fresh,
            topics,
        })
    }

    /// Documents of fresh request `i`: two never-seen documents, then two
    /// drawn Zipf(1) (by first appearance) from earlier requests'
    /// documents. The first request has no history and takes four fresh
    /// documents.
    pub fn fresh_set(&self, i: usize) -> Vec<usize> {
        if i == 0 {
            return self.fresh[..4].to_vec();
        }
        let (a, b) = (self.fresh[2 * i + 2], self.fresh[2 * i + 3]);
        let seen = 2 * i + 2;
        let mut rng = Rng::keyed(self.seed, S_FRESH, i as u64);
        let mut set = vec![a, b];
        while set.len() < 4 {
            let d = self.fresh[self.zipf.sample(&mut rng, seen)];
            if !set.contains(&d) {
                set.push(d);
            }
        }
        set
    }

    /// The question a fresh request asks.
    pub fn fresh_question(&self, i: usize) -> usize {
        Rng::keyed(self.seed, S_FRESH, i as u64 | 1 << 40).below(self.n_questions)
    }

    /// Documents of every turn of session `s` up to and including
    /// `turn`: the opening is one of 24 topics drawn Zipf(1); each
    /// follow-up repeats three resident documents and adds one new
    /// document from the topic's pool.
    pub fn session_turns(&self, s: usize, turn: usize) -> Vec<Vec<usize>> {
        let mut rng = Rng::keyed(self.seed, S_SESSION, s as u64);
        let topic = &self.topics[self.zipf.sample(&mut rng, TOPICS)];
        let mut resident = topic.opening.clone();
        let mut turns = vec![topic.opening.clone()];
        for _ in 1..=turn {
            let mut set = resident.clone();
            rng.shuffle(&mut set);
            set.truncate(REPEATED_DOCS);
            let fresh: Vec<usize> = topic
                .pool
                .iter()
                .copied()
                .filter(|d| !resident.contains(d))
                .collect();
            let new = fresh[rng.below(fresh.len())];
            set.push(new);
            resident.push(new);
            turns.push(set);
        }
        turns
    }

    pub fn turn_set(&self, s: usize, turn: usize) -> Vec<usize> {
        self.session_turns(s, turn)
            .pop()
            .expect("at least the opening")
    }

    pub fn turn_question(&self, s: usize, turn: usize) -> usize {
        Rng::keyed(self.seed, S_SESSION, (s * TURNS + turn) as u64 | 1 << 40)
            .below(self.n_questions)
    }

    /// A Zipf(1) draw over the questions. The popularity order is the
    /// question order for every seed, so seeds vary the draws, not which
    /// questions (and so which retrieval costs) are hot.
    pub fn hot_question(&self, rng: &mut Rng) -> usize {
        self.zipf.sample(rng, self.n_questions)
    }

    /// Closed-loop lane `lane`'s random stream.
    pub fn lane_rng(&self, lane: usize) -> Rng {
        Rng::keyed(self.seed, S_LANE, lane as u64)
    }

    /// The open-loop schedule of `workload` over `secs` seconds (ramp
    /// included): `(due seconds, lane, op)` in due order. Session turns
    /// carry a lane so a turn is sent only after its predecessor's reply.
    pub fn open_schedule(&self, workload: Workload, secs: f64) -> Vec<(f64, Option<usize>, Op)> {
        let Some(rate) = workload.rate() else {
            return Vec::new();
        };
        let n = open_requests(workload, secs);
        let due = |i: usize| i as f64 / rate;
        match workload {
            Workload::QaFresh => (0..n)
                .map(|i| {
                    let question = self.fresh_question(i);
                    (due(i), None, Op::Fresh { question, index: i })
                })
                .collect(),
            Workload::Mixed => {
                let (mut fresh, mut session_slots) = (0usize, 0usize);
                let mut hot_rng = Rng::keyed(self.seed, S_MIXED, 1);
                (0..n)
                    .map(|i| match mixed_kind(self.seed, i) {
                        0 => {
                            let question = self.hot_question(&mut hot_rng);
                            (due(i), None, Op::Hot { question })
                        }
                        1 => {
                            fresh += 1;
                            let question = self.fresh_question(fresh - 1);
                            let op = Op::Fresh {
                                question,
                                index: fresh - 1,
                            };
                            (due(i), None, op)
                        }
                        _ => {
                            // Session slots go round-robin over the lanes;
                            // each lane runs its sessions' turns in order.
                            let j = session_slots;
                            session_slots += 1;
                            let lane = j % SESSION_LANES;
                            let m = j / SESSION_LANES;
                            let session = (m / TURNS) * SESSION_LANES + lane;
                            let turn = m % TURNS;
                            let question = self.turn_question(session, turn);
                            let op = Op::Turn {
                                question,
                                session,
                                turn,
                            };
                            (due(i), Some(lane), op)
                        }
                    })
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

/// Where a closed-loop lane gets its next request.
#[derive(Clone, Debug)]
pub enum LaneSource {
    /// Endless Zipf(1) draws over the hot questions.
    Hot(Rng),
    /// Sessions `first, first + stride, ...`, six turns each.
    Sessions {
        next_session: usize,
        stride: usize,
        turn: usize,
    },
    /// A fixed list (the warm pass).
    List(VecDeque<Op>),
}

impl LaneSource {
    pub fn next(&mut self, gen: &Generator) -> Option<Op> {
        match self {
            LaneSource::Hot(rng) => Some(Op::Hot {
                question: gen.hot_question(rng),
            }),
            LaneSource::Sessions {
                next_session,
                stride,
                turn,
            } => {
                let op = Op::Turn {
                    question: gen.turn_question(*next_session, *turn),
                    session: *next_session,
                    turn: *turn,
                };
                *turn += 1;
                if *turn == TURNS {
                    *turn = 0;
                    *next_session += *stride;
                }
                Some(op)
            }
            LaneSource::List(ops) => ops.pop_front(),
        }
    }
}

/// The request text of an op: the question, tagged when its documents
/// are generated.
pub fn request_text(questions: &[String], op: Op) -> String {
    match op {
        Op::Hot { question } => questions[question].clone(),
        Op::Fresh { question, index } => format!("{} #f{index}", questions[question]),
        Op::Turn {
            question,
            session,
            turn,
        } => format!("{} #s{session}.{turn}", questions[question]),
    }
}

/// The tag a request text carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    Fresh(usize),
    Turn(usize, usize),
}

/// Splits a request text into its question and tag.
pub fn parse_tag(text: &str) -> (&str, Option<Tag>) {
    let Some((question, tag)) = text.rsplit_once(" #") else {
        return (text, None);
    };
    let parsed = if let Some(i) = tag.strip_prefix('f') {
        i.parse().ok().map(Tag::Fresh)
    } else if let Some(st) = tag.strip_prefix('s') {
        st.split_once('.')
            .and_then(|(s, t)| Some(Tag::Turn(s.parse().ok()?, t.parse().ok()?)))
    } else {
        None
    };
    match parsed {
        Some(tag) => (question, Some(tag)),
        None => (text, None),
    }
}

/// Session id of session `s`.
pub fn session_id(s: usize) -> String {
    format!("s{s}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen(workload: Workload, seed: u64) -> Generator {
        let pool: Vec<usize> = (0..11_000).collect();
        Generator::new(workload, seed, 10.0, &pool, 54).expect("pool fits")
    }

    /// Every byte a workload's generator decides over its first ops.
    fn render(workload: Workload, seed: u64) -> (String, HashSet<usize>) {
        let g = gen(workload, seed);
        let questions: Vec<String> = (0..54).map(|i| format!("q{i}?")).collect();
        let mut ops: Vec<Op> = g
            .open_schedule(workload, 10.0)
            .into_iter()
            .map(|(_, _, op)| op)
            .collect();
        match workload {
            Workload::QaHot => {
                let mut lane = LaneSource::Hot(g.lane_rng(0));
                ops.extend((0..200).filter_map(|_| lane.next(&g)));
            }
            Workload::SessionDurable => {
                let mut lane = LaneSource::Sessions {
                    next_session: 0,
                    stride: 1,
                    turn: 0,
                };
                ops.extend((0..600).filter_map(|_| lane.next(&g)));
            }
            _ => {}
        }
        let mut out = String::new();
        let mut docs = HashSet::new();
        for op in ops {
            let set = match op {
                Op::Hot { .. } => Vec::new(),
                Op::Fresh { index, .. } => g.fresh_set(index),
                Op::Turn { session, turn, .. } => g.turn_set(session, turn),
            };
            docs.extend(set.iter().copied());
            out.push_str(&format!("{}|{set:?}\n", request_text(&questions, op)));
        }
        (out, docs)
    }

    #[test]
    fn generators_are_byte_deterministic_per_seed() {
        for w in Workload::ALL {
            let (a, _) = render(w, 7);
            assert_eq!(a, render(w, 7).0, "{} not deterministic", w.name());
            assert_ne!(a, render(w, 8).0, "{} ignores the seed", w.name());
        }
    }

    #[test]
    fn generated_documents_are_disjoint_across_workloads() {
        let sets: Vec<HashSet<usize>> = Workload::ALL.iter().map(|&w| render(w, 3).1).collect();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert!(a.is_disjoint(b));
            }
        }
        assert!(sets[1].len() > 2000 && sets[2].len() > 100 && sets[3].len() > 500);
    }

    #[test]
    fn fresh_sets_bring_two_never_seen_documents() {
        let g = gen(Workload::QaFresh, 1);
        let mut seen: HashSet<usize> = g.fresh_set(0).into_iter().collect();
        for i in 1..300 {
            let set = g.fresh_set(i);
            assert_eq!(set.len(), 4);
            assert!(!seen.contains(&set[0]) && !seen.contains(&set[1]));
            assert!(seen.contains(&set[2]) && seen.contains(&set[3]));
            seen.extend(set);
        }
    }

    #[test]
    fn follow_up_turns_repeat_three_and_add_one() {
        let g = gen(Workload::SessionDurable, 5);
        let turns = g.session_turns(11, TURNS - 1);
        assert_eq!(turns[0].len(), OPENING_DOCS);
        let mut resident: Vec<usize> = turns[0].clone();
        for t in &turns[1..] {
            assert_eq!(t.len(), REPEATED_DOCS + 1);
            assert!(t[..REPEATED_DOCS].iter().all(|d| resident.contains(d)));
            assert!(!resident.contains(&t[REPEATED_DOCS]));
            resident.push(t[REPEATED_DOCS]);
        }
    }

    #[test]
    fn tags_round_trip() {
        let q = vec!["Who shot Keith Scott?".to_string()];
        let fresh = request_text(
            &q,
            Op::Fresh {
                question: 0,
                index: 42,
            },
        );
        assert_eq!(parse_tag(&fresh), (q[0].as_str(), Some(Tag::Fresh(42))));
        let turn = request_text(
            &q,
            Op::Turn {
                question: 0,
                session: 9,
                turn: 3,
            },
        );
        assert_eq!(parse_tag(&turn), (q[0].as_str(), Some(Tag::Turn(9, 3))));
        assert_eq!(parse_tag(&q[0]), (q[0].as_str(), None));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut rng = Rng::keyed(1, 0, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng, 100)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts[0] > 5 * counts[9] && counts[99] > 0);
    }
}
