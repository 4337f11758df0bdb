//! Output checks, run after each measured phase (untimed).
//!
//! * every hot answer equals the warm pass's answer to that question;
//! * seeded one-shot samples equal an offline `ComputeStage1` cold build
//!   of the same documents answered with `answer_in_kb`, byte for byte
//!   (answers, documents and fact count);
//! * seeded resident sessions' `session_kb_json` equals a cold build of
//!   the first-occurrence-deduped union of their documents since the
//!   session last started cold.

use crate::client::{Reply, Sample};
use crate::fixture::Env;
use crate::gen::{request_text, session_id, Op, Rng};
use qkb_serve::{QueryEngine, QueryRequest, Served};
use qkbfly::ComputeStage1;
use std::collections::{BTreeMap, HashSet};

/// One-shot requests rebuilt offline per check.
const ONE_SHOT_SAMPLES: usize = 8;
/// Resident sessions rebuilt offline per check.
const SESSION_SAMPLES: usize = 3;

/// Returns the mismatches found (empty = correct).
pub fn check(env: &Env, samples: &[Sample], seed: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let questions = &env.corpus.questions;
    let engine = &*env.engine;
    let qkb = engine.sys().qkbfly();

    let mut one_shot: Vec<&Sample> = Vec::new();
    let mut sessions: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        let Reply::Answer { answers, .. } = &s.reply else {
            continue;
        };
        match s.op {
            Op::Hot { question } => {
                if env.hot_answers.get(&question) != Some(answers) {
                    errors.push(format!(
                        "hot question {question}: {answers:?} != warm {:?}",
                        env.hot_answers.get(&question)
                    ));
                }
                one_shot.push(s);
            }
            Op::Fresh { .. } => one_shot.push(s),
            Op::Turn { session, .. } => sessions.entry(session).or_default().push(s),
        }
    }

    let mut rng = Rng::keyed(seed, 99, samples.len() as u64);
    for _ in 0..ONE_SHOT_SAMPLES.min(one_shot.len()) {
        let s = one_shot[rng.below(one_shot.len())];
        let text = request_text(questions, s.op);
        let docs = engine.docs_for(&text);
        let kb = qkb
            .build_kb_with(&ComputeStage1, &engine.sys().doc_texts(&docs))
            .kb;
        let want = engine.answer_kb(&QueryRequest::question(text.clone()), &kb);
        if let Reply::Answer {
            answers,
            n_docs,
            n_facts,
            ..
        } = &s.reply
        {
            if *answers != want || *n_docs != docs.len() as u64 || *n_facts != kb.n_facts() as u64 {
                errors.push(format!(
                    "one-shot {text:?}: served {answers:?} ({n_docs} docs, {n_facts} facts), \
                     cold build {want:?} ({} docs, {} facts)",
                    docs.len(),
                    kb.n_facts()
                ));
            }
        }
    }

    let resident: HashSet<String> = env.server.session_ids().into_iter().collect();
    let candidates: Vec<(&usize, &Vec<&Sample>)> = sessions
        .iter()
        .filter(|(s, _)| resident.contains(&session_id(**s)))
        .collect();
    for _ in 0..SESSION_SAMPLES.min(candidates.len()) {
        let (&session, turns) = candidates[rng.below(candidates.len())];
        let mut turns: Vec<&Sample> = turns.clone();
        turns.sort_by_key(|s| match s.op {
            Op::Turn { turn, .. } => turn,
            _ => 0,
        });
        // The KB restarts at the last turn that found it empty.
        let start = turns
            .iter()
            .rposition(|s| {
                matches!(
                    s.reply,
                    Reply::Answer {
                        served: Served::SessionCold | Served::SessionForked,
                        ..
                    }
                )
            })
            .unwrap_or(0);
        let mut union: Vec<usize> = Vec::new();
        for s in &turns[start..] {
            if let Op::Turn { turn, .. } = s.op {
                for d in env.gen.turn_set(session, turn) {
                    if !union.contains(&d) {
                        union.push(d);
                    }
                }
            }
        }
        let cold = qkb
            .build_kb_with(&ComputeStage1, &engine.sys().doc_texts(&union))
            .kb
            .to_json(qkb.patterns())
            .to_string();
        let served = env.server.session_kb_json(&session_id(session));
        if served.as_deref() != Some(cold.as_str()) {
            errors.push(format!(
                "session {session}: resident KB differs from the cold build of its {} documents",
                union.len()
            ));
        }
    }
    errors
}
