//! Set-up: corpus, engine, a running `QkbNetServer`, and the warm pass.

use crate::client::{drive, Clock, ConnPlan, Reply};
use crate::engine::WorkloadEngine;
use crate::gen::{Generator, LaneSource, Op, Workload};
use qkb_bench::{build_fixture, clone_repo};
use qkb_net::{JournalConfig, NetConfig, QkbNetServer, SessionJournal};
use qkb_obs::{Recorder, Registry};
use qkb_qa::QaSystem;
use qkb_serve::{LoggedTurn, ServeConfig, TurnLog};
use qkbfly::Qkbfly;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus size: wiki pages and news articles.
const WIKI_DOCS: usize = 8000;
const NEWS_DOCS: usize = 4000;
/// Fixed corpus seeds: the corpus is part of the fixture; the run seed
/// drives only the traffic.
const WIKI_SEED: u64 = 101;
const NEWS_SEED: u64 = 202;
/// `trends_test(world, 60, 13)` yields the ~54 trends questions.
const TRENDS_ASKED: usize = 60;
const TRENDS_SEED: u64 = 13;
/// Documents retrieved per question.
const TOP_K: usize = 4;

/// The corpus, the QA system over it and the question set.
pub struct Corpus {
    pub sys: Arc<QaSystem>,
    pub questions: Vec<String>,
    /// Distinct-text documents no hot question retrieves.
    pub pool: Vec<usize>,
}

impl Corpus {
    pub fn build() -> Corpus {
        let fx = build_fixture();
        let mut docs = fx.wiki(WIKI_DOCS, WIKI_SEED).docs;
        docs.extend(fx.news(NEWS_DOCS, NEWS_SEED).docs);
        let qkb = Qkbfly::new(clone_repo(&fx.world), fx.patterns(), fx.stats());
        let mut sys = QaSystem::new(fx.world.clone(), docs, qkb);
        sys.top_k = TOP_K;
        let questions: Vec<String> =
            qkb_corpus::questions::trends_test(&fx.world, TRENDS_ASKED, TRENDS_SEED)
                .into_iter()
                .map(|q| q.text)
                .collect();
        let hot: HashSet<usize> = questions
            .iter()
            .flat_map(|q| sys.retrieve_docs(q))
            .collect();
        let mut seen = HashSet::new();
        let pool = (0..sys.n_docs())
            .filter(|&d| {
                let text = sys.doc_texts(&[d]).pop().expect("one text");
                seen.insert(text) && !hot.contains(&d)
            })
            .collect();
        Corpus {
            sys: Arc::new(sys),
            questions,
            pool,
        }
    }
}

/// The journal as a bench-side [`TurnLog`]: times each append with a
/// `journal.append` span (the traced run attaches the journal this way).
pub struct TimedJournal {
    pub journal: SessionJournal,
    recorder: Recorder,
}

impl TurnLog for TimedJournal {
    fn log_turn(&self, turn: &LoggedTurn<'_>) {
        let _span = self.recorder.span("journal.append");
        self.journal.log_turn(turn);
    }
}

/// A journal directory inside the working directory, removed on drop.
pub struct JournalDir(pub PathBuf);

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything one measured phase runs against.
pub struct Env {
    pub workload: Workload,
    pub corpus: Corpus,
    pub gen: Arc<Generator>,
    pub engine: Arc<WorkloadEngine>,
    pub server: QkbNetServer<Arc<WorkloadEngine>>,
    pub recorder: Recorder,
    /// Set when the journal is attached through the bench wrapper.
    pub timed_journal: Option<Arc<TimedJournal>>,
    /// The warm pass's answer to every hot question.
    pub hot_answers: HashMap<usize, Vec<String>>,
    pub shards: usize,
    // Dropped after the server, which syncs its journal on shutdown.
    _dir: Option<JournalDir>,
}

impl Env {
    /// Full set-up: corpus and index, engine, server and journal start,
    /// and one warm pass over every hot question.
    pub fn setup(
        workload: Workload,
        seed: u64,
        secs: f64,
        recorder: Recorder,
        tag: usize,
    ) -> Result<Env, String> {
        let corpus = Corpus::build();
        let gen = Arc::new(Generator::new(
            workload,
            seed,
            secs,
            &corpus.pool,
            corpus.questions.len(),
        )?);
        let engine = Arc::new(WorkloadEngine::new(
            corpus.sys.clone(),
            gen.clone(),
            recorder.clone(),
        ));
        // Production defaults (shards = cores) plus the recorder.
        let mut serve = ServeConfig {
            recorder: recorder.clone(),
            ..ServeConfig::default()
        };
        let mut net = NetConfig::default();
        let (mut dir, mut timed_journal) = (None, None);
        if workload.has_sessions() {
            let path = PathBuf::from(".bench_run").join(format!(
                "{}-{}-{tag}",
                workload.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            let config = JournalConfig {
                // The durable workload keeps the default fsync-per-turn;
                // `mixed` turns it off so durable-path changes leave it be.
                fsync: workload == Workload::SessionDurable,
                ..JournalConfig::new(&path)
            };
            dir = Some(JournalDir(path));
            if recorder.is_enabled() {
                let (journal, _) = SessionJournal::open(config, &Registry::new())
                    .map_err(|e| format!("journal open: {e}"))?;
                let timed = Arc::new(TimedJournal {
                    journal,
                    recorder: recorder.clone(),
                });
                serve.turn_log = Some(timed.clone() as Arc<dyn TurnLog>);
                timed_journal = Some(timed);
            } else {
                net.journal = Some(config);
            }
        }
        net.serve = serve;
        // What `shards: 0` resolves to inside the server (for the report).
        let shards = qkb_util::effective_parallelism(0).min(8);
        let server =
            QkbNetServer::start(engine.clone(), net).map_err(|e| format!("server start: {e}"))?;
        let mut env = Env {
            workload,
            corpus,
            gen,
            engine,
            server,
            recorder,
            timed_journal,
            hot_answers: HashMap::new(),
            shards,
            _dir: dir,
        };
        env.warm_pass()?;
        env.server.reset_stats();
        Ok(env)
    }

    /// Asks every hot question once over the wire, two connections with
    /// four in flight each, and keeps the answers.
    fn warm_pass(&mut self) -> Result<(), String> {
        let n = self.corpus.questions.len();
        let clock = Clock {
            epoch: Instant::now(),
        };
        let deadline = Duration::from_secs(120).as_nanos() as u64;
        let plan = |conn: usize| ConnPlan {
            open: Vec::new(),
            closed: (0..4)
                .map(|lane| {
                    let ops: VecDeque<Op> = (0..n)
                        .filter(|q| q % 8 == conn * 4 + lane)
                        .map(|question| Op::Hot { question })
                        .collect();
                    (lane, LaneSource::List(ops))
                })
                .collect(),
        };
        let addr = self.server.local_addr();
        let (gen, questions) = (&*self.gen, &self.corpus.questions);
        let samples = std::thread::scope(|s| {
            let other = s.spawn(|| {
                drive(
                    addr,
                    plan(1),
                    gen,
                    questions,
                    clock,
                    deadline,
                    deadline,
                    vec![],
                )
            });
            let mine = drive(
                addr,
                plan(0),
                gen,
                questions,
                clock,
                deadline,
                deadline,
                vec![],
            );
            let theirs = other.join().expect("warm-pass connection thread");
            mine.and_then(|mut a| {
                a.extend(theirs?);
                Ok(a)
            })
        })
        .map_err(|e| format!("warm pass: {e}"))?;
        for s in samples {
            match (s.op, s.reply) {
                (Op::Hot { question }, Reply::Answer { answers, .. }) => {
                    self.hot_answers.insert(question, answers);
                }
                (_, reply) => return Err(format!("warm pass request failed: {reply:?}")),
            }
        }
        if self.hot_answers.len() != n {
            return Err(format!("warm pass answered {}/{n}", self.hot_answers.len()));
        }
        Ok(())
    }
}
