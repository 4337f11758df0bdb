//! The concurrent session store: byte-budgeted LRU with a TTL sweep.

use crate::forest::PrefixForest;
use crate::session::{SessionKb, TurnReport};
use crate::stats::SessionStats;
use qkb_obs::{Counter, Recorder, Registry};
use qkb_util::FxHashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Session-store configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Total byte budget across all resident session KBs; exceeding it
    /// evicts least-recently-used sessions. `0` = unbounded.
    pub max_bytes: u64,
    /// Idle time after which a session expires (swept on access and via
    /// [`SessionManager::sweep`]). `Duration::ZERO` = never.
    pub ttl: Duration,
    /// Hard cap on resident sessions; creating one past the cap evicts
    /// the least-recently-used. `0` = unbounded.
    pub max_sessions: usize,
    /// Byte budget of the prefix forest: sessions opening on a document
    /// sequence another session already built fork its frozen,
    /// `Arc`-shared prefix instead of rebuilding, and `max_bytes`
    /// charges each session only the delta it **owns** (shared layers
    /// are accounted once, in [`crate::ForestStats`]). Beyond the budget
    /// the least-recently-used chains are dropped; live forks keep their
    /// layers. `0` turns the forest off and every session builds a
    /// private KB — here `0` means off, while for `max_bytes` and
    /// `max_sessions` it means unbounded.
    pub forest_bytes: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            max_bytes: 256 << 20,
            ttl: Duration::from_secs(15 * 60),
            max_sessions: 1024,
            forest_bytes: 64 << 20,
        }
    }
}

/// What [`SessionManager::with_eviction_hook`] calls with an evicted id.
type EvictionHook = Box<dyn Fn(&str) + Send + Sync>;

/// Why the store dropped a session.
#[derive(Clone, Copy)]
enum Eviction {
    Ttl,
    /// The session cap or the byte budget.
    Pressure,
    /// A turn on it panicked, leaving its KB in an unknown state.
    Panic,
}

/// One session's KB behind its own lock, plus the flag the store sets
/// when it evicts the slot.
struct Slot {
    kb: Mutex<SessionKb>,
    /// Set under the store lock, before the eviction is reported.
    evicted: AtomicBool,
}

impl Slot {
    fn new(kb: SessionKb) -> Self {
        Self {
            kb: Mutex::new(kb),
            evicted: AtomicBool::new(false),
        }
    }
}

/// What a turn run by [`SessionManager::with_turn`] knows of its slot:
/// whether the store has evicted it since the turn claimed it.
pub struct Residency<'a> {
    slot: &'a Slot,
    order: &'a Mutex<()>,
}

impl Residency<'_> {
    /// Runs `report` unless the store has evicted this turn's slot, and
    /// says whether it ran. The check and `report` hold the lock the
    /// eviction hook runs under, so what `report` records lands before
    /// the slot's eviction report or not at all: a turn that commits on a
    /// slot evicted while it ran is never recorded after that eviction.
    pub fn if_resident(&self, report: impl FnOnce()) -> bool {
        let _order = self.order.lock().expect("report order");
        let resident = !self.slot.evicted.load(Ordering::Relaxed);
        if resident {
            report();
        }
        resident
    }
}

/// One resident session: its independently locked KB slot plus the
/// bookkeeping the manager needs without taking that lock.
struct Entry {
    slot: Arc<Slot>,
    /// Weight last observed after a turn (the slot lock is *not* held
    /// while the manager accounts, so this trails an in-flight extend —
    /// the budget is enforced when the turn completes).
    bytes: u64,
    /// Turn count the recorded weight was observed at: weight commits
    /// are monotonic in it, so a turn that finished first but reweighs
    /// last cannot overwrite a newer observation with a stale one.
    bytes_turn: u64,
    last_used: Instant,
    /// Monotonic touch sequence — the LRU order (strictly increasing,
    /// unlike `last_used` which a coarse clock could tie).
    seq: u64,
}

struct Inner {
    sessions: FxHashMap<String, Entry>,
    total_bytes: u64,
    seq: u64,
    /// Next opportunistic TTL sweep (rate-limited so the per-turn claim
    /// stays O(1) instead of scanning every resident session).
    next_sweep: Instant,
}

/// The session store shared by every serving shard.
///
/// Lock discipline: the manager lock is held only for map bookkeeping
/// (claim, sweep, weight accounting); each session's KB sits behind its
/// own mutex, so turns on *different* sessions run concurrently while
/// turns on *one* session serialize in arrival order. A session evicted
/// while a turn is in flight finishes that turn on its private `Arc` and
/// is then discarded — the next use of the id starts cold, never
/// resurrecting stale state.
///
/// The store's counters are handles into a metrics registry (named
/// `serve_session_*_total`); its occupancy is read from the live store
/// when a snapshot is taken ([`SessionManager::gauges`]).
///
/// Every eviction, by TTL, by pressure or after a turn panicked, reaches
/// the hook set by [`SessionManager::with_eviction_hook`]. The hook and
/// [`Residency::if_resident`] run under one report lock, taken inside
/// the store lock (an eviction) or inside a slot lock (a turn's report);
/// the store lock and a slot lock are never held together.
pub struct SessionManager {
    inner: Mutex<Inner>,
    config: SessionConfig,
    metrics: Registry,
    created: Counter,
    evicted_ttl: Counter,
    evicted_pressure: Counter,
    turns_cold: Counter,
    turns_extended: Counter,
    turns_forked: Counter,
    docs_merged: Counter,
    docs_deduped: Counter,
    recorder: Recorder,
    /// Built (and counting) even when off, so the forest's metrics are
    /// always registered; sessions use it only when it has a budget.
    forest: Arc<PrefixForest>,
    /// Told the id of every evicted session.
    on_evict: Option<EvictionHook>,
    /// Orders `on_evict` against [`Residency::if_resident`].
    report_order: Mutex<()>,
}

impl SessionManager {
    /// An empty store under the given budget/TTL policy, counting into
    /// `registry`.
    pub fn new(config: SessionConfig, registry: &Registry) -> Self {
        let counter = |what: &str| registry.counter(&format!("serve_session_{what}_total"));
        Self {
            inner: Mutex::new(Inner {
                sessions: FxHashMap::default(),
                total_bytes: 0,
                seq: 0,
                next_sweep: Instant::now(),
            }),
            config,
            metrics: registry.clone(),
            created: counter("created"),
            evicted_ttl: counter("evicted_ttl"),
            evicted_pressure: counter("evicted_pressure"),
            turns_cold: counter("turns_cold"),
            turns_extended: counter("turns_extended"),
            turns_forked: counter("turns_forked"),
            docs_merged: counter("docs_merged"),
            docs_deduped: counter("docs_deduped"),
            recorder: Recorder::disabled(),
            forest: Arc::new(PrefixForest::new(config.forest_bytes, registry)),
            on_evict: None,
            report_order: Mutex::new(()),
        }
    }

    /// The shared prefix forest; `None` when it is off (a zero
    /// [`SessionConfig::forest_bytes`]).
    pub fn forest(&self) -> Option<&Arc<PrefixForest>> {
        (self.config.forest_bytes > 0).then_some(&self.forest)
    }

    /// Builder: emit eviction events into `recorder` (disabled by
    /// default).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Builder: call `hook` with the id of every session the store
    /// evicts, by TTL, by pressure or after a turn panicked. The hook runs
    /// under the store lock, so it hears of an eviction before any turn of
    /// a later session with the same id can start. It must not call back
    /// into the store.
    pub fn with_eviction_hook(mut self, hook: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.on_evict = Some(Box::new(hook));
        self
    }

    /// The configured policy.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs `f` with exclusive access to the session's KB (creating the
    /// session if the id is new or was evicted), then re-weighs the
    /// session and enforces the byte budget. Expired sessions are swept
    /// on the way in, so an id idle past the TTL starts cold here.
    pub fn with_session<R>(&self, id: &str, f: impl FnOnce(&mut SessionKb) -> R) -> R {
        self.with_turn(id, |kb, _| f(kb))
    }

    /// [`SessionManager::with_session`] for a turn that reports its
    /// commit: `f` also gets the slot's [`Residency`], which reports only
    /// while the store still holds the slot.
    pub fn with_turn<R>(&self, id: &str, f: impl FnOnce(&mut SessionKb, &Residency<'_>) -> R) -> R {
        let slot = self.claim(id, true).expect("a creating claim");
        self.run_turn(id, slot, f)
    }

    /// [`SessionManager::with_session`] on a session the store already
    /// holds: `None`, creating nothing, when `id` is not resident or is
    /// idle past the TTL (which expires it here, as any claim would).
    pub fn with_resident<R>(&self, id: &str, f: impl FnOnce(&mut SessionKb) -> R) -> Option<R> {
        let slot = self.claim(id, false)?;
        Some(self.run_turn(id, slot, |kb, _| f(kb)))
    }

    /// Runs `f` on a claimed slot, then re-weighs the session. When `f`
    /// panics, the session is evicted before the unwind resumes: its KB
    /// is in an unknown state, so no later claim may return the slot.
    fn run_turn<R>(
        &self,
        id: &str,
        slot: Arc<Slot>,
        f: impl FnOnce(&mut SessionKb, &Residency<'_>) -> R,
    ) -> R {
        let mut kb = slot.kb.lock().expect("session slot");
        let residency = Residency {
            slot: &slot,
            order: &self.report_order,
        };
        // The guard outlives the unwind, so the slot lock is released
        // normally instead of being poisoned.
        match catch_unwind(AssertUnwindSafe(|| f(&mut kb, &residency))) {
            Ok(result) => {
                let (bytes, turn) = (kb.approx_bytes(), kb.turns());
                drop(kb);
                self.reweigh(id, &slot, bytes, turn);
                result
            }
            Err(payload) => {
                // A turn already waiting on the slot must not read what
                // the panic left half-built.
                *kb = SessionKb::new();
                drop(kb);
                self.evict_slot(id, &slot);
                resume_unwind(payload)
            }
        }
    }

    /// Evicts session `id` if it still maps to `slot` (a turn on it
    /// panicked). Not a TTL or pressure eviction, so neither counter
    /// moves.
    fn evict_slot(&self, id: &str, slot: &Arc<Slot>) {
        let mut inner = self.inner.lock().expect("session manager");
        // Another slot, or none, means the store evicted this one, and
        // reported it, while the turn ran.
        if inner
            .sessions
            .get(id)
            .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
        {
            let entry = inner.sessions.remove(id).expect("resident");
            inner.total_bytes -= entry.bytes;
            self.note_eviction(id, slot, Eviction::Panic);
        }
    }

    /// Runs `f` on the KB of resident session `id`; `None` when there is
    /// none. A read is not a use: it never creates, touches or evicts a
    /// session.
    pub fn peek<R>(&self, id: &str, f: impl FnOnce(&SessionKb) -> R) -> Option<R> {
        let slot = {
            let inner = self.inner.lock().expect("session manager");
            inner.sessions.get(id)?.slot.clone()
        };
        let kb = slot.kb.lock().expect("session slot");
        Some(f(&kb))
    }

    /// Folds one turn's outcome into the stats counters (the serving
    /// layer calls this right after the extend+answer closure).
    pub fn note_turn(&self, report: &TurnReport) {
        if report.cold {
            self.turns_cold.inc();
        } else {
            self.turns_extended.inc();
        }
        if report.forked {
            self.turns_forked.inc();
        }
        self.docs_merged.add(report.merged as u64);
        self.docs_deduped.add(report.deduped as u64);
    }

    /// Sweeps idle sessions past the TTL (also runs opportunistically,
    /// rate-limited, on every [`SessionManager::with_session`]).
    pub fn sweep(&self) {
        let mut inner = self.inner.lock().expect("session manager");
        self.sweep_locked(&mut inner, Instant::now(), true);
    }

    /// Sessions resident right now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session manager").sessions.len()
    }

    /// True when no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of the sessions resident right now, in no particular order.
    pub fn ids(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("session manager")
            .sessions
            .keys()
            .cloned()
            .collect()
    }

    /// Occupancy gauges, read from the store now —
    /// `serve_session_live`, `serve_session_bytes` and
    /// `serve_session_capacity_bytes` — followed by the forest's.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let (live, bytes) = {
            let inner = self.inner.lock().expect("session manager");
            (inner.sessions.len(), inner.total_bytes)
        };
        let gauge = |what: &str, v: u64| (format!("serve_session_{what}"), v as i64);
        let mut out = vec![
            gauge("live", live as u64),
            gauge("bytes", bytes),
            gauge("capacity_bytes", self.config.max_bytes),
        ];
        out.extend(self.forest.gauges());
        out
    }

    /// Point-in-time stats: the counters from the metrics registry plus
    /// the occupancy gauges.
    pub fn stats(&self) -> SessionStats {
        SessionStats::from_snapshot(&self.metrics.snapshot().with_gauges(self.gauges()))
    }

    /// Fetches the session slot, touching its LRU position; creates it
    /// when `create` is set, and returns `None` otherwise if `id` is not
    /// resident.
    fn claim(&self, id: &str, create: bool) -> Option<Arc<Slot>> {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("session manager");
        self.sweep_locked(&mut inner, now, false);
        inner.seq += 1;
        let seq = inner.seq;
        let ttl = self.config.ttl;
        let stale = match inner.sessions.get_mut(id) {
            Some(entry) if ttl.is_zero() || now.duration_since(entry.last_used) <= ttl => {
                entry.last_used = now;
                entry.seq = seq;
                return Some(entry.slot.clone());
            }
            // Idle past the TTL but not yet swept (opportunistic sweeps
            // are rate-limited): expire it here — an id idle past the
            // TTL always starts cold, sweep or no sweep.
            Some(_) => true,
            None => false,
        };
        if stale {
            let entry = inner.sessions.remove(id).expect("stale resident");
            inner.total_bytes -= entry.bytes;
            self.note_eviction(id, &entry.slot, Eviction::Ttl);
        }
        if !create {
            return None;
        }
        if self.config.max_sessions > 0 {
            while inner.sessions.len() >= self.config.max_sessions {
                if !self.evict_lru_locked(&mut inner) {
                    break;
                }
            }
        }
        let session = match self.forest() {
            Some(forest) => SessionKb::with_forest(forest.clone()),
            None => SessionKb::new(),
        };
        let bytes = session.approx_bytes();
        let slot = Arc::new(Slot::new(session));
        inner.total_bytes += bytes;
        inner.sessions.insert(
            id.to_string(),
            Entry {
                slot: slot.clone(),
                bytes,
                bytes_turn: 0,
                last_used: now,
                seq,
            },
        );
        self.created.inc();
        Some(slot)
    }

    /// Commits the session's weight as observed after turn `turn` — only
    /// if the id still maps to the *same* slot (an eviction raced the
    /// turn otherwise, and the orphaned state must stay discarded) and
    /// the observation is at least as new as the last committed one (two
    /// turns' reweighs can arrive out of order; a stale weight must not
    /// overwrite a newer one and under-count the budget) — refreshes the
    /// idle clock so a turn longer than the TTL does not expire the
    /// session it just extended, then enforces the byte budget.
    fn reweigh(&self, id: &str, slot: &Arc<Slot>, bytes: u64, turn: u64) {
        let mut inner = self.inner.lock().expect("session manager");
        let inner = &mut *inner;
        if let Some(entry) = inner.sessions.get_mut(id) {
            if Arc::ptr_eq(&entry.slot, slot) && turn >= entry.bytes_turn {
                inner.total_bytes = inner.total_bytes - entry.bytes + bytes;
                entry.bytes = bytes;
                entry.bytes_turn = turn;
                entry.last_used = Instant::now();
            }
        }
        if self.config.max_bytes > 0 {
            while inner.total_bytes > self.config.max_bytes {
                if !self.evict_lru_locked(inner) {
                    break;
                }
            }
        }
    }

    /// Evicts the least-recently-used session; false when the store is
    /// empty. O(live sessions) — the store holds client sessions, not
    /// cache lines, so a scan beats the bookkeeping of an intrusive list.
    fn evict_lru_locked(&self, inner: &mut Inner) -> bool {
        let victim = inner
            .sessions
            .iter()
            .min_by_key(|(_, entry)| entry.seq)
            .map(|(id, _)| id.clone());
        match victim {
            Some(id) => {
                let entry = inner.sessions.remove(&id).expect("victim resident");
                inner.total_bytes -= entry.bytes;
                self.note_eviction(&id, &entry.slot, Eviction::Pressure);
                true
            }
            None => false,
        }
    }

    /// Removes sessions idle past the TTL. Opportunistic (unforced)
    /// sweeps are rate-limited to one full scan per quarter-TTL, so the
    /// per-turn claim does not pay an O(live sessions) scan under the
    /// global lock on every query.
    fn sweep_locked(&self, inner: &mut Inner, now: Instant, force: bool) {
        let ttl = self.config.ttl;
        if ttl.is_zero() || (!force && now < inner.next_sweep) {
            return;
        }
        inner.next_sweep = now + ttl / 4;
        let total_bytes = &mut inner.total_bytes;
        inner.sessions.retain(|id, entry| {
            let live = now.duration_since(entry.last_used) <= ttl;
            if !live {
                *total_bytes -= entry.bytes;
                self.note_eviction(id, &entry.slot, Eviction::Ttl);
            }
            live
        });
    }

    /// Marks an evicted slot, counts a TTL or pressure eviction and
    /// reports it to the hook. Runs under the store lock, like every
    /// eviction.
    fn note_eviction(&self, id: &str, slot: &Slot, why: Eviction) {
        slot.evicted.store(true, Ordering::Relaxed);
        if let Some(hook) = &self.on_evict {
            let _order = self.report_order.lock().expect("report order");
            hook(id);
        }
        let reason = match why {
            Eviction::Ttl => {
                self.evicted_ttl.inc();
                "ttl"
            }
            Eviction::Pressure => {
                self.evicted_pressure.inc();
                "pressure"
            }
            Eviction::Panic => "panic",
        };
        self.recorder.instant("session_evict", |f| {
            f.push(("reason", reason.into()));
            f.push(("session", id.to_string().into()));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(config: SessionConfig) -> SessionManager {
        SessionManager::new(config, &Registry::new())
    }

    #[test]
    fn sessions_are_independent_and_sticky() {
        let m = manager(SessionConfig::default());
        let a1 = m.with_session("a", |s| {
            s.kb() as *const _ as usize // identity probe
        });
        let a2 = m.with_session("a", |s| s.kb() as *const _ as usize);
        let b = m.with_session("b", |s| s.kb() as *const _ as usize);
        assert_eq!(a1, a2, "same id must reuse the same session KB");
        assert_ne!(a1, b, "distinct ids must hold distinct KBs");
        assert_eq!(m.len(), 2);
        assert_eq!(m.stats().created, 2);
    }

    #[test]
    fn max_sessions_evicts_least_recently_used() {
        let m = manager(SessionConfig {
            max_sessions: 2,
            max_bytes: 0,
            ttl: Duration::ZERO,
            ..Default::default()
        });
        m.with_session("a", |_| ());
        m.with_session("b", |_| ());
        m.with_session("a", |_| ()); // touch: b is now LRU
        m.with_session("c", |_| ()); // evicts b
        assert_eq!(m.len(), 2);
        let stats = m.stats();
        assert_eq!(stats.evicted_pressure, 1);
        // b comes back cold, evicting a (LRU after c's touch).
        let turns = m.with_session("b", |s| s.turns());
        assert_eq!(turns, 0, "recreated session must start cold");
        assert_eq!(m.stats().created, 4);
    }

    #[test]
    fn ttl_sweep_expires_idle_sessions() {
        let m = manager(SessionConfig {
            ttl: Duration::from_millis(20),
            max_bytes: 0,
            max_sessions: 0,
            ..Default::default()
        });
        m.with_session("a", |_| ());
        assert_eq!(m.len(), 1);
        std::thread::sleep(Duration::from_millis(40));
        m.sweep();
        assert_eq!(m.len(), 0);
        assert_eq!(m.stats().evicted_ttl, 1);
    }

    #[test]
    fn equal_turn_weight_commit_tie_cannot_undercount_the_budget() {
        // Regression: weight commits are monotonic in the observed turn
        // number with ties allowed (`>=`, not `>`). Two observations of
        // the *same* turn can race — the turn's own reweigh and a
        // concurrent commit that read the slot between f() and the
        // manager lock — and whichever lands last must still commit:
        // with a strict `>` the later (authoritative) observation would
        // be dropped and the byte budget would under-count the resident
        // KB until the next turn.
        let m = manager(SessionConfig {
            max_bytes: 0,
            ttl: Duration::ZERO,
            max_sessions: 0,
            ..Default::default()
        });
        let slot = m.claim("a", true).expect("created");
        let base = m.stats().approx_bytes;
        // Turn 1's first observation.
        m.reweigh("a", &slot, base + 100, 1);
        assert_eq!(m.stats().approx_bytes, base + 100);
        // A tied (equal-turn) re-observation with the larger, newer
        // weight must commit.
        m.reweigh("a", &slot, base + 120, 1);
        assert_eq!(
            m.stats().approx_bytes,
            base + 120,
            "an equal-turn commit must not be dropped"
        );
        // A genuinely stale observation (older turn) must not regress it.
        m.reweigh("a", &slot, base + 10, 0);
        assert_eq!(m.stats().approx_bytes, base + 120);
        // An observation against a slot the id no longer maps to (the
        // eviction-raced orphan) is discarded entirely.
        let orphan = Arc::new(Slot::new(SessionKb::new()));
        m.reweigh("a", &orphan, base + 999, 5);
        assert_eq!(m.stats().approx_bytes, base + 120);
    }

    #[test]
    fn every_eviction_reaches_the_hook() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = log.clone();
        let m = manager(SessionConfig {
            max_sessions: 2,
            max_bytes: 0,
            ttl: Duration::from_millis(200),
            ..Default::default()
        })
        .with_eviction_hook(move |id| sink.lock().unwrap().push(id.to_string()));
        m.with_session("a", |_| ());
        m.with_session("b", |_| ());
        m.with_session("c", |_| ()); // the cap evicts a
        assert_eq!(*log.lock().unwrap(), ["a"]);
        std::thread::sleep(Duration::from_millis(300));
        m.sweep(); // the TTL expires b and c
        let mut swept = log.lock().unwrap().split_off(1);
        swept.sort();
        assert_eq!(swept, ["b", "c"]);
        let stats = m.stats();
        assert_eq!((stats.evicted_pressure, stats.evicted_ttl), (1, 2));
    }

    #[test]
    fn with_resident_never_creates_a_session() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = log.clone();
        let m = manager(SessionConfig {
            ttl: Duration::from_millis(100),
            ..Default::default()
        })
        .with_eviction_hook(move |id| sink.lock().unwrap().push(id.to_string()));
        assert_eq!(m.with_resident("a", |_| ()), None);
        assert!(m.is_empty() && m.stats().created == 0);
        m.with_session("a", |_| ());
        assert_eq!(m.with_resident("a", |_| 7), Some(7));
        // Idle past the TTL: expired like any claim would, not revived.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(m.with_resident("a", |_| ()), None);
        assert!(m.is_empty());
        assert_eq!(*log.lock().unwrap(), ["a"]);
        assert_eq!(m.stats().created, 1);
    }

    #[test]
    fn stats_note_turn_splits_cold_and_extended() {
        let registry = Registry::new();
        let m = SessionManager::new(SessionConfig::default(), &registry);
        m.note_turn(&TurnReport {
            cold: true,
            merged: 3,
            deduped: 0,
            ..Default::default()
        });
        m.note_turn(&TurnReport {
            cold: false,
            merged: 1,
            deduped: 2,
            ..Default::default()
        });
        let stats = m.stats();
        assert_eq!((stats.turns_cold, stats.turns_extended), (1, 1));
        assert_eq!((stats.docs_merged, stats.docs_deduped), (4, 2));
        assert_eq!(stats.turns(), 2);
        assert!((stats.dedup_rate() - 2.0 / 6.0).abs() < 1e-12);
        // One registry reset zeroes the store's counters; occupancy is
        // read from the store, so it is untouched.
        registry.reset();
        assert_eq!(m.stats().turns(), 0);
    }
}
