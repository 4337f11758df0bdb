//! Write-ahead session journal: crash-safe durability for session KBs.
//!
//! Every committed session turn appends one checksummed [`TurnRecord`]
//! (session id, turn sequence number, retrieved document ids, the
//! fingerprint of their texts) to a segmented log. On a warm restart the
//! records are replayed through the exact streaming path an
//! uninterrupted server would have taken (`SessionKb::extend` →
//! `Qkbfly::stream_into_kb`), so recovered sessions are **byte-identical**
//! to ones that never crashed (`tests/journal_replay.rs` proves this by
//! truncating journals at arbitrary record boundaries).
//!
//! ## Why the journal stores ids, not KBs
//!
//! The KB build is deterministic: a session KB is a pure function of the
//! distinct document texts streamed in, in first-arrival order. Logging
//! the *inputs* (document ids + a fingerprint of their texts to detect a
//! changed corpus) is therefore enough, keeps records tiny, and reuses
//! the production extend path for recovery — there is no second
//! serialization format for KBs that could drift from the builder.
//!
//! ## Ordering contract
//!
//! [`SessionJournal`] implements [`qkb_serve::TurnLog`], whose hook runs
//! *inside* the session slot lock, after the extend commits. Append order
//! in the journal therefore equals merge order into each session KB, and
//! replaying records in file order reproduces every session exactly.
//!
//! The session store reports every TTL or pressure eviction through the
//! same hook as an *eviction record*, under the store's lock, and a turn
//! that commits on a slot evicted while it ran is not journaled at all
//! (the two rules are spelled out on [`qkb_serve::TurnLog`]). Replay
//! applies an eviction record as a drop, so an evicted session stays
//! evicted after a crash.
//!
//! ## Segments, snapshots and truncation
//!
//! Appends go to `seg-N.qkj` files; a segment ends only when a snapshot
//! starts a fresh one. The journal keeps its compacted history per live
//! session: the records since the session's last cold turn. A cold
//! record restarts one session's history and an eviction record drops
//! it, each in O(1). A *snapshot* (`snap-N.qkj`) writes that history —
//! the live sessions' records only, in append order — via tmp-file +
//! rename, after which all older segments and snapshots are deleted.
//! With snapshots off (`snapshot_every` 0) every record stays in one
//! segment, and no file is ever deleted. Recovery reads the
//! newest intact snapshot plus every segment numbered above it; a torn
//! tail (truncated or checksum-failing record) ends that file's replay
//! and is counted, never decoded.
//!
//! The writer never appends at or below the newest snapshot: a snapshot
//! opens its fresh segment before it publishes itself. The journal
//! directory is fsynced after a segment is created and after a
//! snapshot's rename, before any file is deleted.

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES};
use qkb_obs::{Counter, Registry, RegistrySnapshot};
use qkb_serve::{LoggedTurn, TurnLog};
use qkb_util::bytes::{self, Cursor};
use qkb_util::json::Value;
use qkb_util::FxHashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal frame kind: one committed session turn or one eviction.
const REC_TURN: u8 = 1;

/// Flag bits of a record's flags byte.
const FLAG_COLD: u8 = 1;
const FLAG_EVICTED: u8 = 2;

/// One durable session turn: everything needed to re-run it. Or, with
/// `evicted` set, one session eviction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TurnRecord {
    /// The session the turn extended, or the store evicted.
    pub session_id: String,
    /// The session's turn sequence number after this turn (1-based; 0 in
    /// an eviction record).
    pub turn: u64,
    /// True when the session KB was empty before this turn — replay of
    /// this session starts here, discarding any earlier records.
    pub cold: bool,
    /// True for an eviction record: the store dropped the session, and
    /// replay drops its history. Such a record has no documents.
    pub evicted: bool,
    /// Corpus ids of the documents retrieved for the turn, in the order
    /// they were streamed into the KB.
    pub doc_ids: Vec<u64>,
    /// `fingerprint_seq` over the documents' texts — replay verifies the
    /// corpus still yields the same bytes before trusting the ids.
    pub docs_fingerprint: u64,
}

impl TurnRecord {
    /// The eviction record of `session_id`.
    pub fn eviction(session_id: impl Into<String>) -> Self {
        Self {
            session_id: session_id.into(),
            turn: 0,
            cold: false,
            evicted: true,
            doc_ids: Vec::new(),
            docs_fingerprint: 0,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        bytes::put_str(&mut buf, &self.session_id);
        bytes::put_u64(&mut buf, self.turn);
        let flags =
            if self.cold { FLAG_COLD } else { 0 } | if self.evicted { FLAG_EVICTED } else { 0 };
        bytes::put_u8(&mut buf, flags);
        bytes::put_u64(&mut buf, self.docs_fingerprint);
        bytes::put_u32(&mut buf, self.doc_ids.len() as u32);
        for &id in &self.doc_ids {
            bytes::put_u64(&mut buf, id);
        }
        buf
    }

    fn decode(payload: &[u8], max_len: usize) -> Result<TurnRecord, bytes::DecodeError> {
        let mut c = Cursor::new(payload, max_len);
        let session_id = c.str()?;
        let turn = c.u64()?;
        let flags = c.u8()?;
        let docs_fingerprint = c.u64()?;
        let n = c.u32()? as usize;
        if n > max_len {
            return Err(bytes::DecodeError::TooLong {
                declared: n,
                max: max_len,
            });
        }
        let mut doc_ids = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            doc_ids.push(c.u64()?);
        }
        c.finish()?;
        Ok(TurnRecord {
            session_id,
            turn,
            cold: flags & FLAG_COLD != 0,
            evicted: flags & FLAG_EVICTED != 0,
            doc_ids,
            docs_fingerprint,
        })
    }
}

/// Durability knobs for [`SessionJournal`].
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding `seg-*.qkj` / `snap-*.qkj` files (created if
    /// missing).
    pub dir: PathBuf,
    /// Write a snapshot (and truncate older files) every this many turn
    /// records; `0` disables snapshots. Eviction records do not count:
    /// replaying one costs a map removal, not an extend.
    pub snapshot_every: u64,
    /// `fsync` the segment after every turn record. Turning this off
    /// trades the tail of the log on power loss for throughput; process
    /// crashes still lose nothing once the OS has the bytes. Eviction
    /// records are never fsynced on their own: the next turn record's
    /// fsync, or the seal of their segment, covers them.
    pub fsync: bool,
    /// Maximum record payload accepted when reading files back.
    pub max_record_bytes: u32,
}

impl JournalConfig {
    /// Defaults tuned for tests and small deployments: a snapshot (and
    /// with it a fresh segment) every 256 turn records, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 256,
            fsync: true,
            max_record_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// What recovery found on disk.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Compacted replayable turns in original append order: for each
    /// session not evicted, the suffix from its last cold turn.
    pub turns: Vec<TurnRecord>,
    /// True when a snapshot file seeded the history.
    pub from_snapshot: bool,
}

struct Inner {
    writer: BufWriter<File>,
    /// Number of the segment currently being appended to.
    seg_no: u64,
    /// Turn records appended since the last snapshot.
    appends_since_snapshot: u64,
    /// Compacted live history — what a snapshot writes.
    history: History,
}

/// The compacted history, kept per live session: its records since its
/// last cold turn, each tagged with its append sequence number so a
/// snapshot can write every session's records in append order.
#[derive(Default)]
struct History {
    sessions: FxHashMap<String, Vec<(u64, TurnRecord)>>,
    next_seq: u64,
}

impl History {
    /// Applies one record in O(1) (amortized over the records it drops):
    /// an eviction drops the session's history, a cold turn restarts it,
    /// any other turn extends it.
    fn apply(&mut self, rec: TurnRecord) {
        if rec.evicted {
            self.sessions.remove(&rec.session_id);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let records = self.sessions.entry(rec.session_id.clone()).or_default();
        if rec.cold {
            records.clear();
        }
        records.push((seq, rec));
    }

    /// Every live session's records, in append order.
    fn records(&self) -> Vec<&TurnRecord> {
        let mut all: Vec<&(u64, TurnRecord)> = self.sessions.values().flatten().collect();
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, rec)| rec).collect()
    }
}

/// The write-ahead session journal. Cheap to share behind an `Arc`;
/// appends serialize on an internal mutex (they are already serialized
/// per session by the slot lock, and cross-session contention is one
/// buffered write + optional fsync).
pub struct SessionJournal {
    config: JournalConfig,
    inner: Mutex<Inner>,
    /// Where the counters below live; [`SessionJournal::stats`] reads it.
    registry: Registry,
    appends: Counter,
    appended_bytes: Counter,
    fsyncs: Counter,
    snapshots: Counter,
    snapshot_records: Counter,
    io_errors: Counter,
    last_error: Mutex<Option<String>>,
}

/// Point-in-time journal counters, read by name from a registry
/// snapshot: counts since open or since that registry's last reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// Payload + header bytes appended.
    pub appended_bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Snapshots written (each truncates older files).
    pub snapshots: u64,
    /// Records written into snapshots: the live sessions' histories.
    pub snapshot_records: u64,
    /// Torn tails dropped during recovery (counted at open).
    pub torn_tails: u64,
    /// Intact records read during recovery (counted at open).
    pub recovered_records: u64,
    /// Append-path I/O errors (the journal keeps trying; see
    /// [`SessionJournal::last_error`]).
    pub io_errors: u64,
}

impl JournalStats {
    /// The journal's eight counters out of `snap`; panics if the journal
    /// never registered them there.
    pub(crate) fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        let c = |name: &str| snap.expect_counter(name);
        Self {
            appends: c("journal_appends_total"),
            appended_bytes: c("journal_appended_bytes_total"),
            fsyncs: c("journal_fsyncs_total"),
            snapshots: c("journal_snapshots_total"),
            snapshot_records: c("journal_snapshot_records_total"),
            torn_tails: c("journal_torn_tails_total"),
            recovered_records: c("journal_recovered_records_total"),
            io_errors: c("journal_io_errors_total"),
        }
    }

    /// JSON rendering for stats endpoints and benchmark reports.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("appends", self.appends)
            .with("appended_bytes", self.appended_bytes)
            .with("fsyncs", self.fsyncs)
            .with("snapshots", self.snapshots)
            .with("snapshot_records", self.snapshot_records)
            .with("torn_tails", self.torn_tails)
            .with("recovered_records", self.recovered_records)
            .with("io_errors", self.io_errors)
    }
}

fn seg_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("seg-{n:08}.qkj"))
}

fn snap_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("snap-{n:08}.qkj"))
}

/// Parses `seg-N.qkj` / `snap-N.qkj` names; returns `(is_snapshot, N)`.
fn parse_name(name: &str) -> Option<(bool, u64)> {
    let rest = name.strip_suffix(".qkj")?;
    if let Some(n) = rest.strip_prefix("seg-") {
        return n.parse().ok().map(|n| (false, n));
    }
    if let Some(n) = rest.strip_prefix("snap-") {
        return n.parse().ok().map(|n| (true, n));
    }
    None
}

/// Creates segment `n` for appending; it must not exist yet.
fn create_segment(dir: &Path, n: u64) -> io::Result<BufWriter<File>> {
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(seg_path(dir, n))?;
    Ok(BufWriter::new(file))
}

/// Reads every intact record of one file; returns `(records, torn)`.
/// A torn record ends the file — everything after it is unreachable
/// (frame boundaries are gone), which for a crash-truncated tail is
/// exactly the committed prefix.
fn read_records(path: &Path, max: u32) -> io::Result<(Vec<TurnRecord>, bool)> {
    let mut r = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    loop {
        match frame::read_frame(&mut r, max) {
            Ok(f) if f.kind == REC_TURN => match TurnRecord::decode(&f.payload, max as usize) {
                Ok(rec) => out.push(rec),
                // A checksum-valid frame whose payload does not decode is
                // a version/corruption mismatch — treat as torn.
                Err(_) => return Ok((out, true)),
            },
            // Unknown kind: written by a future version; stop cleanly.
            Ok(_) => return Ok((out, true)),
            Err(FrameError::UnexpectedEof { clean_eof: true }) => return Ok((out, false)),
            Err(FrameError::Io(e)) => return Err(e),
            // Truncated, oversized or checksum-failing tail.
            Err(_) => return Ok((out, true)),
        }
    }
}

impl SessionJournal {
    /// Opens (or creates) the journal at `config.dir`, recovering the
    /// replayable history from disk. Registers its counters under
    /// `journal_*` names in `registry`, and counts recovery's torn tails
    /// and intact records there. Appends always go to a fresh segment
    /// numbered above everything recovered — existing files are never
    /// appended to, so a torn tail can only be the crash site.
    pub fn open(config: JournalConfig, registry: &Registry) -> io::Result<(Self, Recovery)> {
        let torn_tails = registry.counter("journal_torn_tails_total");
        let records_read = registry.counter("journal_recovered_records_total");
        fs::create_dir_all(&config.dir)?;
        let mut segs = Vec::new();
        let mut snaps = Vec::new();
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                match parse_name(name) {
                    Some((true, n)) => snaps.push(n),
                    Some((false, n)) => segs.push(n),
                    None => {}
                }
            }
        }
        segs.sort_unstable();
        snaps.sort_unstable();

        let mut history = History::default();
        // Newest intact snapshot seeds the history; a torn snapshot is
        // ignored entirely (the segments it would have replaced are only
        // deleted after a snapshot is fully written and synced, so an
        // older snapshot + more segments still cover the same state).
        let mut base = None;
        for &n in snaps.iter().rev() {
            let (records, torn) =
                read_records(&snap_path(&config.dir, n), config.max_record_bytes)?;
            if !torn {
                records_read.add(records.len() as u64);
                for rec in records {
                    history.apply(rec);
                }
                base = Some(n);
                break;
            }
            torn_tails.inc();
        }
        for &n in &segs {
            if Some(n) <= base {
                continue;
            }
            let (records, torn) = read_records(&seg_path(&config.dir, n), config.max_record_bytes)?;
            records_read.add(records.len() as u64);
            torn_tails.add(torn as u64);
            for rec in records {
                history.apply(rec);
            }
        }
        let recovery = Recovery {
            turns: history.records().into_iter().cloned().collect(),
            from_snapshot: base.is_some(),
        };

        let next = segs
            .last()
            .copied()
            .max(snaps.last().copied())
            .map_or(0, |n| n + 1);
        let writer = create_segment(&config.dir, next)?;

        let journal = Self {
            inner: Mutex::new(Inner {
                writer,
                seg_no: next,
                appends_since_snapshot: 0,
                history,
            }),
            appends: registry.counter("journal_appends_total"),
            appended_bytes: registry.counter("journal_appended_bytes_total"),
            fsyncs: registry.counter("journal_fsyncs_total"),
            snapshots: registry.counter("journal_snapshots_total"),
            snapshot_records: registry.counter("journal_snapshot_records_total"),
            io_errors: registry.counter("journal_io_errors_total"),
            registry: registry.clone(),
            config,
            last_error: Mutex::new(None),
        };
        journal.sync_dir()?;
        Ok((journal, recovery))
    }

    /// Appends one record: a turn record durably, an eviction record
    /// written and flushed but not fsynced. Errors are absorbed into
    /// counters — the serving path must not crash because the disk
    /// hiccuped — and surfaced via [`SessionJournal::last_error`].
    pub fn append(&self, rec: TurnRecord) {
        let mut inner = self.inner.lock().expect("journal writer");
        if let Err(e) = self.append_locked(&mut inner, rec) {
            self.io_errors.inc();
            *self.last_error.lock().expect("journal error slot") = Some(e.to_string());
        }
    }

    fn append_locked(&self, inner: &mut Inner, rec: TurnRecord) -> io::Result<()> {
        let payload = rec.encode();
        let bytes = frame::encode(REC_TURN, &payload);
        inner.writer.write_all(&bytes)?;
        inner.writer.flush()?;
        // An eviction record sits earlier in this segment than the next
        // turn record, whose fsync covers it (so does the segment's seal).
        let turn = !rec.evicted;
        if self.config.fsync && turn {
            self.fsync(inner.writer.get_ref())?;
        }
        self.appends.inc();
        self.appended_bytes.add(bytes.len() as u64);
        inner.history.apply(rec);
        inner.appends_since_snapshot += turn as u64;

        if self.config.snapshot_every > 0
            && inner.appends_since_snapshot >= self.config.snapshot_every
        {
            self.snapshot_locked(inner)?;
        }
        Ok(())
    }

    /// Issues one `fsync` on `file`, counting it whatever it returns.
    fn fsync(&self, file: &File) -> io::Result<()> {
        self.fsyncs.inc();
        file.sync_all()
    }

    /// Fsyncs the journal directory, making its entries (a created
    /// segment, a renamed snapshot) durable.
    fn sync_dir(&self) -> io::Result<()> {
        self.fsync(&File::open(&self.config.dir)?)
    }

    /// Seals the current segment (flush + fsync) and moves the writer to
    /// a freshly created segment `n`.
    fn switch_segment(&self, inner: &mut Inner, n: u64) -> io::Result<()> {
        inner.writer.flush()?;
        self.fsync(inner.writer.get_ref())?;
        inner.writer = create_segment(&self.config.dir, n)?;
        inner.seg_no = n;
        Ok(())
    }

    /// Writes the live sessions' history as `snap-K.qkj` (tmp + fsync +
    /// rename), then deletes every older segment and snapshot. Appends
    /// move to segment K+1 before the snapshot is published, so the
    /// writer never appends below it; one directory fsync then makes the
    /// new segment and the rename durable before anything is deleted.
    fn snapshot_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let old_seg = inner.seg_no;
        let snap_no = old_seg + 1;
        self.switch_segment(inner, snap_no + 1)?;

        let tmp = self.config.dir.join("snap.tmp");
        let records = inner.history.records();
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for rec in &records {
                frame::write_frame(&mut w, REC_TURN, &rec.encode())?;
            }
            w.flush()?;
            self.fsync(w.get_ref())?;
        }
        fs::rename(&tmp, snap_path(&self.config.dir, snap_no))?;
        self.sync_dir()?;
        self.snapshots.inc();
        self.snapshot_records.add(records.len() as u64);
        inner.appends_since_snapshot = 0;

        for entry in fs::read_dir(&self.config.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                let stale = match parse_name(name) {
                    Some((true, n)) => n < snap_no,
                    Some((false, n)) => n <= old_seg,
                    None => false,
                };
                if stale {
                    // Best-effort: a leftover file is re-deleted by the
                    // next snapshot and harmless to recovery.
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Flushes and fsyncs the current segment (shutdown path).
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("journal writer");
        inner.writer.flush()?;
        self.fsync(inner.writer.get_ref())
    }

    /// Current counters, read from the registry the journal counts in.
    pub fn stats(&self) -> JournalStats {
        JournalStats::from_snapshot(&self.registry.snapshot())
    }

    /// The most recent append-path error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().expect("journal error slot").clone()
    }
}

impl TurnLog for SessionJournal {
    fn log_turn(&self, turn: &LoggedTurn<'_>) {
        self.append(TurnRecord {
            session_id: turn.session_id.to_string(),
            turn: turn.turn,
            cold: turn.cold,
            evicted: turn.evicted,
            doc_ids: turn.doc_ids.iter().map(|&id| id as u64).collect(),
            docs_fingerprint: turn.docs_fingerprint,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qkb_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(session: &str, turn: u64, cold: bool, ids: &[u64]) -> TurnRecord {
        TurnRecord {
            session_id: session.into(),
            turn,
            cold,
            evicted: false,
            doc_ids: ids.to_vec(),
            docs_fingerprint: 0xfeed + turn,
        }
    }

    fn open(dir: &Path, config: impl FnOnce(&mut JournalConfig)) -> (SessionJournal, Recovery) {
        let mut cfg = JournalConfig::new(dir);
        cfg.fsync = false; // tests don't need physical durability
        config(&mut cfg);
        SessionJournal::open(cfg, &Registry::new()).unwrap()
    }

    /// The (session, turn) pairs `rev` recovered, in order.
    fn turns(rev: &Recovery) -> Vec<(&str, u64)> {
        rev.turns
            .iter()
            .map(|r| (r.session_id.as_str(), r.turn))
            .collect()
    }

    #[test]
    fn record_roundtrip() {
        for r in [
            rec("explorer", 3, false, &[1, 2, 99]),
            rec("explorer", 1, true, &[4]),
            TurnRecord::eviction("explorer"),
        ] {
            assert_eq!(TurnRecord::decode(&r.encode(), 1 << 20).unwrap(), r);
        }
    }

    #[test]
    fn append_then_reopen_recovers_in_order() {
        let dir = tmp_dir("reopen");
        {
            let (j, rev) = open(&dir, |_| {});
            assert!(rev.turns.is_empty());
            j.append(rec("a", 1, true, &[0]));
            j.append(rec("b", 1, true, &[1, 2]));
            j.append(rec("a", 2, false, &[3]));
        }
        let (j, rev) = open(&dir, |_| {});
        assert_eq!(turns(&rev), vec![("a", 1), ("b", 1), ("a", 2)]);
        assert_eq!(j.stats().torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_record_resets_a_sessions_history() {
        let dir = tmp_dir("cold_reset");
        {
            let (j, _) = open(&dir, |_| {});
            j.append(rec("a", 1, true, &[0]));
            j.append(rec("a", 2, false, &[1]));
            // Session evicted and re-created: a new cold turn.
            j.append(rec("a", 1, true, &[7]));
            j.append(rec("b", 1, true, &[9]));
        }
        let (_, rev) = open(&dir, |_| {});
        let got: Vec<_> = rev
            .turns
            .iter()
            .map(|r| (r.session_id.as_str(), r.doc_ids.clone()))
            .collect();
        assert_eq!(got, vec![("a", vec![7]), ("b", vec![9])]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let dir = tmp_dir("torn");
        {
            let (j, _) = open(&dir, |_| {});
            j.append(rec("a", 1, true, &[0]));
            j.append(rec("a", 2, false, &[1]));
        }
        // Truncate the newest segment mid-record.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
            .max()
            .unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (j, rev) = open(&dir, |_| {});
        assert_eq!(rev.turns.len(), 1);
        assert_eq!(rev.turns[0].turn, 1);
        assert_eq!(j.stats().torn_tails, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_old_segments_and_drops_dead_sessions() {
        let dir = tmp_dir("snap");
        {
            // The 13th turn record snapshots.
            let (j, _) = open(&dir, |c| c.snapshot_every = 13);
            for t in 1..=6 {
                j.append(rec("a", t, t == 1, &[t]));
                j.append(rec("dead", t, t == 1, &[100 + t]));
            }
            j.append(TurnRecord::eviction("dead"));
            assert_eq!(j.stats().snapshots, 0, "eviction records do not count");
            j.append(rec("a", 7, false, &[7]));
            let stats = j.stats();
            assert_eq!(stats.snapshots, 1);
            assert_eq!(stats.snapshot_records, 7, "a's records only");
            // More appends after the snapshot land in the fresh segment.
            j.append(rec("a", 8, false, &[8]));
        }
        // Only the snapshot and the post-snapshot segment remain.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".qkj"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "old files pruned: {names:?}");
        assert!(names[0].starts_with("seg-") && names[1].starts_with("snap-"));
        let (_, rev) = open(&dir, |_| {});
        assert!(rev.from_snapshot);
        assert_eq!(turns(&rev), (1..=8).map(|t| ("a", t)).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_writes_only_the_live_sessions() {
        // 8 sessions of 2 turns each, then all but k = 3 evicted: the
        // next snapshot writes the 3 live sessions' records and nothing
        // of the 5 evicted ones.
        let dir = tmp_dir("snap_bound");
        {
            let (j, _) = open(&dir, |c| {
                c.fsync = true;
                c.snapshot_every = 20;
            });
            for t in 1..=2 {
                for s in 0..8 {
                    j.append(rec(&format!("s{s}"), t, t == 1, &[s * 10 + t]));
                }
            }
            let before = j.stats();
            for s in 3..8 {
                j.append(TurnRecord::eviction(format!("s{s}")));
            }
            let after = j.stats();
            assert_eq!(after.appends - before.appends, 5);
            assert_eq!(
                after.fsyncs, before.fsyncs,
                "an eviction record adds no fsync"
            );
            // Turns 17..=20 on the live sessions; the 20th snapshots.
            for (s, t) in [("s0", 3), ("s1", 3), ("s2", 3), ("s0", 4)] {
                j.append(rec(s, t, false, &[t]));
            }
            let snap = j.stats();
            assert_eq!(snap.snapshots, 1);
            assert_eq!(snap.snapshot_records - after.snapshot_records, 3 * 2 + 4);
        }
        let (_, rev) = open(&dir, |_| {});
        assert!(rev.from_snapshot);
        let mut want: Vec<(&str, u64)> = (1..=3)
            .flat_map(|t| ["s0", "s1", "s2"].map(|s| (s, t)))
            .collect();
        want.push(("s0", 4));
        assert_eq!(turns(&rev), want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_never_land_below_the_newest_snapshot() {
        // The snapshot after append 2 is numbered 1 and wants segment 2
        // for the appends after it. Segment 2 already exists, so the
        // snapshot fails; it must fail before it publishes itself, or
        // append 3 would go to segment 0, below the snapshot, where
        // recovery never reads.
        let dir = tmp_dir("below_snap");
        {
            let (j, _) = open(&dir, |c| c.snapshot_every = 2);
            File::create(seg_path(&dir, 2)).unwrap();
            for t in 1..=3 {
                j.append(rec("a", t, t == 1, &[t]));
            }
            let stats = j.stats();
            assert_eq!((stats.snapshots, stats.io_errors), (0, 2), "{stats:?}");
        }
        let (_, rev) = open(&dir, |_| {});
        assert_eq!(turns(&rev), vec![("a", 1), ("a", 2), ("a", 3)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_kicks_in_by_append_count() {
        let dir = tmp_dir("auto_snap");
        {
            let (j, _) = open(&dir, |c| c.snapshot_every = 4);
            for t in 1..=9 {
                j.append(rec("s", t, t == 1, &[t]));
            }
            assert_eq!(j.stats().snapshots, 2);
        }
        let (_, rev) = open(&dir, |_| {});
        assert_eq!(rev.turns.len(), 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fsync_is_counted() {
        // Open creates segment 0 and fsyncs the directory: 1. Then 9
        // appends with a snapshot every 4: appends 4 and 8 snapshot (3
        // fsyncs each: the sealed segment, the snapshot file and the
        // directory). 1 + 2 * 3 = 7, plus one per append with fsync on:
        // 7 + 9 = 16.
        for (fsync, expected) in [(false, 7), (true, 7 + 9)] {
            let dir = tmp_dir(&format!("fsyncs_{fsync}"));
            let (j, _) = open(&dir, |c| {
                c.fsync = fsync;
                c.snapshot_every = 4;
            });
            for t in 1..=9 {
                j.append(rec("s", t, t == 1, &[t]));
            }
            let stats = j.stats();
            assert_eq!(stats.snapshots, 2, "{stats:?}");
            assert_eq!(stats.fsyncs, expected, "fsync per append: {fsync}");
            j.sync().unwrap();
            assert_eq!(j.stats().fsyncs, expected + 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_snapshot_is_ignored_in_favour_of_segments() {
        let dir = tmp_dir("torn_snap");
        {
            let (j, _) = open(&dir, |_| {});
            j.append(rec("a", 1, true, &[1]));
            j.append(rec("a", 2, false, &[2]));
        }
        // Forge a torn snapshot newer than every segment: recovery must
        // skip it and fall back to the intact segments.
        let bogus = frame::encode(REC_TURN, &rec("x", 1, true, &[5]).encode());
        fs::write(snap_path(&dir, 99), &bogus[..bogus.len() - 3]).unwrap();
        let (_, rev) = open(&dir, |_| {});
        assert!(!rev.from_snapshot);
        assert_eq!(rev.turns.len(), 2);
        assert!(rev.turns.iter().all(|r| r.session_id == "a"));
        let _ = fs::remove_dir_all(&dir);
    }
}
