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
//! ## Segments, snapshots and truncation
//!
//! Appends go to `seg-N.qkj` files, rotated at a size threshold. A
//! *snapshot* (`snap-N.qkj`) rewrites the compacted history — for every
//! session journaled so far, evicted ones included (the journal is not
//! told of evictions), only the records since its last cold turn — via
//! tmp-file + rename, after which all older segments and snapshots are
//! deleted. Recovery reads the newest intact snapshot plus every segment
//! numbered above it; a torn tail (truncated or checksum-failing record)
//! ends that file's replay and is counted, never decoded.
//!
//! A *cold* record (the session's KB was empty before the turn) resets
//! that session's replayable history: after eviction and re-creation
//! under the same id, only the suffix from the latest cold turn is
//! replayed, which is exactly the content of the live session.

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES};
use qkb_obs::{Counter, Registry, RegistrySnapshot};
use qkb_serve::{LoggedTurn, TurnLog};
use qkb_util::bytes::{self, Cursor};
use qkb_util::json::Value;
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal frame kind: one committed session turn.
const REC_TURN: u8 = 1;

/// One durable session turn: everything needed to re-run it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TurnRecord {
    /// The session the turn extended.
    pub session_id: String,
    /// The session's turn sequence number after this turn (1-based).
    pub turn: u64,
    /// True when the session KB was empty before this turn — replay of
    /// this session starts here, discarding any earlier records.
    pub cold: bool,
    /// Corpus ids of the documents retrieved for the turn, in the order
    /// they were streamed into the KB.
    pub doc_ids: Vec<u64>,
    /// `fingerprint_seq` over the documents' texts — replay verifies the
    /// corpus still yields the same bytes before trusting the ids.
    pub docs_fingerprint: u64,
}

impl TurnRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        bytes::put_str(&mut buf, &self.session_id);
        bytes::put_u64(&mut buf, self.turn);
        bytes::put_u8(&mut buf, self.cold as u8);
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
        let cold = c.u8()? != 0;
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
            cold,
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
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes.
    pub segment_max_bytes: u64,
    /// Write a snapshot (and truncate older files) every this many
    /// appends; `0` disables automatic snapshots (explicit
    /// [`SessionJournal::snapshot_retaining`] still works).
    pub snapshot_every: u64,
    /// `fsync` the segment after every append. Turning this off trades
    /// the tail of the log on power loss for throughput; process crashes
    /// still lose nothing once the OS has the bytes.
    pub fsync: bool,
    /// Maximum record payload accepted when reading files back.
    pub max_record_bytes: u32,
}

impl JournalConfig {
    /// Defaults tuned for tests and small deployments: 1 MiB segments,
    /// snapshot every 256 appends, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            snapshot_every: 256,
            fsync: true,
            max_record_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// What recovery found on disk.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Compacted replayable turns in original append order (per session:
    /// the suffix from its last cold turn).
    pub turns: Vec<TurnRecord>,
    /// True when a snapshot file seeded the history.
    pub from_snapshot: bool,
}

struct Inner {
    writer: BufWriter<File>,
    /// Number of the segment currently being appended to.
    seg_no: u64,
    /// Bytes appended to the current segment.
    seg_bytes: u64,
    /// Appends since the last snapshot.
    appends_since_snapshot: u64,
    /// Compacted live history in append order — what a snapshot writes.
    history: Vec<TurnRecord>,
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
    rotations: Counter,
    snapshots: Counter,
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
    /// Segment rotations.
    pub rotations: u64,
    /// Snapshots written (each truncates older files).
    pub snapshots: u64,
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
            rotations: c("journal_rotations_total"),
            snapshots: c("journal_snapshots_total"),
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
            .with("rotations", self.rotations)
            .with("snapshots", self.snapshots)
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

/// Applies one record to a compacted history: a cold turn discards the
/// session's earlier records (they are no longer replayable state).
fn apply(history: &mut Vec<TurnRecord>, rec: TurnRecord) {
    if rec.cold {
        history.retain(|r| r.session_id != rec.session_id);
    }
    history.push(rec);
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

        let mut history: Vec<TurnRecord> = Vec::new();
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
                    apply(&mut history, rec);
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
                apply(&mut history, rec);
            }
        }
        let recovery = Recovery {
            turns: history.clone(),
            from_snapshot: base.is_some(),
        };

        let next = segs
            .last()
            .copied()
            .max(snaps.last().copied())
            .map_or(0, |n| n + 1);
        let writer = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(seg_path(&config.dir, next))?,
        );

        let journal = Self {
            inner: Mutex::new(Inner {
                writer,
                seg_no: next,
                seg_bytes: 0,
                appends_since_snapshot: 0,
                history,
            }),
            appends: registry.counter("journal_appends_total"),
            appended_bytes: registry.counter("journal_appended_bytes_total"),
            fsyncs: registry.counter("journal_fsyncs_total"),
            rotations: registry.counter("journal_rotations_total"),
            snapshots: registry.counter("journal_snapshots_total"),
            io_errors: registry.counter("journal_io_errors_total"),
            registry: registry.clone(),
            config,
            last_error: Mutex::new(None),
        };
        Ok((journal, recovery))
    }

    /// Appends one record durably. Errors are absorbed into counters —
    /// the serving path must not crash because the disk hiccuped — and
    /// surfaced via [`SessionJournal::last_error`].
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
        if self.config.fsync {
            self.fsync(inner.writer.get_ref())?;
        }
        inner.seg_bytes += bytes.len() as u64;
        self.appends.inc();
        self.appended_bytes.add(bytes.len() as u64);
        apply(&mut inner.history, rec);
        inner.appends_since_snapshot += 1;

        if self.config.snapshot_every > 0
            && inner.appends_since_snapshot >= self.config.snapshot_every
        {
            self.snapshot_locked(inner, None)?;
        } else if inner.seg_bytes >= self.config.segment_max_bytes {
            self.rotate_locked(inner)?;
        }
        Ok(())
    }

    /// Issues one `fsync` on `file`, counting it whatever it returns.
    fn fsync(&self, file: &File) -> io::Result<()> {
        self.fsyncs.inc();
        file.sync_all()
    }

    fn rotate_locked(&self, inner: &mut Inner) -> io::Result<()> {
        inner.writer.flush()?;
        self.fsync(inner.writer.get_ref())?;
        let next = inner.seg_no + 1;
        inner.writer = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(seg_path(&self.config.dir, next))?,
        );
        inner.seg_no = next;
        inner.seg_bytes = 0;
        self.rotations.inc();
        Ok(())
    }

    /// Writes the compacted history as `snap-K.qkj` (tmp + rename +
    /// fsync), then deletes every older segment and snapshot. `live`,
    /// when given, first prunes history to those session ids — the
    /// caller's view of which sessions still exist (evicted sessions'
    /// records stop being carried forward).
    fn snapshot_locked(&self, inner: &mut Inner, live: Option<&HashSet<String>>) -> io::Result<()> {
        if let Some(live) = live {
            inner.history.retain(|r| live.contains(&r.session_id));
        }
        // Seal the current segment first so the snapshot strictly covers
        // everything below its number.
        inner.writer.flush()?;
        self.fsync(inner.writer.get_ref())?;

        let snap_no = inner.seg_no + 1;
        let tmp = self.config.dir.join("snap.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for rec in &inner.history {
                frame::write_frame(&mut w, REC_TURN, &rec.encode())?;
            }
            w.flush()?;
            self.fsync(w.get_ref())?;
        }
        fs::rename(&tmp, snap_path(&self.config.dir, snap_no))?;
        self.snapshots.inc();
        inner.appends_since_snapshot = 0;

        // New appends go above the snapshot; only then drop old files.
        let fresh = snap_no + 1;
        inner.writer = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(seg_path(&self.config.dir, fresh))?,
        );
        let old_seg = inner.seg_no;
        inner.seg_no = fresh;
        inner.seg_bytes = 0;

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

    /// Snapshot + truncate now, keeping only `live` sessions' history.
    pub fn snapshot_retaining(&self, live: &HashSet<String>) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("journal writer");
        self.snapshot_locked(&mut inner, Some(live))
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

    #[test]
    fn record_roundtrip() {
        let r = rec("explorer", 3, false, &[1, 2, 99]);
        assert_eq!(TurnRecord::decode(&r.encode(), 1 << 20).unwrap(), r);
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
        let ids: Vec<_> = rev
            .turns
            .iter()
            .map(|r| (r.session_id.as_str(), r.turn))
            .collect();
        assert_eq!(ids, vec![("a", 1), ("b", 1), ("a", 2)]);
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
            let (j, _) = open(&dir, |c| c.segment_max_bytes = 64);
            for t in 1..=6 {
                j.append(rec("a", t, t == 1, &[t]));
                j.append(rec("dead", t, t == 1, &[100 + t]));
            }
            assert!(j.stats().rotations > 0, "tiny segments must rotate");
            let live: HashSet<String> = ["a".to_string()].into_iter().collect();
            j.snapshot_retaining(&live).unwrap();
            assert_eq!(j.stats().snapshots, 1);
            // More appends after the snapshot land in the fresh segment.
            j.append(rec("a", 7, false, &[7]));
        }
        // Only the snapshot and the post-snapshot segment remain.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".qkj"))
            .collect();
        assert_eq!(
            names.iter().filter(|n| n.starts_with("snap-")).count(),
            1,
            "old snapshots pruned: {names:?}"
        );
        let (_, rev) = open(&dir, |_| {});
        assert!(rev.from_snapshot);
        assert!(rev.turns.iter().all(|r| r.session_id == "a"));
        assert_eq!(rev.turns.len(), 7);
        assert_eq!(
            rev.turns.iter().map(|r| r.turn).collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>()
        );
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
        // 9 appends, 64-byte segments, a snapshot every 4 appends: appends
        // 2 and 6 rotate (one fsync each), appends 4 and 8 snapshot (two
        // each: the sealed segment and the snapshot file).
        for (fsync, expected) in [(false, 6), (true, 9 + 6)] {
            let dir = tmp_dir(&format!("fsyncs_{fsync}"));
            let (j, _) = open(&dir, |c| {
                c.fsync = fsync;
                c.segment_max_bytes = 64;
                c.snapshot_every = 4;
            });
            for t in 1..=9 {
                j.append(rec("s", t, t == 1, &[t]));
            }
            let stats = j.stats();
            assert_eq!((stats.rotations, stats.snapshots), (2, 2), "{stats:?}");
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
