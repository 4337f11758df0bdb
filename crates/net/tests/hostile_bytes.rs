//! Decoder robustness against hostile or corrupted bytes. Whatever
//! arrives from the network or sits in a journal file:
//!
//! 1. **frames** — `frame::read_frame` over arbitrary bytes returns a
//!    frame or an error, never panics; a length prefix above the maximum
//!    fails as `Oversized` before a single payload byte is read;
//! 2. **messages** — `NetRequest::decode` and `NetResponse::decode` over
//!    arbitrary kind tags and payloads (random, or valid encodings cut,
//!    flipped and padded) return `Err` or a message that re-encodes to
//!    exactly the bytes it came from;
//! 3. **journal files** — a segment of garbage, or of valid records
//!    followed by garbage, opens with the valid records recovered and the
//!    garbage counted as one torn tail (or fails with an I/O error).

use proptest::prelude::*;
use qkb_net::frame::{self, FrameError, HEADER_BYTES};
use qkb_net::{BusyScope, JournalConfig, NetRequest, NetResponse, SessionJournal, TurnRecord};
use qkb_obs::Registry;
use qkb_serve::{QueryRequest, Served};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAX: usize = 1 << 16;

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, len)
}

/// Applies `edits` to `buf`: each `(op, at, byte)` flips a byte,
/// truncates, or inserts a byte at `at` (modulo the current length).
fn mutate(mut buf: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(op, at, byte) in edits {
        let at = at % (buf.len() + 1);
        match op {
            0 if at < buf.len() => buf[at] ^= byte | 1,
            1 => buf.truncate(at),
            _ => buf.insert(at, byte),
        }
    }
    buf
}

/// One valid request of each kind, with a caller-chosen id and text.
fn requests(id: u64, text: &str) -> Vec<NetRequest> {
    vec![
        NetRequest::Query {
            id,
            request: QueryRequest::question(text),
        },
        NetRequest::QueryInSession {
            id,
            session: text.chars().rev().collect(),
            request: QueryRequest::question(text),
        },
        NetRequest::Stats { id },
        NetRequest::ResetStats { id },
    ]
}

/// One valid response of each kind.
fn responses(id: u64, text: &str) -> Vec<NetResponse> {
    vec![
        NetResponse::Answer {
            id,
            served: Served::CacheHit,
            n_docs: 4,
            n_facts: id % 97,
            answers: vec![text.to_string(), String::new()],
        },
        NetResponse::StatsJson {
            id,
            json: format!("{{\"q\":\"{text}\"}}"),
        },
        NetResponse::Ok { id },
        NetResponse::Busy {
            id,
            scope: BusyScope::Global,
        },
        NetResponse::Error {
            id,
            message: text.to_string(),
        },
    ]
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..3, 0usize..1 << 16, 0u8..=255), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the frame reader; whatever it accepts
    /// is a frame whose encoding is exactly the bytes it consumed.
    #[test]
    fn read_frame_survives_arbitrary_bytes(
        raw in bytes(0..96),
        framed in any::<bool>(),
        kind in 0u8..=255,
        edits in edits(),
    ) {
        // Half the cases start from a well-formed frame, so the edits
        // reach past the header checks into the payload and checksum.
        let input = if framed { mutate(frame::encode(kind, &raw), &edits) } else { raw };
        let mut r = Cursor::new(&input[..]);
        if let Ok(f) = frame::read_frame(&mut r, MAX as u32) {
            let consumed = r.position() as usize;
            prop_assert_eq!(frame::encode(f.kind, &f.payload), input[..consumed].to_vec());
        }
    }

    /// A length prefix above the maximum is refused from the header
    /// alone: the reader stops after `HEADER_BYTES`.
    #[test]
    fn oversized_prefix_fails_before_the_payload(
        max in 0u32..1 << 20,
        excess in 1u32..u32::MAX,
        tail in bytes(0..64),
    ) {
        let declared = max.saturating_add(excess);
        prop_assume!(declared > max);
        let mut input = frame::encode(7, &tail);
        input[0..4].copy_from_slice(&declared.to_le_bytes());
        let mut r = Cursor::new(&input[..]);
        let got = frame::read_frame(&mut r, max);
        prop_assert!(
            matches!(got, Err(FrameError::Oversized { declared: d, max: m }) if d == declared && m == max),
            "{:?}", got
        );
        prop_assert_eq!(r.position() as usize, HEADER_BYTES);
    }

    /// Arbitrary kind tags and payloads never panic the request decoder;
    /// an accepted payload is the canonical encoding of what it decoded to.
    #[test]
    fn request_decode_survives_arbitrary_bytes(
        kind in 0u8..=255,
        raw in bytes(0..64),
        pick in 0usize..4,
        id in 0u64..u64::MAX,
        text in "\\PC{0,12}",
        edits in edits(),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        // Random bytes, or a valid encoding edited and sometimes sent
        // under a random kind tag.
        let (use_raw, keep_kind) = flags;
        let (kind, payload) = if use_raw {
            (kind, raw)
        } else {
            let (k, p) = requests(id, &text)[pick].encode();
            (if keep_kind { k } else { kind }, mutate(p, &edits))
        };
        if let Ok(req) = NetRequest::decode(kind, &payload, MAX) {
            prop_assert_eq!(req.encode(), (kind, payload));
        }
    }

    /// The same for responses.
    #[test]
    fn response_decode_survives_arbitrary_bytes(
        kind in 0u8..=255,
        raw in bytes(0..64),
        pick in 0usize..5,
        id in 0u64..u64::MAX,
        text in "\\PC{0,12}",
        edits in edits(),
        flags in (any::<bool>(), any::<bool>()),
    ) {
        // Random bytes, or a valid encoding edited and sometimes sent
        // under a random kind tag.
        let (use_raw, keep_kind) = flags;
        let (kind, payload) = if use_raw {
            (kind, raw)
        } else {
            let (k, p) = responses(id, &text)[pick].encode();
            (if keep_kind { k } else { kind }, mutate(p, &edits))
        };
        if let Ok(resp) = NetResponse::decode(kind, &payload, MAX) {
            prop_assert_eq!(resp.encode(), (kind, payload));
        }
    }
}

fn tmp_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qkb_hostile_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> std::io::Result<(SessionJournal, qkb_net::Recovery)> {
    let mut config = JournalConfig::new(dir);
    config.fsync = false;
    config.max_record_bytes = MAX as u32;
    SessionJournal::open(config, &Registry::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A segment of `valid` intact records followed by garbage recovers
    /// exactly the intact records and counts the garbage as one torn
    /// tail; garbage alone recovers nothing. Never a panic.
    #[test]
    fn journal_segment_with_garbage_recovers_the_valid_prefix(
        valid in 0usize..4,
        garbage in bytes(1..96),
        framed_garbage in any::<bool>(),
        edits in edits(),
    ) {
        // Garbage is random bytes or a frame whose bytes were edited:
        // either way no longer a valid record.
        let tail = if framed_garbage {
            let bad = mutate(frame::encode(1, &garbage), &edits);
            let mut probe = Cursor::new(&bad[..]);
            prop_assume!(frame::read_frame(&mut probe, MAX as u32).is_err());
            bad
        } else {
            garbage
        };
        prop_assume!(!tail.is_empty());
        let written: Vec<TurnRecord> = (0..valid)
            .map(|i| TurnRecord {
                session_id: format!("s{i}"),
                turn: 1,
                cold: true,
                doc_ids: vec![i as u64, 7],
                docs_fingerprint: 0xfeed ^ i as u64,
            })
            .collect();
        let dir = tmp_dir();
        {
            let (journal, _) = open(&dir).expect("fresh journal");
            for rec in &written {
                journal.append(rec.clone());
            }
        }
        let segment = dir.join("seg-00000000.qkj");
        let mut file = std::fs::read(&segment).expect("segment written");
        file.extend_from_slice(&tail);
        std::fs::write(&segment, &file).expect("rewrite segment");

        // Recovery may refuse with an I/O error; it may not panic.
        if let Ok((journal, recovery)) = open(&dir) {
            let stats = journal.stats();
            prop_assert_eq!(stats.torn_tails, 1);
            prop_assert_eq!(stats.recovered_records, valid as u64);
            prop_assert_eq!(&recovery.turns, &written);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
