//! The catalog journal: a checksummed, append-only record of named
//! schema registrations and retirements under `store_dir`, so a
//! restarted node rehydrates its catalog instead of waiting for an
//! embedder to re-register every schema.
//!
//! The disk artifact tier (`disk.rs`) already persists *derived* state —
//! matrices and results — keyed by fingerprint; what it cannot recover
//! is the catalog itself (which graphs exist, under which names). The
//! journal closes that gap with the same envelope discipline: each
//! record is `magic(8) kind(1) payload_len(8 LE) payload checksum(16)`,
//! where the checksum is the 128-bit content fingerprint of everything
//! between the magic and the checksum, exactly as artifact files are
//! verified. Payloads are JSON: a `register` record carries the schema
//! name, graph, and stats; a `retire` record carries a fingerprint whose
//! content left the catalog (delta refresh, invalidation).
//!
//! Replay applies records in order — register, retire — reproducing the
//! live sequence of catalog operations, and stops at the first damaged
//! record: an append interrupted mid-write leaves a torn tail that is
//! counted and ignored, never served. Replayed registrations then
//! rehydrate their matrices from the disk tier as usual, so a restart
//! recovers names, graphs, *and* warm artifacts with zero recomputation.
//!
//! A damaged record would hide every record appended after it from all
//! later replays, so the journal is cut back to whole records before it
//! grows: `CatalogJournal::open` truncates the file to the prefix the
//! replay verified before its first append (and cuts nothing when the
//! replay could not read the file), and an append whose write fails
//! truncates the file back to its length before that write.

use schema_summary_core::{SchemaFingerprint, SchemaGraph, SchemaStats};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal record magic: schema-summary catalog journal, version 1.
const MAGIC: &[u8; 8] = b"SSUMCAT1";

/// Kind byte for a named registration.
const KIND_REGISTER: u8 = 1;
/// Kind byte for a fingerprint retirement.
const KIND_RETIRE: u8 = 2;

/// File name under the store directory.
const FILE_NAME: &str = "catalog.journal";

/// One replayed catalog operation.
#[derive(Debug)]
pub(crate) enum JournalEntry {
    /// `register_named(name, graph, stats)` happened.
    Register {
        /// The request-facing schema name.
        name: String,
        /// The registered annotated graph (boxed: a graph dwarfs the
        /// retire variant, and replay moves entries around by value).
        graph: Box<SchemaGraph>,
        /// Its cardinality statistics (boxed for the same reason — the
        /// SoA edge lanes make the stats struct itself wide).
        stats: Box<SchemaStats>,
    },
    /// The fingerprint's content was invalidated out of the catalog.
    Retire(SchemaFingerprint),
}

/// JSON payload of a register/retire record. One tolerant shape for
/// both kinds keeps decoding simple: absent fields simply stay `None`.
#[derive(serde::Serialize, serde::Deserialize)]
struct RecordPayload {
    name: Option<String>,
    graph: Option<SchemaGraph>,
    stats: Option<SchemaStats>,
    fingerprint: Option<String>,
}

/// What [`CatalogJournal::replay`] recovered from a journal.
pub(crate) struct Replay {
    /// The decoded operations, in append order.
    pub entries: Vec<JournalEntry>,
    /// Damaged records met: 1 when one ended the replay, else 0.
    pub damaged: u64,
    /// Bytes of whole, verified records at the head of the file; `None`
    /// when the file could not be read.
    pub verified: Option<u64>,
}

/// An open, appendable catalog journal.
pub(crate) struct CatalogJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl CatalogJournal {
    /// The journal path under a store directory.
    pub fn path_under(dir: &Path) -> PathBuf {
        dir.join(FILE_NAME)
    }

    /// Open (creating if necessary) the journal for appending, cut to its
    /// first `verified` bytes: the prefix [`CatalogJournal::replay`]
    /// verified, so that appends follow the last whole record. `None`
    /// cuts nothing.
    pub fn open(dir: &Path, verified: Option<u64>) -> std::io::Result<Self> {
        let path = Self::path_under(dir);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if let Some(verified) = verified {
            if file.metadata()?.len() > verified {
                file.set_len(verified)?;
            }
        }
        Ok(CatalogJournal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Append one framed record. Failures are reported but deliberately
    /// non-fatal to the caller's request: a full disk must not take
    /// serving down, it only costs rehydration fidelity on the next
    /// restart. A failed write is cut back off the file, so the records
    /// appended after it stay readable.
    fn append(&self, kind: u8, payload: &[u8]) {
        let mut body = Vec::with_capacity(9 + payload.len());
        body.push(kind);
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(payload);
        let checksum = SchemaFingerprint::of_bytes(&body).to_le_bytes();
        let mut record = Vec::with_capacity(8 + body.len() + 16);
        record.extend_from_slice(MAGIC);
        record.extend_from_slice(&body);
        record.extend_from_slice(&checksum);
        let mut file = self.file.lock().expect("journal file poisoned");
        let appended = file.metadata().and_then(|before| {
            let written = file.write_all(&record).and_then(|()| file.flush());
            if written.is_err() {
                let _ = file.set_len(before.len());
            }
            written
        });
        if let Err(e) = appended {
            eprintln!(
                "schema-summary: catalog journal append failed ({}): {e}",
                self.path.display()
            );
        }
    }

    /// Record a named registration.
    pub fn append_register(&self, name: &str, graph: &SchemaGraph, stats: &SchemaStats) {
        let payload = RecordPayload {
            name: Some(name.to_string()),
            graph: Some(graph.clone()),
            stats: Some(stats.clone()),
            fingerprint: None,
        };
        let json = serde_json::to_string(&payload).expect("journal payload serializes");
        self.append(KIND_REGISTER, json.as_bytes());
    }

    /// Record a fingerprint retirement.
    pub fn append_retire(&self, fingerprint: SchemaFingerprint) {
        let payload = RecordPayload {
            name: None,
            graph: None,
            stats: None,
            fingerprint: Some(fingerprint.to_hex()),
        };
        let json = serde_json::to_string(&payload).expect("journal payload serializes");
        self.append(KIND_RETIRE, json.as_bytes());
    }

    /// Replay the journal under `dir`: the decoded operations in append
    /// order, stopping at the first damaged record (everything after a
    /// torn write is unframed bytes). A missing journal replays empty.
    pub fn replay(dir: &Path) -> Replay {
        let path = Self::path_under(dir);
        let unread = |damaged| Replay {
            entries: Vec::new(),
            damaged,
            verified: None,
        };
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => return unread(0),
            Err(_) => return unread(1),
        };
        let mut entries = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let Some((entry, consumed)) = decode_record(&bytes[offset..]) else {
                eprintln!(
                    "schema-summary: catalog journal damaged at byte {offset} ({}); \
                     replay truncated",
                    path.display()
                );
                break;
            };
            entries.extend(entry);
            offset += consumed;
        }
        Replay {
            entries,
            damaged: u64::from(offset < bytes.len()),
            verified: Some(offset as u64),
        }
    }
}

/// Decode one record at the head of `bytes`. Returns the entry (or
/// `None` for a verified record of unknown kind — forward compatibility)
/// and the bytes consumed; `None` overall means the frame is damaged.
#[allow(clippy::type_complexity)]
fn decode_record(bytes: &[u8]) -> Option<(Option<JournalEntry>, usize)> {
    if bytes.len() < 8 + 9 + 16 || &bytes[..8] != MAGIC {
        return None;
    }
    let kind = bytes[8];
    let payload_len = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes")) as usize;
    let body_end = 17usize.checked_add(payload_len)?;
    let record_end = body_end.checked_add(16)?;
    if bytes.len() < record_end {
        return None;
    }
    let body = &bytes[8..body_end];
    let checksum =
        SchemaFingerprint::from_le_bytes(bytes[body_end..record_end].try_into().expect("16 bytes"));
    if SchemaFingerprint::of_bytes(body) != checksum {
        return None;
    }
    let payload = &bytes[17..body_end];
    let text = std::str::from_utf8(payload).ok()?;
    let decoded: RecordPayload = serde_json::from_str(text).ok()?;
    let entry = match kind {
        KIND_REGISTER => match (decoded.name, decoded.graph, decoded.stats) {
            (Some(name), Some(graph), Some(stats)) => Some(JournalEntry::Register {
                name,
                graph: Box::new(graph),
                stats: Box::new(stats),
            }),
            _ => return None,
        },
        KIND_RETIRE => {
            let hex = decoded.fingerprint?;
            Some(JournalEntry::Retire(SchemaFingerprint::from_hex(&hex)?))
        }
        _ => None, // verified but unknown: skip, keep replaying
    };
    Some((entry, record_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use schema_summary_core::{SchemaGraphBuilder, SchemaType};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "schema-summary-journal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("db");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        b.add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        let graph = b.build().unwrap();
        let stats = SchemaStats::uniform(&graph);
        (graph, stats)
    }

    #[test]
    fn register_and_retire_round_trip_in_order() {
        let dir = temp_dir("roundtrip");
        let (graph, stats) = fixture();
        let fp = SchemaFingerprint::of_bytes(b"gone");
        {
            let journal = CatalogJournal::open(&dir, None).unwrap();
            journal.append_register("db", &graph, &stats);
            journal.append_retire(fp);
            journal.append_register("db2", &graph, &stats);
        }
        let Replay {
            entries,
            damaged: corrupt,
            ..
        } = CatalogJournal::replay(&dir);
        assert_eq!(corrupt, 0);
        assert_eq!(entries.len(), 3);
        match &entries[0] {
            JournalEntry::Register { name, graph: g, .. } => {
                assert_eq!(name, "db");
                assert_eq!(g.as_ref(), &graph);
            }
            other => panic!("expected register, got {other:?}"),
        }
        match &entries[1] {
            JournalEntry::Retire(retired) => assert_eq!(*retired, fp),
            other => panic!("expected retire, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = temp_dir("missing");
        let Replay {
            entries,
            damaged: corrupt,
            ..
        } = CatalogJournal::replay(&dir);
        assert!(entries.is_empty());
        assert_eq!(corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_replay_without_losing_the_prefix() {
        let dir = temp_dir("torn");
        let (graph, stats) = fixture();
        {
            let journal = CatalogJournal::open(&dir, None).unwrap();
            journal.append_register("db", &graph, &stats);
            journal.append_register("db2", &graph, &stats);
        }
        // Tear the last record: chop bytes off the file's tail.
        let path = CatalogJournal::path_under(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let Replay {
            entries,
            damaged: corrupt,
            ..
        } = CatalogJournal::replay(&dir);
        assert_eq!(corrupt, 1);
        assert_eq!(entries.len(), 1, "the intact prefix survives");
        // A flipped payload byte is caught by the checksum, not served.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let Replay {
            entries,
            damaged: corrupt,
            ..
        } = CatalogJournal::replay(&dir);
        assert_eq!(corrupt, 1);
        assert!(entries.len() <= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Hostile bytes for `replay`. ---

    fn keys(entries: &[JournalEntry]) -> Vec<String> {
        entries
            .iter()
            .map(|entry| match entry {
                JournalEntry::Register { name, .. } => format!("register {name}"),
                JournalEntry::Retire(fp) => format!("retire {fp}"),
            })
            .collect()
    }

    /// A valid journal of three records (register, retire, register)
    /// written afresh under `dir`: its bytes, the records' keys, and the
    /// offset where each record ends.
    fn three_records(dir: &Path) -> (Vec<u8>, Vec<String>, Vec<usize>) {
        let (graph, stats) = fixture();
        let path = CatalogJournal::path_under(dir);
        let _ = std::fs::remove_file(&path);
        let journal = CatalogJournal::open(dir, None).unwrap();
        let end = || std::fs::metadata(&path).unwrap().len() as usize;
        journal.append_register("db", &graph, &stats);
        let mut ends = vec![end()];
        journal.append_retire(SchemaFingerprint::of_bytes(b"gone"));
        ends.push(end());
        journal.append_register("db2", &graph, &stats);
        ends.push(end());
        let appended = keys(&CatalogJournal::replay(dir).entries);
        assert_eq!(appended.len(), 3);
        (std::fs::read(&path).unwrap(), appended, ends)
    }

    /// Replay `bytes` as the journal under `dir`. Whatever they hold, the
    /// replay returns, reports at most one damaged record and yields a
    /// prefix of the `appended` records.
    fn replay_of(dir: &Path, bytes: &[u8], appended: &[String]) -> Replay {
        std::fs::write(CatalogJournal::path_under(dir), bytes).unwrap();
        let replay = CatalogJournal::replay(dir);
        assert!(replay.damaged <= 1, "{} damaged", replay.damaged);
        let replayed = keys(&replay.entries);
        assert!(
            appended.starts_with(&replayed),
            "{replayed:?} is not a prefix of {appended:?}"
        );
        replay
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_bytes_replay_no_record_of_their_own(
            garbage in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let dir = temp_dir("arbitrary");
            let alone = replay_of(&dir, &garbage, &[]);
            prop_assert!(alone.entries.is_empty());
            prop_assert_eq!(alone.damaged, u64::from(!garbage.is_empty()));
            // After whole records, the same bytes cost nothing before them.
            let (mut bytes, appended, ends) = three_records(&dir);
            bytes.extend_from_slice(&garbage);
            let after = replay_of(&dir, &bytes, &appended);
            prop_assert_eq!(after.entries.len(), 3);
            prop_assert_eq!(after.verified, Some(ends[2] as u64));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_truncation_replays_the_whole_records_before_the_cut() {
        let dir = temp_dir("truncations");
        let (valid, appended, ends) = three_records(&dir);
        for len in 0..=valid.len() {
            let replay = replay_of(&dir, &valid[..len], &appended);
            let whole = ends.iter().filter(|&&end| end <= len).count();
            assert_eq!(replay.entries.len(), whole, "cut at {len}");
            let verified = whole.checked_sub(1).map_or(0, |last| ends[last]);
            assert_eq!(replay.verified, Some(verified as u64), "cut at {len}");
            assert_eq!(replay.damaged, u64::from(len > verified), "cut at {len}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_overwrite_ends_the_replay_at_its_record() {
        let dir = temp_dir("overwrites");
        let (valid, appended, ends) = three_records(&dir);
        for pos in 0..valid.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bytes = valid.clone();
                bytes[pos] ^= flip;
                let replay = replay_of(&dir, &bytes, &appended);
                let intact = ends.iter().filter(|&&end| end <= pos).count();
                assert_eq!(replay.entries.len(), intact, "byte {pos} ^ {flip:#x}");
                assert_eq!(replay.damaged, 1, "byte {pos} ^ {flip:#x}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_cuts_a_damaged_tail_so_later_appends_replay() {
        let dir = temp_dir("cut");
        let (valid, appended, ends) = three_records(&dir);
        std::fs::write(CatalogJournal::path_under(&dir), &valid[..valid.len() - 7]).unwrap();
        let replay = CatalogJournal::replay(&dir);
        assert_eq!((replay.entries.len(), replay.damaged), (2, 1));
        assert_eq!(replay.verified, Some(ends[1] as u64));
        let journal = CatalogJournal::open(&dir, replay.verified).unwrap();
        journal.append_retire(SchemaFingerprint::of_bytes(b"later"));
        let replay = CatalogJournal::replay(&dir);
        assert_eq!(replay.damaged, 0);
        let mut expected = appended[..2].to_vec();
        expected.push(format!("retire {}", SchemaFingerprint::of_bytes(b"later")));
        assert_eq!(keys(&replay.entries), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_without_a_verified_length_cuts_nothing() {
        let dir = temp_dir("uncut");
        let (valid, _, _) = three_records(&dir);
        drop(CatalogJournal::open(&dir, None).unwrap());
        assert_eq!(
            std::fs::read(CatalogJournal::path_under(&dir)).unwrap(),
            valid
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
