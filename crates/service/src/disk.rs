//! The optional disk tier of the artifact store: serialized artifacts
//! spilled under their stable content key and rehydrated on restart.
//!
//! Every artifact lives in its own file named
//! `<fingerprint-hex>-<kind>-<keydigest-hex>.art`, where the key digest is
//! the content fingerprint of a canonical key-meta string (algorithm,
//! sizes, summarizer options). The file carries a self-describing
//! `SSUMART2` envelope — magic, kind byte, the key-meta itself, the
//! producer-reported recomputation cost, the payload, and a 128-bit
//! [`envelope_checksum`] over everything after the magic — so a load can
//! verify end-to-end that the bytes on disk are exactly an artifact for
//! the requested key.
//!
//! Loading is synchronous and corruption-tolerant by design: any mismatch
//! (truncated file, wrong magic, checksum failure, key-meta collision, a
//! payload the caller's decoder rejects) logs a warning, bumps the
//! `corrupt` counter, deletes the file and returns `None` — the caller
//! recomputes. A bad file is never fatal and never served. The decoder
//! reads the payload in place, inside the buffer the file was read into.
//!
//! Every write and removal runs on one spiller thread per tier, fed by a
//! FIFO queue: [`DiskTier::spill`] and the purges only enqueue, so no
//! request waits on encoding, checksumming or I/O. At most
//! `SPILL_QUEUE_BOUND` spills may be pending; a spill past the bound is
//! dropped and counted (the tier is best-effort). Purges are never
//! dropped, and because the queue is FIFO a purge runs after every spill
//! queued before it, so no file outlives its invalidation. Until a queued
//! purge has run, loads of the keys it covers miss. [`DiskTier::flush`]
//! waits for everything queued before it, and dropping the tier drains
//! the queue and joins the thread; a killed process loses what was still
//! queued.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so a crash mid-write leaves either the old artifact or none —
//! never a torn one (the checksum catches torn renames on filesystems
//! without atomic rename anyway).

use crate::store::CachedArtifact;
use schema_summary_algo::PairMatrices;
use schema_summary_core::SchemaFingerprint;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Envelope magic: identifies a schema-summary artifact file, version 2
/// (version 1 used a byte-at-a-time checksum; such files read as bad
/// magic and are recomputed).
const MAGIC: &[u8; 8] = b"SSUMART2";

/// Envelope bytes around the key-meta and payload: magic(8) kind(1)
/// meta_len(4) cost(8) payload_len(8) checksum(16).
const FIXED_BYTES: usize = 8 + 1 + 4 + 8 + 8 + 16;

/// Spills that may wait for the spiller at once (queued or being
/// written). A spill past it is dropped and counted instead of queued.
const SPILL_QUEUE_BOUND: usize = 64;

/// Kind byte for serialized [`PairMatrices`](schema_summary_algo::PairMatrices).
pub(crate) const KIND_MATRICES: u8 = 1;
/// Kind byte for a flat [`SummaryResult`](crate::SummaryResult) (JSON payload).
pub(crate) const KIND_FLAT: u8 = 2;
/// Kind byte for a [`MultiLevelArtifact`](crate::MultiLevelArtifact) (JSON payload).
pub(crate) const KIND_MULTILEVEL: u8 = 3;

fn kind_tag(kind: u8) -> &'static str {
    match kind {
        KIND_MATRICES => "mat",
        KIND_FLAT => "sum",
        KIND_MULTILEVEL => "mls",
        _ => "unk",
    }
}

/// Independent lanes of [`envelope_checksum`]; lane `i` is fed words `i`,
/// `i + LANES`, `i + 2·LANES`, ... Sixteen chains keep a vectorized 64-bit
/// multiply (long latency) as busy as a scalar one.
const LANES: usize = 16;
const LANE_MULTIPLIERS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x27D4_EB2F_1656_67C5,
    0x9FB2_1C65_1E98_DF25,
];
const LANE_ROTATIONS: [u32; 4] = [31, 29, 27, 33];

/// One lane step. For a fixed `word` it is a bijection of `lane` (xor,
/// multiplication by an odd constant and rotation are all invertible), and
/// for a fixed `lane` it is injective in `word`: a change confined to one
/// word always changes that lane's final state.
#[inline(always)]
fn lane_step(lane: u64, word: u64, i: usize) -> u64 {
    ((lane ^ word).wrapping_mul(LANE_MULTIPLIERS[i % 4])).rotate_left(LANE_ROTATIONS[i % 4])
}

/// MurmurHash3's 64-bit finalizer: a bijection with full avalanche.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The envelope's 128-bit checksum: [`LANES`] independent multiply-mix
/// lanes over little-endian 8-byte words, the last partial word
/// zero-padded and the byte length folded in, then each lane finalized
/// and the lanes combined into two halves, each injective in every lane
/// separately. Deliberately separate from [`SchemaFingerprint`]: the
/// fingerprint names files and ranks cluster nodes, so its values must
/// never change, while this only has to be fast and to catch damage.
pub(crate) fn envelope_checksum(bytes: &[u8]) -> [u8; 16] {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| fmix64(i as u64 + 1) | 1);
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_step(*lane, le_word(&block[8 * i..8 * i + 8]), i);
        }
    }
    for (i, word) in blocks.remainder().chunks(8).enumerate() {
        lanes[i] = lane_step(lanes[i], le_word(word), i);
    }
    // The length tells apart inputs that differ only by trailing zeros.
    lanes[0] = lane_step(lanes[0], bytes.len() as u64, 0);
    let (mut lo, mut hi) = (0u64, 0u64);
    for (i, lane) in lanes.into_iter().enumerate() {
        let mixed = fmix64(lane);
        lo ^= mixed.rotate_left(4 * i as u32);
        hi = (hi ^ mixed).wrapping_mul(LANE_MULTIPLIERS[i % 4]);
    }
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&fmix64(lo).to_le_bytes());
    out[8..].copy_from_slice(&fmix64(hi).to_le_bytes());
    out
}

/// Check an envelope read for `(kind, meta)`; returns the recorded cost
/// and the payload's bytes in place, or why the file is unusable.
fn open_envelope<'a>(
    bytes: &'a [u8],
    kind: u8,
    meta: &str,
) -> Result<(u64, &'a [u8]), &'static str> {
    if bytes.len() < FIXED_BYTES {
        return Err("truncated header");
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err("bad magic");
    }
    let (body, checksum) = rest.split_at(rest.len() - 16);
    if envelope_checksum(body) != checksum {
        return Err("checksum mismatch");
    }
    let Some((&file_kind, rest)) = body.split_first() else {
        return Err("truncated header");
    };
    if file_kind != kind {
        return Err("kind mismatch");
    }
    let Some((meta_len, rest)) = rest.split_first_chunk::<4>() else {
        return Err("truncated header");
    };
    let Some((file_meta, rest)) = rest.split_at_checked(u32::from_le_bytes(*meta_len) as usize)
    else {
        return Err("truncated key-meta");
    };
    if file_meta != meta.as_bytes() {
        // A digest collision or a file renamed by hand: not ours.
        return Err("key-meta mismatch");
    }
    let Some((cost, rest)) = rest.split_first_chunk::<8>() else {
        return Err("truncated key-meta");
    };
    let Some((payload_len, payload)) = rest.split_first_chunk::<8>() else {
        return Err("truncated key-meta");
    };
    if u64::from_le_bytes(*payload_len) != payload.len() as u64 {
        return Err("payload length mismatch");
    }
    Ok((u64::from_le_bytes(*cost), payload))
}

/// What a spill encodes on the spiller thread. It holds the artifact
/// itself, never an `Artifacts`, a catalog entry or a tier handle: the
/// last tier handle must never drop on the spiller, which would then join
/// itself.
pub(crate) enum SpillSource {
    Matrices(Arc<PairMatrices>),
    Result(CachedArtifact),
    /// Pre-encoded payload bytes (tests write arbitrary payloads).
    #[cfg(test)]
    Bytes(Vec<u8>),
}

impl SpillSource {
    fn encode(&self) -> Option<Vec<u8>> {
        match self {
            SpillSource::Matrices(matrices) => Some(matrices.to_bytes()),
            SpillSource::Result(artifact) => artifact.to_payload(),
            #[cfg(test)]
            SpillSource::Bytes(bytes) => Some(bytes.clone()),
        }
    }
}

struct Spill {
    fingerprint: SchemaFingerprint,
    kind: u8,
    meta: String,
    cost: u64,
    source: SpillSource,
}

/// Which files of one fingerprint a purge removes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PurgeScope {
    /// Every artifact: matrices and results.
    All,
    /// Flat and multi-level results only; the matrices stay.
    Results,
}

enum Job {
    Spill(Spill),
    Purge(SchemaFingerprint, PurgeScope),
    /// Answered once every job queued before it has run.
    Flush(mpsc::Sender<()>),
    /// Holds the spiller until the paired sender sends or drops.
    #[cfg(test)]
    Hold(mpsc::Receiver<()>),
}

/// Purges queued but not yet run for one fingerprint, by scope.
#[derive(Default)]
struct PendingPurges {
    all: usize,
    results: usize,
}

/// The tier's directory, accounting and counters: everything the spiller
/// thread shares with request threads.
struct TierState {
    root: PathBuf,
    /// Byte budget for the directory; `None` grows without bound.
    quota: Option<u64>,
    /// Bytes currently held in `.art` files (best-effort bookkeeping:
    /// seeded by a directory scan at open, updated on every write and
    /// removal this process performs).
    bytes: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    quota_evictions: AtomicU64,
    spills_dropped: AtomicU64,
    /// Spills queued or being written, at most `SPILL_QUEUE_BOUND`.
    pending_spills: AtomicUsize,
    /// Queued purges: loads of the keys they cover miss until they ran.
    pending_purges: Mutex<HashMap<SchemaFingerprint, PendingPurges>>,
}

/// The disk tier: a store directory and the spiller thread that writes
/// it. Counters are surfaced through [`CacheStats`](crate::CacheStats).
pub(crate) struct DiskTier {
    state: Arc<TierState>,
    /// `None` only while dropping, so the spiller sees the queue close.
    queue: Option<mpsc::Sender<Job>>,
    spiller: Option<JoinHandle<()>>,
}

impl DiskTier {
    /// Open (creating if necessary) a store directory with no byte quota.
    #[cfg(test)]
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_quota(root, None)
    }

    /// Open (creating if necessary) a store directory and start its
    /// spiller thread. When `quota` is set, every write that pushes the
    /// directory past it evicts spilled artifacts oldest-first (by
    /// modification time) until the total fits again — evicted artifacts
    /// are recomputed on their next request, so the quota trades
    /// recompute time for bounded disk.
    pub fn open_with_quota(root: impl Into<PathBuf>, quota: Option<u64>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut bytes = 0u64;
        for entry in std::fs::read_dir(&root)?.flatten() {
            let is_artifact = entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".art"));
            if is_artifact {
                if let Ok(meta) = entry.metadata() {
                    bytes += meta.len();
                }
            }
        }
        let state = Arc::new(TierState {
            root,
            quota,
            bytes: AtomicU64::new(bytes),
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quota_evictions: AtomicU64::new(0),
            spills_dropped: AtomicU64::new(0),
            pending_spills: AtomicUsize::new(0),
            pending_purges: Mutex::new(HashMap::new()),
        });
        let (queue, jobs) = mpsc::channel::<Job>();
        let spiller = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("schema-summary-spiller".into())
                .spawn(move || {
                    for job in jobs {
                        state.run(job);
                    }
                })?
        };
        Ok(DiskTier {
            state,
            queue: Some(queue),
            spiller: Some(spiller),
        })
    }

    /// Hand `job` to the spiller; gives it back when the spiller is gone.
    fn send(&self, job: Job) -> Result<(), Job> {
        match &self.queue {
            Some(queue) => queue.send(job).map_err(|mpsc::SendError(job)| job),
            None => Err(job),
        }
    }

    /// Load the artifact stored for `(fingerprint, kind, meta)`, decoded
    /// in place by `decode`, with its recorded recomputation cost. `None`
    /// when absent, covered by a queued purge, or unusable; an unusable
    /// file (including a payload `decode` rejects) is counted as corrupt
    /// and deleted.
    pub fn load<T>(
        &self,
        fingerprint: SchemaFingerprint,
        kind: u8,
        meta: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<(T, u64)> {
        if self.state.purge_pending(fingerprint, kind) {
            return None;
        }
        let path = self.state.path_for(fingerprint, kind, meta);
        // Absent (or unreadable): a plain miss.
        let bytes = std::fs::read(&path).ok()?;
        let opened = open_envelope(&bytes, kind, meta).and_then(|(cost, payload)| {
            decode(payload)
                .map(|v| (v, cost))
                .ok_or("payload did not decode")
        });
        match opened {
            Ok(found) => {
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            Err(reason) => {
                self.state.discard(&path, reason);
                None
            }
        }
    }

    /// Queue a spill of `source` for `(fingerprint, kind, meta)`; returns
    /// at once. Encoding, checksum, write and quota enforcement run on
    /// the spiller. Best-effort: past `SPILL_QUEUE_BOUND` pending spills,
    /// or with the spiller gone, the spill is dropped and counted, and an
    /// I/O failure on the spiller logs a warning; the artifact then
    /// simply stays memory-only.
    pub fn spill(
        &self,
        fingerprint: SchemaFingerprint,
        kind: u8,
        meta: String,
        cost: u64,
        source: SpillSource,
    ) {
        let state = &self.state;
        let admitted = state
            .pending_spills
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < SPILL_QUEUE_BOUND).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            state.spills_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let spill = Spill {
            fingerprint,
            kind,
            meta,
            cost,
            source,
        };
        if self.send(Job::Spill(spill)).is_err() {
            state.pending_spills.fetch_sub(1, Ordering::AcqRel);
            state.spills_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Remove every spilled artifact of one fingerprint (invalidation).
    pub fn purge(&self, fingerprint: SchemaFingerprint) {
        self.queue_purge(fingerprint, PurgeScope::All);
    }

    /// Remove only the spilled *result* artifacts (flat and multi-level
    /// summaries) of one fingerprint, keeping the memoized matrices so a
    /// re-request goes back through scoring without re-exploring the graph.
    pub fn purge_results(&self, fingerprint: SchemaFingerprint) {
        self.queue_purge(fingerprint, PurgeScope::Results);
    }

    /// Queue a purge behind every job already queued. Never dropped:
    /// with the spiller gone it runs on the caller instead.
    fn queue_purge(&self, fingerprint: SchemaFingerprint, scope: PurgeScope) {
        self.state.mark_purge(fingerprint, scope);
        if let Err(job) = self.send(Job::Purge(fingerprint, scope)) {
            self.state.run(job);
        }
    }

    /// Return once every job queued before this call has run: its files
    /// are visible in the directory (not fsynced) and its purges done.
    pub fn flush(&self) {
        let (done, finished) = mpsc::channel();
        if self.send(Job::Flush(done)).is_ok() {
            // An error means the spiller died; nothing more will run.
            let _ = finished.recv();
        }
    }

    /// Hold the spiller until the returned sender sends or drops.
    #[cfg(test)]
    fn hold(&self) -> mpsc::Sender<()> {
        let (release, held) = mpsc::channel();
        let _ = self.send(Job::Hold(held));
        release
    }

    /// Artifacts successfully rehydrated from disk. Service-level code
    /// distinguishes result rehydrations (`CacheStats::disk_hits`) from
    /// matrix rehydrations (`CacheStats::matrices_rehydrated`); this raw
    /// total is only asserted by the tier's own tests.
    #[cfg(test)]
    pub fn hits(&self) -> u64 {
        self.state.hits.load(Ordering::Relaxed)
    }

    /// Artifacts spilled to disk.
    pub fn writes(&self) -> u64 {
        self.state.writes.load(Ordering::Relaxed)
    }

    /// Files discarded as corrupt (and recomputed).
    pub fn corrupt(&self) -> u64 {
        self.state.corrupt.load(Ordering::Relaxed)
    }

    /// Bytes currently spilled under the store directory (best-effort).
    pub fn bytes_on_disk(&self) -> u64 {
        self.state.bytes.load(Ordering::Relaxed)
    }

    /// Artifacts evicted to keep the directory under its byte quota.
    pub fn quota_evictions(&self) -> u64 {
        self.state.quota_evictions.load(Ordering::Relaxed)
    }

    /// Spills dropped because the queue was full or the spiller gone.
    pub fn spills_dropped(&self) -> u64 {
        self.state.spills_dropped.load(Ordering::Relaxed)
    }
}

impl Drop for DiskTier {
    /// Close the queue, let the spiller drain it, and join the thread.
    fn drop(&mut self) {
        drop(self.queue.take());
        if let Some(spiller) = self.spiller.take() {
            // A spiller that panicked has nothing left to drain.
            let _ = spiller.join();
        }
    }
}

impl TierState {
    fn run(&self, job: Job) {
        match job {
            Job::Spill(spill) => {
                self.write(&spill);
                self.pending_spills.fetch_sub(1, Ordering::AcqRel);
            }
            Job::Purge(fingerprint, scope) => {
                self.purge(fingerprint, scope);
                self.unmark_purge(fingerprint, scope);
            }
            Job::Flush(done) => {
                let _ = done.send(());
            }
            #[cfg(test)]
            Job::Hold(held) => {
                let _ = held.recv();
            }
        }
    }

    fn pending_purges(&self) -> MutexGuard<'_, HashMap<SchemaFingerprint, PendingPurges>> {
        self.pending_purges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn mark_purge(&self, fingerprint: SchemaFingerprint, scope: PurgeScope) {
        let mut pending = self.pending_purges();
        let entry = pending.entry(fingerprint).or_default();
        match scope {
            PurgeScope::All => entry.all += 1,
            PurgeScope::Results => entry.results += 1,
        }
    }

    fn unmark_purge(&self, fingerprint: SchemaFingerprint, scope: PurgeScope) {
        let mut pending = self.pending_purges();
        if let Some(entry) = pending.get_mut(&fingerprint) {
            match scope {
                PurgeScope::All => entry.all = entry.all.saturating_sub(1),
                PurgeScope::Results => entry.results = entry.results.saturating_sub(1),
            }
            if entry.all == 0 && entry.results == 0 {
                pending.remove(&fingerprint);
            }
        }
    }

    /// Whether a queued purge covers `(fingerprint, kind)`.
    fn purge_pending(&self, fingerprint: SchemaFingerprint, kind: u8) -> bool {
        self.pending_purges()
            .get(&fingerprint)
            .is_some_and(|p| p.all > 0 || (kind != KIND_MATRICES && p.results > 0))
    }

    /// Subtract a removed file's size from the byte account, saturating
    /// (concurrent removals make the account best-effort, never wrapping).
    fn debit(&self, len: u64) {
        let _ = self
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_sub(len))
            });
    }

    /// Remove `path` if present, debiting its size. Returns whether a file
    /// was actually removed.
    fn remove_accounted(&self, path: &Path) -> bool {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(path).is_ok() {
            self.debit(len);
            true
        } else {
            false
        }
    }

    /// Evict spilled artifacts oldest-first until the directory fits the
    /// quota again. `keep` (the file just written) is never evicted — a
    /// single artifact larger than the whole quota would otherwise be
    /// deleted before anyone could read it.
    fn enforce_quota(&self, keep: &Path) {
        let Some(quota) = self.quota else {
            return;
        };
        if self.bytes.load(Ordering::Relaxed) <= quota {
            return;
        }
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        let mut victims: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter(|e| {
                e.file_name().to_str().is_some_and(|n| n.ends_with(".art")) && e.path() != keep
            })
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        // Oldest first; path as a deterministic tiebreak on coarse clocks.
        victims.sort();
        for (_, path, _) in victims {
            if self.bytes.load(Ordering::Relaxed) <= quota {
                break;
            }
            if self.remove_accounted(&path) {
                self.quota_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn path_for(&self, fingerprint: SchemaFingerprint, kind: u8, meta: &str) -> PathBuf {
        let digest = SchemaFingerprint::of_bytes(meta.as_bytes());
        self.root.join(format!(
            "{}-{}-{}.art",
            fingerprint.to_hex(),
            kind_tag(kind),
            digest.to_hex()
        ))
    }

    fn discard(&self, path: &Path, reason: &str) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "warning: schema-summary store: discarding corrupt artifact {} ({reason}); will recompute",
            path.display()
        );
        // Best-effort removal so the bad file is not re-parsed forever.
        self.remove_accounted(path);
    }

    /// Encode and write one spill (on the spiller thread).
    fn write(&self, spill: &Spill) {
        let path = self.path_for(spill.fingerprint, spill.kind, &spill.meta);
        let Some(payload) = spill.source.encode() else {
            eprintln!(
                "warning: schema-summary store: could not encode artifact {}",
                path.display()
            );
            return;
        };
        let meta = spill.meta.as_bytes();
        let mut file = Vec::with_capacity(FIXED_BYTES + meta.len() + payload.len());
        file.extend_from_slice(MAGIC);
        file.push(spill.kind);
        file.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        file.extend_from_slice(meta);
        file.extend_from_slice(&spill.cost.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        let checksum = envelope_checksum(&file[MAGIC.len()..]);
        file.extend_from_slice(&checksum);
        // Temp-then-rename in the same directory: readers never observe a
        // half-written file under the final name. This process's writes
        // all run on this thread, so the temp name is never shared.
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            path.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("artifact")
        ));
        // Debit a file being overwritten before the rename replaces it.
        let previous = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let outcome = std::fs::write(&tmp, &file).and_then(|()| std::fs::rename(&tmp, &path));
        match outcome {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.debit(previous);
                self.bytes.fetch_add(file.len() as u64, Ordering::Relaxed);
                self.enforce_quota(&path);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!(
                    "warning: schema-summary store: could not spill artifact {}: {e}",
                    path.display()
                );
            }
        }
    }

    /// Remove one fingerprint's spilled files within `scope`.
    fn purge(&self, fingerprint: SchemaFingerprint, scope: PurgeScope) {
        let hex = fingerprint.to_hex();
        let prefixes: Vec<String> = match scope {
            PurgeScope::All => vec![format!("{hex}-")],
            PurgeScope::Results => [KIND_FLAT, KIND_MULTILEVEL]
                .iter()
                .map(|&kind| format!("{hex}-{}-", kind_tag(kind)))
                .collect(),
        };
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let covered = name.to_str().is_some_and(|n| {
                n.ends_with(".art") && prefixes.iter().any(|p| n.starts_with(p.as_str()))
            });
            if covered {
                self.remove_accounted(&entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fresh, empty store directory, unique per call.
    fn fresh_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "schema-summary-disk-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tier() -> (DiskTier, PathBuf) {
        let dir = fresh_dir("test");
        (DiskTier::open(&dir).unwrap(), dir)
    }

    fn fp(seed: &str) -> SchemaFingerprint {
        SchemaFingerprint::of_bytes(seed.as_bytes())
    }

    /// Spill raw payload bytes (queued; flush to see the file).
    fn store(t: &DiskTier, f: SchemaFingerprint, kind: u8, meta: &str, cost: u64, payload: &[u8]) {
        t.spill(
            f,
            kind,
            meta.into(),
            cost,
            SpillSource::Bytes(payload.to_vec()),
        );
    }

    /// Spill and wait until the file is written.
    fn store_now(
        t: &DiskTier,
        f: SchemaFingerprint,
        kind: u8,
        meta: &str,
        cost: u64,
        payload: &[u8],
    ) {
        store(t, f, kind, meta, cost, payload);
        t.flush();
    }

    fn load_raw(
        t: &DiskTier,
        f: SchemaFingerprint,
        kind: u8,
        meta: &str,
    ) -> Option<(Vec<u8>, u64)> {
        t.load(f, kind, meta, |payload| Some(payload.to_vec()))
    }

    /// A valid envelope built by hand, with `meta_len` as given.
    fn envelope(kind: u8, meta_len: u32, meta: &[u8], cost: u64, payload: &[u8]) -> Vec<u8> {
        let mut file = MAGIC.to_vec();
        file.push(kind);
        file.extend_from_slice(&meta_len.to_le_bytes());
        file.extend_from_slice(meta);
        file.extend_from_slice(&cost.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(payload);
        let checksum = envelope_checksum(&file[MAGIC.len()..]);
        file.extend_from_slice(&checksum);
        file
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn store_then_load_roundtrips_payload_and_cost() {
        let (t, dir) = tier();
        let f = fp("a");
        store_now(&t, f, KIND_MATRICES, "meta-1", 42, b"payload bytes");
        assert_eq!(
            load_raw(&t, f, KIND_MATRICES, "meta-1"),
            Some((b"payload bytes".to_vec(), 42))
        );
        assert_eq!(t.hits(), 1);
        assert_eq!(t.writes(), 1);
        assert_eq!(t.corrupt(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_file_is_the_documented_envelope() {
        let (t, dir) = tier();
        let f = fp("layout");
        store_now(&t, f, KIND_FLAT, "m", 9, b"xyz");
        let on_disk = std::fs::read(t.state.path_for(f, KIND_FLAT, "m")).unwrap();
        assert_eq!(on_disk, envelope(KIND_FLAT, 1, b"m", 9, b"xyz"));
        assert_eq!(on_disk.len(), FIXED_BYTES + 1 + 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn absent_and_mismatched_keys_are_plain_misses() {
        let (t, dir) = tier();
        let f = fp("b");
        assert_eq!(load_raw(&t, f, KIND_FLAT, "nothing"), None);
        store_now(&t, f, KIND_FLAT, "meta-a", 1, b"x");
        // Different meta hashes to a different file: a miss, not corruption.
        assert_eq!(load_raw(&t, f, KIND_FLAT, "meta-b"), None);
        assert_eq!(t.corrupt(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_file_is_discarded_as_corrupt() {
        let (t, dir) = tier();
        let f = fp("c");
        store_now(&t, f, KIND_MULTILEVEL, "meta", 7, b"some payload");
        let path = t.state.path_for(f, KIND_MULTILEVEL, "meta");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(load_raw(&t, f, KIND_MULTILEVEL, "meta"), None);
        assert_eq!(t.corrupt(), 1);
        // The corrupt file was removed; the next load is a plain miss.
        assert_eq!(load_raw(&t, f, KIND_MULTILEVEL, "meta"), None);
        assert_eq!(t.corrupt(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn garbage_file_is_discarded_as_corrupt() {
        let (t, dir) = tier();
        let f = fp("d");
        let path = t.state.path_for(f, KIND_FLAT, "meta");
        std::fs::write(
            &path,
            b"this is not an artifact file at all, but long enough to parse",
        )
        .unwrap();
        assert_eq!(load_raw(&t, f, KIND_FLAT, "meta"), None);
        assert_eq!(t.corrupt(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let (t, dir) = tier();
        let f = fp("e");
        store_now(&t, f, KIND_MATRICES, "meta", 3, b"sensitive payload");
        let path = t.state.path_for(f, KIND_MATRICES, "meta");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_raw(&t, f, KIND_MATRICES, "meta"), None);
        assert_eq!(t.corrupt(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_one_envelopes_read_as_bad_magic() {
        let (t, dir) = tier();
        let f = fp("v1");
        let path = t.state.path_for(f, KIND_FLAT, "m");
        let mut old = envelope(KIND_FLAT, 1, b"m", 1, b"{}");
        old[..8].copy_from_slice(b"SSUMART1");
        std::fs::write(&path, &old).unwrap();
        assert_eq!(load_raw(&t, f, KIND_FLAT, "m"), None);
        assert_eq!(t.corrupt(), 1);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn undecodable_payload_is_counted_and_deleted() {
        let (t, dir) = tier();
        let f = fp("undecodable");
        store_now(&t, f, KIND_FLAT, "m", 5, b"not what the decoder wants");
        let path = t.state.path_for(f, KIND_FLAT, "m");
        assert_eq!(t.load(f, KIND_FLAT, "m", |_| None::<()>), None);
        assert_eq!(t.corrupt(), 1);
        assert_eq!(t.hits(), 0);
        assert!(!path.exists());
        assert_eq!(t.bytes_on_disk(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn quota_evicts_oldest_artifacts_first() {
        let dir = fresh_dir("quota");
        // Each artifact file is 45 bytes of envelope + 1-byte meta +
        // 100-byte payload = 146 bytes; a 300-byte quota holds two.
        let t = DiskTier::open_with_quota(&dir, Some(300)).unwrap();
        let payload = [0u8; 100];
        store_now(&t, fp("q1"), KIND_FLAT, "m", 1, &payload);
        std::thread::sleep(std::time::Duration::from_millis(15));
        store_now(&t, fp("q2"), KIND_FLAT, "m", 1, &payload);
        assert_eq!(t.quota_evictions(), 0);
        assert_eq!(t.bytes_on_disk(), 292);
        std::thread::sleep(std::time::Duration::from_millis(15));
        store_now(&t, fp("q3"), KIND_FLAT, "m", 1, &payload);
        // The oldest artifact made way; the two newest survive.
        assert_eq!(t.quota_evictions(), 1);
        assert_eq!(t.bytes_on_disk(), 292);
        assert_eq!(load_raw(&t, fp("q1"), KIND_FLAT, "m"), None);
        assert!(load_raw(&t, fp("q2"), KIND_FLAT, "m").is_some());
        assert!(load_raw(&t, fp("q3"), KIND_FLAT, "m").is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn quota_never_evicts_the_artifact_just_written() {
        let dir = fresh_dir("quota-keep");
        // Quota smaller than a single artifact: the fresh write survives
        // anyway (it is the only copy) and everything older is evicted.
        let t = DiskTier::open_with_quota(&dir, Some(50)).unwrap();
        store_now(&t, fp("k1"), KIND_FLAT, "m", 1, b"payload one");
        std::thread::sleep(std::time::Duration::from_millis(15));
        store_now(&t, fp("k2"), KIND_FLAT, "m", 1, b"payload two");
        assert_eq!(load_raw(&t, fp("k1"), KIND_FLAT, "m"), None);
        assert!(load_raw(&t, fp("k2"), KIND_FLAT, "m").is_some());
        assert_eq!(t.quota_evictions(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_seeds_the_byte_account_from_existing_files() {
        let dir = fresh_dir("reopen");
        {
            let t = DiskTier::open(&dir).unwrap();
            store(&t, fp("r1"), KIND_FLAT, "m", 1, b"abc");
            store(&t, fp("r2"), KIND_MATRICES, "m", 1, b"defgh");
        }
        let reopened = DiskTier::open_with_quota(&dir, Some(1 << 20)).unwrap();
        let on_disk: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(reopened.bytes_on_disk(), on_disk);
        assert_eq!(on_disk, 2 * (FIXED_BYTES as u64 + 1) + 3 + 5);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn purge_results_keeps_matrices() {
        let (t, dir) = tier();
        let f = fp("pr");
        store(&t, f, KIND_MATRICES, "m", 1, b"matrices");
        store(&t, f, KIND_FLAT, "m", 1, b"flat");
        store(&t, f, KIND_MULTILEVEL, "m", 1, b"mls");
        t.purge_results(f);
        t.flush();
        assert!(load_raw(&t, f, KIND_MATRICES, "m").is_some());
        assert_eq!(load_raw(&t, f, KIND_FLAT, "m"), None);
        assert_eq!(load_raw(&t, f, KIND_MULTILEVEL, "m"), None);
        assert_eq!(t.bytes_on_disk(), 45 + 1 + 8); // the matrices file only
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn purge_removes_only_the_fingerprints_files() {
        let (t, dir) = tier();
        let (f1, f2) = (fp("f1"), fp("f2"));
        store(&t, f1, KIND_FLAT, "m1", 1, b"one");
        store(&t, f1, KIND_MATRICES, "m2", 1, b"two");
        store(&t, f2, KIND_FLAT, "m1", 1, b"three");
        t.purge(f1);
        t.flush();
        assert_eq!(load_raw(&t, f1, KIND_FLAT, "m1"), None);
        assert_eq!(load_raw(&t, f1, KIND_MATRICES, "m2"), None);
        assert_eq!(
            load_raw(&t, f2, KIND_FLAT, "m1"),
            Some((b"three".to_vec(), 1))
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- The spiller's contract. ---

    #[test]
    fn spill_then_purge_then_flush_leaves_nothing() {
        let (t, dir) = tier();
        let f = fp("sp");
        store(&t, f, KIND_MATRICES, "m", 1, b"matrices");
        store(&t, f, KIND_FLAT, "m", 1, b"flat");
        t.purge(f);
        t.flush();
        assert_eq!(t.writes(), 2, "both spills ran before the purge");
        assert_eq!(t.bytes_on_disk(), 0);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 0, "no file outlives its invalidation");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dropping_the_tier_drains_every_queued_spill() {
        let dir = fresh_dir("drain");
        let payloads: Vec<(SchemaFingerprint, Vec<u8>)> = (0..12)
            .map(|i| (fp(&format!("drain-{i}")), vec![i as u8; 100 + i]))
            .collect();
        {
            let t = DiskTier::open(&dir).unwrap();
            let release = t.hold();
            for (f, payload) in &payloads {
                store(&t, *f, KIND_FLAT, "m", 3, payload);
            }
            // Everything is still queued behind the hold when the tier goes.
            assert_eq!(t.writes(), 0);
            drop(release);
        }
        let reopened = DiskTier::open(&dir).unwrap();
        for (f, payload) in &payloads {
            assert_eq!(
                load_raw(&reopened, *f, KIND_FLAT, "m"),
                Some((payload.clone(), 3))
            );
        }
        assert_eq!(reopened.corrupt(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_full_queue_drops_spills_but_never_purges() {
        let (t, dir) = tier();
        let kept = fp("kept");
        let purged = fp("purged");
        store_now(&t, purged, KIND_MATRICES, "m", 1, b"already on disk");
        let release = t.hold();
        for i in 0..SPILL_QUEUE_BOUND {
            store(&t, kept, KIND_FLAT, &format!("m{i}"), 1, b"queued");
        }
        assert_eq!(t.spills_dropped(), 0);
        // Past the bound, spills return at once and are counted as drops.
        for i in 0..3 {
            store(&t, kept, KIND_FLAT, &format!("over{i}"), 1, b"dropped");
        }
        assert_eq!(t.spills_dropped(), 3);
        t.purge(purged);
        // The purge is queued: a load of its keys misses, not corrupt.
        assert_eq!(load_raw(&t, purged, KIND_MATRICES, "m"), None);
        assert_eq!(t.corrupt(), 0);
        drop(release);
        t.flush();
        assert_eq!(t.writes(), 1 + SPILL_QUEUE_BOUND as u64);
        assert!(!t.state.path_for(purged, KIND_MATRICES, "m").exists());
        assert!(load_raw(&t, kept, KIND_FLAT, "m0").is_some());
        assert_eq!(load_raw(&t, kept, KIND_FLAT, "over0"), None);
        // With the queue drained, spills are admitted again.
        store_now(&t, kept, KIND_FLAT, "after", 1, b"admitted");
        assert!(load_raw(&t, kept, KIND_FLAT, "after").is_some());
        assert_eq!(t.spills_dropped(), 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_queued_results_purge_hides_results_but_not_matrices() {
        let (t, dir) = tier();
        let f = fp("hide");
        store(&t, f, KIND_MATRICES, "m", 1, b"matrices");
        store_now(&t, f, KIND_FLAT, "m", 1, b"flat");
        let release = t.hold();
        t.purge_results(f);
        assert_eq!(load_raw(&t, f, KIND_FLAT, "m"), None);
        assert!(load_raw(&t, f, KIND_MATRICES, "m").is_some());
        drop(release);
        t.flush();
        assert!(!t.state.path_for(f, KIND_FLAT, "m").exists());
        assert!(t.state.pending_purges().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- Hostile input for `load`. ---

    /// A real key's file holds `bytes`: the load must miss, count one
    /// corrupt file and delete it.
    fn assert_rejected(t: &DiskTier, f: SchemaFingerprint, kind: u8, meta: &str, bytes: &[u8]) {
        let path = t.state.path_for(f, kind, meta);
        std::fs::write(&path, bytes).unwrap();
        let before = t.corrupt();
        assert_eq!(
            load_raw(t, f, kind, meta),
            None,
            "{} bytes accepted",
            bytes.len()
        );
        assert_eq!(t.corrupt(), before + 1);
        assert!(!path.exists(), "a rejected file is deleted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_bytes_under_a_real_key_are_rejected(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let (t, dir) = tier();
            assert_rejected(&t, fp("arb"), KIND_FLAT, "flat|key", &bytes);
            let _ = std::fs::remove_dir_all(dir);
        }

        #[test]
        fn every_truncation_is_rejected(
            payload in prop::collection::vec(any::<u8>(), 0..96),
            cost in any::<u64>(),
        ) {
            let (t, dir) = tier();
            let f = fp("trunc");
            let valid = envelope(KIND_MATRICES, 8, b"mat|key1", cost, &payload);
            for len in 0..valid.len() {
                assert_rejected(&t, f, KIND_MATRICES, "mat|key1", &valid[..len]);
            }
            std::fs::write(t.state.path_for(f, KIND_MATRICES, "mat|key1"), &valid).unwrap();
            prop_assert_eq!(load_raw(&t, f, KIND_MATRICES, "mat|key1"), Some((payload, cost)));
            let _ = std::fs::remove_dir_all(dir);
        }

        #[test]
        fn every_single_byte_overwrite_is_rejected(
            payload in prop::collection::vec(any::<u8>(), 0..64),
            flip in 1u8..=255,
        ) {
            let (t, dir) = tier();
            let f = fp("overwrite");
            let valid = envelope(KIND_MULTILEVEL, 5, b"mls|k", 11, &payload);
            for pos in 0..valid.len() {
                let mut mutated = valid.clone();
                mutated[pos] ^= flip;
                assert_rejected(&t, f, KIND_MULTILEVEL, "mls|k", &mutated);
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_header_claiming_u32_max_meta_bytes_is_rejected() {
        let (t, dir) = tier();
        let meta = "flat|key";
        let claimed = envelope(KIND_FLAT, u32::MAX, meta.as_bytes(), 1, b"payload");
        assert_rejected(&t, fp("huge"), KIND_FLAT, meta, &claimed);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_file_of_only_the_fixed_bytes_is_rejected() {
        let (t, dir) = tier();
        let f = fp("fixed");
        assert_rejected(&t, f, KIND_FLAT, "flat|key", &[0u8; FIXED_BYTES]);
        // A well-formed envelope with empty key-meta and payload: exactly
        // the fixed bytes, valid checksum, but not this key's artifact.
        let empty = envelope(KIND_FLAT, 0, b"", 0, b"");
        assert_eq!(empty.len(), FIXED_BYTES);
        assert_rejected(&t, f, KIND_FLAT, "flat|key", &empty);
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- The checksum itself. ---

    /// Changing the checksum function orphans every store on upgrade (all
    /// files read as corrupt): this pins it.
    #[test]
    fn checksum_golden_digests() {
        // Seven whole blocks, then a tail of twelve words and three bytes.
        let input: Vec<u8> = (0..1003u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(
            hex(&envelope_checksum(&input)),
            "919d734aedfcf796cb2e24a2250f857f"
        );
        assert_eq!(
            hex(&envelope_checksum(b"")),
            "5a4b78a997d730ef38be6eac6dd57cdc"
        );
        assert_eq!(
            hex(&envelope_checksum(b"SSUMART2")),
            "07902a80caae3bfb483810ecf6873f63"
        );
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // 1 KiB (whole blocks), and a length ending in a partial word.
        for len in [1024usize, 1021] {
            let buffer: Vec<u8> = (0..len as u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
                .collect();
            let reference = envelope_checksum(&buffer);
            let mut flipped = buffer.clone();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    envelope_checksum(&flipped),
                    reference,
                    "length {len}, bit {bit}"
                );
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_digest() {
        let buffer: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        for len in 0..=buffer.len() {
            let mut longer = buffer[..len].to_vec();
            longer.push(0);
            assert_ne!(
                envelope_checksum(&buffer[..len]),
                envelope_checksum(&longer),
                "length {len}"
            );
        }
    }
}
