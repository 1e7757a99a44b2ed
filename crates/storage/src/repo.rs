//! The versioned document repository — the paper's §7.1 storage model.
//!
//! "We assume that document versions are stored as a complete current
//! version and previous versions stored in a chain of completed deltas.
//! […] Each delta will in fact be stored as a separate XML document. […]
//! The delta documents are indexed in a delta index. Each version is
//! numbered, so that we do not have to store the timestamps in the text
//! indexes etc. For each numbered delta, we store the timestamp of the
//! actual version in the delta index."
//!
//! Concretely, a named document owns:
//!
//! * a **current version** record (binary tree codec, XIDs + timestamps),
//! * a **version entry** per version — the *delta index*: the version's
//!   commit timestamp, the record id of the completed delta leading *to*
//!   that version (stored as XML text, per the paper), an optional
//!   **snapshot** record (complete materialisation — §7.3.3's "possibility
//!   of snapshot versions", created every `snapshot_every` versions), and a
//!   tombstone flag (the version is a deletion; the document is invalid
//!   from that timestamp until a later put resurrects it),
//! * the document's XID allocation high-water mark (XIDs are never reused,
//!   §3.2).
//!
//! Every mutation is WAL-logged before touching pages; recovery replays the
//! tail deterministically (the diff is deterministic, so replay reproduces
//! identical XIDs, deltas and records).

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use txdb_base::obs::{Counter, EventValue, JsonLinesSink, Registry};
use txdb_base::{DocId, Error, Interval, Result, Timestamp, VersionId, Xid};
use txdb_delta::{delta_from_xml, delta_to_xml, diff_trees, Delta, Walk};
use txdb_xml::codec::{decode_tree, encode_tree, write_varint};
use txdb_xml::parse::{parse_with, ParseOptions};
use txdb_xml::tree::Tree;

use crate::btree::BTree;
use crate::buffer::{BufferPool, BufferStats};
use crate::ckpt::{CheckpointInfo, CheckpointStore};
use crate::heap::{Heap, RecordId};
use crate::pager::Pager;
use crate::snapshot::SnapshotRegistry;
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{Wal, WalMetrics};

/// Pager root-slot assignments for store components.
pub mod roots {
    /// Heap head page.
    pub const HEAP: usize = 0;
    /// Catalog B+-tree (document name → doc id).
    pub const CATALOG: usize = 1;
    /// Directory B+-tree (doc id → metadata record id).
    pub const DOCS: usize = 2;
    /// Next document id counter (stored as a raw u64 in the slot).
    pub const NEXT_DOC: usize = 3;
    /// Reserved for the persistent EID-time index (txdb-index).
    pub const EID_INDEX: usize = 4;
    /// Reserved for persisted full-text-index metadata (txdb-index).
    pub const FTI_META: usize = 5;
    /// Checkpoint generation counter (stored as a raw u64 in the slot),
    /// fencing the double-write journal: a sealed journal whose
    /// generation is at or below the durable header's value has already
    /// been applied, and recovery skips (and retires) it.
    pub const CKPT_GEN: usize = 6;
}

/// Store configuration.
#[derive(Clone)]
pub struct StoreOptions {
    /// Directory for `data.db` + `wal.log`; `None` = fully in-memory.
    pub path: Option<PathBuf>,
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// Materialize a complete snapshot every `k` versions (§7.3.3);
    /// `None` = snapshots disabled (pure delta chain).
    pub snapshot_every: Option<u32>,
    /// Fsync the WAL on every append.
    pub wal_sync: bool,
    /// Byte budget of the materialized-version cache (reconstructed trees
    /// keyed by `(doc, version)`); `0` disables it. The cache turns the
    /// repeated backward-delta reconstructions of `DocHistory` /
    /// `TPatternScanAll` into lookups without changing any result — only
    /// the delta-application counts reported by `*_counted` methods drop.
    pub cache_bytes: usize,
    /// File-system implementation for the file backend; `None` = the
    /// real file system. The fault-injection harness passes a
    /// [`crate::vfs::FaultyVfs`] here.
    pub vfs: Option<Arc<dyn Vfs>>,
    /// Metrics registry shared with the caller; `None` = the store
    /// creates a private one (reachable via [`DocumentStore::metrics`]).
    /// Buffer-pool, WAL, version-cache, reconstruction and recovery
    /// counters all register here.
    pub metrics: Option<Arc<Registry>>,
    /// Append trace events (spans, recovery fallbacks) as JSON lines to
    /// this file; `None` = tracing disabled (metrics still collected).
    pub event_log: Option<PathBuf>,
}

impl std::fmt::Debug for StoreOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreOptions")
            .field("path", &self.path)
            .field("buffer_pages", &self.buffer_pages)
            .field("snapshot_every", &self.snapshot_every)
            .field("wal_sync", &self.wal_sync)
            .field("cache_bytes", &self.cache_bytes)
            .field("vfs", &self.vfs.as_ref().map(|_| "custom"))
            .field("metrics", &self.metrics.as_ref().map(|_| "shared"))
            .field("event_log", &self.event_log)
            .finish()
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            path: None,
            buffer_pages: 4096,
            snapshot_every: None,
            wal_sync: false,
            cache_bytes: 8 << 20,
            vfs: None,
            metrics: None,
            event_log: None,
        }
    }
}

/// Why/how a version exists — drives reconstruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VersionKind {
    /// A stored (or initial) content version.
    Content,
    /// A deletion: the document is invalid from this entry's timestamp
    /// until the next entry (if any).
    Tombstone,
    /// A version whose payload was removed by [`DocumentStore::vacuum`]:
    /// the entry (and its timestamp) remains so version numbering stays
    /// dense, but the version can no longer be reconstructed or selected.
    Purged,
}

/// One row of a document's delta index (§7.1).
#[derive(Clone, Debug)]
pub struct VersionEntry {
    /// The dense version number.
    pub version: VersionId,
    /// Commit (transaction) timestamp of the version.
    pub ts: Timestamp,
    /// Content or tombstone.
    pub kind: VersionKind,
    /// Record holding the completed delta *into* this version (absent for
    /// the first version and for tombstones).
    pub delta_rid: Option<RecordId>,
    /// Record holding a complete snapshot of this version, if materialized.
    pub snapshot_rid: Option<RecordId>,
}

/// What one [`DocumentStore::version_tree_counted`] call cost (§7.3.3):
/// the completed deltas it applied and its own version-cache lookups (at
/// most one direct lookup and one seed lookup). The store-wide
/// `vcache.*` counters count the same lookups for every caller at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconstructCost {
    /// Completed deltas applied backwards.
    pub deltas: usize,
    /// Version-cache lookups that found their version.
    pub cache_hits: usize,
    /// Version-cache lookups that did not.
    pub cache_misses: usize,
}

impl ReconstructCost {
    /// Counts one cache lookup by its outcome and passes the outcome on.
    fn lookup<T>(&mut self, found: Option<T>) -> Option<T> {
        if found.is_some() {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        found
    }
}

/// Magic prefix of every encoded metadata record. Together with the
/// embedded document id it makes metadata **self-identifying**: a raw
/// heap sweep can find every document without consulting the catalog —
/// the basis of [`DocumentStore::salvage_rebuild_catalog`].
const META_MAGIC: [u8; 2] = [0xDC, 0x01];

#[derive(Clone, Debug)]
struct DocMeta {
    doc: DocId,
    name: String,
    next_xid: Xid,
    current_rid: Option<RecordId>,
    entries: Vec<VersionEntry>,
}

impl DocMeta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 32);
        out.extend_from_slice(&META_MAGIC);
        write_varint(&mut out, self.doc.0 as u64);
        write_varint(&mut out, self.name.len() as u64);
        out.extend_from_slice(self.name.as_bytes());
        write_varint(&mut out, self.next_xid.0);
        match self.current_rid {
            Some(rid) => {
                out.push(1);
                out.extend_from_slice(&rid.to_bytes());
            }
            None => out.push(0),
        }
        write_varint(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            write_varint(&mut out, e.ts.micros());
            out.push(match e.kind {
                VersionKind::Content => 0,
                VersionKind::Tombstone => 1,
                VersionKind::Purged => 2,
            });
            match e.delta_rid {
                Some(rid) => {
                    out.push(1);
                    out.extend_from_slice(&rid.to_bytes());
                }
                None => out.push(0),
            }
            match e.snapshot_rid {
                Some(rid) => {
                    out.push(1);
                    out.extend_from_slice(&rid.to_bytes());
                }
                None => out.push(0),
            }
        }
        out
    }

    fn decode(mut b: &[u8]) -> Result<DocMeta> {
        fn varint(b: &mut &[u8]) -> Result<u64> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let (&byte, rest) =
                    b.split_first().ok_or_else(|| Error::Corrupt("truncated doc meta".into()))?;
                *b = rest;
                v |= ((byte & 0x7f) as u64) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift >= 64 {
                    return Err(Error::Corrupt("varint overflow in doc meta".into()));
                }
            }
        }
        fn take<'a>(b: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
            if b.len() < n {
                return Err(Error::Corrupt("truncated doc meta".into()));
            }
            let (head, rest) = b.split_at(n);
            *b = rest;
            Ok(head)
        }
        fn opt_rid(b: &mut &[u8]) -> Result<Option<RecordId>> {
            match take(b, 1)?[0] {
                0 => Ok(None),
                1 => Ok(Some(RecordId::from_bytes(take(b, 10)?)?)),
                x => Err(Error::Corrupt(format!("bad rid flag {x}"))),
            }
        }
        let b = &mut b;
        if take(b, 2)? != META_MAGIC {
            return Err(Error::Corrupt("bad doc meta magic".into()));
        }
        let doc = DocId(
            u32::try_from(varint(b)?)
                .map_err(|_| Error::Corrupt("doc id overflow in doc meta".into()))?,
        );
        let name_len = varint(b)? as usize;
        let name = String::from_utf8(take(b, name_len)?.to_vec())
            .map_err(|_| Error::Corrupt("bad utf8 in doc name".into()))?;
        let next_xid = Xid(varint(b)?);
        let current_rid = opt_rid(b)?;
        let n = varint(b)? as usize;
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let ts = Timestamp::from_micros(varint(b)?);
            let kind = match take(b, 1)?[0] {
                0 => VersionKind::Content,
                1 => VersionKind::Tombstone,
                2 => VersionKind::Purged,
                x => return Err(Error::Corrupt(format!("bad version kind {x}"))),
            };
            let delta_rid = opt_rid(b)?;
            let snapshot_rid = opt_rid(b)?;
            entries.push(VersionEntry {
                version: VersionId(i as u32),
                ts,
                kind,
                delta_rid,
                snapshot_rid,
            });
        }
        Ok(DocMeta { doc, name, next_xid, current_rid, entries })
    }

    fn last(&self) -> Option<&VersionEntry> {
        self.entries.last()
    }

    fn is_deleted(&self) -> bool {
        matches!(self.last().map(|e| e.kind), Some(VersionKind::Tombstone))
    }

    /// The last content (non-tombstone) version.
    fn last_content(&self) -> Option<&VersionEntry> {
        self.entries.iter().rev().find(|e| e.kind == VersionKind::Content)
    }
}

/// Outcome of a [`DocumentStore::put`].
#[derive(Debug)]
pub struct PutResult {
    /// The document.
    pub doc: DocId,
    /// The version this put produced (or the unchanged current version).
    pub version: VersionId,
    /// The put's transaction timestamp.
    pub ts: Timestamp,
    /// True when the document did not exist before (first version).
    pub created: bool,
    /// True when the document was deleted before this put (its last
    /// version was a tombstone): the put revives it.
    pub resurrected: bool,
    /// False when the new content was identical to the current version and
    /// no new version was recorded.
    pub changed: bool,
    /// The delta from the previous version (None for first versions,
    /// unchanged puts and resurrections-from-tombstone replays).
    pub delta: Option<Delta>,
    /// The previous current tree (for index maintenance).
    pub old_tree: Option<Tree>,
    /// The stored new current tree, XIDs assigned.
    pub new_tree: Tree,
}

/// A document found by name: its id and its cached metadata record.
type FoundMeta = (DocId, Arc<(RecordId, DocMeta)>);

/// Pre-WAL validation: the new timestamp must exceed the last version
/// time of an existing document.
fn check_monotonic(found: Option<&FoundMeta>, ts: Timestamp) -> Result<()> {
    if let Some(last) = found.and_then(|(_, cached)| cached.1.last()) {
        if ts <= last.ts {
            return Err(Error::QueryInvalid(format!(
                "non-monotonic write: {ts} <= last version time {}",
                last.ts
            )));
        }
    }
    Ok(())
}

/// Outcome of a [`DocumentStore::delete`].
#[derive(Debug)]
pub struct DeleteResult {
    /// The document.
    pub doc: DocId,
    /// The tombstone's version number.
    pub version: VersionId,
    /// Deletion timestamp.
    pub ts: Timestamp,
    /// The tree that was current before deletion (for index maintenance).
    pub old_tree: Tree,
}

/// What recovery did at open time.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// WAL records replayed.
    pub replayed: usize,
    /// WAL records that could not be applied (logically invalid — e.g.
    /// written by a buggy client version) and were skipped. Structural
    /// corruption still fails the open.
    pub skipped: usize,
    /// Torn bytes dropped from the WAL tail.
    pub torn_bytes: u64,
    /// `Some(reason)` when recovery hit corruption beyond the torn tail
    /// and the store opened in read-only salvage mode: surviving data is
    /// readable, mutations return [`Error::ReadOnly`], and the WAL is
    /// preserved for diagnosis (`fsck` / `repair_wal_tail`).
    pub salvage: Option<String>,
    /// Document chains that failed to replay into the in-memory indexes
    /// during a salvage-mode open (filled in by the database layer).
    /// Those documents stay readable through the store but are invisible
    /// to index-backed queries until repaired.
    pub unindexed_chains: usize,
    /// How the persisted index checkpoint participated in this open
    /// (filled in by the database layer).
    pub index_checkpoint: IndexCheckpointReport,
    /// State of the double-write checkpoint journal found at open
    /// ([`crate::journal::JournalState`] rendered: "absent", "sealed (…)"
    /// or "stale (…)"). In-memory stores report "absent".
    pub journal_state: String,
    /// Page images replayed from a sealed journal to their home
    /// locations, before the pager read a single page.
    pub journal_replayed_pages: usize,
    /// True when a sealed journal was skipped by the generation fence
    /// (its apply had completed; only the retire was lost in the crash).
    pub journal_fenced: bool,
    /// True when stale (torn, never-replayable) journal residue was
    /// found and automatically retired during this open.
    pub journal_stale_retired: bool,
}

/// Whether the open path could use the persisted index checkpoint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum IndexCheckpointState {
    /// No checkpoint had ever been written.
    #[default]
    Absent,
    /// The checkpoint loaded; only history above each document's
    /// high-water mark was replayed.
    Loaded,
    /// A checkpoint existed but was unusable (CRC failure, format
    /// mismatch, …); the indexes were rebuilt by full replay instead.
    Fallback,
}

/// Index-checkpoint details inside a [`RecoveryReport`].
#[derive(Debug, Default, Clone)]
pub struct IndexCheckpointReport {
    /// Outcome of the checkpoint load attempt.
    pub state: IndexCheckpointState,
    /// Documents whose indexes were restored from the checkpoint
    /// (possibly with a tail replay on top).
    pub docs_loaded: usize,
    /// Documents rebuilt by full replay (new since the checkpoint, stale
    /// in it, or every document when the load fell back).
    pub docs_replayed: usize,
    /// Versions replayed above the per-document high-water marks.
    pub versions_replayed: usize,
    /// Why the load fell back (or was partial), when it did.
    pub note: Option<String>,
}

/// Outcome of a [`DocumentStore::vacuum`].
#[derive(Debug, Default, Clone, Copy)]
pub struct VacuumStats {
    /// Content versions whose payload was purged.
    pub purged_versions: usize,
    /// Bytes of delta/snapshot records freed.
    pub freed_bytes: u64,
    /// The purge horizon actually applied: the requested `before`, unless
    /// a live snapshot pin clamped it lower ([`Timestamp::ZERO`] when the
    /// document did not exist).
    pub horizon: Timestamp,
}

/// Space usage, for the storage experiments (E8).
#[derive(Debug, Default, Clone, Copy)]
pub struct SpaceStats {
    /// Bytes of current-version records.
    pub current_bytes: u64,
    /// Bytes of delta records.
    pub delta_bytes: u64,
    /// Bytes of snapshot records.
    pub snapshot_bytes: u64,
    /// Bytes of metadata records.
    pub meta_bytes: u64,
    /// Total pages allocated in the pager.
    pub pages: u64,
}

/// Result of an offline integrity check ([`DocumentStore::fsck`]).
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Total pages in the store file.
    pub pages: u64,
    /// Pages whose CRC32 trailer did not match their contents **and**
    /// that are reachable from a live structure (header, free list, heap
    /// chains, btrees, checkpoint chain, document records). These are
    /// real corruption: some read path can hit them.
    pub bad_pages: Vec<u64>,
    /// CRC-dirty pages that no live structure references — *leaked*
    /// pages, typically abandoned by [`DocumentStore::salvage_rebuild_catalog`]
    /// (which must not trust broken btrees enough to free their pages) or
    /// by a crash between allocation and linking. They waste space but no
    /// read path can reach them, so they are reported, not fatal: the
    /// store stays `clean` and the sweep continues instead of failing.
    pub leaked_pages: Vec<u64>,
    /// Documents visited in the catalog sweep.
    pub docs: usize,
    /// Version entries (delta-index rows) checked.
    pub versions_checked: usize,
    /// Content versions successfully reconstructed through their
    /// backward delta chains.
    pub reconstructed: usize,
    /// Intact records still sitting in the WAL (normally zero after a
    /// clean open, which checkpoints).
    pub wal_records: usize,
    /// Torn bytes at the WAL tail (removable with
    /// [`DocumentStore::repair_wal_tail`]).
    pub torn_bytes: u64,
    /// State of the persisted index checkpoint: "absent", "ok (…)" or
    /// "unreadable (…)". An unreadable checkpoint does **not** make the
    /// store unclean — the open path falls back to a full index rebuild,
    /// so no data is at risk, only open time.
    pub index_checkpoint: String,
    /// State of the double-write checkpoint journal: "absent" (steady
    /// state), "sealed (…)" (an unapplied batch the next open replays) or
    /// "stale (…)" (torn residue; open retires it automatically, and
    /// [`DocumentStore::retire_journal`] / `fsck --repair-tail` remove it
    /// from a live handle). Neither residual state makes the store
    /// unclean: sealed is recovered at open, stale was never applied.
    pub journal: String,
    /// Documents whose metadata records survive in the heap and could be
    /// restored by [`DocumentStore::salvage_rebuild_catalog`]. Only
    /// counted when the document btree itself is unreadable.
    pub salvageable_docs: usize,
    /// Human-readable description of every problem found.
    pub errors: Vec<String>,
}

impl FsckReport {
    /// True when no corruption of any kind was found. A torn WAL tail
    /// alone does not make a store unclean — it is the expected residue
    /// of a crash and recovery already discards it. Leaked pages
    /// ([`FsckReport::leaked_pages`]) likewise do not: nothing reachable
    /// references them.
    pub fn is_clean(&self) -> bool {
        self.bad_pages.is_empty() && self.errors.is_empty()
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pages:            {}", self.pages)?;
        writeln!(f, "bad pages:        {}", self.bad_pages.len())?;
        for p in &self.bad_pages {
            writeln!(f, "  page {p}: checksum mismatch")?;
        }
        if !self.leaked_pages.is_empty() {
            writeln!(
                f,
                "leaked pages:     {} (checksum-dirty but unreachable; wasted space, not corruption)",
                self.leaked_pages.len()
            )?;
            for p in &self.leaked_pages {
                writeln!(f, "  page {p}: unreachable, checksum mismatch")?;
            }
        }
        writeln!(f, "documents:        {}", self.docs)?;
        writeln!(f, "versions checked: {}", self.versions_checked)?;
        writeln!(f, "reconstructed:    {}", self.reconstructed)?;
        writeln!(f, "wal records:      {}", self.wal_records)?;
        writeln!(f, "wal torn bytes:   {}", self.torn_bytes)?;
        writeln!(f, "index checkpoint: {}", self.index_checkpoint)?;
        writeln!(f, "journal:          {}", self.journal)?;
        if self.salvageable_docs > 0 {
            writeln!(
                f,
                "salvageable docs: {} (catalog can be rebuilt from surviving heap pages)",
                self.salvageable_docs
            )?;
        }
        for e in &self.errors {
            writeln!(f, "error: {e}")?;
        }
        write!(f, "status:           {}", if self.is_clean() { "clean" } else { "CORRUPT" })
    }
}

const WAL_PUT: u8 = 1;
const WAL_DELETE: u8 = 2;
const WAL_VACUUM: u8 = 3;

/// Shard count of the decoded-metadata cache. Like the version cache's
/// sharding, this keeps a fleet of concurrent readers from convoying on
/// one mutex; 16 shards make same-shard collisions rare at the thread
/// counts the store targets (≤ 16 concurrent readers per core group).
const META_SHARDS: usize = 16;

/// One cached entry: the record id of the metadata record plus its
/// decoded form, shared with every reader that hit the cache.
type CachedMeta = Arc<(RecordId, DocMeta)>;
type MetaShard = Mutex<std::collections::HashMap<DocId, CachedMeta>>;

/// Sharded decoded-metadata cache (doc id → `Arc<(meta rid, DocMeta)>`).
/// Readers on different documents take different mutexes; each lock is
/// held only for a `HashMap` probe — never across I/O.
struct MetaCache {
    shards: Vec<MetaShard>,
}

impl MetaCache {
    fn new() -> MetaCache {
        MetaCache {
            shards: (0..META_SHARDS)
                .map(|_| Mutex::new(std::collections::HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, doc: DocId) -> &MetaShard {
        &self.shards[doc.0 as usize % META_SHARDS]
    }

    fn get(&self, doc: DocId) -> Option<CachedMeta> {
        self.shard(doc).lock().get(&doc).cloned()
    }

    fn insert(&self, doc: DocId, meta: CachedMeta) {
        self.shard(doc).lock().insert(doc, meta);
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// The document store.
pub struct DocumentStore {
    pool: Arc<BufferPool>,
    heap: Heap,
    catalog: BTree,
    docs: BTree,
    wal: Wal,
    /// Serialized-index checkpoint blob, rooted at [`roots::FTI_META`].
    ckpt: CheckpointStore,
    opts: StoreOptions,
    /// Single-writer / multi-reader isolation: writers relocate heap
    /// records in place (the current-version record is updated on every
    /// put), so readers must not observe a half-applied operation. The
    /// write-side critical section covers validate + WAL append + page
    /// apply only — the commit fsync happens *after* the guard drops, so
    /// readers and other committers proceed while the leader syncs.
    sync: RwLock<()>,
    /// Decoded-metadata cache: document metadata (the delta index) is read
    /// on every temporal lookup; decoding the record each time would make
    /// `version_at` O(versions) per call. Sharded so concurrent readers
    /// don't convoy on one mutex. Writers invalidate.
    meta_cache: MetaCache,
    /// Live snapshot pins: vacuum's purge horizon is clamped below the
    /// oldest pinned timestamp (before WAL logging, so replay reproduces
    /// exactly what was applied).
    snapshots: Arc<SnapshotRegistry>,
    /// Materialized-version cache (§7.3.3 reconstruction results), byte-
    /// budgeted by [`StoreOptions::cache_bytes`]. Writers invalidate per
    /// document; `fsck` bypasses it so the check exercises real chains.
    vcache: crate::vcache::VersionCache,
    /// Set when the store degraded to read-only salvage mode at open;
    /// never cleared for the lifetime of the handle. The string is the
    /// reason, surfaced through [`Error::ReadOnly`].
    read_only: Mutex<Option<String>>,
    /// The metrics registry every component of this store reports into
    /// (buffer pool, WAL, vcache, reconstruction, recovery) — shared
    /// with the caller when [`StoreOptions::metrics`] was set.
    metrics: Arc<Registry>,
    /// Cached hot-path counter handles (one registry lookup at open).
    obs: StoreObs,
}

/// Hot-path counter handles cached at open so steady-state instrumentation
/// is a relaxed atomic increment, never a registry lookup.
struct StoreObs {
    /// Reconstructions performed (`reconstruct.calls`).
    reconstructs: Counter,
    /// Deltas applied across all reconstructions
    /// (`reconstruct.deltas_applied`) — the paper's E4 cost metric.
    reconstruct_deltas: Counter,
    /// Reconstructions seeded from a snapshot record
    /// (`reconstruct.snapshot_seeds`).
    snapshot_seeds: Counter,
}

impl StoreObs {
    fn registered(reg: &Registry) -> StoreObs {
        StoreObs {
            reconstructs: reg.counter("reconstruct.calls"),
            reconstruct_deltas: reg.counter("reconstruct.deltas_applied"),
            snapshot_seeds: reg.counter("reconstruct.snapshot_seeds"),
        }
    }
}

impl DocumentStore {
    /// Opens (or creates) a store, running WAL recovery when needed.
    pub fn open(opts: StoreOptions) -> Result<(DocumentStore, RecoveryReport)> {
        let metrics = opts.metrics.clone().unwrap_or_else(|| Arc::new(Registry::new()));
        if let Some(path) = &opts.event_log {
            metrics.set_sink(Arc::new(JsonLinesSink::create(path)?));
        }
        let mut journal_outcome = crate::journal::RecoverOutcome {
            state: crate::journal::JournalState::Absent.to_string(),
            ..Default::default()
        };
        let (pager, mut wal) = match &opts.path {
            None => (Pager::memory(), Wal::memory()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let vfs: &dyn Vfs = opts.vfs.as_deref().unwrap_or(&RealVfs);
                // A sealed double-write journal must be replayed before
                // the pager reads a single page: the crash that left it
                // behind may have torn any home page — page 0 included —
                // and the journal holds the only good image.
                journal_outcome = crate::journal::recover(vfs, dir)?;
                (
                    Pager::open_with(vfs, &dir.join("data.db"))?,
                    Wal::open_with(vfs, &dir.join("wal.log"), opts.wal_sync)?,
                )
            }
        };
        wal.set_metrics(WalMetrics::registered(&metrics));
        let pool = Arc::new(BufferPool::with_metrics(pager, opts.buffer_pages, &metrics));
        let heap = Heap::open(pool.clone(), roots::HEAP)?;
        let catalog = BTree::open(pool.clone(), roots::CATALOG)?;
        let docs = BTree::open(pool.clone(), roots::DOCS)?;
        let vcache = crate::vcache::VersionCache::with_metrics(opts.cache_bytes, &metrics);
        let ckpt = CheckpointStore::new(pool.clone(), roots::FTI_META);
        let obs = StoreObs::registered(&metrics);
        let store = DocumentStore {
            pool,
            heap,
            catalog,
            docs,
            wal,
            ckpt,
            opts,
            sync: RwLock::new(()),
            meta_cache: MetaCache::new(),
            snapshots: Arc::new(SnapshotRegistry::new(metrics.gauge("db.active_snapshots"))),
            vcache,
            read_only: Mutex::new(None),
            metrics,
            obs,
        };
        // Recovery, phase 2 (journal replay above was phase 1): replay
        // the WAL tail against the checkpointed page image.
        let mut report = RecoveryReport {
            journal_state: journal_outcome.state,
            journal_replayed_pages: journal_outcome.replayed_pages,
            journal_fenced: journal_outcome.fenced,
            journal_stale_retired: journal_outcome.stale_retired,
            ..RecoveryReport::default()
        };
        // Register unconditionally so the counters appear (at zero) in
        // every metrics snapshot, fault-injected open or not.
        let journal_replays = store.metrics.counter("recovery.journal_replays");
        let residue_retired = store.metrics.counter("recovery.journal_residue_retired");
        if report.journal_replayed_pages > 0 {
            journal_replays.inc();
            store.metrics.emit(
                "recovery.journal_replay",
                &[
                    ("pages", EventValue::U64(report.journal_replayed_pages as u64)),
                    ("state", EventValue::Str(&report.journal_state)),
                ],
            );
        }
        if report.journal_stale_retired {
            residue_retired.inc();
            store.metrics.emit(
                "recovery.journal_residue_retired",
                &[("state", EventValue::Str(&report.journal_state))],
            );
        }
        match store.wal.replay() {
            Ok(summary) => {
                report.torn_bytes = summary.torn_bytes;
                for rec in &summary.records {
                    match store.replay_record(rec) {
                        Ok(()) => report.replayed += 1,
                        // A logically-invalid record (rejected input that
                        // slipped into the log, or an op from a newer
                        // client) must not wedge the store forever: skip
                        // it and keep going.
                        Err(Error::QueryInvalid(_))
                        | Err(Error::XmlParse { .. })
                        | Err(Error::TimeParse(_)) => report.skipped += 1,
                        // Structural damage beyond the torn tail (page
                        // checksum failures, broken references, a corrupt
                        // log body): stop replaying and degrade to
                        // read-only salvage mode rather than refusing to
                        // open. Everything replayed so far plus the
                        // checkpointed image stays readable.
                        Err(e) => {
                            report.salvage = Some(format!(
                                "WAL replay failed after {} record(s): {e}",
                                report.replayed
                            ));
                            break;
                        }
                    }
                }
            }
            Err(e) => {
                report.salvage = Some(format!("WAL unreadable: {e}"));
            }
        }
        store.metrics.counter("recovery.wal_records_replayed").add(report.replayed as u64);
        store.metrics.counter("recovery.wal_records_skipped").add(report.skipped as u64);
        store.metrics.counter("recovery.wal_torn_bytes").add(report.torn_bytes);
        if let Some(reason) = &report.salvage {
            *store.read_only.lock() = Some(reason.clone());
            store.metrics.counter("recovery.salvage_opens").inc();
            store.metrics.emit("recovery.salvage", &[("reason", EventValue::Str(reason))]);
        } else if report.replayed > 0 || report.skipped > 0 {
            // No checkpoint in salvage mode: the WAL is evidence and the
            // remedy (`fsck --repair-tail`) must still find it intact.
            store.checkpoint()?;
        }
        Ok((store, report))
    }

    /// Convenience: open a fresh in-memory store.
    pub fn in_memory() -> DocumentStore {
        DocumentStore::open(StoreOptions::default()).expect("in-memory open cannot fail").0
    }

    /// Buffer-pool statistics (the I/O-cost metric in experiments).
    pub fn buffer_stats(&self) -> &BufferStats {
        &self.pool.stats
    }

    /// The store's metrics registry — every component (buffer pool, WAL,
    /// vcache, reconstruction, recovery) reports here, and `txdb
    /// metrics` / the bench binaries render it.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Refreshes the derived gauges (cache hit ratios in basis points,
    /// residency, WAL size) from the live counters. Called just before a
    /// snapshot is rendered; the hot paths never pay for division.
    pub fn update_derived_metrics(&self) {
        let (gets, hits, ..) = self.pool.stats.snapshot();
        let bp = (hits * 10_000).checked_div(gets).unwrap_or(0);
        self.metrics.gauge("buffer.hit_ratio_bp").set(bp);
        self.metrics.gauge("buffer.cached_pages").set(self.pool.cached() as u64);
        let (vhits, vmisses, ..) = self.vcache.stats.snapshot();
        let vbp = (vhits * 10_000).checked_div(vhits + vmisses).unwrap_or(0);
        self.metrics.gauge("vcache.hit_ratio_bp").set(vbp);
        self.metrics.gauge("vcache.entries").set(self.vcache.len() as u64);
        self.metrics.gauge("vcache.resident_bytes").set(self.vcache.resident_bytes() as u64);
        if let Ok(size) = self.wal.size() {
            self.metrics.gauge("wal.size_bytes").set(size);
        }
    }

    /// The underlying buffer pool (shared with indexes).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// True when the store opened in read-only salvage mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only.lock().is_some()
    }

    /// The salvage reason, when the store is read-only.
    pub fn read_only_reason(&self) -> Option<String> {
        self.read_only.lock().clone()
    }

    fn ensure_writable(&self) -> Result<()> {
        match &*self.read_only.lock() {
            Some(reason) => Err(Error::ReadOnly(reason.clone())),
            None => Ok(()),
        }
    }

    fn replay_record(&self, rec: &[u8]) -> Result<()> {
        if rec.is_empty() {
            return Err(Error::WalCorrupt(0, "empty record".into()));
        }
        match rec[0] {
            WAL_PUT => {
                let (name, rest) = decode_str(&rec[1..])?;
                let ts = Timestamp::from_micros(u64::from_le_bytes(
                    rest.get(0..8)
                        .ok_or_else(|| Error::WalCorrupt(0, "short put".into()))?
                        .try_into()
                        .expect("fixed-width slice"),
                ));
                let tree = decode_tree(&rest[8..])?;
                self.apply_put(&name, tree, ts, self.lookup_meta(&name)?)?;
                Ok(())
            }
            WAL_DELETE => {
                let (name, rest) = decode_str(&rec[1..])?;
                let ts = Timestamp::from_micros(u64::from_le_bytes(
                    rest.get(0..8)
                        .ok_or_else(|| Error::WalCorrupt(0, "short delete".into()))?
                        .try_into()
                        .expect("fixed-width slice"),
                ));
                self.apply_delete(ts, self.lookup_meta(&name)?)?;
                Ok(())
            }
            WAL_VACUUM => {
                let (name, rest) = decode_str(&rec[1..])?;
                let before = Timestamp::from_micros(u64::from_le_bytes(
                    rest.get(0..8)
                        .ok_or_else(|| Error::WalCorrupt(0, "short vacuum".into()))?
                        .try_into()
                        .expect("fixed-width slice"),
                ));
                self.apply_vacuum(before, self.lookup_meta(&name)?)?;
                Ok(())
            }
            x => Err(Error::WalCorrupt(0, format!("unknown wal op {x}"))),
        }
    }

    /// Stores a new version of `name` from XML text (parses, then
    /// [`DocumentStore::put_tree`]).
    pub fn put(&self, name: &str, xml: &str, ts: Timestamp) -> Result<PutResult> {
        let tree = txdb_xml::parse::parse_document(xml)?;
        self.put_tree(name, tree, ts)
    }

    /// Stores a new version of `name`. Creates the document if absent,
    /// diffs against the current version otherwise; assigns XIDs.
    pub fn put_tree(&self, name: &str, tree: Tree, ts: Timestamp) -> Result<PutResult> {
        let (result, seq) = {
            // Announce before queueing on the writer lock: a group-commit
            // leader mid-fsync-decision will hold its barrier briefly so
            // this record joins the batch.
            let _announced = self.wal.announce();
            let _g = self.sync.write();
            self.ensure_writable()?;
            // One metadata lookup serves validation and apply.
            let found = self.lookup_meta(name)?;
            // Validate BEFORE logging: a record that can never apply must
            // not reach the WAL, or it would poison every future recovery.
            check_monotonic(found.as_ref(), ts)?;
            // WAL first. The logged tree is the raw parsed content (XIDs
            // are assigned deterministically during apply, so replay is
            // exact).
            let mut rec = vec![WAL_PUT];
            encode_str(&mut rec, name);
            rec.extend_from_slice(&ts.micros().to_le_bytes());
            rec.extend_from_slice(&encode_tree(&tree));
            let seq = self.wal.append(&rec)?;
            (self.apply_put(name, tree, ts, found)?, seq)
        };
        // Group-commit durability barrier, *outside* the writer lock:
        // while this thread waits for the fsync (its own, or the current
        // leader's), other committers append + apply freely, so N
        // concurrent committers share ~1 fsync instead of paying N.
        self.wal.commit(seq)?;
        Ok(result)
    }

    /// Applies a put to the document `found` (its [`Self::lookup_meta`]
    /// under the writer lock, `None` for a new document).
    fn apply_put(
        &self,
        name: &str,
        mut tree: Tree,
        ts: Timestamp,
        found: Option<FoundMeta>,
    ) -> Result<PutResult> {
        // Versions keep their attributes in name order, the order delta
        // application inserts them in (see `txdb_delta::ops`).
        let ids: Vec<_> = tree.iter().collect();
        for &id in &ids {
            tree.sort_attrs(id);
        }
        match found {
            None => {
                // Fresh document: assign XIDs in document order.
                let mut next = Xid::FIRST;
                for id in ids {
                    tree.node_mut(id).xid = next;
                    next = next.next();
                }
                tree.stamp_all(ts);
                let doc = self.alloc_doc_id();
                let current_rid = self.heap.insert(&encode_tree(&tree))?;
                let meta = DocMeta {
                    doc,
                    name: name.to_string(),
                    next_xid: next,
                    current_rid: Some(current_rid),
                    entries: vec![VersionEntry {
                        version: VersionId::FIRST,
                        ts,
                        kind: VersionKind::Content,
                        delta_rid: None,
                        snapshot_rid: None,
                    }],
                };
                let meta_rid = self.heap.insert(&meta.encode())?;
                self.catalog.insert(name.as_bytes(), &doc.0.to_be_bytes())?;
                self.docs.insert(&doc.0.to_be_bytes(), &meta_rid.to_bytes())?;
                self.meta_cache.insert(doc, Arc::new((meta_rid, meta)));
                Ok(PutResult {
                    doc,
                    version: VersionId::FIRST,
                    ts,
                    created: true,
                    resurrected: false,
                    changed: true,
                    delta: None,
                    old_tree: None,
                    new_tree: tree,
                })
            }
            Some((doc, cached)) => {
                let (meta_rid, ref stored) = *cached;
                let last_ts = stored.last().map(|e| e.ts).unwrap_or(Timestamp::ZERO);
                if ts <= last_ts {
                    return Err(Error::QueryInvalid(format!(
                        "non-monotonic put: {ts} <= last version time {last_ts}"
                    )));
                }
                let resurrected = stored.is_deleted();
                if stored.last_content().is_none() {
                    let mut meta = stored.clone();
                    // Resurrection after a full vacuum: every content
                    // version below the tombstone was purged, so there is
                    // nothing to diff against — store the new version
                    // complete, like a fresh base (XIDs keep drawing from
                    // the document's counter; they are never reused).
                    let mut next = meta.next_xid;
                    for id in ids {
                        tree.node_mut(id).xid = next;
                        next = next.next();
                    }
                    tree.stamp_all(ts);
                    let new_bytes = encode_tree(&tree);
                    let current_rid = match meta.current_rid {
                        Some(rid) => self.heap.update(rid, &new_bytes)?,
                        None => self.heap.insert(&new_bytes)?,
                    };
                    let version = VersionId(meta.entries.len() as u32);
                    meta.current_rid = Some(current_rid);
                    meta.next_xid = next;
                    meta.entries.push(VersionEntry {
                        version,
                        ts,
                        kind: VersionKind::Content,
                        delta_rid: None,
                        snapshot_rid: None,
                    });
                    self.store_meta(doc, meta_rid, meta)?;
                    return Ok(PutResult {
                        doc,
                        version,
                        ts,
                        created: false,
                        resurrected,
                        changed: true,
                        delta: None,
                        old_tree: None,
                        new_tree: tree,
                    });
                }
                let old_tree = self.current_tree_of(stored)?;
                let from_entry = stored
                    .last_content()
                    .ok_or_else(|| Error::Corrupt("document has no content version".into()))?;
                let (from_version, from_ts) = (from_entry.version, from_entry.ts);
                let mut next_xid = stored.next_xid;
                let result =
                    diff_trees(&old_tree, &mut tree, &mut next_xid, from_version, from_ts, ts)?;
                if result.delta.is_empty() && !resurrected {
                    // Unchanged content: no new version (re-crawl of an
                    // identical page, §3.1).
                    return Ok(PutResult {
                        doc,
                        version: from_version,
                        ts,
                        created: false,
                        resurrected,
                        changed: false,
                        delta: None,
                        old_tree: Some(old_tree),
                        new_tree: tree,
                    });
                }
                let mut meta = stored.clone();
                let version = VersionId(meta.entries.len() as u32);
                // Store the delta as an XML document (§7.1).
                let mut delta = result.delta;
                delta.to_version = version;
                let delta_xml = txdb_xml::serialize::to_string(&delta_to_xml(&delta));
                let delta_rid = self.heap.insert(delta_xml.as_bytes())?;
                // Replace the current version.
                let new_bytes = encode_tree(&tree);
                let current_rid = match meta.current_rid {
                    Some(rid) => self.heap.update(rid, &new_bytes)?,
                    None => self.heap.insert(&new_bytes)?,
                };
                // Snapshot policy (§7.3.3).
                let snapshot_rid = match self.opts.snapshot_every {
                    Some(k) if k > 0 && version.0.is_multiple_of(k) => {
                        Some(self.heap.insert(&new_bytes)?)
                    }
                    _ => None,
                };
                meta.current_rid = Some(current_rid);
                meta.next_xid = next_xid;
                meta.entries.push(VersionEntry {
                    version,
                    ts,
                    kind: VersionKind::Content,
                    delta_rid: Some(delta_rid),
                    snapshot_rid,
                });
                self.store_meta(doc, meta_rid, meta)?;
                Ok(PutResult {
                    doc,
                    version,
                    ts,
                    created: false,
                    resurrected,
                    changed: true,
                    delta: Some(delta),
                    old_tree: Some(old_tree),
                    new_tree: tree,
                })
            }
        }
    }

    /// Deletes `name` at time `ts` (records a tombstone version; history
    /// stays queryable). Returns `None` if the document does not exist or
    /// is already deleted.
    pub fn delete(&self, name: &str, ts: Timestamp) -> Result<Option<DeleteResult>> {
        let (result, seq) = {
            let _announced = self.wal.announce();
            let _g = self.sync.write();
            self.ensure_writable()?;
            // No-op deletes (unknown or already-deleted documents) must
            // not reach the WAL.
            let found = self.lookup_meta(name)?;
            match &found {
                None => return Ok(None),
                Some((_, cached)) if cached.1.is_deleted() => return Ok(None),
                Some(_) => {}
            }
            check_monotonic(found.as_ref(), ts)?;
            let mut rec = vec![WAL_DELETE];
            encode_str(&mut rec, name);
            rec.extend_from_slice(&ts.micros().to_le_bytes());
            let seq = self.wal.append(&rec)?;
            (self.apply_delete(ts, found)?, seq)
        };
        self.wal.commit(seq)?;
        Ok(result)
    }

    fn apply_delete(
        &self,
        ts: Timestamp,
        found: Option<FoundMeta>,
    ) -> Result<Option<DeleteResult>> {
        let Some((doc, cached)) = found else {
            return Ok(None);
        };
        let (meta_rid, ref stored) = *cached;
        if stored.is_deleted() {
            return Ok(None);
        }
        let last_ts = stored.last().map(|e| e.ts).unwrap_or(Timestamp::ZERO);
        if ts <= last_ts {
            return Err(Error::QueryInvalid(format!(
                "non-monotonic delete: {ts} <= last version time {last_ts}"
            )));
        }
        let old_tree = self.current_tree_of(stored)?;
        let mut meta = stored.clone();
        let version = VersionId(meta.entries.len() as u32);
        meta.entries.push(VersionEntry {
            version,
            ts,
            kind: VersionKind::Tombstone,
            delta_rid: None,
            snapshot_rid: None,
        });
        self.store_meta(doc, meta_rid, meta)?;
        Ok(Some(DeleteResult { doc, version, ts, old_tree }))
    }

    /// Purges history: every version whose validity interval ends at or
    /// before `before` loses its stored payload (deltas and snapshots are
    /// freed; the version entry remains, marked [`VersionKind::Purged`], so
    /// version numbering — which the full-text index relies on — stays
    /// dense). Versions valid at or after `before` are untouched, and the
    /// backward reconstruction chain of every retained version remains
    /// complete (it only uses deltas of *newer* versions). Returns `None`
    /// if the document does not exist.
    ///
    /// After a vacuum, temporal queries before the horizon return nothing
    /// and `CreTime` delta traversal bottoms out at the first surviving
    /// version; `Database::vacuum` re-indexes the document from its
    /// surviving chain, so the EID-time index answers the same.
    ///
    /// Live snapshot pins clamp the horizon: a reader pinned at `t < before`
    /// caps the effective purge horizon at `t`, so no version that pinned
    /// reader can still see is freed. The returned stats carry the
    /// effective horizon in [`VacuumStats::horizon`].
    pub fn vacuum(&self, name: &str, before: Timestamp) -> Result<Option<VacuumStats>> {
        let (result, seq) = {
            let _announced = self.wal.announce();
            let _g = self.sync.write();
            self.ensure_writable()?;
            let found = self.lookup_meta(name)?;
            if found.is_none() {
                return Ok(None);
            }
            // Clamp below the oldest pinned snapshot BEFORE logging: the
            // WAL must carry the *effective* horizon, because recovery
            // replays with no pins alive and has to reproduce exactly
            // what was applied here.
            let before = self.snapshots.clamp(before);
            let mut rec = vec![WAL_VACUUM];
            encode_str(&mut rec, name);
            rec.extend_from_slice(&before.micros().to_le_bytes());
            let seq = self.wal.append(&rec)?;
            (self.apply_vacuum(before, found)?, seq)
        };
        self.wal.commit(seq)?;
        Ok(result)
    }

    fn apply_vacuum(
        &self,
        before: Timestamp,
        found: Option<FoundMeta>,
    ) -> Result<Option<VacuumStats>> {
        let Some((doc, cached)) = found else {
            return Ok(None);
        };
        let meta_rid = cached.0;
        let mut meta = cached.1.clone();
        let mut stats = VacuumStats { horizon: before, ..Default::default() };
        let n = meta.entries.len();
        for i in 0..n {
            let end = meta.entries.get(i + 1).map(|e| e.ts).unwrap_or(Timestamp::FOREVER);
            let e = &mut meta.entries[i];
            // The last entry (validity open-ended) is never purged, even
            // with `before = FOREVER`: the current state always survives.
            if end >= before || end == Timestamp::FOREVER || e.kind == VersionKind::Purged {
                continue;
            }
            if let Some(rid) = e.delta_rid.take() {
                stats.freed_bytes += self.heap.get(rid)?.len() as u64;
                self.heap.delete(rid)?;
            }
            if let Some(rid) = e.snapshot_rid.take() {
                stats.freed_bytes += self.heap.get(rid)?.len() as u64;
                self.heap.delete(rid)?;
            }
            if e.kind == VersionKind::Content {
                stats.purged_versions += 1;
            }
            e.kind = VersionKind::Purged;
        }
        // The delta *into* the first retained content version transforms a
        // purged version into it — it can never be applied again. Free it.
        let mut prev_content_purged = false;
        for i in 0..n {
            match meta.entries[i].kind {
                VersionKind::Purged => prev_content_purged = true,
                VersionKind::Tombstone => {}
                VersionKind::Content => {
                    if prev_content_purged {
                        if let Some(rid) = meta.entries[i].delta_rid.take() {
                            stats.freed_bytes += self.heap.get(rid)?.len() as u64;
                            self.heap.delete(rid)?;
                        }
                    }
                    prev_content_purged = false;
                }
            }
        }
        if stats.purged_versions > 0 || stats.freed_bytes > 0 {
            self.store_meta(doc, meta_rid, meta)?;
        }
        Ok(Some(stats))
    }

    fn alloc_doc_id(&self) -> DocId {
        // The NEXT_DOC root slot doubles as a monotone counter.
        let next = self.pool.pager().root(roots::NEXT_DOC).0 + 1;
        self.pool.pager().set_root(roots::NEXT_DOC, crate::pager::PageId(next));
        DocId(next as u32)
    }

    /// The document named `name` and its cached metadata, if it exists.
    fn lookup_meta(&self, name: &str) -> Result<Option<FoundMeta>> {
        let Some(docid_bytes) = self.catalog.get(name.as_bytes())? else {
            return Ok(None);
        };
        if docid_bytes.len() != 4 {
            return Err(Error::Corrupt("bad doc id in catalog".into()));
        }
        let doc =
            DocId(u32::from_be_bytes(docid_bytes[..4].try_into().expect("fixed-width slice")));
        Ok(Some((doc, self.meta_arc(doc)?)))
    }

    /// Writes a document's updated metadata record (re-pointing the docs
    /// directory only if the record moved), caches it for the next lookup
    /// and drops the document's cached versions.
    fn store_meta(&self, doc: DocId, meta_rid: RecordId, meta: DocMeta) -> Result<()> {
        let new_rid = self.heap.update(meta_rid, &meta.encode())?;
        if new_rid != meta_rid {
            self.docs.insert(&doc.0.to_be_bytes(), &new_rid.to_bytes())?;
        }
        self.meta_cache.insert(doc, Arc::new((new_rid, meta)));
        self.vcache.invalidate_doc(doc);
        Ok(())
    }

    /// Cached decode of a document's metadata record. Readers share the
    /// `Arc` without cloning the (possibly long) entry vector.
    fn meta_arc(&self, doc: DocId) -> Result<Arc<(RecordId, DocMeta)>> {
        if let Some(hit) = self.meta_cache.get(doc) {
            return Ok(hit);
        }
        let rid_bytes = self.docs.get(&doc.0.to_be_bytes())?.ok_or(Error::NoSuchDocId(doc))?;
        let rid = RecordId::from_bytes(&rid_bytes)?;
        let meta = DocMeta::decode(&self.heap.get(rid)?)?;
        let arc = Arc::new((rid, meta));
        self.meta_cache.insert(doc, arc.clone());
        Ok(arc)
    }

    fn current_tree_of(&self, meta: &DocMeta) -> Result<Tree> {
        let rid = meta
            .current_rid
            .ok_or_else(|| Error::Corrupt("document without current version".into()))?;
        decode_tree(&self.heap.get(rid)?)
    }

    /// The live snapshot-pin registry. Callers pin a commit timestamp
    /// (`store.snapshots().pin(ts)`) to guarantee vacuum never purges a
    /// version that timestamp can still see; the pin releases on drop.
    pub fn snapshots(&self) -> &Arc<SnapshotRegistry> {
        &self.snapshots
    }

    /// The doc id of a name, if present. Reads the catalog directly —
    /// no metadata record is touched or cloned.
    pub fn doc_id(&self, name: &str) -> Result<Option<DocId>> {
        let _g = self.sync.read();
        let Some(docid_bytes) = self.catalog.get(name.as_bytes())? else {
            return Ok(None);
        };
        if docid_bytes.len() != 4 {
            return Err(Error::Corrupt("bad doc id in catalog".into()));
        }
        Ok(Some(DocId(u32::from_be_bytes(docid_bytes[..4].try_into().expect("fixed-width slice")))))
    }

    /// The name of a doc id.
    pub fn doc_name(&self, doc: DocId) -> Result<String> {
        let _g = self.sync.read();
        Ok(self.meta_arc(doc)?.1.name.clone())
    }

    /// All documents (id, name), in id order.
    pub fn list(&self) -> Result<Vec<(DocId, String)>> {
        let _g = self.sync.read();
        let mut out = Vec::new();
        for entry in self.docs.iter()? {
            let (k, _) = entry?;
            let doc = DocId(u32::from_be_bytes(k[..4].try_into().expect("fixed-width slice")));
            out.push((doc, self.meta_arc(doc)?.1.name.clone()));
        }
        Ok(out)
    }

    /// The document's delta index: every version with timestamp, kind and
    /// record locations (§7.1, §7.3.7).
    pub fn versions(&self, doc: DocId) -> Result<Vec<VersionEntry>> {
        let _g = self.sync.read();
        Ok(self.meta_arc(doc)?.1.entries.clone())
    }

    /// True when the document's last version is a tombstone.
    pub fn is_deleted(&self, doc: DocId) -> Result<bool> {
        let _g = self.sync.read();
        Ok(self.meta_arc(doc)?.1.is_deleted())
    }

    /// The XID high-water mark (next to be assigned).
    pub fn next_xid(&self, doc: DocId) -> Result<Xid> {
        let _g = self.sync.read();
        Ok(self.meta_arc(doc)?.1.next_xid)
    }

    /// The current tree (last content version). Errors if the document is
    /// deleted — use [`DocumentStore::version_tree`] for history.
    pub fn current_tree(&self, doc: DocId) -> Result<Tree> {
        let _g = self.sync.read();
        let meta = self.meta_arc(doc)?;
        if meta.1.is_deleted() {
            return Err(Error::NotValidAt(doc, Timestamp::FOREVER));
        }
        self.current_tree_of(&meta.1)
    }

    /// The version valid at time `ts`, if any (the snapshot selector used
    /// by `TPatternScan` and friends). Tombstone intervals yield `None`.
    pub fn version_at(&self, doc: DocId, ts: Timestamp) -> Result<Option<VersionId>> {
        let _g = self.sync.read();
        let meta = &self.meta_arc(doc)?.1;
        let mut found = None;
        for e in &meta.entries {
            if e.ts <= ts {
                found = Some(e);
            } else {
                break;
            }
        }
        Ok(match found {
            Some(e) if e.kind == VersionKind::Content => Some(e.version),
            _ => None,
        })
    }

    /// The time of the first tombstone after `ts`, if any: where every
    /// element alive at `ts` died, even if a resurrection revived it.
    pub fn next_tombstone(&self, doc: DocId, ts: Timestamp) -> Result<Option<Timestamp>> {
        let _g = self.sync.read();
        let entries = &self.meta_arc(doc)?.1.entries;
        let after = entries.partition_point(|e| e.ts <= ts);
        Ok(entries[after..].iter().find(|e| e.kind == VersionKind::Tombstone).map(|e| e.ts))
    }

    /// The validity interval of version `v`: `[ts_v, ts_of_next_entry)`,
    /// `FOREVER`-bounded for the last entry.
    pub fn version_interval(&self, doc: DocId, v: VersionId) -> Result<Interval> {
        let _g = self.sync.read();
        let meta = &self.meta_arc(doc)?.1;
        let e = meta.entries.get(v.0 as usize).ok_or(Error::NoSuchVersion(doc, v))?;
        let end = meta.entries.get(v.0 as usize + 1).map(|n| n.ts).unwrap_or(Timestamp::FOREVER);
        Ok(Interval::new(e.ts, end))
    }

    /// Reconstructs version `v` (§7.3.3): finds the nearest complete
    /// materialisation at or after `v` — a cached version, a snapshot, or
    /// the current version, whichever is closest — and applies completed
    /// deltas backwards. Returns the tree and this call's own cost: deltas
    /// applied (experiment E4's metric; a cache hit costs 0) and cache
    /// lookups, whatever other readers do meanwhile.
    pub fn version_tree_counted(
        &self,
        doc: DocId,
        v: VersionId,
    ) -> Result<(Tree, ReconstructCost)> {
        let _g = self.sync.read();
        let meta = self.meta_arc(doc)?;
        self.reconstruct_counted(&meta.1, doc, v, true)
    }

    /// Lock-free reconstruction core, shared with [`DocumentStore::fsck`]
    /// (which holds the lock for its whole sweep and passes
    /// `use_cache = false` so the check exercises the real delta chains).
    fn reconstruct_counted(
        &self,
        meta: &DocMeta,
        doc: DocId,
        v: VersionId,
        use_cache: bool,
    ) -> Result<(Tree, ReconstructCost)> {
        let e = meta.entries.get(v.0 as usize).ok_or(Error::NoSuchVersion(doc, v))?;
        if e.kind != VersionKind::Content {
            return Err(Error::NoSuchVersion(doc, v));
        }
        self.obs.reconstructs.inc();
        let _op = txdb_base::obs::trace_op("storage.reconstruct_us").map(|mut op| {
            op.add_field("doc", doc.0 as u64);
            op.add_field("version", v.0 as u64);
            op
        });
        // Direct hits first: the cache, then a materialized snapshot, then
        // the current version.
        let mut cost = ReconstructCost::default();
        if use_cache {
            if let Some(t) = cost.lookup(self.vcache.get(doc, v)) {
                return Ok(((*t).clone(), cost));
            }
        }
        if let Some(rid) = e.snapshot_rid {
            self.obs.snapshot_seeds.inc();
            return Ok((decode_tree(&self.heap.get(rid)?)?, cost));
        }
        let last_content =
            meta.last_content().ok_or_else(|| Error::Corrupt("no content version".into()))?;
        if last_content.version == v {
            return Ok((self.current_tree_of(meta)?, cost));
        }
        // Nearest materialisation after v: walking forward from v, the
        // first cached version or snapshot ("processing start using the
        // oldest snapshot with timestamp greater or equal to t"), else the
        // current version. Only versions *after* v can seed, because
        // completed deltas apply backwards.
        let mut start = last_content.version;
        let mut tree = None;
        for e2 in &meta.entries[(v.0 as usize + 1)..] {
            if use_cache {
                if let Some(t) = self.vcache.peek(doc, e2.version) {
                    // `get` refreshes the seed's LRU slot and counts the hit.
                    let t = cost.lookup(self.vcache.get(doc, e2.version)).unwrap_or(t);
                    start = e2.version;
                    tree = Some((*t).clone());
                    break;
                }
            }
            if let Some(rid) = e2.snapshot_rid {
                start = e2.version;
                tree = Some(decode_tree(&self.heap.get(rid)?)?);
                self.obs.snapshot_seeds.inc();
                break;
            }
        }
        let tree = match tree {
            Some(t) => t,
            None => self.current_tree_of(meta)?,
        };
        // Apply deltas backwards from `start` down to `v`, on one walk (one
        // XID map for the whole chain).
        let mut walk = Walk::new(tree);
        for u in ((v.0 + 1)..=start.0).rev() {
            let entry = &meta.entries[u as usize];
            let Some(rid) = entry.delta_rid else { continue }; // tombstone
            walk.backward(&self.load_delta(rid)?)?;
            cost.deltas += 1;
        }
        let tree = walk.into_tree();
        if use_cache && cost.deltas > 0 {
            self.vcache.insert(doc, v, Arc::new(tree.clone()));
        }
        self.obs.reconstruct_deltas.add(cost.deltas as u64);
        Ok((tree, cost))
    }

    /// The materialized-version cache's counters (hits, misses, inserts,
    /// evictions, invalidations), mirroring [`DocumentStore::buffer_stats`].
    pub fn vcache_stats(&self) -> &crate::vcache::VersionCacheStats {
        &self.vcache.stats
    }

    /// The materialized-version cache itself (residency inspection).
    pub fn vcache(&self) -> &crate::vcache::VersionCache {
        &self.vcache
    }

    /// The cached tree of `(doc, v)`, if resident (counts a hit/miss).
    /// Used by the incremental history walk in `txdb-core` to seed from
    /// the nearest cached version instead of re-reconstructing.
    pub fn cached_version(&self, doc: DocId, v: VersionId) -> Option<Tree> {
        self.vcache.get(doc, v).map(|t| (*t).clone())
    }

    /// Offers a reconstructed tree to the cache (no-op when disabled).
    /// The incremental history walk materializes every intermediate
    /// version anyway; caching them makes later point queries free.
    pub fn cache_version(&self, doc: DocId, v: VersionId, tree: &Tree) {
        if !self.vcache.is_disabled() {
            self.vcache.insert(doc, v, Arc::new(tree.clone()));
        }
    }

    /// Reconstructs version `v` (§7.3.3).
    pub fn version_tree(&self, doc: DocId, v: VersionId) -> Result<Tree> {
        Ok(self.version_tree_counted(doc, v)?.0)
    }

    /// The completed delta leading into version `v` (None for the first
    /// version and tombstones).
    pub fn delta(&self, doc: DocId, v: VersionId) -> Result<Option<Delta>> {
        let _g = self.sync.read();
        let meta = &self.meta_arc(doc)?.1;
        let e = meta.entries.get(v.0 as usize).ok_or(Error::NoSuchVersion(doc, v))?;
        match e.delta_rid {
            Some(rid) => Ok(Some(self.load_delta(rid)?)),
            None => Ok(None),
        }
    }

    fn load_delta(&self, rid: RecordId) -> Result<Delta> {
        let text = String::from_utf8(self.heap.get(rid)?)
            .map_err(|_| Error::Corrupt("delta record is not UTF-8".into()))?;
        // keep_whitespace: delta payloads may contain whitespace-only text
        // nodes that the default parser would drop.
        let tree = parse_with(&text, ParseOptions { keep_whitespace: true, allow_forest: true })?;
        delta_from_xml(&tree)
    }

    /// Flushes all dirty pages atomically, syncs, and truncates the WAL.
    ///
    /// File-backed stores use the double-write protocol
    /// ([`crate::journal`]): the batch of dirty page images — the header
    /// page included — is sealed into `journal.db` and fsynced *before*
    /// any home location is overwritten. A crash at any point inside the
    /// flush therefore leaves every page recoverable: either the old
    /// image survives untouched (journal not yet sealed) or the new one
    /// is replayed from the journal at the next open. The journaled
    /// header carries a bumped [`roots::CKPT_GEN`] generation, which
    /// fences replay once the apply provably reached disk.
    pub fn checkpoint(&self) -> Result<()> {
        let _span = self.metrics.span("checkpoint.write_us");
        let _g = self.sync.write();
        self.ensure_writable()?;
        // Checkpointing under live readers is safe — pages flush atomically
        // through the journal and pinned versions are immutable — but the
        // count is operationally interesting (a long-pinned reader holds
        // back vacuum), so leave a trace.
        let active = self.snapshots.active();
        if active > 0 {
            self.metrics
                .emit("checkpoint.active_snapshots", &[("count", EventValue::U64(active as u64))]);
        }
        match &self.opts.path {
            Some(dir) => {
                let pager = self.pool.pager();
                let dirty = self.pool.dirty_pages();
                if dirty.is_empty() && !pager.header_dirty() {
                    // Nothing will be overwritten: no torn-page exposure,
                    // no journal needed.
                    self.pool.flush_all()?;
                } else {
                    let generation = pager.root(roots::CKPT_GEN).0.wrapping_add(1);
                    pager.set_root(roots::CKPT_GEN, crate::pager::PageId(generation));
                    let header = pager.header_image();
                    let mut batch: Vec<(u64, &[u8])> = Vec::with_capacity(dirty.len() + 1);
                    batch.push((0, &header[..]));
                    batch.extend(dirty.iter().map(|(id, buf)| (id.0, &buf[..])));
                    let vfs: &dyn Vfs = self.opts.vfs.as_deref().unwrap_or(&RealVfs);
                    let mut journal = vfs.open(&crate::journal::journal_path(dir))?;
                    crate::journal::write_batch(journal.as_mut(), generation, &batch)?;
                    self.pool.flush_all()?;
                    crate::journal::retire(journal.as_mut())?;
                }
            }
            None => self.pool.flush_all()?,
        }
        self.wal.reset()
    }

    /// Persists a serialized index checkpoint blob (see
    /// [`crate::ckpt::CheckpointStore`]) and returns its generation. The
    /// pages land on disk with the next [`DocumentStore::checkpoint`];
    /// callers write the blob first, then checkpoint, so blob and page
    /// image are flushed together.
    pub fn write_index_checkpoint(&self, blob: &[u8]) -> Result<u64> {
        let _g = self.sync.write();
        self.ensure_writable()?;
        self.ckpt.write(blob)
    }

    /// Reads the persisted index checkpoint blob. `Ok(None)` = never
    /// written; an error means the checkpoint is unusable (callers fall
    /// back to a full index rebuild).
    pub fn read_index_checkpoint(&self) -> Result<Option<Vec<u8>>> {
        let _g = self.sync.read();
        self.ckpt.read()
    }

    /// Generation/size summary of the persisted index checkpoint
    /// (`Ok(None)` when absent).
    pub fn index_checkpoint_info(&self) -> Result<Option<CheckpointInfo>> {
        let _g = self.sync.read();
        self.ckpt.info()
    }

    /// Space accounting for the storage experiments (E8).
    pub fn space_stats(&self) -> Result<SpaceStats> {
        let _g = self.sync.read();
        let mut s = SpaceStats { pages: self.pool.pager().page_count(), ..Default::default() };
        for entry in self.docs.iter()? {
            let (_, rid_bytes) = entry?;
            let rid = RecordId::from_bytes(&rid_bytes)?;
            let meta_bytes = self.heap.get(rid)?;
            s.meta_bytes += meta_bytes.len() as u64;
            let meta = DocMeta::decode(&meta_bytes)?;
            if let Some(rid) = meta.current_rid {
                s.current_bytes += self.heap.get(rid)?.len() as u64;
            }
            for e in &meta.entries {
                if let Some(rid) = e.delta_rid {
                    s.delta_bytes += self.heap.get(rid)?.len() as u64;
                }
                if let Some(rid) = e.snapshot_rid {
                    s.snapshot_bytes += self.heap.get(rid)?.len() as u64;
                }
            }
        }
        Ok(s)
    }

    /// Offline integrity check: verifies every page checksum, walks the
    /// catalog and every document's delta index, confirms every stored
    /// record (current version, deltas, snapshots, metadata) is readable,
    /// and reconstructs every unpurged content version through its
    /// backward delta chain. Collects problems instead of failing on the
    /// first one — the report describes everything wrong with the store.
    pub fn fsck(&self) -> FsckReport {
        let _g = self.sync.read();
        let mut r = FsckReport { pages: self.pool.pager().page_count(), ..Default::default() };
        match self.pool.pager().verify_checksums() {
            Ok(bad) => r.bad_pages = bad,
            Err(e) => r.errors.push(format!("checksum sweep failed: {e}")),
        }
        match self.wal.replay() {
            Ok(s) => {
                r.wal_records = s.records.len();
                r.torn_bytes = s.torn_bytes;
            }
            Err(e) => r.errors.push(format!("WAL unreadable: {e}")),
        }
        // The index checkpoint is advisory: report its state, but an
        // unreadable one is not corruption of *data* — open degrades to a
        // full rebuild — so it never flips the store to CORRUPT.
        r.index_checkpoint = match self.ckpt.read() {
            Ok(None) => "absent".into(),
            Ok(Some(blob)) => match self.ckpt.info() {
                Ok(Some(info)) => format!(
                    "ok (generation {}, {} bytes in {} page(s))",
                    info.generation,
                    blob.len(),
                    info.pages
                ),
                _ => format!("ok ({} bytes)", blob.len()),
            },
            Err(e) => format!("unreadable ({e}); open falls back to full index rebuild"),
        };
        // Journal residue is likewise advisory: a sealed journal is
        // replayed by the next open, stale residue was never applied.
        r.journal = match &self.opts.path {
            None => crate::journal::JournalState::Absent.to_string(),
            Some(dir) => {
                let vfs: &dyn Vfs = self.opts.vfs.as_deref().unwrap_or(&RealVfs);
                match vfs.open(&crate::journal::journal_path(dir)) {
                    Ok(mut f) => crate::journal::inspect(f.as_mut()).to_string(),
                    Err(e) => {
                        crate::journal::JournalState::Stale { reason: e.to_string() }.to_string()
                    }
                }
            }
        };
        let iter = match self.docs.iter() {
            Ok(i) => i,
            Err(e) => {
                r.errors.push(format!("document btree unreadable: {e}"));
                // The catalog structure is gone, but the self-identifying
                // metadata records may survive in the heap: count what a
                // salvage rebuild could restore.
                r.salvageable_docs = crate::heap::salvage_scan(&self.pool)
                    .into_iter()
                    .filter(|(_, payload)| DocMeta::decode(payload).is_ok())
                    .count();
                return r;
            }
        };
        for entry in iter {
            let (k, rid_bytes) = match entry {
                Ok(kv) => kv,
                Err(e) => {
                    r.errors.push(format!("document btree walk failed: {e}"));
                    break;
                }
            };
            if k.len() != 4 {
                r.errors.push(format!("bad doc key of {} bytes", k.len()));
                continue;
            }
            let doc = DocId(u32::from_be_bytes(k[..4].try_into().expect("fixed-width slice")));
            r.docs += 1;
            let meta = match RecordId::from_bytes(&rid_bytes)
                .and_then(|rid| self.heap.get(rid))
                .and_then(|b| DocMeta::decode(&b))
            {
                Ok(m) => m,
                Err(e) => {
                    r.errors.push(format!("doc {doc}: metadata unreadable: {e}"));
                    continue;
                }
            };
            if meta.doc != doc {
                r.errors.push(format!(
                    "doc {doc} ({}): metadata claims doc id {}",
                    meta.name, meta.doc
                ));
            }
            if let Some(rid) = meta.current_rid {
                if let Err(e) = self.heap.get(rid).and_then(|b| decode_tree(&b)) {
                    r.errors.push(format!(
                        "doc {doc} ({}): current version unreadable: {e}",
                        meta.name
                    ));
                }
            }
            for e in &meta.entries {
                r.versions_checked += 1;
                for rid in [e.delta_rid, e.snapshot_rid].into_iter().flatten() {
                    if let Err(err) = self.heap.get(rid) {
                        r.errors.push(format!(
                            "doc {doc} ({}) v{}: stored record unreadable: {err}",
                            meta.name, e.version
                        ));
                    }
                }
            }
            for e in &meta.entries {
                if e.kind != VersionKind::Content {
                    continue;
                }
                match self.reconstruct_counted(&meta, doc, e.version, false) {
                    Ok(_) => r.reconstructed += 1,
                    Err(err) => r.errors.push(format!(
                        "doc {doc} ({}) v{}: reconstruction failed: {err}",
                        meta.name, e.version
                    )),
                }
            }
        }
        // Classify checksum failures by reachability: a CRC-dirty page no
        // live structure references is a *leak* (salvage abandons btree
        // pages by design), not corruption — report it without failing
        // the sweep. This partition is skipped on the unreadable-btree
        // early return above, where reachability cannot be established.
        if !r.bad_pages.is_empty() {
            let reachable = self.reachable_pages();
            let (bad, leaked) =
                std::mem::take(&mut r.bad_pages).into_iter().partition(|p| reachable.contains(p));
            r.bad_pages = bad;
            r.leaked_pages = leaked;
        }
        r
    }

    /// Every page id reachable from a live structure, best-effort: the
    /// header, the free list, the heap's slotted chain, every record's
    /// overflow chain, the catalog / document-directory / EID btrees and
    /// the index-checkpoint chain. Unreadable links contribute the
    /// referenced page id itself (so a corrupt-but-referenced page counts
    /// as reachable) and end their walk.
    fn reachable_pages(&self) -> std::collections::HashSet<u64> {
        use crate::pager::PageId;
        let mut reach = std::collections::HashSet::new();
        reach.insert(0u64); // header page
                            // Free-list chain: each free page holds the next id in its first
                            // 8 bytes. The insert doubles as the cycle guard.
        let mut next = self.pool.pager().free_head();
        while next != 0 && reach.insert(next) {
            match self.pool.get(PageId(next)) {
                Ok(frame) => {
                    let buf = frame.read();
                    next = u64::from_le_bytes(buf[0..8].try_into().expect("fixed-width slice"));
                }
                Err(_) => break,
            }
        }
        for p in self.heap.pages() {
            reach.insert(p.0);
        }
        for p in self.catalog.pages() {
            reach.insert(p.0);
        }
        for p in self.docs.pages() {
            reach.insert(p.0);
        }
        // The EID index root slot belongs to txdb-index; only walk it when
        // a tree was ever planted (BTree::open would allocate one — fsck
        // must not mutate the store).
        if !self.pool.pager().root(roots::EID_INDEX).is_null() {
            if let Ok(eid) = BTree::open(self.pool.clone(), roots::EID_INDEX) {
                for p in eid.pages() {
                    reach.insert(p.0);
                }
            }
        }
        for p in self.ckpt.pages() {
            reach.insert(p.0);
        }
        // Overflow chains hang off individual records, not the slotted
        // chain: walk every record the document directory references.
        if let Ok(iter) = self.docs.iter() {
            for (_, rid_bytes) in iter.flatten() {
                let Ok(rid) = RecordId::from_bytes(&rid_bytes) else { continue };
                for p in self.heap.record_pages(rid) {
                    reach.insert(p.0);
                }
                let Ok(meta) = self.heap.get(rid).and_then(|b| DocMeta::decode(&b)) else {
                    continue;
                };
                let rids = meta.current_rid.into_iter().chain(
                    meta.entries.iter().flat_map(|e| e.delta_rid.into_iter().chain(e.snapshot_rid)),
                );
                for r2 in rids {
                    for p in self.heap.record_pages(r2) {
                        reach.insert(p.0);
                    }
                }
            }
        }
        reach
    }

    /// Physically truncates a torn WAL tail, making the log end at the
    /// last intact record. Returns the bytes removed. Allowed even in
    /// salvage mode — it is part of the repair path — but note it does
    /// not clear read-only: reopen the store after repairing.
    pub fn repair_wal_tail(&self) -> Result<u64> {
        let _g = self.sync.write();
        self.wal.repair_tail()
    }

    /// Removes journal residue: retires a stale (torn, never-replayable)
    /// journal, or a sealed one whose generation the fence proves fully
    /// applied. Returns `true` when residue was removed. A sealed journal
    /// that is *not* provably applied is left alone — it would be needed
    /// at the next open — though through this handle that state cannot
    /// arise: open replayed (and retired) any sealed journal it found.
    /// Allowed in salvage mode: it is part of the repair path.
    pub fn retire_journal(&self) -> Result<bool> {
        let _g = self.sync.write();
        let Some(dir) = &self.opts.path else {
            return Ok(false);
        };
        let vfs: &dyn Vfs = self.opts.vfs.as_deref().unwrap_or(&RealVfs);
        let mut file = vfs.open(&crate::journal::journal_path(dir))?;
        match crate::journal::inspect(file.as_mut()) {
            crate::journal::JournalState::Absent => Ok(false),
            crate::journal::JournalState::Stale { .. } => {
                crate::journal::retire(file.as_mut())?;
                Ok(true)
            }
            crate::journal::JournalState::Sealed { generation, .. } => {
                if generation <= self.pool.pager().root(roots::CKPT_GEN).0 {
                    crate::journal::retire(file.as_mut())?;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Rebuilds the catalog and document-directory B+-trees from
    /// surviving heap records — the deep salvage path for when corruption
    /// hit the btree pages themselves (or the metadata records they point
    /// at). Metadata records are self-identifying (magic prefix plus
    /// embedded document id), so the full `name → id → metadata` mapping
    /// is reconstructible from a raw page sweep alone. Returns the number
    /// of documents restored.
    ///
    /// The old btree pages are abandoned, not freed: salvage must not
    /// trust broken structures enough to walk them, so their pages leak
    /// until the file is rebuilt (`fsck` stays the judge of what else is
    /// damaged). Allowed in salvage mode; reopen the store afterwards to
    /// clear read-only and rebuild the in-memory indexes.
    pub fn salvage_rebuild_catalog(&self) -> Result<usize> {
        let _g = self.sync.write();
        let mut metas: std::collections::HashMap<DocId, (RecordId, DocMeta)> =
            std::collections::HashMap::new();
        for (rid, payload) in crate::heap::salvage_scan(&self.pool) {
            let Ok(meta) = DocMeta::decode(&payload) else {
                continue;
            };
            // One live metadata record per document is the invariant;
            // if corruption broke it, keep the longest history.
            match metas.entry(meta.doc) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((rid, meta));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if meta.entries.len() > o.get().1.entries.len() {
                        o.insert((rid, meta));
                    }
                }
            }
        }
        let pager = self.pool.pager();
        pager.set_root(roots::CATALOG, crate::pager::PageId::NULL);
        pager.set_root(roots::DOCS, crate::pager::PageId::NULL);
        // BTree handles are stateless (pool + root slot); re-opening with
        // a NULL slot plants a fresh empty root that `self.catalog` /
        // `self.docs` pick up on their next operation.
        let catalog = BTree::open(self.pool.clone(), roots::CATALOG)?;
        let docs = BTree::open(self.pool.clone(), roots::DOCS)?;
        let mut max_id = 0u64;
        for (doc, (rid, meta)) in &metas {
            catalog.insert(meta.name.as_bytes(), &doc.0.to_be_bytes())?;
            docs.insert(&doc.0.to_be_bytes(), &rid.to_bytes())?;
            max_id = max_id.max(doc.0 as u64);
        }
        // NEXT_DOC holds the last id handed out; never let it fall below
        // a salvaged id (ids must stay unique across the rebuild).
        let next = pager.root(roots::NEXT_DOC).0.max(max_id);
        pager.set_root(roots::NEXT_DOC, crate::pager::PageId(next));
        self.meta_cache.clear();
        self.vcache.clear();
        self.pool.flush_all()?;
        Ok(metas.len())
    }

    /// Returns leaked pages — CRC-dirty pages no live structure
    /// references, the residue [`DocumentStore::salvage_rebuild_catalog`]
    /// leaves behind when it abandons broken btree pages — to the free
    /// list. Freeing rewrites each page (zeroed, next-free pointer in the
    /// first 8 bytes), so afterwards a full checksum sweep comes back
    /// clean and `allocate` reuses the space. Returns the reclaimed ids.
    ///
    /// Only *unreachable* checksum failures are touched: a CRC-dirty page
    /// something still references is real corruption and is left in place
    /// for `fsck` to report. The freed images land through the buffer
    /// pool (journal-protected) and are made durable by a checkpoint
    /// before this returns, so a crash can't resurrect half a free list.
    pub fn reclaim_leaked_pages(&self) -> Result<Vec<u64>> {
        let leaked = {
            let _g = self.sync.write();
            self.ensure_writable()?;
            let bad = self.pool.pager().verify_checksums()?;
            if bad.is_empty() {
                return Ok(Vec::new());
            }
            let reachable = self.reachable_pages();
            let leaked: Vec<u64> = bad.into_iter().filter(|p| !reachable.contains(p)).collect();
            for &p in &leaked {
                self.pool.free_page(crate::pager::PageId(p))?;
            }
            leaked
        };
        // The store lock is released before checkpointing — checkpoint
        // takes it itself (the locks are not re-entrant). Nothing can
        // re-reference the freed pages in the window: they are on the
        // free list, and allocation from it is also behind the lock.
        if !leaked.is_empty() {
            self.checkpoint()?;
            self.metrics.counter("fsck.pages_reclaimed").add(leaked.len() as u64);
        }
        Ok(leaked)
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(b: &[u8]) -> Result<(String, &[u8])> {
    if b.len() < 4 {
        return Err(Error::WalCorrupt(0, "short string".into()));
    }
    let len = u32::from_le_bytes(b[..4].try_into().expect("fixed-width slice")) as usize;
    if b.len() < 4 + len {
        return Err(Error::WalCorrupt(0, "truncated string".into()));
    }
    let s = String::from_utf8(b[4..4 + len].to_vec())
        .map_err(|_| Error::WalCorrupt(0, "bad utf8".into()))?;
    Ok((s, &b[4 + len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::serialize::to_string;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    #[test]
    fn create_and_read_back() {
        let store = DocumentStore::in_memory();
        let r = store
            .put("guide.com/restaurants", "<guide><r><n>Napoli</n></r></guide>", ts(1))
            .unwrap();
        assert!(r.created && r.changed);
        assert_eq!(r.version, VersionId(0));
        let t = store.current_tree(r.doc).unwrap();
        assert_eq!(to_string(&t), "<guide><r><n>Napoli</n></r></guide>");
        // XIDs assigned 1..
        assert!(t.iter().all(|n| !t.node(n).xid.is_none()));
        assert_eq!(store.doc_id("guide.com/restaurants").unwrap(), Some(r.doc));
        assert_eq!(store.doc_name(r.doc).unwrap(), "guide.com/restaurants");
        assert_eq!(store.list().unwrap().len(), 1);
    }

    #[test]
    fn update_chain_and_reconstruct() {
        let store = DocumentStore::in_memory();
        let r0 = store.put("d", "<g><p>1</p></g>", ts(1)).unwrap();
        let doc = r0.doc;
        for (i, price) in [(2u64, "2"), (3, "3"), (4, "4")] {
            let r = store.put("d", &format!("<g><p>{price}</p></g>"), ts(i)).unwrap();
            assert!(r.changed && !r.created);
            assert!(r.delta.is_some());
        }
        // Version entries (delta index).
        let vs = store.versions(doc).unwrap();
        assert_eq!(vs.len(), 4);
        assert!(vs[0].delta_rid.is_none());
        assert!(vs[1..].iter().all(|e| e.delta_rid.is_some()));
        // Reconstruct every version.
        for (v, want) in [(0u32, "1"), (1, "2"), (2, "3"), (3, "4")] {
            let (t, cost) = store.version_tree_counted(doc, VersionId(v)).unwrap();
            assert_eq!(to_string(&t), format!("<g><p>{want}</p></g>"));
            assert_eq!(cost.deltas as u32, 3 - v, "backward chain length");
        }
    }

    #[test]
    fn mixed_content_split_by_a_move_reconstructs_exactly() {
        // <p/> leaves <a> before <a> is deleted, so the stored delta holds
        // "red" and "zz" as adjacent text nodes; reloaded from its XML
        // text they must stay two nodes for the backward walk to rebuild v0.
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<r><a>red<p/>zz</a></r>", ts(1)).unwrap().doc;
        store.put("d", "<r><p/></r>", ts(2)).unwrap();
        store.vcache().clear();
        let (t, cost) = store.version_tree_counted(doc, VersionId(0)).unwrap();
        assert_eq!(cost.deltas, 1);
        assert_eq!(to_string(&t), "<r><a>red<p/>zz</a></r>");
    }

    #[test]
    fn unchanged_put_records_nothing() {
        let store = DocumentStore::in_memory();
        let r0 = store.put("d", "<a>same</a>", ts(1)).unwrap();
        let r1 = store.put("d", "<a>same</a>", ts(2)).unwrap();
        assert!(!r1.changed);
        assert_eq!(r1.version, r0.version);
        assert_eq!(store.versions(r0.doc).unwrap().len(), 1);
    }

    #[test]
    fn non_monotonic_time_rejected() {
        let store = DocumentStore::in_memory();
        store.put("d", "<a>1</a>", ts(5)).unwrap();
        assert!(store.put("d", "<a>2</a>", ts(5)).is_err());
        assert!(store.put("d", "<a>2</a>", ts(4)).is_err());
        assert!(store.delete("d", ts(3)).is_err());
    }

    #[test]
    fn version_at_timeline() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        store.put("d", "<a>2</a>", ts(20)).unwrap();
        store.put("d", "<a>3</a>", ts(30)).unwrap();
        assert_eq!(store.version_at(doc, ts(5)).unwrap(), None);
        assert_eq!(store.version_at(doc, ts(10)).unwrap(), Some(VersionId(0)));
        assert_eq!(store.version_at(doc, ts(15)).unwrap(), Some(VersionId(0)));
        assert_eq!(store.version_at(doc, ts(20)).unwrap(), Some(VersionId(1)));
        assert_eq!(store.version_at(doc, ts(99)).unwrap(), Some(VersionId(2)));
        // Intervals.
        assert_eq!(
            store.version_interval(doc, VersionId(0)).unwrap(),
            Interval::new(ts(10), ts(20))
        );
        assert!(store.version_interval(doc, VersionId(2)).unwrap().is_current());
    }

    #[test]
    fn delete_and_tombstone_semantics() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        store.put("d", "<a>2</a>", ts(20)).unwrap();
        let del = store.delete("d", ts(30)).unwrap().unwrap();
        assert_eq!(del.version, VersionId(2));
        assert!(store.is_deleted(doc).unwrap());
        assert!(store.current_tree(doc).is_err());
        // History still reconstructible.
        assert_eq!(to_string(&store.version_tree(doc, VersionId(1)).unwrap()), "<a>2</a>");
        // version_at inside the tombstone interval → None.
        assert_eq!(store.version_at(doc, ts(35)).unwrap(), None);
        assert_eq!(store.version_at(doc, ts(25)).unwrap(), Some(VersionId(1)));
        // Double delete is a no-op.
        assert!(store.delete("d", ts(40)).unwrap().is_none());
        // Deleting a non-existent doc is None.
        assert!(store.delete("nope", ts(50)).unwrap().is_none());
    }

    #[test]
    fn vacuum_invalidates_cached_versions() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        for (i, p) in [(20u64, "2"), (30, "3"), (40, "4"), (50, "5")] {
            store.put("d", &format!("<a>{p}</a>"), ts(i)).unwrap();
        }
        // Warm the cache with every version (the current version costs no
        // deltas and is not auto-cached, so offer it explicitly).
        for v in 0..5u32 {
            let t = store.version_tree(doc, VersionId(v)).unwrap();
            store.cache_version(doc, VersionId(v), &t);
            assert!(store.cached_version(doc, VersionId(v)).is_some());
        }
        // Purge history before ts(45): v0..v2 go, v3 and the current v4 stay.
        let stats = store.vacuum("d", ts(45)).unwrap().unwrap();
        assert_eq!(stats.purged_versions, 3);
        // Every cached materialisation of the document is dropped — a
        // purged version must never be served from a stale cache entry.
        for v in 0..5u32 {
            assert!(
                store.cached_version(doc, VersionId(v)).is_none(),
                "v{v} survived vacuum in the cache"
            );
        }
        assert!(store.version_tree(doc, VersionId(0)).is_err());
        // Surviving versions reconstruct (and re-cache) correctly.
        let (t, cost) = store.version_tree_counted(doc, VersionId(3)).unwrap();
        assert_eq!(to_string(&t), "<a>4</a>");
        assert_eq!(cost.deltas, 1);
        assert!(store.cached_version(doc, VersionId(3)).is_some());
    }

    #[test]
    fn resurrection_after_delete() {
        let store = DocumentStore::in_memory();
        let first = store.put("d", "<a><b>x</b></a>", ts(10)).unwrap();
        assert!(first.created && !first.resurrected);
        let doc = first.doc;
        assert!(!store.put("d", "<a><b>y</b></a>", ts(15)).unwrap().resurrected);
        store.delete("d", ts(20)).unwrap().unwrap();
        assert!(store.delete("d", ts(21)).unwrap().is_none(), "already deleted");
        let r = store.put("d", "<a><b>x</b></a>", ts(30)).unwrap();
        assert_eq!(r.doc, doc);
        assert!(r.changed && r.resurrected);
        assert!(!store.put("d", "<a><b>z</b></a>", ts(40)).unwrap().resurrected);
        assert_eq!(r.version, VersionId(3));
        assert!(!store.is_deleted(doc).unwrap());
        // Reintroduced content gets FRESH xids (never reused, §3.2)?
        // The content is identical, so the diff matches everything and
        // XIDs are preserved — identity survives a delete+restore of
        // identical content (the tombstone only interrupts validity).
        assert_eq!(store.version_at(doc, ts(25)).unwrap(), None);
        assert_eq!(store.version_at(doc, ts(30)).unwrap(), Some(VersionId(3)));
        let t = store.version_tree(doc, VersionId(3)).unwrap();
        assert_eq!(to_string(&t), "<a><b>x</b></a>");
    }

    #[test]
    fn snapshots_bound_reconstruction() {
        let store =
            DocumentStore::open(StoreOptions { snapshot_every: Some(4), ..Default::default() })
                .unwrap()
                .0;
        let doc = store.put("d", "<a><v>0</v></a>", ts(1)).unwrap().doc;
        for i in 1..=20u64 {
            store.put("d", &format!("<a><v>{i}</v></a>"), ts(1 + i)).unwrap();
        }
        // Snapshots exist at versions 4, 8, 12, 16, 20.
        let vs = store.versions(doc).unwrap();
        let snap_versions: Vec<u32> =
            vs.iter().filter(|e| e.snapshot_rid.is_some()).map(|e| e.version.0).collect();
        assert_eq!(snap_versions, vec![4, 8, 12, 16, 20]);
        // Reconstructing version 5 starts from snapshot 8: 3 deltas.
        let (t, cost) = store.version_tree_counted(doc, VersionId(5)).unwrap();
        assert_eq!(to_string(&t), "<a><v>5</v></a>");
        assert_eq!(cost.deltas, 3);
        // Direct snapshot hit: 0 deltas.
        let (_, cost) = store.version_tree_counted(doc, VersionId(8)).unwrap();
        assert_eq!(cost.deltas, 0);
        // Without snapshots it would have been 15 for version 5.
    }

    #[test]
    fn reconstruct_cost_counts_its_own_cache_lookups() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a><v>0</v></a>", ts(1)).unwrap().doc;
        for i in 1..=3u64 {
            store.put("d", &format!("<a><v>{i}</v></a>"), ts(1 + i)).unwrap();
        }
        let cost = |v: u32| {
            let before = store.vcache_stats().snapshot();
            let (_, cost) = store.version_tree_counted(doc, VersionId(v)).unwrap();
            let after = store.vcache_stats().snapshot();
            // Alone, the call's own lookups are the store-wide movement.
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (cost.cache_hits as u64, cost.cache_misses as u64)
            );
            cost
        };
        let c =
            |deltas, cache_hits, cache_misses| ReconstructCost { deltas, cache_hits, cache_misses };
        // Cold: one direct miss, seeded from the current version.
        assert_eq!(cost(2), c(1, 0, 1));
        // Warm: one direct hit.
        assert_eq!(cost(2), c(0, 1, 0));
        // A direct miss, then the cached v2 seeds the walk: one seed hit.
        assert_eq!(cost(0), c(2, 1, 1));
        // The current version: one direct miss, no seed lookup.
        assert_eq!(cost(3), c(0, 0, 1));
    }

    #[test]
    fn many_documents() {
        let store = DocumentStore::in_memory();
        for i in 0..50 {
            store.put(&format!("doc{i}"), &format!("<d><n>{i}</n></d>"), ts(i + 1)).unwrap();
        }
        assert_eq!(store.list().unwrap().len(), 50);
        let doc = store.doc_id("doc33").unwrap().unwrap();
        assert_eq!(to_string(&store.current_tree(doc).unwrap()), "<d><n>33</n></d>");
    }

    #[test]
    fn xids_preserved_across_versions() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<g><r><n>Napoli</n><p>15</p></r></g>", ts(1)).unwrap().doc;
        let t0 = store.current_tree(doc).unwrap();
        let r_xid = {
            let r = t0.iter().find(|&n| t0.node(n).name() == Some("r")).unwrap();
            t0.node(r).xid
        };
        store.put("d", "<g><r><n>Napoli</n><p>18</p></r></g>", ts(2)).unwrap();
        let t1 = store.current_tree(doc).unwrap();
        let r1 = t1.iter().find(|&n| t1.node(n).name() == Some("r")).unwrap();
        assert_eq!(t1.node(r1).xid, r_xid, "persistent identity across versions");
    }

    #[test]
    fn wal_recovery_replays_tail() {
        let dir = std::env::temp_dir().join(format!("txdb-repo-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        {
            let (store, rep) = DocumentStore::open(opts.clone()).unwrap();
            assert_eq!(rep.replayed, 0);
            store.put("d", "<a>1</a>", ts(1)).unwrap();
            store.checkpoint().unwrap();
            // Post-checkpoint ops land only in the WAL...
            store.put("d", "<a>2</a>", ts(2)).unwrap();
            store.put("e", "<b>new</b>", ts(3)).unwrap();
            store.wal.sync().unwrap();
            // ...and the process "crashes" here (no checkpoint, drop
            // without flushing pages).
        }
        {
            let (store, rep) = DocumentStore::open(opts.clone()).unwrap();
            assert_eq!(rep.replayed, 2, "two ops after the checkpoint");
            let d = store.doc_id("d").unwrap().unwrap();
            assert_eq!(to_string(&store.current_tree(d).unwrap()), "<a>2</a>");
            assert_eq!(store.versions(d).unwrap().len(), 2);
            let e = store.doc_id("e").unwrap().unwrap();
            assert_eq!(to_string(&store.current_tree(e).unwrap()), "<b>new</b>");
            // Recovery checkpointed: reopening again replays nothing.
        }
        {
            let (_, rep) = DocumentStore::open(opts).unwrap();
            assert_eq!(rep.replayed, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_reopen_without_crash() {
        let dir = std::env::temp_dir().join(format!("txdb-repo-p-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            for i in 1..=5u64 {
                store.put("d", &format!("<a>{i}</a>"), ts(i)).unwrap();
            }
            store.checkpoint().unwrap();
        }
        let (store, rep) = DocumentStore::open(opts).unwrap();
        assert_eq!(rep.replayed, 0);
        let d = store.doc_id("d").unwrap().unwrap();
        assert_eq!(store.versions(d).unwrap().len(), 5);
        for v in 0..5u32 {
            assert_eq!(
                to_string(&store.version_tree(d, VersionId(v)).unwrap()),
                format!("<a>{}</a>", v + 1)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn space_stats_accumulate() {
        let store = DocumentStore::in_memory();
        store.put("d", "<a><b>content</b></a>", ts(1)).unwrap();
        store.put("d", "<a><b>changed</b></a>", ts(2)).unwrap();
        let s = store.space_stats().unwrap();
        assert!(s.current_bytes > 0);
        assert!(s.delta_bytes > 0);
        assert!(s.meta_bytes > 0);
        assert_eq!(s.snapshot_bytes, 0);
        assert!(s.pages > 0);
    }

    #[test]
    fn timestamps_in_stored_versions() {
        // §4: element timestamps reflect update times across versions.
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<g><r><n>N</n><p>15</p></r></g>", ts(100)).unwrap().doc;
        store.put("d", "<g><r><n>N</n><p>18</p></r></g>", ts(200)).unwrap();
        let t = store.current_tree(doc).unwrap();
        let root = t.root().unwrap();
        // Effective ts of the root reflects the price update.
        assert_eq!(t.effective_ts(root), ts(200));
        // The name element was not touched.
        let name = t.iter().find(|&n| t.node(n).name() == Some("n")).unwrap();
        assert_eq!(t.effective_ts(name), ts(100));
        // Reconstructed v0 has original timestamps everywhere.
        let t0 = store.version_tree(doc, VersionId(0)).unwrap();
        assert_eq!(t0.effective_ts(t0.root().unwrap()), ts(100));
    }

    #[test]
    fn vacuum_purges_history_keeps_tail() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a><v>0</v></a>", ts(10)).unwrap().doc;
        for i in 1..=6u64 {
            store.put("d", &format!("<a><v>{i}</v></a>"), ts(10 + i * 10)).unwrap();
        }
        let before_space = store.space_stats().unwrap();
        // Purge everything not valid at/after t=45 → versions 0..3 end at
        // 20,30,40 — wait: v0 [10,20), v1 [20,30), v2 [30,40), v3 [40,50).
        // end <= 45 purges v0..v2; v3 (ends 50) survives.
        let stats = store.vacuum("d", Timestamp::from_micros(45 * 1000)).unwrap().unwrap();
        assert_eq!(stats.purged_versions, 3);
        assert!(stats.freed_bytes > 0);
        let after_space = store.space_stats().unwrap();
        assert!(after_space.delta_bytes < before_space.delta_bytes);
        // Purged versions are unselectable and unreconstructable.
        assert_eq!(store.version_at(doc, ts(15)).unwrap(), None);
        assert!(store.version_tree(doc, VersionId(1)).is_err());
        // Retained versions fully intact.
        assert_eq!(store.version_at(doc, ts(45)).unwrap(), Some(VersionId(3)));
        for v in 3..=6u32 {
            assert_eq!(
                to_string(&store.version_tree(doc, VersionId(v)).unwrap()),
                format!("<a><v>{v}</v></a>")
            );
        }
        // Idempotent: vacuuming again frees nothing more.
        let again = store.vacuum("d", Timestamp::from_micros(45 * 1000)).unwrap().unwrap();
        assert_eq!(again.purged_versions, 0);
        assert_eq!(again.freed_bytes, 0);
        // Unknown doc → None.
        assert!(store.vacuum("nope", ts(99)).unwrap().is_none());
    }

    #[test]
    fn vacuum_never_purges_current() {
        let store = DocumentStore::in_memory();
        let doc = store.put("d", "<a>only</a>", ts(10)).unwrap().doc;
        let stats = store.vacuum("d", Timestamp::FOREVER).unwrap().unwrap();
        // The current version's validity is [t, FOREVER) — end > any
        // horizon, so it always survives.
        assert_eq!(stats.purged_versions, 0);
        assert_eq!(to_string(&store.current_tree(doc).unwrap()), "<a>only</a>");
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("txdb-repo-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fsck_clean_on_healthy_store() {
        let store = DocumentStore::in_memory();
        store.put("d", "<a><v>1</v></a>", ts(1)).unwrap();
        store.put("d", "<a><v>2</v></a>", ts(2)).unwrap();
        store.put("e", "<b>x</b>", ts(3)).unwrap();
        store.delete("e", ts(4)).unwrap().unwrap();
        let r = store.fsck();
        assert!(r.is_clean(), "unexpected problems: {:?}", r.errors);
        assert_eq!(r.docs, 2);
        assert_eq!(r.versions_checked, 4);
        assert_eq!(r.reconstructed, 3, "two content versions of d, one of e");
        assert!(r.to_string().contains("clean"));
    }

    #[test]
    fn salvage_open_on_corrupt_wal_record() {
        let dir = tmpdir("salvage");
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            store.put("d", "<a>1</a>", ts(1)).unwrap();
            store.checkpoint().unwrap();
            store.put("d", "<a>2</a>", ts(2)).unwrap();
            // A structurally intact frame whose body is garbage: its CRC
            // passes, so this is damage beyond the torn tail and recovery
            // cannot simply drop it.
            store.wal.append(&[0xFF, 1, 2, 3]).unwrap();
            store.wal.sync().unwrap();
        }
        let (store, rep) = DocumentStore::open(opts).unwrap();
        let reason = rep.salvage.expect("recovery should degrade, not fail");
        assert!(reason.contains("unknown wal op"), "reason: {reason}");
        assert_eq!(rep.replayed, 1, "records before the damage still apply");
        assert!(store.is_read_only());
        assert!(store.read_only_reason().is_some());
        // Surviving data stays readable...
        let d = store.doc_id("d").unwrap().unwrap();
        assert_eq!(to_string(&store.current_tree(d).unwrap()), "<a>2</a>");
        // ...mutations are rejected with a structured error...
        assert!(matches!(store.put("d", "<a>3</a>", ts(3)), Err(Error::ReadOnly(_))));
        assert!(matches!(store.delete("d", ts(3)), Err(Error::ReadOnly(_))));
        assert!(matches!(store.checkpoint(), Err(Error::ReadOnly(_))));
        // ...and the WAL is preserved for diagnosis (no checkpoint ran).
        let r = store.fsck();
        assert!(r.wal_records > 0, "WAL preserved in salvage mode");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_on_corrupt_roots_is_a_structured_error() {
        let dir = tmpdir("corrupt-roots");
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            store.put("d", "<a>1</a>", ts(1)).unwrap();
            store.checkpoint().unwrap();
        }
        // Flip one byte in every data page except the header: the
        // component roots themselves are gone, so there is nothing left
        // to salvage — but the failure must still be a structured
        // checksum error, never a panic.
        let db = dir.join("data.db");
        let mut bytes = std::fs::read(&db).unwrap();
        let phys = crate::pager::PHYS_PAGE_SIZE;
        for page in 1..bytes.len() / phys {
            bytes[page * phys + 100] ^= 0x40;
        }
        std::fs::write(&db, &bytes).unwrap();
        match DocumentStore::open(opts) {
            Ok(_) => panic!("open should fail on corrupt root pages"),
            Err(Error::Corruption { .. }) => {}
            Err(e) => panic!("expected a checksum error, got: {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_damaged_record_pages() {
        let dir = tmpdir("fsck-dirty");
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            // An over-page-size version goes to overflow pages at the end
            // of the file — the only pages `open` does not read (it walks
            // the slotted-page chain and the btree roots).
            store.put("d", "<a>small</a>", ts(1)).unwrap();
            let body = "x".repeat(3 * crate::pager::PAGE_SIZE);
            store.put("d", &format!("<a><v>{body}</v></a>"), ts(2)).unwrap();
            store.checkpoint().unwrap();
        }
        // Damage the last page of the file (an overflow page of the big
        // current version): open succeeds — nothing to replay, roots
        // intact — but fsck's full sweep must find the bad page.
        let db = dir.join("data.db");
        let mut bytes = std::fs::read(&db).unwrap();
        let phys = crate::pager::PHYS_PAGE_SIZE;
        let victim = bytes.len() / phys - 1;
        assert!(victim >= 1);
        bytes[victim * phys + 7] ^= 0x01;
        std::fs::write(&db, &bytes).unwrap();
        let (store, rep) = DocumentStore::open(opts).unwrap();
        assert!(rep.salvage.is_none(), "no WAL to replay, open stays clean");
        let r = store.fsck();
        assert!(!r.is_clean());
        assert_eq!(r.bad_pages, vec![victim as u64]);
        assert!(r.to_string().contains("CORRUPT"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_counts_leaked_pages_without_corrupt_verdict() {
        let dir = tmpdir("fsck-leak");
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        let victim;
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            store.put("d", "<a>1</a>", ts(1)).unwrap();
            store.put("e", "<b>2</b>", ts(2)).unwrap();
            store.checkpoint().unwrap();
            // Salvage abandons the old catalog/directory btree pages by
            // design: it must not trust broken structures enough to walk
            // (and free) them, so they leak until the file is rebuilt.
            let abandoned = store.catalog.pages();
            assert!(!abandoned.is_empty());
            victim = abandoned[0].0;
            store.salvage_rebuild_catalog().unwrap();
            store.checkpoint().unwrap();
        }
        // Bit-rot on the leaked page: CRC-dirty, but nothing references
        // it — fsck must report a leak, not corruption.
        let db = dir.join("data.db");
        let mut bytes = std::fs::read(&db).unwrap();
        let phys = crate::pager::PHYS_PAGE_SIZE;
        bytes[victim as usize * phys + 7] ^= 0x01;
        std::fs::write(&db, &bytes).unwrap();
        let (store, _) = DocumentStore::open(opts).unwrap();
        let r = store.fsck();
        assert!(r.bad_pages.is_empty(), "leaked page misclassified as corrupt: {r}");
        assert_eq!(r.leaked_pages, vec![victim]);
        assert!(r.is_clean(), "a leak must not fail the sweep: {r}");
        assert!(r.to_string().contains("leaked pages"));
        // Data survives untouched.
        assert_eq!(store.list().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reclaim_returns_leaked_pages_to_the_free_list() {
        let dir = tmpdir("fsck-reclaim");
        let opts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
        let victim;
        {
            let (store, _) = DocumentStore::open(opts.clone()).unwrap();
            store.put("d", "<a>1</a>", ts(1)).unwrap();
            store.put("e", "<b>2</b>", ts(2)).unwrap();
            store.checkpoint().unwrap();
            let abandoned = store.catalog.pages();
            assert!(!abandoned.is_empty());
            victim = abandoned[0].0;
            store.salvage_rebuild_catalog().unwrap();
            store.checkpoint().unwrap();
        }
        // Bit-rot on the abandoned btree page, as in the leak test above.
        let db = dir.join("data.db");
        let mut bytes = std::fs::read(&db).unwrap();
        let phys = crate::pager::PHYS_PAGE_SIZE;
        bytes[victim as usize * phys + 7] ^= 0x01;
        std::fs::write(&db, &bytes).unwrap();
        let (store, _) = DocumentStore::open(opts.clone()).unwrap();
        let before = store.fsck();
        assert_eq!(before.leaked_pages, vec![victim]);
        let freed = store.reclaim_leaked_pages().unwrap();
        assert_eq!(freed, vec![victim]);
        // The freed page was rewritten: the full CRC sweep is clean and
        // the leak is gone from the report.
        let after = store.fsck();
        assert!(after.is_clean(), "{after}");
        assert!(after.bad_pages.is_empty(), "{after}");
        assert!(after.leaked_pages.is_empty(), "{after}");
        assert_eq!(store.list().unwrap().len(), 2);
        // Nothing left to do on a second pass.
        assert!(store.reclaim_leaked_pages().unwrap().is_empty());
        // The reclaimed page is genuinely reusable: new writes allocate
        // from the free list before growing the file.
        let pages_before = store.pool.pager().page_count();
        store.put("f", "<c>3</c>", ts(3)).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.pool.pager().page_count(), pages_before);
        // And it all survives a reopen.
        drop(store);
        let (store, _) = DocumentStore::open(opts).unwrap();
        assert!(store.fsck().is_clean());
        assert_eq!(store.list().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_doc_errors() {
        let store = DocumentStore::in_memory();
        assert_eq!(store.doc_id("missing").unwrap(), None);
        assert!(store.doc_name(DocId(99)).is_err());
        assert!(store.current_tree(DocId(99)).is_err());
        let doc = store.put("d", "<a/>", ts(1)).unwrap().doc;
        assert!(store.version_tree(doc, VersionId(7)).is_err());
    }
}
