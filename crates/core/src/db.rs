//! The [`Database`] facade: document store + index set, kept consistent.
//!
//! `Database` is what applications (and the query layer) talk to. Writes
//! go through [`Database::put`] / [`Database::delete`], which update the
//! repository (§7.1) and drive index maintenance (§7.2) in one step; all
//! §6 operators are methods implemented in the [`crate::ops`] modules.
//!
//! On reopening a persistent store, the in-memory indexes are loaded from
//! the last **index checkpoint** (written by [`Database::checkpoint`] /
//! [`Database::close`]) and only versions above each document's
//! checkpointed high-water mark are replayed — O(index) + O(tail) instead
//! of O(history). When the checkpoint is missing, stale for a document
//! (vacuum rewrote covered history), or fails its CRC, recovery falls
//! back to replaying the affected chains in full; the outcome is recorded
//! in [`RecoveryReport::index_checkpoint`], never surfaced as an error.

use std::collections::HashMap;

use txdb_base::{DocId, Error, Result, Timestamp, VersionId};
use txdb_delta::Walk;
use txdb_index::maint::{IndexSet, IndexWriter};
use txdb_index::persist::{self, DocCover};
use txdb_storage::repo::{
    DeleteResult, DocumentStore, IndexCheckpointReport, IndexCheckpointState, PutResult,
    RecoveryReport, StoreOptions, VersionEntry, VersionKind,
};
use txdb_xml::tree::Tree;

/// Database configuration, built fluently and consumed by
/// [`DbOptions::open`]:
///
/// ```
/// use txdb_core::DbOptions;
/// let db = DbOptions::new().snapshot_every(4).cache_bytes(1 << 20).open().unwrap();
/// db.put("d", "<a>hi</a>", txdb_base::Timestamp::from_secs(1)).unwrap();
/// ```
///
/// The `store` field stays public for callers that need the full
/// [`StoreOptions`] surface (e.g. a fault-injecting VFS). The indexes
/// take no options: every database maintains the temporal FTI and the
/// EID-time index.
#[derive(Clone, Debug, Default)]
pub struct DbOptions {
    /// Storage options (path, buffer size, snapshot policy, WAL, cache).
    pub store: StoreOptions,
}

impl DbOptions {
    /// Defaults: in-memory, no snapshots, 8 MiB version cache.
    pub fn new() -> DbOptions {
        DbOptions::default()
    }

    /// Options for a persistent store rooted at `path`.
    pub fn at(path: impl Into<std::path::PathBuf>) -> DbOptions {
        DbOptions::new().path(path)
    }

    /// Sets (or replaces) the on-disk directory of an existing builder —
    /// for callers that decide between memory and disk at runtime;
    /// [`DbOptions::at`] is the usual entry point.
    pub fn path(mut self, path: impl Into<std::path::PathBuf>) -> DbOptions {
        self.store.path = Some(path.into());
        self
    }

    /// Materialize a complete snapshot every `k` versions (§7.3.3).
    pub fn snapshot_every(mut self, k: u32) -> DbOptions {
        self.store.snapshot_every = Some(k);
        self
    }

    /// Byte budget of the materialized-version cache; `0` disables it.
    pub fn cache_bytes(mut self, n: usize) -> DbOptions {
        self.store.cache_bytes = n;
        self
    }

    /// Buffer-pool capacity in pages.
    pub fn buffer_pages(mut self, n: usize) -> DbOptions {
        self.store.buffer_pages = n;
        self
    }

    /// Fsync the WAL on every append.
    pub fn wal_sync(mut self, on: bool) -> DbOptions {
        self.store.wal_sync = on;
        self
    }

    /// Appends trace events (spans, recovery fallbacks) as JSON lines to
    /// `path`. Metrics are collected either way; the sink only adds the
    /// event log.
    pub fn event_log(mut self, path: impl Into<std::path::PathBuf>) -> DbOptions {
        self.store.event_log = Some(path.into());
        self
    }

    /// Shares a metrics registry with the database (e.g. one registry
    /// across several stores); by default each database creates its own,
    /// reachable via [`Database::metrics`].
    pub fn metrics(mut self, reg: std::sync::Arc<txdb_base::obs::Registry>) -> DbOptions {
        self.store.metrics = Some(reg);
        self
    }

    /// Opens the database. Recovery details (WAL replay counts, salvage
    /// state) are available afterwards via [`Database::recovery_report`].
    pub fn open(self) -> Result<Database> {
        Database::open(self)
    }
}

/// The temporal XML database.
///
/// Concurrency contract: `Database` is `Send + Sync` — share one handle
/// (e.g. in an `Arc`) across any number of threads. Reads run in parallel
/// under the store's reader lock; writers serialize on the store's writer
/// lock for validate + WAL append + page apply, then pay the durability
/// fsync *outside* it through the WAL's group commit, so N concurrent
/// committers share ~1 fsync. Timestamps are MVCC for free: versions are
/// immutable once written, so a reader that queries `as of t` (with `t`
/// at or below the last committed timestamp) sees a stable snapshot no
/// matter what commits afterwards. [`Database::pin_snapshot`] makes that
/// explicit and additionally fences vacuum from purging versions the
/// pinned timestamp can still see.
///
/// One narrow window remains: a write updates the store *then* the
/// indexes, so a reader racing a writer may briefly observe a version in
/// the store whose postings are not yet open (queries stay crash-free;
/// they may miss the in-flight version until the put returns). Pin a
/// timestamp below the in-flight write — or serialise with the writer —
/// when that window matters.
pub struct Database {
    store: DocumentStore,
    indexes: IndexSet,
    recovery: RecoveryReport,
}

impl Database {
    /// Opens (or creates) a database; rebuilds in-memory indexes from the
    /// stored version chains when the store already has content. What
    /// recovery did (WAL replay counts, salvage state, chains that could
    /// not be re-indexed) is kept on the handle — see
    /// [`Database::recovery_report`].
    pub fn open(opts: DbOptions) -> Result<Database> {
        let (store, mut report) = DocumentStore::open(opts.store)?;
        let indexes = IndexSet::open(store.pool().clone(), store.metrics())?;
        let mut db = Database { store, indexes, recovery: RecoveryReport::default() };
        if db.store.is_read_only() {
            // Salvage mode: index whatever chains still replay. A chain
            // that hits corruption stays unindexed (store reads still
            // work); the count is recorded so the caller can tell how
            // much of the database is unqueryable through the indexes.
            // The index checkpoint is ignored — the WAL is evidence and a
            // full replay is the most conservative reconstruction. An
            // unreadable catalog indexes nothing; the salvage reason says why.
            let docs = db.store.list().unwrap_or_default();
            report.unindexed_chains =
                docs.iter().filter(|(doc, _)| db.reindex(*doc).is_err()).count();
        } else {
            report.index_checkpoint = db.load_indexes()?;
        }
        db.recovery = report;
        Ok(db)
    }

    /// Loads the persisted index checkpoint and replays only history above
    /// each document's high-water mark; falls back to [`Database::reindex`]
    /// — for every document when the checkpoint is absent/unreadable, per
    /// document when a cover is stale (vacuum rewrote covered history).
    /// Every fallback is recorded, none is an error: a bad checkpoint costs
    /// open time, never data.
    fn load_indexes(&self) -> Result<IndexCheckpointReport> {
        let reg = self.store.metrics();
        let _span = reg.span("index.open_us");
        let mut r = IndexCheckpointReport::default();
        let load_started = std::time::Instant::now();
        let ckpt = match self.store.read_index_checkpoint() {
            Ok(Some(blob)) => match persist::decode(&blob) {
                Ok(ckpt) => Some(ckpt),
                Err(e) => {
                    r.note = Some(format!("checkpoint undecodable: {e}"));
                    None
                }
            },
            Ok(None) => None,
            Err(e) => {
                r.note = Some(format!("checkpoint unreadable: {e}"));
                None
            }
        };
        reg.histogram("checkpoint.load_us").record(load_started.elapsed().as_micros() as u64);
        // Without a usable checkpoint no document has a cover, so every one
        // takes the rebuild branch below.
        let covers: HashMap<DocId, DocCover> = match ckpt {
            Some(ckpt) => {
                self.indexes.install(ckpt.fti);
                r.state = IndexCheckpointState::Loaded;
                ckpt.covers.iter().map(|c| (c.doc, *c)).collect()
            }
            None if r.note.is_some() => {
                r.state = IndexCheckpointState::Fallback;
                // The runtime-visible trail of the ROADMAP's "CRC/staleness
                // fallback only visible via fsck" gap: count it and emit an
                // event so operators see full replays without a debugger.
                reg.counter("recovery.index_fallback").inc();
                reg.emit(
                    "recovery.index_fallback",
                    &[(
                        "note",
                        txdb_base::obs::EventValue::Str(r.note.as_deref().unwrap_or("unknown")),
                    )],
                );
                HashMap::new()
            }
            None => HashMap::new(),
        };
        for (doc, _) in self.store.list()? {
            let entries = self.store.versions(doc)?;
            match covers.get(&doc) {
                Some(c) if cover_fresh(c, &entries) => {
                    let skip = c.covered as usize;
                    self.replay_chain(&mut self.indexes.write(), doc, &entries, skip)?;
                    r.versions_replayed += entries.len() - skip;
                    r.docs_loaded += 1;
                }
                cover => {
                    // Stale cover (vacuum rewrote covered history, or the
                    // entry list shrank) or a document without one: rebuild
                    // just this document.
                    if cover.is_some() {
                        reg.counter("recovery.stale_cover_replays").inc();
                        reg.emit(
                            "recovery.stale_cover_replay",
                            &[("doc", txdb_base::obs::EventValue::U64(doc.0 as u64))],
                        );
                        r.note.get_or_insert_with(|| {
                            format!("stale cover for doc {doc}: full replay")
                        });
                    }
                    self.reindex(doc)?;
                    r.docs_replayed += 1;
                }
            }
        }
        Ok(r)
    }

    /// What recovery did when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Fresh in-memory database with default options.
    pub fn in_memory() -> Database {
        DbOptions::new().open().expect("in-memory open")
    }

    /// The underlying document store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The index set.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// The metrics registry shared by every layer of this database
    /// (storage, indexes, query executor).
    pub fn metrics(&self) -> &std::sync::Arc<txdb_base::obs::Registry> {
        self.store.metrics()
    }

    /// Stores a new version of `name` (XML text) at transaction time `ts`.
    pub fn put(&self, name: &str, xml: &str, ts: Timestamp) -> Result<PutResult> {
        let tree = txdb_xml::parse::parse_document(xml)?;
        self.put_tree(name, tree, ts)
    }

    /// Stores a new version of `name` (parsed tree) at time `ts`.
    pub fn put_tree(&self, name: &str, tree: Tree, ts: Timestamp) -> Result<PutResult> {
        let r = self.store.put_tree(name, tree, ts)?;
        if r.changed {
            self.indexes.on_put(
                r.doc,
                r.version,
                r.ts,
                &r.new_tree,
                r.delta.as_ref(),
                r.resurrected,
            )?;
        }
        Ok(r)
    }

    /// Deletes `name` at time `ts` (tombstone; history remains queryable).
    pub fn delete(&self, name: &str, ts: Timestamp) -> Result<Option<DeleteResult>> {
        let r = self.store.delete(name, ts)?;
        if let Some(d) = &r {
            self.indexes.write().on_delete(d.doc, d.version, d.ts, &d.old_tree)?;
        }
        Ok(r)
    }

    /// Checkpoints the database: flushes pages, truncates the WAL and
    /// persists the in-memory indexes so the next open replays only what
    /// comes after.
    ///
    /// Ordering matters for crash safety: the store state (including the
    /// persistent EID index pages) is flushed *before* the index blob is
    /// written and flushed. A crash between the two leaves an older blob
    /// whose covers trail the flushed store — safe, because catch-up
    /// replay is idempotent — whereas a blob *newer* than the flushed
    /// EID pages would leave covered versions silently unindexed.
    pub fn checkpoint(&self) -> Result<()> {
        self.store.checkpoint()?;
        let _span = self.store.metrics().span("checkpoint.index_write_us");
        let covers = self.collect_covers()?;
        let blob = self.indexes.encode_checkpoint(&covers);
        self.store.write_index_checkpoint(&blob)?;
        self.store.checkpoint()
    }

    /// Clean close: checkpoint (indexes included) and consume the handle,
    /// guaranteeing the next open is O(index). A salvage-mode handle
    /// closes without writing anything.
    pub fn close(self) -> Result<()> {
        if self.store.is_read_only() {
            return Ok(());
        }
        self.checkpoint()
    }

    /// The per-document coverage stamps for an index checkpoint taken
    /// now: every version entry of every document, with the purged count
    /// that lets a later open detect vacuums below the high-water mark.
    fn collect_covers(&self) -> Result<Vec<DocCover>> {
        let mut covers = Vec::new();
        for (doc, _) in self.store.list()? {
            let entries = self.store.versions(doc)?;
            let purged = entries.iter().filter(|e| e.kind == VersionKind::Purged).count() as u32;
            covers.push(DocCover { doc, covered: entries.len() as u32, purged });
        }
        Ok(covers)
    }

    /// Purges the history of `name` before the given horizon (see
    /// [`DocumentStore::vacuum`]) and, if a version was purged, re-indexes
    /// the document ([`Database::reindex`]): a live handle then holds
    /// exactly what a reopen builds.
    pub fn vacuum(
        &self,
        name: &str,
        before: Timestamp,
    ) -> Result<Option<txdb_storage::repo::VacuumStats>> {
        let Some(stats) = self.store.vacuum(name, before)? else { return Ok(None) };
        if stats.purged_versions > 0 {
            if let Some(doc) = self.store.doc_id(name)? {
                self.reindex(doc)?;
            }
        }
        Ok(Some(stats))
    }

    /// Rebuilds `doc`'s postings and element lifetimes from its surviving
    /// chain — the one rebuild path (open without a usable checkpoint, a
    /// stale cover, salvage, vacuum). The chain is read under the FTI write
    /// lock, so a concurrent put is either in it or indexed after the
    /// rebuild, where re-applying it changes nothing.
    pub fn reindex(&self, doc: DocId) -> Result<()> {
        let mut w = self.indexes.write();
        w.reindex(doc, |w| self.replay_chain(w, doc, &self.store.versions(doc)?, 0))
    }

    /// Replays `entries[skip..]` of one document through `w` on one forward
    /// walk: the delta indexed for a version is the step into it. A point
    /// reconstruction seeds the walk only at the first replayed version and
    /// after a purged gap. `skip > 0` is the checkpoint catch-up path: only
    /// the *kinds* of the skipped prefix, which the loaded indexes already
    /// reflect, are scanned to recover the replay state.
    fn replay_chain(
        &self,
        w: &mut IndexWriter<'_>,
        doc: DocId,
        entries: &[VersionEntry],
        skip: usize,
    ) -> Result<()> {
        let mut prev_tombstone = false;
        // The first content version after a vacuumed (purged) prefix
        // must be indexed from scratch: the vacuum freed its delta.
        let mut need_full = true;
        for e in &entries[..skip] {
            match e.kind {
                VersionKind::Purged => need_full = true,
                VersionKind::Tombstone => prev_tombstone = true,
                VersionKind::Content => {
                    prev_tombstone = false;
                    need_full = false;
                }
            }
        }
        // Stands on the last content version replayed.
        let mut walk: Option<Walk> = None;
        for e in &entries[skip..] {
            match e.kind {
                // Purged versions have no payload to index; history
                // lookups at their times already return nothing.
                VersionKind::Purged => {
                    need_full = true;
                    walk = None;
                }
                VersionKind::Tombstone => {
                    if walk.is_none() {
                        // The tree current before the tombstone lies in
                        // the skipped prefix, or was purged.
                        let prefix = &entries[..e.version.0 as usize];
                        match prefix.iter().rev().find(|p| p.kind == VersionKind::Content) {
                            Some(prev) => {
                                walk = Some(Walk::new(self.store.version_tree(doc, prev.version)?))
                            }
                            // A vacuum can purge every content version
                            // below a trailing tombstone: nothing is
                            // indexed, so there is nothing to close.
                            None if prefix.iter().any(|p| p.kind == VersionKind::Purged) => {}
                            None => {
                                return Err(Error::Corrupt(format!(
                                    "doc {doc}: tombstone at v{} without preceding content",
                                    e.version.0
                                )));
                            }
                        }
                    }
                    if let Some(walk) = &walk {
                        w.on_delete(doc, e.version, e.ts, walk.tree())?;
                    }
                    prev_tombstone = true;
                }
                VersionKind::Content => {
                    let delta = if need_full { None } else { self.store.delta(doc, e.version)? };
                    let tree = match (&mut walk, &delta) {
                        (Some(walk), Some(d)) => {
                            walk.forward(d)?;
                            walk.tree()
                        }
                        (walk, _) => {
                            walk.insert(Walk::new(self.store.version_tree(doc, e.version)?)).tree()
                        }
                    };
                    w.on_put(doc, e.version, e.ts, tree, delta.as_ref(), prev_tombstone)?;
                    prev_tombstone = false;
                    need_full = false;
                }
            }
        }
        Ok(())
    }

    /// The version of `doc` valid at `ts` (delta-index lookup).
    pub fn version_at(&self, doc: DocId, ts: Timestamp) -> Result<Option<VersionId>> {
        self.store.version_at(doc, ts)
    }

    /// Pins `ts` as a live snapshot: until the returned pin drops,
    /// [`Database::vacuum`] clamps its purge horizon at or below `ts`, so
    /// every version a query `as of ts` can reach stays reconstructible.
    /// Reads need no pin for *consistency* (committed versions are
    /// immutable); the pin buys *durability of history* against a
    /// concurrent vacuum. Query streams hold one automatically for their
    /// lifetime. The `db.active_snapshots` gauge tracks live pins.
    pub fn pin_snapshot(&self, ts: Timestamp) -> txdb_storage::SnapshotPin {
        self.store.snapshots().pin(ts)
    }
}

/// Does a checkpoint cover still describe this version chain? The chain
/// may only have *grown* past the high-water mark; covered history must
/// be untouched, which a vacuum (the one operation that rewrites covered
/// entries) always betrays by raising the purged count.
fn cover_fresh(c: &DocCover, entries: &[VersionEntry]) -> bool {
    let n = c.covered as usize;
    n <= entries.len()
        && entries[..n].iter().filter(|e| e.kind == VersionKind::Purged).count()
            == c.purged as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_index::fti::OccKind;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    #[test]
    fn put_updates_store_and_indexes() {
        let db = Database::in_memory();
        db.put("g", "<guide><name>Napoli</name></guide>", ts(1)).unwrap();
        assert_eq!(db.indexes().fti().lookup("napoli", OccKind::Word).len(), 1);
        db.put("g", "<guide><name>Roma</name></guide>", ts(2)).unwrap();
        assert_eq!(db.indexes().fti().lookup("napoli", OccKind::Word).len(), 0);
        assert_eq!(db.indexes().fti().lookup("roma", OccKind::Word).len(), 1);
    }

    #[test]
    fn delete_closes_index_state() {
        let db = Database::in_memory();
        db.put("g", "<a>word</a>", ts(1)).unwrap();
        db.delete("g", ts(2)).unwrap();
        assert_eq!(db.indexes().fti().lookup("word", OccKind::Word).len(), 0);
        assert_eq!(db.indexes().fti().lookup_h("word", OccKind::Word).len(), 1);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("txdb-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn close_then_open_loads_checkpoint_without_replay() {
        let dir = tmp_dir("ckpt-load");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            for i in 0..8u64 {
                db.put("g", &format!("<a><b>alpha{i}</b></a>"), ts(i + 1)).unwrap();
            }
            db.put("h", "<x>gamma</x>", ts(20)).unwrap();
            db.delete("h", ts(21)).unwrap();
            db.close().unwrap();
        }
        let db = opts.open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Loaded, "note: {:?}", r.note);
        assert_eq!(r.docs_loaded, 2);
        assert_eq!(r.docs_replayed, 0);
        assert_eq!(r.versions_replayed, 0);
        let fti = db.indexes().fti();
        assert_eq!(fti.lookup("alpha7", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup_h("alpha0", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("gamma", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup_h("gamma", OccKind::Word).len(), 1);
        drop(fti);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_replays_only_past_the_high_water_mark() {
        let dir = tmp_dir("ckpt-tail");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            db.put("g", "<a>one</a>", ts(1)).unwrap();
            db.put("g", "<a>two</a>", ts(2)).unwrap();
            db.checkpoint().unwrap();
            // Tail written after the checkpoint: must be caught up at open.
            db.put("g", "<a>three</a>", ts(3)).unwrap();
            db.put("k", "<n>new</n>", ts(4)).unwrap();
            // No close(): the WAL carries the tail across the reopen.
        }
        let db = opts.open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Loaded, "note: {:?}", r.note);
        assert_eq!(r.docs_loaded, 1);
        assert_eq!(r.versions_replayed, 1, "only v2 of g is past the mark");
        assert_eq!(r.docs_replayed, 1, "doc k is not covered at all");
        let fti = db.indexes().fti();
        assert_eq!(fti.lookup("three", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("two", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup_h("one", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("new", OccKind::Word).len(), 1);
        drop(fti);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_replay() {
        use txdb_storage::{Pager, PHYS_PAGE_SIZE};
        let dir = tmp_dir("ckpt-crc");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            db.put("g", "<a>alpha</a>", ts(1)).unwrap();
            db.put("g", "<a>beta</a>", ts(2)).unwrap();
            db.close().unwrap();
        }
        // Flip one byte inside the checkpoint root page. The pager's
        // physical page CRC (and the checkpoint's own header checks)
        // must reject it and the open must degrade, not fail.
        let root = {
            let pager = Pager::open(&dir.join("data.db")).unwrap();
            pager.root(txdb_storage::repo::roots::FTI_META)
        };
        assert!(!root.is_null(), "close() should have written a checkpoint");
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(dir.join("data.db"))
                .unwrap();
            let off = root.0 * PHYS_PAGE_SIZE as u64 + 20;
            f.seek(SeekFrom::Start(off)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(off)).unwrap();
            f.write_all(&[b[0] ^ 0xff]).unwrap();
        }
        let db = opts.open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Fallback);
        assert!(r.note.is_some(), "fallback must say why");
        assert_eq!(r.docs_replayed, 1);
        // The fallback is observable at runtime, not only in the report.
        let snap = db.metrics().snapshot();
        assert_eq!(snap.counter("recovery.index_fallback"), Some(1), "{}", snap.to_text());
        assert_eq!(db.indexes().fti().lookup("beta", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup_h("alpha", OccKind::Word).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_below_tombstone_reopens_without_panicking() {
        // A vacuum purges every content version below a trailing
        // tombstone, leaving a [Purged.., Tombstone] chain. Replaying it
        // used to panic ("tombstone follows content"); it must now skip
        // the tombstone quietly.
        let dir = tmp_dir("ckpt-vac");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            db.put("g", "<a>alpha</a>", ts(1)).unwrap();
            db.delete("g", ts(2)).unwrap();
            db.put("live", "<a>live</a>", ts(3)).unwrap();
            let stats = db.vacuum("g", ts(10)).unwrap().unwrap();
            assert!(stats.purged_versions > 0, "vacuum should purge the content version");
            // No checkpoint after the vacuum: the reopen replays in full.
            db.store().checkpoint().unwrap();
        }
        let db = opts.clone().open().unwrap();
        assert_eq!(db.indexes().fti().lookup("live", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup("alpha", OccKind::Word).len(), 0);
        // And the checkpoint path over the same chain also survives.
        db.close().unwrap();
        let db = opts.clone().open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Loaded, "note: {:?}", r.note);
        // Resurrecting the fully-vacuumed document stores a fresh base
        // version (nothing left to diff against) and must survive a
        // reopen on both the replay and the checkpoint path.
        let res = db.put("g", "<a>reborn</a>", ts(20)).unwrap();
        assert!(res.changed);
        assert!(res.delta.is_none(), "rebirth has no delta");
        assert_eq!(db.indexes().fti().lookup("reborn", OccKind::Word).len(), 1);
        db.close().unwrap();
        let db = opts.open().unwrap();
        assert!(db.recovery_report().salvage.is_none());
        assert_eq!(db.indexes().fti().lookup("reborn", OccKind::Word).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_invalidates_covered_history() {
        // Checkpoint first, vacuum after: the cover's purged count no
        // longer matches, so just that document must be fully replayed.
        let dir = tmp_dir("ckpt-stale");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            db.put("g", "<a>one</a>", ts(1)).unwrap();
            db.put("g", "<a>two</a>", ts(2)).unwrap();
            db.put("h", "<b>other</b>", ts(3)).unwrap();
            db.checkpoint().unwrap();
            let stats = db.vacuum("g", ts(3)).unwrap().unwrap();
            assert!(stats.purged_versions > 0);
            db.store().checkpoint().unwrap();
        }
        let db = opts.open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Loaded);
        assert_eq!(r.docs_loaded, 1, "h still matches its cover");
        assert_eq!(r.docs_replayed, 1, "g was vacuumed and must rebuild");
        assert!(r.note.as_deref().unwrap_or("").contains("stale cover"));
        assert_eq!(db.indexes().fti().lookup("two", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup("other", OccKind::Word).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_shrinks_fti_on_live_handle() {
        let db = Database::in_memory();
        db.put("g", "<a>one</a>", ts(1)).unwrap();
        db.put("g", "<a>two</a>", ts(2)).unwrap();
        db.put("g", "<a>three</a>", ts(3)).unwrap();
        let before = db.indexes().fti().posting_count();
        assert_eq!(db.indexes().fti().lookup_h("one", OccKind::Word).len(), 1);
        let stats = db.vacuum("g", ts(4)).unwrap().unwrap();
        assert_eq!(stats.purged_versions, 2, "versions of 'one' and 'two' purged");
        // The vacuum re-indexes the document from its surviving chain:
        // the purged occurrences leave the live handle without a reopen.
        let after = db.indexes().fti().posting_count();
        assert!(after < before, "posting lists must shrink ({before} -> {after})");
        assert_eq!(db.indexes().fti().lookup_h("one", OccKind::Word).len(), 0);
        assert_eq!(db.indexes().fti().lookup_h("two", OccKind::Word).len(), 0);
        // The surviving current version stays findable, and the rebuilt
        // open structures support maintenance.
        assert_eq!(db.indexes().fti().lookup("three", OccKind::Word).len(), 1);
        db.put("g", "<a>four</a>", ts(5)).unwrap();
        assert_eq!(db.indexes().fti().lookup("three", OccKind::Word).len(), 0);
        assert_eq!(db.indexes().fti().lookup("four", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup_h("three", OccKind::Word).len(), 1);
    }

    #[test]
    fn full_replay_open_walks_the_chain_once() {
        // A 25-item guide with 201 versions, vacuumed below its 11th
        // version, opened with no index blob: the replay seeds one walk
        // at the first surviving version and steps forward from there.
        // Reconstructing every version from the current one instead costs
        // 191 point reconstructions and 18,145 deltas.
        let dir = tmp_dir("replay-walk");
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            for i in 0..201u64 {
                let items: String = (0..25u64)
                    .map(|k| {
                        format!(
                            "<r><n>n{k}</n><p>{}</p></r>",
                            if k == i % 25 { i } else { 1000 + k }
                        )
                    })
                    .collect();
                db.put("g", &format!("<guide>{items}</guide>"), ts(10 * (i + 1))).unwrap();
            }
            let stats = db.vacuum("g", ts(115)).unwrap().unwrap();
            assert_eq!(stats.purged_versions, 10);
            db.store().checkpoint().unwrap();
        }
        let db = opts.open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!(r.state, IndexCheckpointState::Absent, "note: {:?}", r.note);
        let snap = db.metrics().snapshot();
        let calls = snap.counter("reconstruct.calls").unwrap_or(0);
        let deltas = snap.counter("reconstruct.deltas_applied").unwrap_or(0);
        assert!(calls <= 2, "point reconstructions: {calls}");
        assert!(deltas <= 201, "deltas applied: {deltas}");
        assert_eq!(db.indexes().fti().lookup("200", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup_h("3", OccKind::Word).len(), 0, "only in v3");
        assert_eq!(db.indexes().fti().lookup_h("13", OccKind::Word).len(), 1);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_replay_open_of_many_documents_rebuilds_each_in_its_own_time() {
        // A full-replay open rebuilds document after document into one
        // growing index. Each rebuild must touch only its own document's
        // postings, or the open is quadratic in the documents: rebuilding
        // a small document in a 3,000-document store costs what it costs
        // alone (a whole-index scan per rebuild made it ~30x slower).
        let guide = |d: u64| format!("<g><r><n>name{d}</n><a>{d} main</a></r></g>");
        let dir = tmp_dir("many-docs");
        {
            let db = DbOptions::at(&dir).open().unwrap();
            for d in 0..3000u64 {
                db.put(&format!("g{d}"), &guide(d), ts(d + 1)).unwrap();
                db.put(&format!("g{d}"), &guide(d + 1), ts(d + 5000)).unwrap();
            }
        }
        let db = DbOptions::at(&dir).open().unwrap();
        let r = &db.recovery_report().index_checkpoint;
        assert_eq!((r.state, r.docs_replayed), (IndexCheckpointState::Absent, 3000));
        assert_eq!(db.indexes().fti().lookup("name2999", OccKind::Word).len(), 1);
        assert_eq!(db.indexes().fti().lookup_h("name2999", OccKind::Word).len(), 2);
        let alone = Database::in_memory();
        alone.put("g0", &guide(0), ts(1)).unwrap();
        alone.put("g0", &guide(1), ts(5000)).unwrap();
        let rebuild = |db: &Database| {
            let doc = db.store().doc_id("g0").unwrap().unwrap();
            let runs = (0..30).map(|_| {
                let t = std::time::Instant::now();
                db.reindex(doc).unwrap();
                t.elapsed()
            });
            runs.min().unwrap()
        };
        let (crowded, single) = (rebuild(&db), rebuild(&alone));
        assert!(crowded < single * 4, "rebuild among 3,000 docs {crowded:?}, alone {single:?}");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstone_without_preceding_content_is_corrupt_not_a_panic() {
        let db = Database::in_memory();
        db.put("g", "<a>x</a>", ts(1)).unwrap();
        let doc = db.store().doc_id("g").unwrap().unwrap();
        // Hand-corrupted chain: a tombstone with no content (and no
        // purge marks) before it.
        let entries = vec![VersionEntry {
            version: VersionId(0),
            ts: ts(1),
            kind: VersionKind::Tombstone,
            delta_rid: None,
            snapshot_rid: None,
        }];
        let err = db.replay_chain(&mut db.indexes.write(), doc, &entries, 0).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("without preceding content"), "got {err}");
    }

    #[test]
    fn reopen_rebuilds_fti() {
        let dir = std::env::temp_dir().join(format!("txdb-db-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DbOptions::at(&dir);
        {
            let db = opts.clone().open().unwrap();
            db.put("g", "<a><b>alpha</b></a>", ts(1)).unwrap();
            db.put("g", "<a><b>beta</b></a>", ts(2)).unwrap();
            db.put("h", "<x>gamma</x>", ts(3)).unwrap();
            db.delete("h", ts(4)).unwrap();
            db.checkpoint().unwrap();
        }
        let db = opts.open().unwrap();
        assert_eq!(db.recovery_report().unindexed_chains, 0);
        let fti = db.indexes().fti();
        assert_eq!(fti.lookup("beta", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("alpha", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup_h("alpha", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("gamma", OccKind::Word).len(), 0);
        drop(fti);
        // Temporal lookups work after rebuild.
        let doc = db.store().doc_id("g").unwrap().unwrap();
        let v = db.version_at(doc, ts(1)).unwrap().unwrap();
        assert_eq!(v, VersionId(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
