//! Materialized-version cache: sharded LRU over reconstructed trees.
//!
//! The paper's cost model (§7.3.3, E4) prices every temporal operator in
//! deltas applied per reconstruction. Without a cache, `Reconstruct`,
//! `DocHistory` and `TPatternScanAll`-driven reconstructions re-pay the
//! same backward delta chains on every call. This module keeps recently
//! materialized versions — keyed `(DocId, VersionId)`, which is immutable
//! content — in a byte-budgeted, sharded LRU so the *nearest cached
//! version* can seed a reconstruction instead of the nearest snapshot or
//! the current version.
//!
//! Sharding bounds lock contention: concurrent readers (query threads,
//! server sessions) hit the cache at once, and a single mutex would
//! serialise them. Each shard owns `budget / SHARDS` bytes and evicts its
//! own LRU tail independently.
//!
//! Invalidation is conservative: any mutation of a document (`put`,
//! `delete`, `vacuum`) drops every cached version of that document.
//! Strictly only `vacuum` destroys cached content (version payloads are
//! otherwise append-only), but the blanket rule keeps the invariant
//! trivially auditable: *a cache entry never outlives any change to its
//! document*.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use txdb_base::obs::{Counter, Registry};
use txdb_base::{DocId, VersionId};
use txdb_xml::tree::Tree;

/// Number of independent LRU shards.
const SHARDS: usize = 8;

/// Fixed per-node overhead assumed by the byte estimator (struct size,
/// child vector slot, allocator slack).
const NODE_OVERHEAD: usize = 96;

/// Counters exposed by the cache, mirroring [`crate::buffer::BufferStats`].
/// All values are cumulative and count every caller's lookups. A cache
/// built with [`VersionCache::with_metrics`] registers these counters
/// under `vcache.*` in the store's [`Registry`] so `txdb stats` and `txdb
/// metrics` read the same atomics. A query's own hits and misses come
/// from the lookups its reconstructions make
/// ([`crate::repo::ReconstructCost`]), not from these.
#[derive(Debug, Default)]
pub struct VersionCacheStats {
    /// Lookups that found their version.
    pub hits: Counter,
    /// Lookups that did not.
    pub misses: Counter,
    /// Trees inserted.
    pub inserts: Counter,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: Counter,
    /// Entries dropped by document invalidation (put/delete/vacuum).
    pub invalidations: Counter,
}

impl VersionCacheStats {
    /// Stats whose counters are registered in `reg` under `vcache.*`.
    pub fn registered(reg: &Registry) -> VersionCacheStats {
        VersionCacheStats {
            hits: reg.counter("vcache.hits"),
            misses: reg.counter("vcache.misses"),
            inserts: reg.counter("vcache.inserts"),
            evictions: reg.counter("vcache.evictions"),
            invalidations: reg.counter("vcache.invalidations"),
        }
    }

    /// Snapshot of (hits, misses, inserts, evictions, invalidations).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits.get(),
            self.misses.get(),
            self.inserts.get(),
            self.evictions.get(),
            self.invalidations.get(),
        )
    }

    /// Resets all counters (used between experiment phases).
    pub fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.inserts.reset();
        self.evictions.reset();
        self.invalidations.reset();
    }
}

struct Entry {
    tree: Arc<Tree>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(DocId, VersionId), Entry>,
    bytes: usize,
}

/// The sharded LRU materialized-version cache.
pub struct VersionCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count); 0 disables.
    shard_budget: usize,
    tick: AtomicU64,
    /// Hit/miss/eviction counters.
    pub stats: VersionCacheStats,
}

/// Rough heap footprint of a tree: per-node overhead plus owned strings.
/// Exact accounting is not the point — the budget only has to keep the
/// cache from growing without bound, and relative sizes are right.
pub fn tree_bytes(tree: &Tree) -> usize {
    let mut total = tree.len() * NODE_OVERHEAD;
    for id in tree.iter() {
        let node = tree.node(id);
        if let Some(name) = node.name() {
            total += name.len();
        }
        if let Some(text) = node.text() {
            total += text.len();
        }
        total += node.children().len() * std::mem::size_of::<u32>();
    }
    total
}

impl VersionCache {
    /// A cache with a total byte budget; `0` disables caching entirely
    /// (every lookup misses, inserts are dropped). Counters are
    /// standalone (unregistered).
    pub fn new(budget_bytes: usize) -> VersionCache {
        VersionCache::with_stats(budget_bytes, VersionCacheStats::default())
    }

    /// Like [`VersionCache::new`] but with counters registered in `reg`
    /// under `vcache.*`.
    pub fn with_metrics(budget_bytes: usize, reg: &Registry) -> VersionCache {
        VersionCache::with_stats(budget_bytes, VersionCacheStats::registered(reg))
    }

    fn with_stats(budget_bytes: usize, stats: VersionCacheStats) -> VersionCache {
        VersionCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget_bytes / SHARDS,
            tick: AtomicU64::new(0),
            stats,
        }
    }

    /// True when the cache has a zero budget and can never hold anything.
    pub fn is_disabled(&self) -> bool {
        self.shard_budget == 0
    }

    fn shard(&self, doc: DocId, v: VersionId) -> &Mutex<Shard> {
        // Cheap mix: documents spread across shards, consecutive versions
        // of one document spread too (concurrent readers of one document
        // often touch neighbouring versions).
        let h = (doc.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (v.0 as u64);
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// The cached tree of `(doc, v)`, if present. Counts a hit or miss.
    pub fn get(&self, doc: DocId, v: VersionId) -> Option<Arc<Tree>> {
        if self.is_disabled() {
            self.stats.misses.inc();
            return None;
        }
        let mut shard = self.shard(doc, v).lock();
        match shard.map.get_mut(&(doc, v)) {
            Some(e) => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.stats.hits.inc();
                Some(e.tree.clone())
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Like [`VersionCache::get`] but without touching the counters or the
    /// LRU clock — used by probes that only ask "is it resident?" while
    /// choosing a reconstruction seed.
    pub fn peek(&self, doc: DocId, v: VersionId) -> Option<Arc<Tree>> {
        if self.is_disabled() {
            return None;
        }
        let shard = self.shard(doc, v).lock();
        shard.map.get(&(doc, v)).map(|e| e.tree.clone())
    }

    /// Inserts (or refreshes) a materialized version, evicting LRU entries
    /// from the target shard until it fits the budget. Trees larger than a
    /// whole shard budget are not cached at all.
    pub fn insert(&self, doc: DocId, v: VersionId, tree: Arc<Tree>) {
        if self.is_disabled() {
            return;
        }
        let bytes = tree_bytes(&tree);
        if bytes > self.shard_budget {
            return;
        }
        let mut shard = self.shard(doc, v).lock();
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(old) = shard.map.insert((doc, v), Entry { tree, bytes, last_used }) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        self.stats.inserts.inc();
        while shard.bytes > self.shard_budget {
            let victim = shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = shard.map.remove(&k) {
                        shard.bytes -= e.bytes;
                    }
                    self.stats.evictions.inc();
                }
                None => break,
            }
        }
    }

    /// Drops every cached version of `doc` (writer-side invalidation).
    pub fn invalidate_doc(&self, doc: DocId) {
        if self.is_disabled() {
            return;
        }
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let keys: Vec<(DocId, VersionId)> =
                shard.map.keys().filter(|(d, _)| *d == doc).copied().collect();
            for k in keys {
                if let Some(e) = shard.map.remove(&k) {
                    shard.bytes -= e.bytes;
                    dropped += 1;
                }
            }
        }
        self.stats.invalidations.add(dropped);
    }

    /// Drops everything.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dropped = shard.map.len() as u64;
            shard.map.clear();
            shard.bytes = 0;
            self.stats.invalidations.add(dropped);
        }
    }

    /// Number of resident entries (for tests and `txdb stats`).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::parse::parse_document;

    fn tree(text: &str) -> Arc<Tree> {
        Arc::new(parse_document(&format!("<a>{text}</a>")).unwrap())
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = VersionCache::new(1 << 20);
        assert!(c.get(DocId(1), VersionId(0)).is_none());
        c.insert(DocId(1), VersionId(0), tree("x"));
        assert!(c.get(DocId(1), VersionId(0)).is_some());
        let (hits, misses, inserts, ..) = c.stats.snapshot();
        assert_eq!((hits, misses, inserts), (1, 1, 1));
        assert_eq!(c.len(), 1);
        assert!(c.resident_bytes() > 0);
    }

    #[test]
    fn zero_budget_disables() {
        let c = VersionCache::new(0);
        assert!(c.is_disabled());
        c.insert(DocId(1), VersionId(0), tree("x"));
        assert!(c.get(DocId(1), VersionId(0)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn invalidate_doc_drops_only_that_doc() {
        let c = VersionCache::new(1 << 20);
        for v in 0..4 {
            c.insert(DocId(1), VersionId(v), tree("a"));
            c.insert(DocId(2), VersionId(v), tree("b"));
        }
        c.invalidate_doc(DocId(1));
        assert_eq!(c.len(), 4);
        assert!(c.get(DocId(1), VersionId(0)).is_none());
        assert!(c.get(DocId(2), VersionId(0)).is_some());
        let (.., invalidations) = c.stats.snapshot();
        assert_eq!(invalidations, 4);
    }

    #[test]
    fn budget_evicts_lru() {
        // Budget for roughly a few small trees per shard: force evictions
        // by hammering versions that map to the same shard.
        let one = tree_bytes(&tree("payload"));
        let c = VersionCache::new(one * SHARDS * 2);
        for v in 0..64 {
            c.insert(DocId(7), VersionId(v), tree("payload"));
        }
        let (.., _inserts, evictions, _) = {
            let s = c.stats.snapshot();
            (s.0, s.1, s.2, s.3, s.4)
        };
        assert!(evictions > 0, "evictions: {evictions}");
        assert!(c.resident_bytes() <= one * SHARDS * 2);
    }

    #[test]
    fn oversized_tree_not_cached() {
        let c = VersionCache::new(256);
        let big = "x".repeat(10_000);
        c.insert(DocId(1), VersionId(0), tree(&big));
        assert!(c.peek(DocId(1), VersionId(0)).is_none());
    }

    #[test]
    fn peek_does_not_count() {
        let c = VersionCache::new(1 << 20);
        c.insert(DocId(1), VersionId(0), tree("x"));
        assert!(c.peek(DocId(1), VersionId(0)).is_some());
        assert!(c.peek(DocId(1), VersionId(1)).is_none());
        let (hits, misses, ..) = c.stats.snapshot();
        assert_eq!((hits, misses), (0, 0));
    }
}
