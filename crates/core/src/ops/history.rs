//! `Reconstruct`, `DocHistory` and `ElementHistory` (§7.3.3–7.3.5).
//!
//! * `Reconstruct(TEID)` rebuilds the subtree rooted at the TEID's EID in
//!   the version its timestamp selects: deltas are applied *backwards*
//!   from the nearest complete materialisation (the current version, or
//!   the oldest snapshot at/after the target — §7.3.3), "the most current
//!   deltas first".
//! * `DocHistory(document, t1, t2)` returns all versions valid in
//!   `[t1, t2)`, **backwards** ("most previous versions first" — §7.3.4,
//!   where the paper means most *recent* first, as its algorithm
//!   reconstructs from the newest downwards). The reconstruction is
//!   incremental: the newest version in range is reconstructed once and
//!   each earlier version costs exactly one more backward delta.
//! * `ElementHistory(EID, t1, t2)` runs DocHistory and "filters out the
//!   appropriate subtree rooted by EID" (§7.3.5); the paper notes the
//!   whole deltas must be read anyway, which the cost counters show.

use txdb_base::{Eid, Error, Interval, Result, Teid, Timestamp, VersionId};
use txdb_delta::Walk;
use txdb_storage::repo::VersionKind;
use txdb_xml::tree::Tree;

use crate::db::Database;

/// One reconstructed document version.
#[derive(Debug)]
pub struct DocVersion {
    /// Version number.
    pub version: VersionId,
    /// Commit timestamp (the TEID timestamp of every element in it).
    pub ts: Timestamp,
    /// The full reconstructed forest.
    pub tree: Tree,
}

/// One version of an element (output of `ElementHistory`).
#[derive(Debug)]
pub struct ElementVersion {
    /// TEID of this element version.
    pub teid: Teid,
    /// Document version it comes from.
    pub version: VersionId,
    /// The subtree rooted at the element, identity preserved.
    pub subtree: Tree,
}

impl Database {
    /// `Reconstruct(TEID)` — the subtree rooted at the element in the
    /// version valid at the TEID's timestamp (§7.3.3).
    pub fn reconstruct(&self, teid: Teid) -> Result<Tree> {
        let tree = self.reconstruct_doc_at(teid.doc(), teid.ts)?;
        let node = tree.find_xid(teid.xid()).ok_or(Error::NoSuchElement(teid.eid))?;
        Ok(tree.extract_subtree(node))
    }

    /// Reconstructs the *whole document* version valid at `ts`.
    pub fn reconstruct_doc_at(&self, doc: txdb_base::DocId, ts: Timestamp) -> Result<Tree> {
        let v = self.store().version_at(doc, ts)?.ok_or(Error::NotValidAt(doc, ts))?;
        self.store().version_tree(doc, v)
    }

    /// `DocHistory(document, t1, t2)` — all versions valid in `[t1, t2)`,
    /// most recent first (§7.3.4). A version is "valid in the interval"
    /// when its validity interval overlaps it.
    pub fn doc_history(
        &self,
        doc: txdb_base::DocId,
        interval: Interval,
    ) -> Result<Vec<DocVersion>> {
        Ok(self.doc_history_counted(doc, interval)?.0)
    }

    /// `DocHistory` with the total number of deltas read (E9 metric).
    pub fn doc_history_counted(
        &self,
        doc: txdb_base::DocId,
        interval: Interval,
    ) -> Result<(Vec<DocVersion>, usize)> {
        let entries = self.store().versions(doc)?;
        // Content versions whose validity interval overlaps the request.
        let mut in_range: Vec<(VersionId, Timestamp)> = Vec::new();
        for e in &entries {
            if e.kind != VersionKind::Content {
                continue;
            }
            let end =
                entries.get(e.version.0 as usize + 1).map(|n| n.ts).unwrap_or(Timestamp::FOREVER);
            if Interval::new(e.ts, end).overlaps(interval) {
                in_range.push((e.version, e.ts));
            }
        }
        let Some(&(newest, _)) = in_range.last() else {
            return Ok((Vec::new(), 0));
        };
        // Reconstruct the newest once, then walk backwards one delta per
        // earlier version ("reconstructed the versions between t1 and t2
        // in the same way, using snapshots when possible"). The
        // materialized-version cache makes the walk cheaper still: each
        // target version is looked up before its deltas are read, so a
        // warm walk costs zero deltas, and every version materialized
        // here is offered back to the cache for later point queries.
        let (tree, cost) = self.store().version_tree_counted(doc, newest)?;
        let mut deltas_read = cost.deltas;
        let mut walk = Walk::new(tree);
        let mut out = Vec::with_capacity(in_range.len());
        let mut cursor = newest;
        for &(v, ts) in in_range.iter().rev() {
            // Seed from the cache when the target version is resident —
            // cheaper than reading the `cursor - v` deltas in between.
            if cursor > v {
                if let Some(cached) = self.store().cached_version(doc, v) {
                    walk = Walk::new(cached);
                    cursor = v;
                }
            }
            // Move the walk from `cursor` down to `v`.
            while cursor > v {
                let entry = &entries[cursor.0 as usize];
                if entry.delta_rid.is_some() {
                    let delta = self
                        .store()
                        .delta(doc, cursor)?
                        .ok_or_else(|| Error::Corrupt("missing delta".into()))?;
                    walk.backward(&delta)?;
                    deltas_read += 1;
                }
                cursor = VersionId(cursor.0 - 1);
            }
            self.store().cache_version(doc, v, walk.tree());
            out.push(DocVersion { version: v, ts, tree: (**walk.tree()).clone() });
        }
        Ok((out, deltas_read))
    }

    /// `ElementHistory(EID, t1, t2)` — all versions of the element valid in
    /// `[t1, t2)` (§7.3.5): DocHistory, then the subtree rooted at the EID
    /// is filtered out of each version. Consecutive document versions in
    /// which the element did not change are coalesced into one element
    /// version (an element version exists per *change* of the element).
    pub fn element_history(&self, eid: Eid, interval: Interval) -> Result<Vec<ElementVersion>> {
        let versions = self.doc_history(eid.doc, interval)?;
        let mut out: Vec<ElementVersion> = Vec::new();
        // doc_history is newest-first; walk oldest-first to coalesce.
        let mut last_change_ts: Option<Timestamp> = None;
        for dv in versions.iter().rev() {
            let Some(node) = dv.tree.find_xid(eid.xid) else {
                last_change_ts = None;
                continue;
            };
            let changed_at = dv.tree.effective_ts(node);
            if last_change_ts == Some(changed_at) {
                continue; // unchanged since the previous doc version
            }
            last_change_ts = Some(changed_at);
            out.push(ElementVersion {
                teid: eid.at(dv.ts),
                version: dv.version,
                subtree: dv.tree.extract_subtree(node),
            });
        }
        out.reverse(); // newest first, like DocHistory
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_base::DocId;
    use txdb_xml::serialize::to_string;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(ts(a), ts(b))
    }

    /// doc with versions: v0@10 <a><p>1</p></a>, v1@20 p=2, v2@30 p=3.
    fn versioned_db() -> (Database, DocId) {
        let db = Database::in_memory();
        let doc = db.put("d", "<a><p>1</p></a>", ts(10)).unwrap().doc;
        db.put("d", "<a><p>2</p></a>", ts(20)).unwrap();
        db.put("d", "<a><p>3</p></a>", ts(30)).unwrap();
        (db, doc)
    }

    #[test]
    fn reconstruct_teid_subtree() {
        let (db, doc) = versioned_db();
        let cur = db.store().current_tree(doc).unwrap();
        let p = cur.iter().find(|&n| cur.node(n).name() == Some("p")).unwrap();
        let eid = Eid::new(doc, cur.node(p).xid);
        // The cost of the version each TEID's timestamp resolves to.
        let deltas = |t| {
            let v = db.store().version_at(doc, t).unwrap().unwrap();
            db.store().version_tree_counted(doc, v).unwrap().1.deltas
        };
        // The p element as of t=15 (version 0).
        assert_eq!(deltas(ts(15)), 2, "two backward deltas from current");
        assert_eq!(to_string(&db.reconstruct(eid.at(ts(15))).unwrap()), "<p>1</p>");
        // Current version costs zero deltas.
        assert_eq!(to_string(&db.reconstruct(eid.at(ts(99))).unwrap()), "<p>3</p>");
        assert_eq!(deltas(ts(99)), 0);
    }

    #[test]
    fn reconstruct_errors() {
        let (db, doc) = versioned_db();
        let eid = Eid::new(doc, txdb_base::Xid(1));
        assert!(db.reconstruct(eid.at(ts(5))).is_err(), "before creation");
        let bogus = Eid::new(doc, txdb_base::Xid(999));
        assert!(db.reconstruct(bogus.at(ts(15))).is_err(), "no such element");
    }

    #[test]
    fn doc_history_full_range_backwards() {
        let (db, doc) = versioned_db();
        let h = db.doc_history(doc, Interval::ALL).unwrap();
        assert_eq!(h.len(), 3);
        // Most recent first (§7.3.4).
        assert_eq!(h[0].version, VersionId(2));
        assert_eq!(h[2].version, VersionId(0));
        assert_eq!(to_string(&h[0].tree), "<a><p>3</p></a>");
        assert_eq!(to_string(&h[2].tree), "<a><p>1</p></a>");
    }

    #[test]
    fn doc_history_interval_selection() {
        let (db, doc) = versioned_db();
        // [15, 25) overlaps v0 ([10,20)) and v1 ([20,30)).
        let h = db.doc_history(doc, iv(15, 25)).unwrap();
        let vs: Vec<u32> = h.iter().map(|d| d.version.0).collect();
        assert_eq!(vs, vec![1, 0]);
        // [10, 11) → only v0.
        assert_eq!(db.doc_history(doc, iv(10, 11)).unwrap().len(), 1);
        // Empty interval → nothing.
        assert!(db.doc_history(doc, iv(15, 15)).unwrap().is_empty());
        // Before creation → nothing.
        assert!(db.doc_history(doc, iv(1, 9)).unwrap().is_empty());
    }

    #[test]
    fn doc_history_incremental_cost() {
        // Cache disabled: this test pins the *cold* §7.3.4 cost model.
        let db = crate::db::DbOptions::new().cache_bytes(0).open().unwrap();
        let doc = db.put("d", "<a><p>1</p></a>", ts(10)).unwrap().doc;
        db.put("d", "<a><p>2</p></a>", ts(20)).unwrap();
        db.put("d", "<a><p>3</p></a>", ts(30)).unwrap();
        // Full history from the current version: v2 costs 0, then one
        // delta per earlier version ⇒ 2 total.
        let (_, deltas) = db.doc_history_counted(doc, Interval::ALL).unwrap();
        assert_eq!(deltas, 2);
        // Only the oldest version: reconstruct backwards through 2 deltas.
        let (_, deltas) = db.doc_history_counted(doc, iv(10, 11)).unwrap();
        assert_eq!(deltas, 2);
    }

    #[test]
    fn warm_history_walk_costs_no_deltas() {
        let (db, doc) = versioned_db();
        let (cold, deltas) = db.doc_history_counted(doc, Interval::ALL).unwrap();
        assert_eq!(deltas, 2);
        // Every version materialized by the walk is now cached: the same
        // walk again reads nothing.
        let (warm, deltas) = db.doc_history_counted(doc, Interval::ALL).unwrap();
        assert_eq!(deltas, 0, "warm walk seeds every version from the cache");
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.version, w.version);
            assert_eq!(to_string(&c.tree), to_string(&w.tree));
        }
        // A point reconstruction of an old version is free too.
        let (_, cost) = db.store().version_tree_counted(doc, VersionId(0)).unwrap();
        assert_eq!(cost.deltas, 0);
        // ...and a write invalidates: the next walk pays again.
        db.put("d", "<a><p>4</p></a>", ts(40)).unwrap();
        let (_, deltas) = db.doc_history_counted(doc, iv(10, 11)).unwrap();
        assert!(deltas > 0, "cache invalidated by put");
    }

    #[test]
    fn doc_history_with_tombstone_gap() {
        let db = Database::in_memory();
        let doc = db.put("d", "<a>1</a>", ts(10)).unwrap().doc;
        db.delete("d", ts(20)).unwrap();
        db.put("d", "<a>2</a>", ts(30)).unwrap();
        let h = db.doc_history(doc, Interval::ALL).unwrap();
        assert_eq!(h.len(), 2, "tombstone contributes no version");
        assert_eq!(to_string(&h[0].tree), "<a>2</a>");
        assert_eq!(to_string(&h[1].tree), "<a>1</a>");
        // An interval inside the gap yields nothing.
        assert!(db.doc_history(doc, iv(22, 28)).unwrap().is_empty());
    }

    #[test]
    fn element_history_coalesces_unchanged() {
        let db = Database::in_memory();
        // name never changes; price changes twice.
        let doc = db.put("d", "<g><n>Napoli</n><p>15</p></g>", ts(10)).unwrap().doc;
        db.put("d", "<g><n>Napoli</n><p>18</p></g>", ts(20)).unwrap();
        db.put("d", "<g><n>Napoli</n><p>21</p></g>", ts(30)).unwrap();
        let cur = db.store().current_tree(doc).unwrap();
        let n_eid = {
            let n = cur.iter().find(|&x| cur.node(x).name() == Some("n")).unwrap();
            Eid::new(doc, cur.node(n).xid)
        };
        let p_eid = {
            let p = cur.iter().find(|&x| cur.node(x).name() == Some("p")).unwrap();
            Eid::new(doc, cur.node(p).xid)
        };
        let nh = db.element_history(n_eid, Interval::ALL).unwrap();
        assert_eq!(nh.len(), 1, "name never changed");
        assert_eq!(to_string(&nh[0].subtree), "<n>Napoli</n>");
        let ph = db.element_history(p_eid, Interval::ALL).unwrap();
        assert_eq!(ph.len(), 3, "price changed each version");
        assert_eq!(to_string(&ph[0].subtree), "<p>21</p>");
        assert_eq!(to_string(&ph[2].subtree), "<p>15</p>");
        // TEIDs carry the version commit timestamps, newest first.
        assert_eq!(ph[0].teid.ts, ts(30));
        assert_eq!(ph[2].teid.ts, ts(10));
    }

    #[test]
    fn element_history_element_absent_in_some_versions() {
        let db = Database::in_memory();
        let doc = db.put("d", "<g><a>x</a></g>", ts(10)).unwrap().doc;
        db.put("d", "<g></g>", ts(20)).unwrap();
        let t0 = db.store().version_tree(doc, VersionId(0)).unwrap();
        let a_eid = {
            let a = t0.iter().find(|&x| t0.node(x).name() == Some("a")).unwrap();
            Eid::new(doc, t0.node(a).xid)
        };
        let h = db.element_history(a_eid, Interval::ALL).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].version, VersionId(0));
        // Restricting to after the deletion yields nothing.
        let h = db.element_history(a_eid, iv(20, 100)).unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn snapshots_reduce_history_cost() {
        let db = crate::db::DbOptions::new().snapshot_every(4).open().unwrap();
        for i in 0..16u64 {
            db.put("d", &format!("<a><v>{i}</v></a>"), ts(10 + i)).unwrap();
        }
        let doc = db.store().doc_id("d").unwrap().unwrap();
        // Oldest version only: nearest snapshot after v0 is v4 ⇒ ≤ 4 deltas.
        let (h, deltas) = db.doc_history_counted(doc, iv(10, 11)).unwrap();
        assert_eq!(h.len(), 1);
        assert!(deltas <= 4, "snapshot bounded: {deltas}");
        assert_eq!(to_string(&h[0].tree), "<a><v>0</v></a>");
    }
}
