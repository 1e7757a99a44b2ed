//! `CreTime` and `DelTime` (§7.3.6) — both strategies.
//!
//! The paper gives two ways to find an element's create time:
//!
//! 1. **Traverse the deltas backwards** from the version the TEID selects
//!    "until we find the delta where the element is introduced (note that
//!    no reconstruction is necessary)" — this is why the operators take a
//!    TEID rather than a bare EID: the timestamp tells the traversal where
//!    to start.
//! 2. **Use an additional index** mapping EIDs to create/delete timestamps
//!    (the [`txdb_index::eidindex::EidTimeIndex`]).
//!
//! `DelTime` mirrors it: if the document is deleted and the element
//! existed in the last version, the document's delete time is the answer;
//! otherwise traverse *forward* from the TEID's version until a delta
//! deletes the element — or probe the index. Experiment E5 measures the
//! crossover between the two strategies.

use txdb_base::{Error, Result, Teid, Timestamp};
use txdb_delta::EditOp;
use txdb_storage::repo::VersionKind;

use crate::db::Database;

/// Which §7.3.6 strategy to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LifetimeStrategy {
    /// Walk the delta chain (no reconstruction, no auxiliary index).
    Traverse,
    /// Probe the EID-time index.
    #[default]
    Index,
}

impl Database {
    /// `CreTime(TEID)` — the transaction time the element was created.
    pub fn cre_time(&self, teid: Teid, strategy: LifetimeStrategy) -> Result<Timestamp> {
        Ok(self.cre_time_counted(teid, strategy)?.0)
    }

    /// `CreTime` with the number of deltas read (0 for the index strategy).
    pub fn cre_time_counted(
        &self,
        teid: Teid,
        strategy: LifetimeStrategy,
    ) -> Result<(Timestamp, usize)> {
        match strategy {
            LifetimeStrategy::Index => {
                let lt = self
                    .indexes()
                    .eid_index()
                    .lifetime(teid.eid)?
                    .ok_or(Error::NoSuchElement(teid.eid))?;
                Ok((lt.created, 0))
            }
            LifetimeStrategy::Traverse => {
                let doc = teid.doc();
                let start = self
                    .store()
                    .version_at(doc, teid.ts)?
                    .ok_or(Error::NotValidAt(doc, teid.ts))?;
                let entries = self.store().versions(doc)?;
                let mut deltas_read = 0usize;
                // Walk backwards; the delta *into* version v tells whether
                // v introduced the element.
                let mut v = start;
                loop {
                    let entry = &entries[v.0 as usize];
                    match entry.delta_rid {
                        None => {
                            // v is the first (content) version of the doc or
                            // follows nothing — the element was created here.
                            return Ok((entry.ts, deltas_read));
                        }
                        Some(_) => {
                            let delta = self
                                .store()
                                .delta(doc, v)?
                                .ok_or_else(|| Error::Corrupt("missing delta".into()))?;
                            deltas_read += 1;
                            if delta_inserts(&delta, teid.xid()) {
                                return Ok((entry.ts, deltas_read));
                            }
                            // Continue to the previous content version.
                            let Some(prev) = entries[..v.0 as usize]
                                .iter()
                                .rev()
                                .find(|e| e.kind == VersionKind::Content)
                            else {
                                return Ok((entry.ts, deltas_read));
                            };
                            v = prev.version;
                        }
                    }
                }
            }
        }
    }

    /// `DelTime(TEID)` — the transaction time the element was deleted;
    /// [`Timestamp::FOREVER`] while it is still alive.
    pub fn del_time(&self, teid: Teid, strategy: LifetimeStrategy) -> Result<Timestamp> {
        match strategy {
            LifetimeStrategy::Index => {
                let lt = self
                    .indexes()
                    .eid_index()
                    .lifetime(teid.eid)?
                    .ok_or(Error::NoSuchElement(teid.eid))?;
                // A resurrection revives the one lifetime the index keeps:
                // a tombstone after the TEID ended the life it names.
                let tombstone = self.store().next_tombstone(teid.doc(), teid.ts)?;
                Ok(tombstone.map_or(lt.deleted, |t| t.min(lt.deleted)))
            }
            LifetimeStrategy::Traverse => {
                let doc = teid.doc();
                let start = self
                    .store()
                    .version_at(doc, teid.ts)?
                    .ok_or(Error::NotValidAt(doc, teid.ts))?;
                let entries = self.store().versions(doc)?;
                // Traverse forwards from the version after `start`.
                for e in &entries[(start.0 as usize + 1)..] {
                    match e.kind {
                        // A purged entry has no delta to inspect; the
                        // traversal cannot see deletions it contained.
                        VersionKind::Purged => {}
                        VersionKind::Tombstone => {
                            // "If the document is deleted, and the element
                            // existed in the last version, the delete time
                            // of the document is the delete time of the
                            // element."
                            return Ok(e.ts);
                        }
                        VersionKind::Content => {
                            let delta = self
                                .store()
                                .delta(doc, e.version)?
                                .ok_or_else(|| Error::Corrupt("missing delta".into()))?;
                            if delta_deletes(&delta, teid.xid()) {
                                return Ok(e.ts);
                            }
                        }
                    }
                }
                Ok(Timestamp::FOREVER)
            }
        }
    }
}

/// Does the delta introduce `xid` (as an inserted subtree member)?
fn delta_inserts(delta: &txdb_delta::Delta, xid: txdb_base::Xid) -> bool {
    delta.ops.iter().any(|op| match op {
        EditOp::InsertSubtree { subtree, .. } => subtree.iter().any(|n| subtree.node(n).xid == xid),
        _ => false,
    })
}

/// Does the delta remove `xid` (as a deleted subtree member)?
fn delta_deletes(delta: &txdb_delta::Delta, xid: txdb_base::Xid) -> bool {
    delta.ops.iter().any(|op| match op {
        EditOp::DeleteSubtree { subtree, .. } => subtree.iter().any(|n| subtree.node(n).xid == xid),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_base::{DocId, Eid, VersionId, Xid};

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    /// v0@10: <g><a/></g> ; v1@20: + <b/> ; v2@30: - <a/> ; v3@40: touch b.
    fn lifecycle_db() -> (Database, DocId, Eid, Eid) {
        let db = Database::in_memory();
        let doc = db.put("d", "<g><a/></g>", ts(10)).unwrap().doc;
        db.put("d", "<g><a/><b/></g>", ts(20)).unwrap();
        db.put("d", "<g><b/></g>", ts(30)).unwrap();
        db.put("d", "<g><b>touched</b></g>", ts(40)).unwrap();
        let t1 = db.store().version_tree(doc, VersionId(1)).unwrap();
        let a = t1.iter().find(|&n| t1.node(n).name() == Some("a")).unwrap();
        let b = t1.iter().find(|&n| t1.node(n).name() == Some("b")).unwrap();
        (db, doc, Eid::new(doc, t1.node(a).xid), Eid::new(doc, t1.node(b).xid))
    }

    #[test]
    fn cre_time_both_strategies_agree() {
        let (db, _, a, b) = lifecycle_db();
        for strat in [LifetimeStrategy::Traverse, LifetimeStrategy::Index] {
            assert_eq!(db.cre_time(a.at(ts(15)), strat).unwrap(), ts(10), "{strat:?}");
            assert_eq!(db.cre_time(b.at(ts(25)), strat).unwrap(), ts(20), "{strat:?}");
        }
    }

    #[test]
    fn del_time_both_strategies_agree() {
        let (db, _, a, b) = lifecycle_db();
        for strat in [LifetimeStrategy::Traverse, LifetimeStrategy::Index] {
            assert_eq!(db.del_time(a.at(ts(15)), strat).unwrap(), ts(30), "{strat:?}");
            assert_eq!(db.del_time(b.at(ts(25)), strat).unwrap(), Timestamp::FOREVER, "{strat:?}");
        }
    }

    #[test]
    fn traversal_cost_grows_with_age() {
        // CreTime of an old element probed from a recent version reads
        // many deltas; the index reads none. (The E5 crossover.)
        let db = Database::in_memory();
        let doc = db.put("d", "<g><old/></g>", ts(1)).unwrap().doc;
        for i in 2..=20u64 {
            db.put("d", &format!("<g><old/><x>{i}</x></g>"), ts(i)).unwrap();
        }
        let cur = db.store().current_tree(doc).unwrap();
        let old = cur.iter().find(|&n| cur.node(n).name() == Some("old")).unwrap();
        let eid = Eid::new(doc, cur.node(old).xid);
        let (t_trav, deltas) =
            db.cre_time_counted(eid.at(ts(20)), LifetimeStrategy::Traverse).unwrap();
        assert_eq!(t_trav, ts(1));
        assert!(deltas >= 19, "walked the whole chain: {deltas}");
        let (t_idx, zero) = db.cre_time_counted(eid.at(ts(20)), LifetimeStrategy::Index).unwrap();
        assert_eq!(t_idx, ts(1));
        assert_eq!(zero, 0);
    }

    #[test]
    fn doc_deletion_is_element_del_time() {
        let db = Database::in_memory();
        let doc = db.put("d", "<g><a/></g>", ts(10)).unwrap().doc;
        db.delete("d", ts(50)).unwrap();
        let t0 = db.store().version_tree(doc, VersionId(0)).unwrap();
        let a = t0.iter().find(|&n| t0.node(n).name() == Some("a")).unwrap();
        let eid = Eid::new(doc, t0.node(a).xid);
        for strat in [LifetimeStrategy::Traverse, LifetimeStrategy::Index] {
            assert_eq!(db.del_time(eid.at(ts(10)), strat).unwrap(), ts(50), "{strat:?}");
        }
    }

    #[test]
    fn del_time_before_a_resurrection_is_the_tombstone() {
        // A resurrection revives the root; a TEID from its first life
        // still names a life that ended at the tombstone.
        let db = Database::in_memory();
        let doc = db.put("d", "<g><a/></g>", ts(10)).unwrap().doc;
        db.delete("d", ts(20)).unwrap();
        db.put("d", "<g><a/></g>", ts(30)).unwrap();
        let t0 = db.store().version_tree(doc, VersionId(0)).unwrap();
        let root = Eid::new(doc, t0.node(t0.root().unwrap()).xid);
        for strat in [LifetimeStrategy::Traverse, LifetimeStrategy::Index] {
            assert_eq!(db.del_time(root.at(ts(10)), strat).unwrap(), ts(20), "{strat:?}");
            assert_eq!(db.del_time(root.at(ts(30)), strat).unwrap(), Timestamp::FOREVER);
            assert_eq!(db.cre_time(root.at(ts(30)), strat).unwrap(), ts(10), "{strat:?}");
        }
    }

    #[test]
    fn unknown_element_errors() {
        let (db, doc, ..) = lifecycle_db();
        let bogus = Eid::new(doc, Xid(999));
        assert!(db.cre_time(bogus.at(ts(15)), LifetimeStrategy::Index).is_err());
        // Traversal with a timestamp where the doc doesn't exist:
        assert!(db.cre_time(bogus.at(ts(1)), LifetimeStrategy::Traverse).is_err());
    }

    #[test]
    fn traverse_from_creation_version_is_cheap() {
        // Probing at the element's own creation version reads few deltas.
        let (db, _, _, b) = lifecycle_db();
        let (t, deltas) = db.cre_time_counted(b.at(ts(20)), LifetimeStrategy::Traverse).unwrap();
        assert_eq!(t, ts(20));
        assert_eq!(deltas, 1, "the delta into v1 introduces b");
    }
}
