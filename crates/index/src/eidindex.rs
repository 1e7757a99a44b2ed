//! The EID-time index (§7.3.6).
//!
//! "Use an additional index that indexes EID and create/delete timestamps."
//! A persistent B+-tree maps `doc.be32 ++ xid.be64` to `(create_ts,
//! delete_ts)`, with `delete_ts = FOREVER` while the element is alive.
//! `CreTime(TEID)`/`DelTime(TEID)` become single index probes — the
//! alternative to backward/forward delta traversal, which E5 benchmarks the
//! crossover against.
//!
//! The paper notes inserts are "not in general append-only, because new
//! elements can be inserted into documents", but that a whole new document
//! inserts many EIDs at once, amortising the cost; maintenance here simply
//! upserts per changed element.

use std::sync::Arc;

use txdb_base::{DocId, Eid, Error, Result, Timestamp, Xid};
use txdb_storage::btree::BTree;
use txdb_storage::buffer::BufferPool;

/// Lifetime of an element: `[created, deleted)`, `deleted = FOREVER` while
/// the element is alive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ElementLifetime {
    /// Transaction time the element (XID) first appeared.
    pub created: Timestamp,
    /// Transaction time it was removed; `FOREVER` if still alive.
    pub deleted: Timestamp,
}

impl ElementLifetime {
    /// True while the element exists in the current version.
    pub fn is_alive(&self) -> bool {
        self.deleted == Timestamp::FOREVER
    }
}

/// The persistent EID → (create, delete) time index.
pub struct EidTimeIndex {
    tree: BTree,
}

fn key_of(eid: Eid) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..4].copy_from_slice(&eid.doc.0.to_be_bytes());
    k[4..].copy_from_slice(&eid.xid.0.to_be_bytes());
    k
}

impl EidTimeIndex {
    /// Opens the index on the shared buffer pool, rooted at the reserved
    /// [`txdb_storage::repo::roots::EID_INDEX`] slot.
    pub fn open(pool: Arc<BufferPool>) -> Result<EidTimeIndex> {
        Ok(EidTimeIndex { tree: BTree::open(pool, txdb_storage::repo::roots::EID_INDEX)? })
    }

    /// Records the creation of an element.
    pub fn on_create(&self, eid: Eid, ts: Timestamp) -> Result<()> {
        let mut v = [0u8; 16];
        v[..8].copy_from_slice(&ts.micros().to_le_bytes());
        v[8..].copy_from_slice(&Timestamp::FOREVER.micros().to_le_bytes());
        self.tree.insert(&key_of(eid), &v)?;
        Ok(())
    }

    /// Records the deletion of an element (keeps its create time).
    pub fn on_delete(&self, eid: Eid, ts: Timestamp) -> Result<()> {
        let key = key_of(eid);
        let Some(mut v) = self.tree.get(&key)? else {
            return Err(Error::NoSuchElement(eid));
        };
        v[8..16].copy_from_slice(&ts.micros().to_le_bytes());
        self.tree.insert(&key, &v)?;
        Ok(())
    }

    /// Re-opens the lifetime of a previously deleted element (resurrection
    /// of a document restores XIDs; the original create time is kept).
    pub fn on_revive(&self, eid: Eid) -> Result<()> {
        let key = key_of(eid);
        let Some(mut v) = self.tree.get(&key)? else {
            return Err(Error::NoSuchElement(eid));
        };
        v[8..16].copy_from_slice(&Timestamp::FOREVER.micros().to_le_bytes());
        self.tree.insert(&key, &v)?;
        Ok(())
    }

    /// Forgets an element (it appears in no surviving version).
    pub fn remove(&self, eid: Eid) -> Result<()> {
        self.tree.delete(&key_of(eid))?;
        Ok(())
    }

    /// Looks up an element's lifetime.
    pub fn lifetime(&self, eid: Eid) -> Result<Option<ElementLifetime>> {
        let Some(v) = self.tree.get(&key_of(eid))? else { return Ok(None) };
        if v.len() != 16 {
            return Err(Error::Corrupt("bad eid-index value".into()));
        }
        Ok(Some(ElementLifetime {
            created: Timestamp::from_micros(u64::from_le_bytes(v[..8].try_into().unwrap())),
            deleted: Timestamp::from_micros(u64::from_le_bytes(v[8..16].try_into().unwrap())),
        }))
    }

    /// All lifetimes of one document (ordered by XID) — range scan over the
    /// doc prefix.
    pub fn doc_lifetimes(&self, doc: DocId) -> Result<Vec<(Xid, ElementLifetime)>> {
        let mut start = [0u8; 12];
        start[..4].copy_from_slice(&doc.0.to_be_bytes());
        let mut end = [0u8; 12];
        end[..4].copy_from_slice(&(doc.0 + 1).to_be_bytes());
        let mut out = Vec::new();
        for e in self.tree.range(&start, Some(&end))? {
            let (k, v) = e?;
            let xid = Xid(u64::from_be_bytes(k[4..12].try_into().unwrap()));
            out.push((
                xid,
                ElementLifetime {
                    created: Timestamp::from_micros(u64::from_le_bytes(v[..8].try_into().unwrap())),
                    deleted: Timestamp::from_micros(u64::from_le_bytes(
                        v[8..16].try_into().unwrap(),
                    )),
                },
            ));
        }
        Ok(out)
    }

    /// Entry count (index-size metric).
    pub fn len(&self) -> Result<usize> {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> Result<bool> {
        self.tree.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_storage::pager::Pager;

    fn index() -> EidTimeIndex {
        let pool = Arc::new(BufferPool::new(Pager::memory(), 64));
        EidTimeIndex::open(pool).unwrap()
    }

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n)
    }

    #[test]
    fn create_then_lookup() {
        let idx = index();
        let eid = Eid::new(DocId(1), Xid(5));
        idx.on_create(eid, ts(100)).unwrap();
        let lt = idx.lifetime(eid).unwrap().unwrap();
        assert_eq!(lt.created, ts(100));
        assert!(lt.is_alive());
    }

    #[test]
    fn delete_closes_lifetime() {
        let idx = index();
        let eid = Eid::new(DocId(1), Xid(5));
        idx.on_create(eid, ts(100)).unwrap();
        idx.on_delete(eid, ts(250)).unwrap();
        let lt = idx.lifetime(eid).unwrap().unwrap();
        assert_eq!(lt.created, ts(100));
        assert_eq!(lt.deleted, ts(250));
        assert!(!lt.is_alive());
    }

    #[test]
    fn delete_unknown_errors() {
        let idx = index();
        assert!(idx.on_delete(Eid::new(DocId(1), Xid(9)), ts(1)).is_err());
        assert_eq!(idx.lifetime(Eid::new(DocId(1), Xid(9))).unwrap(), None);
    }

    #[test]
    fn doc_scan_is_prefix_bounded() {
        let idx = index();
        for xid in 1..=5u64 {
            idx.on_create(Eid::new(DocId(7), Xid(xid)), ts(xid)).unwrap();
        }
        idx.on_create(Eid::new(DocId(8), Xid(1)), ts(99)).unwrap();
        let got = idx.doc_lifetimes(DocId(7)).unwrap();
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(idx.len().unwrap(), 6);
    }

    #[test]
    fn many_elements_across_docs() {
        let idx = index();
        for doc in 1..=20u32 {
            for xid in 1..=50u64 {
                idx.on_create(Eid::new(DocId(doc), Xid(xid)), ts(xid)).unwrap();
            }
        }
        assert_eq!(idx.len().unwrap(), 1000);
        let lt = idx.lifetime(Eid::new(DocId(13), Xid(37))).unwrap().unwrap();
        assert_eq!(lt.created, ts(37));
    }
}
