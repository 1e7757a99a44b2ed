//! The delta-content index — the §7.2 *second alternative*.
//!
//! "Index the contents of the delta objects. This implies indexing the
//! operations, e.g., update, move and delete information directly in the
//! text index. This would for example facilitate search for the path
//! delete/restaurant/name/napoli."
//!
//! The paper rejects this as the *primary* index (too many instances of the
//! operation keywords, poor for snapshot queries) but leaves "studying the
//! relative performance of the three alternatives" as future work — which
//! experiment E7 carries out. Entries map tokens occurring in a delta
//! operation's payload (plus the operation keyword itself) to
//! `(doc, version, op, xid)`, supporting change-oriented queries like
//! *"when was a restaurant named napoli deleted?"* without touching any
//! reconstruction path.
//!
//! The index is not maintained on the commit path and is not part of the
//! index checkpoint: [`DeltaContentIndex::build`] reads it off the stored
//! delta chain when someone asks for it, so it always describes exactly
//! the deltas a store still holds.

use std::collections::HashMap;

use txdb_base::{DocId, Result, VersionId, Xid};
use txdb_delta::{Delta, EditOp};
use txdb_storage::repo::{DocumentStore, VersionKind};
use txdb_xml::similarity::tokenize;
use txdb_xml::tree::{NodeKind, Tree};

/// Kind of change an entry describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChangeOp {
    /// Content inserted.
    Insert,
    /// Content deleted.
    Delete,
    /// Text or attribute updated.
    Update,
    /// Subtree moved.
    Move,
}

impl ChangeOp {
    /// The operation keyword, itself indexed ("extremely many instances of
    /// the delta keywords" — the cost the paper predicts, measured in E7).
    pub fn keyword(self) -> &'static str {
        match self {
            ChangeOp::Insert => "insert",
            ChangeOp::Delete => "delete",
            ChangeOp::Update => "update",
            ChangeOp::Move => "move",
        }
    }
}

/// One entry: a token involved in one operation of one delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeEntry {
    /// Document the delta belongs to.
    pub doc: DocId,
    /// The version the delta produced.
    pub version: VersionId,
    /// What happened.
    pub op: ChangeOp,
    /// The element the operation targeted (subtree root for
    /// insert/delete/move, the element/text node for updates).
    pub xid: Xid,
}

/// The delta-content index.
#[derive(Default, Debug, PartialEq)]
pub struct DeltaContentIndex {
    lists: HashMap<String, Vec<ChangeEntry>>,
    entries: usize,
}

impl DeltaContentIndex {
    /// Fresh empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes every delta `store` still holds. A tombstone stores no
    /// delta; one that follows a content version is indexed as the delete
    /// of that version's whole document. Vacuumed history has neither, so
    /// no entry names a purged version.
    pub fn build(store: &DocumentStore) -> Result<Self> {
        let mut idx = DeltaContentIndex::new();
        for (doc, _) in store.list()? {
            let entries = store.versions(doc)?;
            for (i, e) in entries.iter().enumerate() {
                match e.kind {
                    VersionKind::Content => {
                        if let Some(d) = store.delta(doc, e.version)? {
                            idx.index_delta(doc, &d);
                        }
                    }
                    VersionKind::Tombstone => {
                        let prev =
                            entries[..i].iter().rev().find(|p| p.kind == VersionKind::Content);
                        if let Some(p) = prev {
                            let old_tree = store.version_tree(doc, p.version)?;
                            for &r in old_tree.roots() {
                                let subtree = old_tree.extract_subtree(r);
                                idx.add_subtree(doc, e.version, ChangeOp::Delete, &subtree);
                            }
                        }
                    }
                    VersionKind::Purged => {}
                }
            }
        }
        Ok(idx)
    }

    fn add(&mut self, token: impl Into<String>, entry: ChangeEntry) {
        let list = self.lists.entry(token.into()).or_default();
        // One entry per (token, op occurrence).
        if list.last() != Some(&entry) {
            list.push(entry);
            self.entries += 1;
        }
    }

    /// Indexes an inserted or deleted subtree: the operation keyword plus
    /// every name, attribute and text token inside, all naming the root.
    fn add_subtree(&mut self, doc: DocId, version: VersionId, op: ChangeOp, tree: &Tree) {
        let xid = tree.root().map(|r| tree.node(r).xid).unwrap_or(Xid::NONE);
        let entry = ChangeEntry { doc, version, op, xid };
        self.add(op.keyword(), entry.clone());
        for n in tree.iter() {
            match &tree.node(n).kind {
                NodeKind::Element { name, attrs } => {
                    self.add(name.to_lowercase(), entry.clone());
                    for (k, v) in attrs {
                        for t in tokenize(k).chain(tokenize(v)) {
                            self.add(t, entry.clone());
                        }
                    }
                }
                NodeKind::Text { value } => {
                    for t in tokenize(value) {
                        self.add(t, entry.clone());
                    }
                }
            }
        }
    }

    /// Indexes one completed delta.
    fn index_delta(&mut self, doc: DocId, delta: &Delta) {
        let version = delta.to_version;
        for op in &delta.ops {
            match op {
                EditOp::InsertSubtree { subtree, .. } => {
                    self.add_subtree(doc, version, ChangeOp::Insert, subtree);
                }
                EditOp::DeleteSubtree { subtree, .. } => {
                    self.add_subtree(doc, version, ChangeOp::Delete, subtree);
                }
                EditOp::UpdateText { xid, old, new, .. } => {
                    let entry = ChangeEntry { doc, version, op: ChangeOp::Update, xid: *xid };
                    self.add(ChangeOp::Update.keyword(), entry.clone());
                    for t in tokenize(old).chain(tokenize(new)) {
                        self.add(t, entry.clone());
                    }
                }
                EditOp::SetAttr { xid, key, old, new, .. } => {
                    let entry = ChangeEntry { doc, version, op: ChangeOp::Update, xid: *xid };
                    self.add(ChangeOp::Update.keyword(), entry.clone());
                    for t in tokenize(key) {
                        self.add(t, entry.clone());
                    }
                    for v in [old, new].into_iter().flatten() {
                        for t in tokenize(v) {
                            self.add(t, entry.clone());
                        }
                    }
                }
                EditOp::Move { xid, .. } => {
                    let entry = ChangeEntry { doc, version, op: ChangeOp::Move, xid: *xid };
                    self.add(ChangeOp::Move.keyword(), entry.clone());
                }
            }
        }
    }

    /// Changes involving `token`, optionally restricted to one operation
    /// kind — the change-oriented query of §7.2 ("search for the path
    /// delete/…/napoli" becomes `find("napoli", Some(Delete))` joined with
    /// structural tokens).
    pub fn find(&self, token: &str, op: Option<ChangeOp>) -> Vec<&ChangeEntry> {
        self.lists
            .get(&token.to_lowercase())
            .map(|l| l.as_slice())
            .unwrap_or_default()
            .iter()
            .filter(|e| op.is_none_or(|o| e.op == o))
            .collect()
    }

    /// Conjunction: versions in which *all* tokens took part in a matching
    /// operation of the same document (e.g. `delete` ∧ `restaurant` ∧
    /// `napoli`).
    pub fn find_all(&self, tokens: &[&str], op: Option<ChangeOp>) -> Vec<(DocId, VersionId)> {
        let mut sets: Vec<std::collections::HashSet<(DocId, VersionId)>> = Vec::new();
        for t in tokens {
            sets.push(self.find(t, op).into_iter().map(|e| (e.doc, e.version)).collect());
        }
        let Some(first) = sets.first().cloned() else { return Vec::new() };
        let mut out: Vec<(DocId, VersionId)> =
            first.into_iter().filter(|k| sets[1..].iter().all(|s| s.contains(k))).collect();
        out.sort();
        out
    }

    /// Total entries (index-size metric for E7).
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Approximate bytes (E7).
    pub fn approx_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|(t, l)| t.len() + 48 + l.len() * std::mem::size_of::<ChangeEntry>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_base::{Timestamp, VersionId};
    use txdb_storage::repo::StoreOptions;
    use txdb_xml::parse::parse_document;
    use txdb_xml::tree::NodeId;

    fn payload(src: &str, first_xid: u64) -> Tree {
        let mut t = parse_document(src).unwrap();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(first_xid + i as u64);
        }
        t
    }

    fn delta(ops: Vec<EditOp>) -> Delta {
        Delta {
            from_version: VersionId(1),
            to_version: VersionId(2),
            from_ts: Timestamp::from_micros(10),
            to_ts: Timestamp::from_micros(20),
            ops,
        }
    }

    #[test]
    fn delete_of_napoli_findable() {
        // The paper's example: search for delete/restaurant/name/napoli.
        let mut idx = DeltaContentIndex::new();
        let d = delta(vec![EditOp::DeleteSubtree {
            parent: Xid(1),
            pos: 0,
            subtree: payload("<restaurant><name>Napoli</name></restaurant>", 10),
            old_parent_ts: Timestamp::ZERO,
        }]);
        idx.index_delta(DocId(3), &d);
        let hits = idx.find("napoli", Some(ChangeOp::Delete));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].version, VersionId(2));
        // Conjunctive query across structural and content tokens.
        let both = idx.find_all(&["restaurant", "name", "napoli"], Some(ChangeOp::Delete));
        assert_eq!(both, vec![(DocId(3), VersionId(2))]);
        // Not findable as an insert.
        assert!(idx.find("napoli", Some(ChangeOp::Insert)).is_empty());
    }

    #[test]
    fn update_indexes_old_and_new() {
        let mut idx = DeltaContentIndex::new();
        let d = delta(vec![EditOp::UpdateText {
            xid: Xid(5),
            old: "fifteen".into(),
            new: "eighteen".into(),
            old_ts: Timestamp::ZERO,
        }]);
        idx.index_delta(DocId(1), &d);
        assert_eq!(idx.find("fifteen", None).len(), 1);
        assert_eq!(idx.find("eighteen", None).len(), 1);
        assert_eq!(idx.find("update", None).len(), 1);
    }

    #[test]
    fn keyword_blowup_is_measurable() {
        // The paper's predicted cost: operation keywords accumulate.
        let mut idx = DeltaContentIndex::new();
        for v in 0..50u32 {
            let mut d = delta(vec![EditOp::UpdateText {
                xid: Xid(5),
                old: format!("v{v}"),
                new: format!("v{}", v + 1),
                old_ts: Timestamp::ZERO,
            }]);
            d.to_version = VersionId(v + 1);
            idx.index_delta(DocId(1), &d);
        }
        assert_eq!(idx.find("update", None).len(), 50);
        assert!(idx.entry_count() >= 150);
        assert!(idx.approx_bytes() > 0);
    }

    #[test]
    fn moves_and_attrs() {
        let mut idx = DeltaContentIndex::new();
        let d = delta(vec![
            EditOp::Move {
                xid: Xid(4),
                old_parent: Xid(1),
                old_pos: 0,
                new_parent: Xid(2),
                new_pos: 0,
                old_ts: Timestamp::ZERO,
                old_parent_ts: Timestamp::ZERO,
            },
            EditOp::SetAttr {
                xid: Xid(4),
                key: "category".into(),
                old: Some("italian".into()),
                new: Some("greek".into()),
                old_ts: Timestamp::ZERO,
            },
        ]);
        idx.index_delta(DocId(1), &d);
        assert_eq!(idx.find("move", None).len(), 1);
        assert_eq!(idx.find("italian", Some(ChangeOp::Update)).len(), 1);
        assert_eq!(idx.find("greek", None).len(), 1);
        assert_eq!(idx.find("category", None).len(), 1);
    }

    #[test]
    fn empty_queries() {
        let idx = DeltaContentIndex::new();
        assert!(idx.find("x", None).is_empty());
        assert!(idx.find_all(&[], None).is_empty());
        assert_eq!(idx.entry_count(), 0);
    }

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    fn memory_store() -> DocumentStore {
        DocumentStore::open(StoreOptions::default()).unwrap().0
    }

    #[test]
    fn build_indexes_changes_not_content() {
        let store = memory_store();
        store.put("d", "<g><k>kept</k><n>Napoli</n></g>", ts(1)).unwrap();
        store.put("d", "<g><k>kept</k><n>Roma</n></g>", ts(2)).unwrap();
        let di = DeltaContentIndex::build(&store).unwrap();
        assert_eq!(di.find("napoli", Some(ChangeOp::Update)).len(), 1);
        assert_eq!(di.find("roma", None).len(), 1);
        // Content no delta touched is not indexed.
        assert!(di.find("kept", None).is_empty());
    }

    #[test]
    fn build_indexes_a_deleted_subtree() {
        let store = memory_store();
        store.put("d", "<g><n>Napoli</n></g>", ts(1)).unwrap();
        store.put("d", "<g></g>", ts(2)).unwrap();
        let di = DeltaContentIndex::build(&store).unwrap();
        assert_eq!(di.find("napoli", Some(ChangeOp::Delete)).len(), 1);
    }

    #[test]
    fn build_synthesizes_the_delete_of_a_tombstone() {
        let store = memory_store();
        store.put("d", "<g><n>Napoli</n></g>", ts(1)).unwrap();
        let tomb = store.delete("d", ts(2)).unwrap().unwrap();
        let di = DeltaContentIndex::build(&store).unwrap();
        let hits = di.find("napoli", Some(ChangeOp::Delete));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].version, tomb.version);
        assert_eq!(di.find_all(&["g", "n", "napoli"], Some(ChangeOp::Delete)).len(), 1);
    }

    #[test]
    fn build_after_a_vacuum_equals_build_after_a_reopen() {
        // A four-version history vacuumed below its third version, and a
        // deleted document vacuumed below its tombstone. The live handle
        // and a reopen that replays the WAL must build the same index, and
        // no entry may name a version the vacuum purged.
        let dir = std::env::temp_dir().join(format!("txdb-deltaindex-vac-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions { path: Some(dir.clone()), ..StoreOptions::default() };
        let live = {
            let store = DocumentStore::open(opts.clone()).unwrap().0;
            for (i, w) in ["one", "two", "three", "four"].into_iter().enumerate() {
                let xml = format!("<g><n>{w}</n><x{i}/></g>");
                store.put("d", &xml, ts(i as u64 + 1)).unwrap();
            }
            store.put("e", "<h><n>gone</n></h>", ts(5)).unwrap();
            store.put("e", "<h><n>gone</n><m/></h>", ts(6)).unwrap();
            store.delete("e", ts(7)).unwrap();
            assert!(store.vacuum("d", ts(4)).unwrap().unwrap().purged_versions > 0);
            assert!(store.vacuum("e", ts(7)).unwrap().unwrap().purged_versions > 0);
            let live = DeltaContentIndex::build(&store).unwrap();
            for (doc, name) in store.list().unwrap() {
                let entries = store.versions(doc).unwrap();
                for list in live.lists.values() {
                    for e in list.iter().filter(|e| e.doc == doc) {
                        let kind = entries[e.version.0 as usize].kind;
                        assert_ne!(kind, VersionKind::Purged, "{name}: entry {e:?} names a purge");
                    }
                }
            }
            live
        };
        assert!(!live.find("four", None).is_empty(), "the surviving delta is indexed");
        assert!(live.find("one", None).is_empty(), "purged deltas are not");
        let reopened = DocumentStore::open(opts).unwrap().0;
        assert_eq!(live, DeltaContentIndex::build(&reopened).unwrap());
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
