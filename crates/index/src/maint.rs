//! Index maintenance driven by completed deltas.
//!
//! One [`IndexSet`] bundles the indexes and keeps them consistent with
//! the document store on every put/delete. Maintenance is
//! **delta-driven**: only elements actually affected by a change are
//! re-examined, which is what makes "the cost of storing only deltas" also
//! pay off on the indexing side. The affected set of a delta is:
//!
//! * all elements of inserted/deleted payload subtrees,
//! * the parent element of inserted/deleted/updated *text* nodes (their
//!   words belong to the parent),
//! * attribute-update targets,
//! * subtrees moved to another parent (every element inside — their
//!   xid-paths change) plus the old/new parents of moved text nodes; a
//!   move among siblings changes no xid-path and no parent's word set, so
//!   it affects nothing.
//!
//! For each affected element the old open postings (tracked by the FTI
//! itself) are diffed against the element's new occurrence signature; only
//! the difference is closed/opened.
//!
//! A document's postings and element lifetimes are a function of its
//! surviving version chain. Every write goes through an [`IndexWriter`]: a
//! live put or delete is a batch of one step, a rebuild
//! ([`IndexWriter::reindex`]) a replay of the whole chain.
//!
//! The set is the paper's choice of §7.2 — index version contents — plus
//! the §7.3.6 EID-time index, both always maintained. §7.2's other
//! alternative, indexing the delta operations, is a read-side structure
//! built on demand from the stored chain
//! ([`crate::deltaindex::DeltaContentIndex::build`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};
use txdb_base::obs::Registry;
use txdb_base::{DocId, Eid, Result, Timestamp, VersionId, Xid};
use txdb_delta::{Delta, EditOp};
use txdb_storage::buffer::BufferPool;
use txdb_xml::similarity::tokenize;
use txdb_xml::tree::{NodeId, NodeKind, Tree};

use crate::eidindex::EidTimeIndex;
use crate::fti::{FtiMetrics, FullTextIndex, OccKind};

/// The bundle of indexes maintained alongside the document store.
pub struct IndexSet {
    fti: RwLock<FullTextIndex>,
    eid: EidTimeIndex,
}

impl IndexSet {
    /// Opens the index set: an empty FTI whose per-mode lookup counters
    /// are registered in `reg` under `fti.*`, and the EID-time index,
    /// which persists on the shared pool.
    pub fn open(pool: Arc<BufferPool>, reg: &Registry) -> Result<IndexSet> {
        let mut fti = FullTextIndex::new();
        fti.set_metrics(FtiMetrics::registered(reg));
        Ok(IndexSet { fti: RwLock::new(fti), eid: EidTimeIndex::open(pool)? })
    }

    /// Read access to the temporal FTI.
    pub fn fti(&self) -> parking_lot::RwLockReadGuard<'_, FullTextIndex> {
        self.fti.read()
    }

    /// The EID-time index.
    pub fn eid_index(&self) -> &EidTimeIndex {
        &self.eid
    }

    /// Replaces the in-memory FTI wholesale with a checkpoint-loaded one.
    /// The EID-time index is untouched — it persists on the shared buffer
    /// pool and never needs reloading. Metric handles carry over from the
    /// replaced index so registry-shared counters keep counting.
    pub fn install(&self, mut fti: FullTextIndex) {
        let mut cur = self.fti.write();
        fti.set_metrics(cur.metrics().clone());
        *cur = fti;
    }

    /// Serializes the in-memory FTI with the per-document covers into a
    /// checkpoint blob.
    pub fn encode_checkpoint(&self, covers: &[crate::persist::DocCover]) -> Vec<u8> {
        crate::persist::encode(covers, &self.fti.read())
    }

    /// The one write entry point: an [`IndexWriter`] holds the FTI write
    /// lock until it drops, so a batch of steps (a whole chain replay) is
    /// one critical section. A caller that also reads the store takes this
    /// lock first (FTI → store), the order readers use.
    pub fn write(&self) -> IndexWriter<'_> {
        IndexWriter { fti: self.fti.write(), eid: &self.eid }
    }

    /// [`IndexWriter::on_put`] as a batch of one.
    pub fn on_put(
        &self,
        doc: DocId,
        version: VersionId,
        ts: Timestamp,
        new_tree: &Tree,
        delta: Option<&Delta>,
        resurrected: bool,
    ) -> Result<()> {
        self.write().on_put(doc, version, ts, new_tree, delta, resurrected)
    }
}

/// A batch of index steps under one hold of the FTI write lock. A step
/// reads an element's previous state from the FTI, never from the EID-time
/// index: an element is alive exactly when it has an open Name posting. So
/// a step re-applied over a state that reflects it changes nothing, and a
/// replay writes the same lifetimes whatever the EID B-tree held before.
pub struct IndexWriter<'a> {
    fti: RwLockWriteGuard<'a, FullTextIndex>,
    eid: &'a EidTimeIndex,
}

impl IndexWriter<'_> {
    /// Indexes a put of version `version` of `doc`: `delta` drives the
    /// affected set. Every element is re-examined for a first version
    /// (`delta == None`; so is a replay's first version after a purged gap)
    /// and for a resurrection (put over a tombstone), where an element the
    /// delta did not insert is revived (it keeps its create time).
    pub fn on_put(
        &mut self,
        doc: DocId,
        version: VersionId,
        ts: Timestamp,
        new_tree: &Tree,
        delta: Option<&Delta>,
        resurrected: bool,
    ) -> Result<()> {
        let new_map = new_tree.xid_map();
        let affected = match (delta, resurrected) {
            (Some(d), false) => affected_elements(d, new_tree, &new_map),
            _ => new_tree
                .iter()
                .filter(|&n| new_tree.node(n).is_element())
                .map(|n| new_tree.node(n).xid)
                .collect(),
        };
        // A resurrection revives whatever its delta did not insert.
        let inserted: HashSet<Xid> = (delta.iter().filter(|_| resurrected).flat_map(|d| &d.ops))
            .filter_map(|op| match op {
                EditOp::InsertSubtree { subtree, .. } => Some(subtree),
                _ => None,
            })
            .flat_map(|t| t.iter().map(|n| t.node(n).xid))
            .collect();
        for xid in affected {
            match new_map.get(&xid) {
                Some(&n) if new_tree.node(n).is_element() => {
                    let revive = resurrected && delta.is_some() && !inserted.contains(&xid);
                    self.index_element(doc, version, ts, new_tree, n, revive)?;
                }
                // Element no longer present: close everything.
                _ => {
                    let alive = self.fti.is_alive(doc, xid);
                    for (tok, kind) in self.fti.open_tokens(doc, xid) {
                        self.fti.close_posting(&tok, doc, xid, kind, version);
                    }
                    if alive {
                        self.eid.on_delete(Eid::new(doc, xid), ts)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Brings element `n`'s open postings to its signature in `tree` and
    /// opens its lifetime if it was not alive (revived, or created at `ts`).
    fn index_element(
        &mut self,
        doc: DocId,
        version: VersionId,
        ts: Timestamp,
        tree: &Tree,
        n: NodeId,
        revive: bool,
    ) -> Result<()> {
        let xid = tree.node(n).xid;
        let desired_path = tree.xid_path(n);
        let desired: Vec<(String, OccKind)> = element_signature(tree, n);
        let alive = self.fti.is_alive(doc, xid);
        let current = self.fti.open_tokens(doc, xid);
        let fti = &mut *self.fti;
        let path_changed =
            fti.open_path(doc, xid).map(|p| p != desired_path.as_slice()).unwrap_or(false);
        if path_changed {
            for (tok, kind) in &current {
                fti.close_posting(tok, doc, xid, *kind, version);
            }
            for (tok, kind) in &desired {
                fti.open_posting(tok, doc, xid, *kind, &desired_path, version);
            }
        } else {
            for occ in current.iter().filter(|occ| !desired.contains(occ)) {
                fti.close_posting(&occ.0, doc, xid, occ.1, version);
            }
            for occ in desired.iter().filter(|occ| !current.contains(occ)) {
                fti.open_posting(&occ.0, doc, xid, occ.1, &desired_path, version);
            }
        }
        match (alive, revive) {
            (true, _) => Ok(()),
            (false, true) => self.eid.on_revive(Eid::new(doc, xid)),
            (false, false) => self.eid.on_create(Eid::new(doc, xid), ts),
        }
    }

    /// Indexes a document deletion (tombstone at `version`, time `ts`);
    /// `old_tree` is the version the tombstone ends.
    pub fn on_delete(
        &mut self,
        doc: DocId,
        version: VersionId,
        ts: Timestamp,
        old_tree: &Tree,
    ) -> Result<()> {
        for n in old_tree.iter() {
            let xid = old_tree.node(n).xid;
            if old_tree.node(n).is_element() && self.fti.is_alive(doc, xid) {
                self.eid.on_delete(Eid::new(doc, xid), ts)?;
            }
        }
        self.fti.close_document(doc, version);
        Ok(())
    }

    /// Rebuilds `doc` from scratch: drops its postings, lets `replay` step
    /// through its whole surviving chain, then deletes the lifetimes of
    /// elements left without a posting — those of purged versions only.
    /// Surviving elements keep their EID keys throughout. The work is
    /// proportional to `doc`'s chain and postings, not to the index.
    pub fn reindex(
        &mut self,
        doc: DocId,
        replay: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        self.fti.drop_document(doc);
        replay(self)?;
        let indexed = self.fti.doc_elements(doc);
        for (xid, _) in self.eid.doc_lifetimes(doc)? {
            if !indexed.contains(&xid) {
                self.eid.remove(Eid::new(doc, xid))?;
            }
        }
        Ok(())
    }
}

/// The elements whose postings a delta can change, sorted so that postings
/// and lifetimes are written in the same order by every run.
fn affected_elements(delta: &Delta, new_tree: &Tree, new_map: &HashMap<Xid, NodeId>) -> Vec<Xid> {
    let mut affected: Vec<Xid> = Vec::new();
    for op in &delta.ops {
        match op {
            EditOp::InsertSubtree { parent, subtree, .. }
            | EditOp::DeleteSubtree { parent, subtree, .. } => {
                let mut any_element = false;
                for n in subtree.iter() {
                    if subtree.node(n).is_element() {
                        affected.push(subtree.node(n).xid);
                        any_element = true;
                    }
                }
                // A bare text payload changes the parent's word set.
                if !any_element && !parent.is_none() {
                    affected.push(*parent);
                }
            }
            EditOp::UpdateText { xid, .. } => {
                // Words belong to the parent element.
                if let Some(&n) = new_map.get(xid) {
                    if let Some(p) = new_tree.node(n).parent() {
                        affected.push(new_tree.node(p).xid);
                    }
                }
            }
            EditOp::SetAttr { xid, .. } => {
                affected.push(*xid);
            }
            // A move among siblings keeps every xid-path and the parent's
            // word set.
            EditOp::Move { old_parent, new_parent, .. } if old_parent == new_parent => {}
            EditOp::Move { xid, old_parent, new_parent, .. } => {
                if let Some(&n) = new_map.get(xid) {
                    if new_tree.node(n).is_element() {
                        // Paths of the whole moved subtree changed.
                        for d in new_tree.descendants(n) {
                            if new_tree.node(d).is_element() {
                                affected.push(new_tree.node(d).xid);
                            }
                        }
                    } else {
                        // Moved text: both parents' word sets changed.
                        if !old_parent.is_none() {
                            affected.push(*old_parent);
                        }
                        if !new_parent.is_none() {
                            affected.push(*new_parent);
                        }
                    }
                }
            }
        }
    }
    affected.sort_unstable();
    affected.dedup();
    affected
}

/// The occurrence signature of one element: its lowercased name (Name
/// occurrence) plus the word tokens of its attributes and immediate text
/// children (Word occurrences), deduplicated.
pub fn element_signature(tree: &Tree, n: NodeId) -> Vec<(String, OccKind)> {
    let mut out: Vec<(String, OccKind)> = Vec::new();
    let NodeKind::Element { name, attrs } = &tree.node(n).kind else {
        return out;
    };
    out.push((name.to_lowercase(), OccKind::Name));
    let push_word = |w: String, out: &mut Vec<(String, OccKind)>| {
        let item = (w, OccKind::Word);
        if !out.contains(&item) {
            out.push(item);
        }
    };
    for (k, v) in attrs {
        for t in tokenize(k).chain(tokenize(v)) {
            push_word(t, &mut out);
        }
    }
    for &c in tree.node(n).children() {
        if let Some(t) = tree.node(c).text() {
            for w in tokenize(t) {
                push_word(w, &mut out);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_storage::repo::{DocumentStore, StoreOptions};

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    /// A store + index set wired together manually (the core crate's
    /// Database does this wiring for real use).
    struct Fixture {
        store: DocumentStore,
        idx: IndexSet,
    }

    impl Fixture {
        fn new() -> Fixture {
            let store = DocumentStore::open(StoreOptions::default()).unwrap().0;
            let idx = IndexSet::open(store.pool().clone(), store.metrics()).unwrap();
            Fixture { store, idx }
        }

        fn put(&self, name: &str, xml: &str, t: Timestamp) -> txdb_storage::repo::PutResult {
            let r = self.store.put(name, xml, t).unwrap();
            if r.changed {
                self.idx
                    .on_put(r.doc, r.version, r.ts, &r.new_tree, r.delta.as_ref(), r.resurrected)
                    .unwrap();
            }
            r
        }

        fn delete(&self, name: &str, t: Timestamp) {
            if let Some(d) = self.store.delete(name, t).unwrap() {
                self.idx.write().on_delete(d.doc, d.version, d.ts, &d.old_tree).unwrap();
            }
        }

        /// Oracle: tokens visible for `tok` in the reconstructed version at
        /// time `t`, via direct scan.
        fn scan_word_at(&self, tok: &str, t: Timestamp) -> usize {
            let mut count = 0;
            for (doc, _) in self.store.list().unwrap() {
                let Some(v) = self.store.version_at(doc, t).unwrap() else { continue };
                let tree = self.store.version_tree(doc, v).unwrap();
                for n in tree.iter() {
                    if tree.node(n).is_element()
                        && element_signature(&tree, n)
                            .iter()
                            .any(|(w, k)| w == tok && *k == OccKind::Word)
                    {
                        count += 1;
                    }
                }
            }
            count
        }

        /// FTI count for a word at time t.
        fn fti_word_at(&self, tok: &str, t: Timestamp) -> usize {
            self.idx
                .fti()
                .lookup_t(tok, OccKind::Word, |doc| self.store.version_at(doc, t).unwrap())
                .len()
        }
    }

    #[test]
    fn initial_version_indexed() {
        let f = Fixture::new();
        f.put(
            "guide",
            r#"<guide><restaurant category="italian"><name>Napoli</name></restaurant></guide>"#,
            ts(1),
        );
        let fti = f.idx.fti();
        assert_eq!(fti.lookup("restaurant", OccKind::Name).len(), 1);
        assert_eq!(fti.lookup("napoli", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("italian", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("guide", OccKind::Name).len(), 1);
        // Word occurrences attributed to the containing element.
        let p = &fti.lookup("napoli", OccKind::Word)[0];
        assert_eq!(p.path.len(), 3, "guide/restaurant/name");
    }

    #[test]
    fn text_update_closes_and_opens() {
        let f = Fixture::new();
        f.put("d", "<g><r><p>fifteen</p></r></g>", ts(1));
        f.put("d", "<g><r><p>eighteen</p></r></g>", ts(2));
        let fti = f.idx.fti();
        assert_eq!(fti.lookup("fifteen", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup("eighteen", OccKind::Word).len(), 1);
        // History intact.
        assert_eq!(fti.lookup_h("fifteen", OccKind::Word).len(), 1);
        drop(fti);
        assert_eq!(f.fti_word_at("fifteen", ts(1)), 1);
        assert_eq!(f.fti_word_at("fifteen", ts(2)), 0);
        assert_eq!(f.fti_word_at("eighteen", ts(2)), 1);
    }

    #[test]
    fn insert_and_delete_subtrees() {
        let f = Fixture::new();
        f.put("d", "<g><r><n>Napoli</n></r></g>", ts(1));
        f.put("d", "<g><r><n>Napoli</n></r><r><n>Akropolis</n></r></g>", ts(2));
        assert_eq!(f.idx.fti().lookup("akropolis", OccKind::Word).len(), 1);
        assert_eq!(f.idx.fti().lookup("restaurant", OccKind::Name).len(), 0);
        assert_eq!(f.idx.fti().lookup("r", OccKind::Name).len(), 2);
        f.put("d", "<g><r><n>Akropolis</n></r></g>", ts(3));
        assert_eq!(f.idx.fti().lookup("napoli", OccKind::Word).len(), 0);
        assert_eq!(f.fti_word_at("napoli", ts(2)), 1);
        assert_eq!(f.fti_word_at("napoli", ts(3)), 0);
        // Oracle agreement at every time point.
        for t in [ts(1), ts(2), ts(3)] {
            assert_eq!(f.fti_word_at("napoli", t), f.scan_word_at("napoli", t));
            assert_eq!(f.fti_word_at("akropolis", t), f.scan_word_at("akropolis", t));
        }
    }

    #[test]
    fn document_delete_closes_postings_and_lifetimes() {
        let f = Fixture::new();
        let r = f.put("d", "<g><n>Napoli</n></g>", ts(1));
        f.delete("d", ts(2));
        assert_eq!(f.idx.fti().lookup("napoli", OccKind::Word).len(), 0);
        assert_eq!(f.fti_word_at("napoli", ts(1)), 1);
        // EID lifetimes closed at deletion.
        let root_xid = r.new_tree.node(r.new_tree.root().unwrap()).xid;
        let lts = f.idx.eid_index().doc_lifetimes(r.doc).unwrap();
        let lt = lts.iter().find(|(xid, _)| *xid == root_xid).unwrap().1;
        assert_eq!(lt.created, ts(1));
        assert_eq!(lt.deleted, ts(2));
    }

    #[test]
    fn resurrection_reopens_postings() {
        let f = Fixture::new();
        let r = f.put("d", "<g><n>Napoli</n></g>", ts(1));
        f.delete("d", ts(2));
        f.put("d", "<g><n>Napoli</n></g>", ts(3));
        assert_eq!(f.idx.fti().lookup("napoli", OccKind::Word).len(), 1);
        assert_eq!(f.fti_word_at("napoli", ts(2)), 0, "gone during tombstone gap");
        assert_eq!(f.fti_word_at("napoli", ts(3)), 1);
        // Lifetime revived, original create time kept.
        let root_xid = r.new_tree.node(r.new_tree.root().unwrap()).xid;
        let lts = f.idx.eid_index().doc_lifetimes(r.doc).unwrap();
        let lt = lts.iter().find(|(xid, _)| *xid == root_xid).unwrap().1;
        assert_eq!(lt.created, ts(1));
        assert!(lt.is_alive());
    }

    #[test]
    fn element_lifetimes_from_updates() {
        let f = Fixture::new();
        let r = f.put("d", "<g><a>one</a></g>", ts(1));
        f.put("d", "<g><a>one</a><b>two</b></g>", ts(2));
        f.put("d", "<g><b>two</b></g>", ts(3));
        let eidx = f.idx.eid_index();
        let lts = eidx.doc_lifetimes(r.doc).unwrap();
        // g, a, text(one) created at 1; b, text(two) created at 2; a's
        // lifetime [1, 3). Text nodes are not tracked (element index).
        let alive: Vec<_> = lts.iter().filter(|(_, lt)| lt.is_alive()).collect();
        assert_eq!(alive.len(), 2, "g and b alive: {lts:?}");
        let dead: Vec<_> = lts.iter().filter(|(_, lt)| !lt.is_alive()).collect();
        assert_eq!(dead.len(), 1, "a deleted");
        assert_eq!(dead[0].1.created, ts(1));
        assert_eq!(dead[0].1.deleted, ts(3));
    }

    #[test]
    fn move_updates_paths() {
        let f = Fixture::new();
        f.put("d", "<g><a><big><x>deep</x></big></a><b/></g>", ts(1));
        {
            let fti = f.idx.fti();
            let p = &fti.lookup("deep", OccKind::Word)[0];
            assert_eq!(p.path.len(), 4, "g/a/big/x");
        }
        f.put("d", "<g><a/><b><big><x>deep</x></big></b></g>", ts(2));
        let fti = f.idx.fti();
        let hits = fti.lookup("deep", OccKind::Word);
        assert_eq!(hits.len(), 1);
        // Path now runs through b.
        let b_hits = fti.lookup("b", OccKind::Name);
        assert_eq!(b_hits.len(), 1);
        assert!(b_hits[0].is_ancestor_of(hits[0]), "moved under b");
    }

    #[test]
    fn attribute_change_indexed() {
        let f = Fixture::new();
        f.put("d", r#"<r category="italian"/>"#, ts(1));
        f.put("d", r#"<r category="greek"/>"#, ts(2));
        let fti = f.idx.fti();
        assert_eq!(fti.lookup("italian", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup("greek", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup_h("italian", OccKind::Word).len(), 1);
    }

    #[test]
    fn unchanged_elements_untouched() {
        // Posting count grows only by the changed element's tokens.
        let f = Fixture::new();
        f.put("d", "<g><r><n>Napoli</n><p>15</p></r><r><n>Akropolis</n><p>13</p></r></g>", ts(1));
        let before = f.idx.fti().posting_count();
        f.put("d", "<g><r><n>Napoli</n><p>18</p></r><r><n>Akropolis</n><p>13</p></r></g>", ts(2));
        let after = f.idx.fti().posting_count();
        // price 15→18: one closed (15) + one opened (18) ⇒ +1 posting.
        assert_eq!(after, before + 1, "only the price element re-indexed");
    }

    #[test]
    fn fti_oracle_agreement_random_workload() {
        // Differential check across a longer update sequence: word
        // changes, and from round to round items dropped, rotated and
        // swapped among their siblings.
        let f = Fixture::new();
        let words = ["alpha", "beta", "gamma", "delta"];
        let mut t = 1u64;
        for round in 0..12u64 {
            for d in 0..3u64 {
                let w1 = words[((round + d) % 4) as usize];
                let w2 = words[((round * 3 + d) % 4) as usize];
                let mut items: Vec<String> = vec![
                    format!("<item><v>{w1}</v></item>"),
                    format!("<item><v>{w2} {w1}</v></item>"),
                ];
                items.extend((0..5).map(|k| format!("<item><k>fixed{k}</k><v>{w2}</v></item>")));
                items.remove(((round + d) % 7) as usize);
                items.rotate_left((round % 6) as usize);
                items.swap(0, (1 + d) as usize);
                f.put(&format!("doc{d}"), &format!("<doc>{}</doc>", items.concat()), ts(t));
                t += 1;
            }
        }
        for probe in [1, 5, 14, 20, 30, 36] {
            for w in words.into_iter().chain(["fixed0", "fixed3"]) {
                assert_eq!(
                    f.fti_word_at(w, ts(probe)),
                    f.scan_word_at(w, ts(probe)),
                    "word {w} at t{probe}"
                );
            }
        }
    }

    #[test]
    fn pure_reorder_adds_no_postings() {
        // Moves among siblings change no xid-path and no word set: the
        // index must not even look at the moved subtrees.
        let f = Fixture::new();
        let item = |k: usize| format!("<item><n>name{k}</n><p>{k}</p></item>");
        let forward: String = (0..20).map(item).collect();
        let shuffled: String = (0..20).map(|k| item((k * 7 + 3) % 20)).collect();
        f.put("d", &format!("<doc>{forward}</doc>"), ts(1));
        let before = f.idx.fti().posting_count();
        let r = f.put("d", &format!("<doc>{shuffled}</doc>"), ts(2));
        let delta = r.delta.as_ref().unwrap();
        assert!(!delta.is_empty() && delta.ops.iter().all(|o| matches!(o, EditOp::Move { .. })));
        assert_eq!(f.idx.fti().posting_count(), before);
        assert_eq!(f.fti_word_at("name7", ts(2)), 1);
    }
}
