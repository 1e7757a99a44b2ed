//! Edit operations and completed-delta application.
//!
//! A [`Delta`] is an ordered list of [`EditOp`]s transforming version *v*
//! of a document into version *v+1*. Every operation is *completed*: it
//! carries both the old and the new state of whatever it touches (deleted
//! subtrees, old text, old attribute values, old positions, old direct
//! timestamps), so the same object can be applied forward or backward —
//! the paper's "completed deltas can be used both as forward and backward
//! deltas" (§7.1).
//!
//! Operations address nodes by [`Xid`] (never by arena `NodeId`, which is
//! version-local) and positions by child index; `Xid::NONE` as a parent
//! denotes the forest root level. Forward application replays the ops in
//! order; backward application replays the *inverted* ops in reverse order.
//!
//! ### Timestamps
//!
//! Node `ts` fields hold *direct* modification times (see
//! [`txdb_xml::Tree::effective_ts`]). The time-stamping rules applied by
//! this module at delta time `to_ts` are:
//!
//! * inserted subtrees arrive pre-stamped by the diff (`to_ts`);
//! * `UpdateText`/`SetAttr` stamp the affected node;
//! * `DeleteSubtree` stamps the *parent* (its child list changed);
//! * `Move` stamps the moved node and the old parent.
//!
//! Each op records the displaced old timestamps so backward application
//! restores them exactly.
//!
//! ### Attribute order
//!
//! A `SetAttr` records no position, so an attribute it adds — forward, or
//! backward when undoing a removal — goes where name order puts it. The
//! store keeps every version's attributes in name order
//! (`DocumentStore::put_tree` sorts them on the way in), and with that
//! one rule a version stepped forward equals the same version rebuilt
//! backward, attribute order included.

use std::collections::HashMap;
use std::rc::Rc;

use txdb_base::{Error, Result, Timestamp, VersionId, Xid};
use txdb_xml::tree::{NodeId, Tree};

/// One edit operation of a completed delta.
#[derive(Clone, Debug)]
pub enum EditOp {
    /// Insert `subtree` (a single-rooted forest with XIDs and direct
    /// timestamps already assigned) under `parent` at child index `pos`.
    InsertSubtree {
        /// Parent element XID; `Xid::NONE` inserts at the root level.
        parent: Xid,
        /// Child index at insertion time.
        pos: usize,
        /// The inserted content, XIDs assigned.
        subtree: Tree,
    },
    /// Delete the subtree rooted at `subtree`'s root from `parent` at `pos`.
    DeleteSubtree {
        /// Parent element XID; `Xid::NONE` deletes a root.
        parent: Xid,
        /// Child index at deletion time.
        pos: usize,
        /// The deleted content (for backward application).
        subtree: Tree,
        /// The parent's direct timestamp before the deletion stamped it.
        old_parent_ts: Timestamp,
    },
    /// Replace the value of text node `xid`.
    UpdateText {
        /// The text node.
        xid: Xid,
        /// Old value (backward direction).
        old: String,
        /// New value (forward direction).
        new: String,
        /// The node's direct timestamp before the update.
        old_ts: Timestamp,
    },
    /// Set, replace or remove an attribute on element `xid`.
    SetAttr {
        /// The element.
        xid: Xid,
        /// Attribute name.
        key: String,
        /// Old value; `None` if the attribute was absent.
        old: Option<String>,
        /// New value; `None` removes the attribute.
        new: Option<String>,
        /// The element's direct timestamp before the change.
        old_ts: Timestamp,
    },
    /// Move the subtree rooted at `xid` to a new parent/position.
    Move {
        /// Root of the moved subtree.
        xid: Xid,
        /// Parent before the move (`Xid::NONE` = root level).
        old_parent: Xid,
        /// Child index before the move.
        old_pos: usize,
        /// Parent after the move (`Xid::NONE` = root level).
        new_parent: Xid,
        /// Child index after the move.
        new_pos: usize,
        /// Moved node's direct timestamp before the move.
        old_ts: Timestamp,
        /// Old parent's direct timestamp before the move stamped it.
        old_parent_ts: Timestamp,
    },
}

impl EditOp {
    /// Rough serialized size in bytes, used by storage statistics and the
    /// space experiments (E8).
    pub fn weight(&self) -> usize {
        match self {
            EditOp::InsertSubtree { subtree, .. } | EditOp::DeleteSubtree { subtree, .. } => {
                32 + subtree
                    .iter()
                    .map(|n| match &subtree.node(n).kind {
                        txdb_xml::tree::NodeKind::Element { name, attrs } => {
                            24 + name.len()
                                + attrs.iter().map(|(k, v)| k.len() + v.len() + 8).sum::<usize>()
                        }
                        txdb_xml::tree::NodeKind::Text { value } => 24 + value.len(),
                    })
                    .sum::<usize>()
            }
            EditOp::UpdateText { old, new, .. } => 40 + old.len() + new.len(),
            EditOp::SetAttr { key, old, new, .. } => {
                40 + key.len()
                    + old.as_deref().map_or(0, str::len)
                    + new.as_deref().map_or(0, str::len)
            }
            EditOp::Move { .. } => 64,
        }
    }
}

/// A completed delta transforming one version of a document into the next.
#[derive(Clone, Debug)]
pub struct Delta {
    /// The version the delta applies forward *from*.
    pub from_version: VersionId,
    /// The version the delta produces (`from_version + 1` in the chain).
    pub to_version: VersionId,
    /// Commit timestamp of `from_version`.
    pub from_ts: Timestamp,
    /// Commit timestamp of `to_version` (the delta's transaction time).
    pub to_ts: Timestamp,
    /// The edit script, in forward application order.
    pub ops: Vec<EditOp>,
}

impl Delta {
    /// An empty delta between two versions (no changes — used when a
    /// document is re-stored unchanged).
    pub fn empty(from: VersionId, from_ts: Timestamp, to_ts: Timestamp) -> Self {
        Delta { from_version: from, to_version: from.next(), from_ts, to_ts, ops: Vec::new() }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total approximate serialized size, for space accounting (E8).
    pub fn weight(&self) -> usize {
        48 + self.ops.iter().map(EditOp::weight).sum::<usize>()
    }

    /// Applies the delta forward (version `from` → `to`), mutating `tree`.
    /// Builds an XID map for this one delta; a chain of deltas should go
    /// through a [`Walk`], which keeps its map across steps.
    pub fn apply_forward(&self, tree: &mut Tree) -> Result<()> {
        let mut map = tree.xid_map();
        self.forward_with(&mut Applier::new(tree, &mut map))
    }

    /// Applies the delta backward (version `to` → `from`), mutating `tree`.
    pub fn apply_backward(&self, tree: &mut Tree) -> Result<()> {
        let mut map = tree.xid_map();
        self.backward_with(&mut Applier::new(tree, &mut map))
    }

    fn forward_with(&self, applier: &mut Applier<'_>) -> Result<()> {
        for op in &self.ops {
            applier.apply(op, self.to_ts)?;
        }
        Ok(())
    }

    fn backward_with(&self, applier: &mut Applier<'_>) -> Result<()> {
        for op in self.ops.iter().rev() {
            applier.apply_inverse(op)?;
        }
        Ok(())
    }

    /// XIDs directly affected by this delta (roots of inserted/deleted
    /// subtrees, updated nodes, moved nodes and touched parents). Used by
    /// index maintenance and the change-oriented index ablation (E7).
    pub fn touched_xids(&self) -> Vec<Xid> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                EditOp::InsertSubtree { parent, subtree, .. }
                | EditOp::DeleteSubtree { parent, subtree, .. } => {
                    if !parent.is_none() {
                        out.push(*parent);
                    }
                    for n in subtree.iter() {
                        out.push(subtree.node(n).xid);
                    }
                }
                EditOp::UpdateText { xid, .. } | EditOp::SetAttr { xid, .. } => out.push(*xid),
                EditOp::Move { xid, old_parent, new_parent, .. } => {
                    out.push(*xid);
                    if !old_parent.is_none() {
                        out.push(*old_parent);
                    }
                    if !new_parent.is_none() {
                        out.push(*new_parent);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One document version stepped in place along its delta chain: the
/// tree and its XID → NodeId map, built once when the walk starts and
/// kept in step by every delta applied after (the §7.3.4 incremental
/// walk pays one delta per version, not one delta plus one map).
///
/// The tree is shared: [`Walk::tree`] hands out `Rc` clones, and a step
/// copies the tree only while such a clone is still alive
/// (`Rc::make_mut`). Arena ids survive the copy, so the map stays valid.
/// A step that fails leaves the tree half-applied; drop the walk.
#[derive(Debug)]
pub struct Walk {
    tree: Rc<Tree>,
    map: HashMap<Xid, NodeId>,
}

impl Walk {
    /// Starts a walk on `tree` (builds its XID map).
    pub fn new(tree: impl Into<Rc<Tree>>) -> Walk {
        let tree = tree.into();
        let map = tree.xid_map();
        Walk { tree, map }
    }

    /// Steps to the next version by applying `delta` forward.
    pub fn forward(&mut self, delta: &Delta) -> Result<()> {
        delta.forward_with(&mut Applier::new(Rc::make_mut(&mut self.tree), &mut self.map))
    }

    /// Steps to the previous version by applying `delta` backward.
    pub fn backward(&mut self, delta: &Delta) -> Result<()> {
        delta.backward_with(&mut Applier::new(Rc::make_mut(&mut self.tree), &mut self.map))
    }

    /// The version the walk stands on.
    pub fn tree(&self) -> &Rc<Tree> {
        &self.tree
    }

    /// The node carrying `xid` in the walk's tree.
    pub fn node(&self, xid: Xid) -> Option<NodeId> {
        self.map.get(&xid).copied()
    }

    /// Ends the walk, returning its tree (copied only if still shared).
    pub fn into_tree(self) -> Tree {
        Rc::try_unwrap(self.tree).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Applies ops against a tree, maintaining an XID → NodeId map
/// incrementally (deletes invalidate arena ids, so the map is updated on
/// every structural op). Also used by the diff to replay the script it is
/// generating, guaranteeing that recorded positions match forward replay.
pub(crate) struct Applier<'a> {
    tree: &'a mut Tree,
    map: &'a mut HashMap<Xid, NodeId>,
}

impl<'a> Applier<'a> {
    /// An applier over `tree`; `map` must be `tree`'s XID map.
    pub(crate) fn new(tree: &'a mut Tree, map: &'a mut HashMap<Xid, NodeId>) -> Self {
        Applier { tree, map }
    }

    /// Read access to the tree being mutated.
    pub(crate) fn tree(&self) -> &Tree {
        self.tree
    }

    pub(crate) fn lookup(&self, xid: Xid) -> Result<NodeId> {
        self.map
            .get(&xid)
            .copied()
            .ok_or_else(|| Error::DeltaMismatch(format!("no node with {xid}")))
    }

    fn insert_subtree(&mut self, parent: Xid, pos: usize, subtree: &Tree) -> Result<()> {
        let src_root = subtree
            .root()
            .ok_or_else(|| Error::DeltaMismatch("insert payload must be single-rooted".into()))?;
        let new_root = self.tree.copy_subtree_from(subtree, src_root);
        if parent.is_none() {
            if pos > self.tree.roots().len() {
                return Err(Error::DeltaMismatch(format!(
                    "root insert position {pos} out of range"
                )));
            }
            self.tree.insert_root(pos, new_root);
        } else {
            let p = self.lookup(parent)?;
            if pos > self.tree.node(p).children().len() {
                return Err(Error::DeltaMismatch(format!(
                    "insert position {pos} out of range under {parent}"
                )));
            }
            self.tree.insert_child(p, pos, new_root);
        }
        // Register all inserted nodes.
        let added: Vec<NodeId> = self.tree.descendants(new_root).collect();
        for n in added {
            let x = self.tree.node(n).xid;
            if !x.is_none() && self.map.insert(x, n).is_some() {
                return Err(Error::DeltaMismatch(format!("duplicate xid {x} on insert")));
            }
        }
        Ok(())
    }

    fn delete_subtree(
        &mut self,
        parent: Xid,
        pos: usize,
        expected_root_xid: Xid,
        stamp_parent: Option<Timestamp>,
        restore_parent_ts: Option<Timestamp>,
    ) -> Result<()> {
        let victim =
            if parent.is_none() {
                *self
                    .tree
                    .roots()
                    .get(pos)
                    .ok_or_else(|| Error::DeltaMismatch(format!("no root at {pos}")))?
            } else {
                let p = self.lookup(parent)?;
                *self.tree.node(p).children().get(pos).ok_or_else(|| {
                    Error::DeltaMismatch(format!("no child at {pos} under {parent}"))
                })?
            };
        if self.tree.node(victim).xid != expected_root_xid {
            return Err(Error::DeltaMismatch(format!(
                "delete expected {expected_root_xid} at {parent}/{pos}, found {}",
                self.tree.node(victim).xid
            )));
        }
        // Deregister subtree xids before the arena recycles them.
        let goners: Vec<Xid> =
            self.tree.descendants(victim).map(|n| self.tree.node(n).xid).collect();
        for x in goners {
            if !x.is_none() {
                self.map.remove(&x);
            }
        }
        self.tree.remove_subtree(victim);
        if !parent.is_none() {
            let p = self.lookup(parent)?;
            if let Some(ts) = stamp_parent {
                self.tree.node_mut(p).ts = ts;
            }
            if let Some(ts) = restore_parent_ts {
                self.tree.node_mut(p).ts = ts;
            }
        }
        Ok(())
    }

    pub(crate) fn apply(&mut self, op: &EditOp, to_ts: Timestamp) -> Result<()> {
        match op {
            EditOp::InsertSubtree { parent, pos, subtree } => {
                self.insert_subtree(*parent, *pos, subtree)
            }
            EditOp::DeleteSubtree { parent, pos, subtree, .. } => {
                let root_xid = subtree
                    .root()
                    .map(|r| subtree.node(r).xid)
                    .ok_or_else(|| Error::DeltaMismatch("delete payload empty".into()))?;
                self.delete_subtree(*parent, *pos, root_xid, Some(to_ts), None)
            }
            EditOp::UpdateText { xid, old, new, .. } => {
                let n = self.lookup(*xid)?;
                match self.tree.node(n).text() {
                    Some(t) if t == old => {}
                    other => {
                        return Err(Error::DeltaMismatch(format!(
                            "update of {xid}: expected text {old:?}, found {other:?}"
                        )))
                    }
                }
                self.tree.set_text(n, new.clone());
                self.tree.node_mut(n).ts = to_ts;
                Ok(())
            }
            EditOp::SetAttr { xid, key, old, new, .. } => {
                let n = self.lookup(*xid)?;
                let current = self.tree.node(n).attr(key).map(str::to_string);
                if current.as_deref() != old.as_deref() {
                    return Err(Error::DeltaMismatch(format!(
                        "setattr {key} on {xid}: expected {old:?}, found {current:?}"
                    )));
                }
                self.set_attr(n, key, new.as_deref());
                self.tree.node_mut(n).ts = to_ts;
                Ok(())
            }
            EditOp::Move { xid, old_parent, old_pos, new_parent, new_pos, .. } => {
                self.do_move(*xid, *old_parent, *old_pos, *new_parent, *new_pos, Some(to_ts), None)
            }
        }
    }

    /// Applies the inverse of `op` (backward direction), restoring recorded
    /// old timestamps.
    fn apply_inverse(&mut self, op: &EditOp) -> Result<()> {
        match op {
            // Inverse of insert = delete; the parent's ts was not changed by
            // the insert, so neither stamp nor restore it.
            EditOp::InsertSubtree { parent, pos, subtree } => {
                let root_xid = subtree
                    .root()
                    .map(|r| subtree.node(r).xid)
                    .ok_or_else(|| Error::DeltaMismatch("insert payload empty".into()))?;
                self.delete_subtree(*parent, *pos, root_xid, None, None)
            }
            // Inverse of delete = insert + restore the parent's old ts.
            EditOp::DeleteSubtree { parent, pos, subtree, old_parent_ts } => {
                self.insert_subtree(*parent, *pos, subtree)?;
                if !parent.is_none() {
                    let p = self.lookup(*parent)?;
                    self.tree.node_mut(p).ts = *old_parent_ts;
                }
                Ok(())
            }
            EditOp::UpdateText { xid, old, new, old_ts } => {
                let n = self.lookup(*xid)?;
                match self.tree.node(n).text() {
                    Some(t) if t == new => {}
                    other => {
                        return Err(Error::DeltaMismatch(format!(
                            "backward update of {xid}: expected {new:?}, found {other:?}"
                        )))
                    }
                }
                self.tree.set_text(n, old.clone());
                self.tree.node_mut(n).ts = *old_ts;
                Ok(())
            }
            EditOp::SetAttr { xid, key, old, new, old_ts } => {
                let n = self.lookup(*xid)?;
                let current = self.tree.node(n).attr(key).map(str::to_string);
                if current.as_deref() != new.as_deref() {
                    return Err(Error::DeltaMismatch(format!(
                        "backward setattr {key} on {xid}: expected {new:?}, found {current:?}"
                    )));
                }
                self.set_attr(n, key, old.as_deref());
                self.tree.node_mut(n).ts = *old_ts;
                Ok(())
            }
            EditOp::Move {
                xid,
                old_parent,
                old_pos,
                new_parent,
                new_pos,
                old_ts,
                old_parent_ts,
            } => {
                // Reverse: move back from new to old position, restoring
                // the node's and the old parent's timestamps.
                self.do_move(*xid, *new_parent, *new_pos, *old_parent, *old_pos, None, None)?;
                let n = self.lookup(*xid)?;
                self.tree.node_mut(n).ts = *old_ts;
                if !old_parent.is_none() {
                    let p = self.lookup(*old_parent)?;
                    self.tree.node_mut(p).ts = *old_parent_ts;
                }
                Ok(())
            }
        }
    }

    /// Sets (`Some`) or removes (`None`) an attribute, keeping the
    /// element's attributes in name order (see the module docs).
    fn set_attr(&mut self, n: NodeId, key: &str, value: Option<&str>) {
        match value {
            Some(v) => {
                self.tree.set_attr(n, key, v);
                self.tree.sort_attrs(n);
            }
            None => {
                self.tree.remove_attr(n, key);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_move(
        &mut self,
        xid: Xid,
        from_parent: Xid,
        from_pos: usize,
        to_parent: Xid,
        to_pos: usize,
        stamp: Option<Timestamp>,
        _unused: Option<Timestamp>,
    ) -> Result<()> {
        let n = self.lookup(xid)?;
        // Verify source location.
        let actual_parent =
            self.tree.node(n).parent().map(|p| self.tree.node(p).xid).unwrap_or(Xid::NONE);
        if actual_parent != from_parent || self.tree.position(n) != from_pos {
            return Err(Error::DeltaMismatch(format!(
                "move of {xid}: expected at {from_parent}/{from_pos}, found at {actual_parent}/{}",
                self.tree.position(n)
            )));
        }
        self.tree.detach(n);
        if to_parent.is_none() {
            if to_pos > self.tree.roots().len() {
                return Err(Error::DeltaMismatch("move target root position".into()));
            }
            self.tree.insert_root(to_pos, n);
        } else {
            let p = self.lookup(to_parent)?;
            if to_pos > self.tree.node(p).children().len() {
                return Err(Error::DeltaMismatch("move target position".into()));
            }
            self.tree.insert_child(p, to_pos, n);
        }
        if let Some(ts) = stamp {
            self.tree.node_mut(n).ts = ts;
            if !from_parent.is_none() {
                let p = self.lookup(from_parent)?;
                self.tree.node_mut(p).ts = ts;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::parse::parse_document;
    use txdb_xml::serialize::to_string;

    /// Parses and assigns XIDs 1..n in document order, direct ts = `ts0`.
    fn tree_with_xids(src: &str, ts0: u64) -> Tree {
        let mut t = parse_document(src).unwrap();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(i as u64 + 1);
            t.node_mut(*id).ts = Timestamp::from_micros(ts0);
        }
        t
    }

    fn payload(src: &str, first_xid: u64, ts: u64) -> Tree {
        let mut t = parse_document(src).unwrap();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(first_xid + i as u64);
            t.node_mut(*id).ts = Timestamp::from_micros(ts);
        }
        t
    }

    fn delta(ops: Vec<EditOp>) -> Delta {
        Delta {
            from_version: VersionId(0),
            to_version: VersionId(1),
            from_ts: Timestamp::from_micros(100),
            to_ts: Timestamp::from_micros(200),
            ops,
        }
    }

    #[test]
    fn insert_forward_and_backward() {
        // <a><b/></a>  + insert <c>x</c> at pos 1
        let mut t = tree_with_xids("<a><b/></a>", 100);
        let orig = to_string(&t);
        let d = delta(vec![EditOp::InsertSubtree {
            parent: Xid(1),
            pos: 1,
            subtree: payload("<c>x</c>", 10, 200),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b/><c>x</c></a>");
        t.check_consistency().unwrap();
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), orig);
        t.check_consistency().unwrap();
    }

    #[test]
    fn delete_forward_and_backward_restores_ts() {
        let mut t = tree_with_xids("<a><b/><c>x</c></a>", 100);
        let root = t.root().unwrap();
        let c = t.node(root).children()[1];
        let sub = t.extract_subtree(c);
        let d = delta(vec![EditOp::DeleteSubtree {
            parent: Xid(1),
            pos: 1,
            subtree: sub,
            old_parent_ts: Timestamp::from_micros(100),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b/></a>");
        // Parent stamped by the delete.
        assert_eq!(t.node(t.root().unwrap()).ts, Timestamp::from_micros(200));
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b/><c>x</c></a>");
        assert_eq!(t.node(t.root().unwrap()).ts, Timestamp::from_micros(100));
        // Restored subtree has its xid back.
        assert!(t.find_xid(Xid(3)).is_some());
    }

    #[test]
    fn update_text_roundtrip() {
        let mut t = tree_with_xids("<p><price>15</price></p>", 100);
        let d = delta(vec![EditOp::UpdateText {
            xid: Xid(3),
            old: "15".into(),
            new: "18".into(),
            old_ts: Timestamp::from_micros(100),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<p><price>18</price></p>");
        let n = t.find_xid(Xid(3)).unwrap();
        assert_eq!(t.node(n).ts, Timestamp::from_micros(200));
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<p><price>15</price></p>");
        let n = t.find_xid(Xid(3)).unwrap();
        assert_eq!(t.node(n).ts, Timestamp::from_micros(100));
    }

    #[test]
    fn update_text_mismatch_detected() {
        let mut t = tree_with_xids("<p>xx</p>", 100);
        let d = delta(vec![EditOp::UpdateText {
            xid: Xid(2),
            old: "yy".into(),
            new: "zz".into(),
            old_ts: Timestamp::ZERO,
        }]);
        assert!(matches!(d.apply_forward(&mut t), Err(Error::DeltaMismatch(_))));
    }

    #[test]
    fn setattr_set_replace_remove() {
        let mut t = tree_with_xids(r#"<a k="1"/>"#, 100);
        let d = delta(vec![
            EditOp::SetAttr {
                xid: Xid(1),
                key: "k".into(),
                old: Some("1".into()),
                new: Some("2".into()),
                old_ts: Timestamp::from_micros(100),
            },
            EditOp::SetAttr {
                xid: Xid(1),
                key: "m".into(),
                old: None,
                new: Some("9".into()),
                old_ts: Timestamp::from_micros(200),
            },
        ]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), r#"<a k="2" m="9"/>"#);
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), r#"<a k="1"/>"#);
        let n = t.root().unwrap();
        assert_eq!(t.node(n).ts, Timestamp::from_micros(100));
    }

    #[test]
    fn move_within_parent_and_back() {
        let mut t = tree_with_xids("<a><b/><c/><d/></a>", 100);
        let d = delta(vec![EditOp::Move {
            xid: Xid(4), // <d/>
            old_parent: Xid(1),
            old_pos: 2,
            new_parent: Xid(1),
            new_pos: 0,
            old_ts: Timestamp::from_micros(100),
            old_parent_ts: Timestamp::from_micros(100),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><d/><b/><c/></a>");
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b/><c/><d/></a>");
    }

    #[test]
    fn move_across_parents() {
        let mut t = tree_with_xids("<a><b><x/></b><c/></a>", 100);
        // move <x/> (xid 3) from b to c
        let d = delta(vec![EditOp::Move {
            xid: Xid(3),
            old_parent: Xid(2),
            old_pos: 0,
            new_parent: Xid(4),
            new_pos: 0,
            old_ts: Timestamp::from_micros(100),
            old_parent_ts: Timestamp::from_micros(100),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b/><c><x/></c></a>");
        // Old parent stamped.
        let b = t.find_xid(Xid(2)).unwrap();
        assert_eq!(t.node(b).ts, Timestamp::from_micros(200));
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><b><x/></b><c/></a>");
        let b = t.find_xid(Xid(2)).unwrap();
        assert_eq!(t.node(b).ts, Timestamp::from_micros(100));
    }

    #[test]
    fn multi_op_script_order_sensitivity() {
        // Two deletes under the same parent; positions recorded at
        // mutation time must replay exactly.
        let mut t = tree_with_xids("<a><b/><c/><d/></a>", 100);
        let root = t.root().unwrap();
        let b = t.node(root).children()[0];
        let d_ = t.node(root).children()[2];
        let sub_b = t.extract_subtree(b);
        let sub_d = t.extract_subtree(d_);
        let d = delta(vec![
            EditOp::DeleteSubtree {
                parent: Xid(1),
                pos: 0,
                subtree: sub_b,
                old_parent_ts: Timestamp::from_micros(100),
            },
            // After deleting b, d is now at position 1.
            EditOp::DeleteSubtree {
                parent: Xid(1),
                pos: 1,
                subtree: sub_d,
                old_parent_ts: Timestamp::from_micros(200),
            },
        ]);
        let orig = to_string(&t);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a><c/></a>");
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), orig);
        assert_eq!(t.node(t.root().unwrap()).ts, Timestamp::from_micros(100));
    }

    #[test]
    fn root_level_insert_delete() {
        let mut t = tree_with_xids("<a/>", 100);
        let d = delta(vec![EditOp::InsertSubtree {
            parent: Xid::NONE,
            pos: 1,
            subtree: payload("<b/>", 50, 200),
        }]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a/><b/>");
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), "<a/>");
    }

    #[test]
    fn walk_steps_in_place_and_copies_only_a_shared_tree() {
        let d1 = delta(vec![EditOp::UpdateText {
            xid: Xid(3),
            old: "15".into(),
            new: "18".into(),
            old_ts: Timestamp::from_micros(100),
        }]);
        let mut d2 = delta(vec![EditOp::InsertSubtree {
            parent: Xid(1),
            pos: 1,
            subtree: payload("<q>x</q>", 10, 300),
        }]);
        d2.to_ts = Timestamp::from_micros(300);
        let mut walk = Walk::new(tree_with_xids("<p><price>15</price></p>", 100));
        let before = Rc::as_ptr(walk.tree());
        walk.forward(&d1).unwrap();
        assert_eq!(Rc::as_ptr(walk.tree()), before, "an unshared tree is stepped in place");
        let held = walk.tree().clone();
        walk.forward(&d2).unwrap();
        assert_eq!(to_string(&held), "<p><price>18</price></p>", "a held version stays put");
        assert_eq!(to_string(walk.tree()), "<p><price>18</price><q>x</q></p>");
        // The map followed both steps, through the copy.
        let q = walk.node(Xid(10)).unwrap();
        assert_eq!(walk.tree().node(q).name(), Some("q"));
        assert_eq!(walk.node(Xid(3)), held.find_xid(Xid(3)), "arena ids survive the copy");
        walk.backward(&d2).unwrap();
        walk.backward(&d1).unwrap();
        assert_eq!(walk.node(Xid(10)), None);
        let back = walk.into_tree();
        assert_eq!(to_string(&back), "<p><price>15</price></p>");
        assert_eq!(back.node(back.find_xid(Xid(3)).unwrap()).ts, Timestamp::from_micros(100));
    }

    #[test]
    fn setattr_keeps_attributes_in_name_order_both_ways() {
        // Removing `a` then undoing it must put `a` back first, where a
        // version stored in name order has it.
        let mut t = tree_with_xids(r#"<e a="1" m="2"/>"#, 100);
        let d = delta(vec![
            EditOp::SetAttr {
                xid: Xid(1),
                key: "a".into(),
                old: Some("1".into()),
                new: None,
                old_ts: Timestamp::from_micros(100),
            },
            EditOp::SetAttr {
                xid: Xid(1),
                key: "b".into(),
                old: None,
                new: Some("3".into()),
                old_ts: Timestamp::from_micros(200),
            },
        ]);
        d.apply_forward(&mut t).unwrap();
        assert_eq!(to_string(&t), r#"<e b="3" m="2"/>"#);
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), r#"<e a="1" m="2"/>"#);
    }

    #[test]
    fn empty_delta_noop() {
        let mut t = tree_with_xids("<a><b/></a>", 100);
        let before = to_string(&t);
        let d = Delta::empty(VersionId(3), Timestamp::from_micros(1), Timestamp::from_micros(2));
        assert!(d.is_empty());
        assert_eq!(d.to_version, VersionId(4));
        d.apply_forward(&mut t).unwrap();
        d.apply_backward(&mut t).unwrap();
        assert_eq!(to_string(&t), before);
    }

    #[test]
    fn touched_xids_collects_and_dedups() {
        let d = delta(vec![
            EditOp::UpdateText {
                xid: Xid(3),
                old: "a".into(),
                new: "b".into(),
                old_ts: Timestamp::ZERO,
            },
            EditOp::Move {
                xid: Xid(3),
                old_parent: Xid(1),
                old_pos: 0,
                new_parent: Xid(2),
                new_pos: 0,
                old_ts: Timestamp::ZERO,
                old_parent_ts: Timestamp::ZERO,
            },
        ]);
        assert_eq!(d.touched_xids(), vec![Xid(1), Xid(2), Xid(3)]);
    }

    #[test]
    fn weights_positive() {
        let d = delta(vec![EditOp::InsertSubtree {
            parent: Xid::NONE,
            pos: 0,
            subtree: payload("<b>hello</b>", 5, 1),
        }]);
        assert!(d.weight() > 48);
    }

    #[test]
    fn delete_wrong_target_detected() {
        let mut t = tree_with_xids("<a><b/></a>", 100);
        let sub = payload("<z/>", 99, 1);
        let d = delta(vec![EditOp::DeleteSubtree {
            parent: Xid(1),
            pos: 0,
            subtree: sub,
            old_parent_ts: Timestamp::ZERO,
        }]);
        assert!(d.apply_forward(&mut t).is_err());
    }
}
