//! XyDiff-style tree diff with XID preservation.
//!
//! Computes a completed [`Delta`] turning `old` into `new` while assigning
//! persistent identifiers: nodes of `new` matched to nodes of `old` keep
//! their XID (§3.2 — identity persists across versions), unmatched nodes
//! draw fresh XIDs that are never reused.
//!
//! The algorithm follows the published sketch of Cobéna, Abiteboul & Marian
//! (the paper's \[7\], the diff behind Xyleme's version management):
//!
//! 1. **Exact subtree matching** — both trees are hashed bottom-up
//!    ([`txdb_xml::hash::SubtreeHashes`]); identical subtrees are matched
//!    greedily, heaviest first, preferring candidates whose parents are
//!    already matched (verified with `deep_eq`, so hash collisions cannot
//!    corrupt the result).
//! 2. **Upward propagation** — parents of matched nodes with equal element
//!    names are matched, repeatedly.
//! 3. **Child alignment** — for every matched element pair, the still
//!    unmatched children are aligned by an LCS over their *labels* (element
//!    name / text-ness), then leftovers are paired greedily by label. Newly
//!    aligned pairs are processed recursively. Aligned text nodes with
//!    different values become `UpdateText`; aligned elements recurse.
//! 4. **Script generation** — unmatched `old` subtrees with no matched
//!    node inside are deleted *first*, so the siblings they leave behind
//!    are already in place; then one top-down pass over `new` emits
//!    `Move`/`InsertSubtree`/`UpdateText`/`SetAttr` ops, keeping under each
//!    parent a longest increasing subsequence of its matched children where
//!    they are and moving only the rest; a closing pass deletes the
//!    unmatched subtrees that held matched content until it was moved out.
//!    Under one parent the script therefore has *(matched children that
//!    stay under it) − (LIS of their old order)* moves, plus one per child
//!    that arrives from another parent — a delta costs what changed, not
//!    what shifted. Every op is *replayed on a working copy while being
//!    recorded*, so positions and displaced timestamps are exactly what
//!    forward application will see — the generated script is correct by
//!    construction, not by convention.
//!
//! Per-node tables (subtree hashes and sizes, the matching) are vectors
//! indexed by arena slot, and matched pairs are visited by scanning them in
//! slot order — so the delta depends on the two trees alone, never on a
//! hasher's seed.

use std::collections::HashMap;

use txdb_base::{Error, Result, Timestamp, VersionId, Xid};
use txdb_xml::equality::deep_eq;
use txdb_xml::hash::SubtreeHashes;
use txdb_xml::tree::{NodeId, NodeKind, Tree};

use crate::ops::{Applier, Delta, EditOp};

/// Outcome of a diff: the delta plus matching statistics (used by the
/// diff experiments, E10).
#[derive(Debug)]
pub struct DiffResult {
    /// The completed delta (forward: old → new).
    pub delta: Delta,
    /// Nodes of `new` matched to nodes of `old` (identity preserved).
    pub nodes_matched: usize,
    /// Nodes of `new` that were inserted (fresh XIDs).
    pub nodes_inserted: usize,
    /// Nodes of `old` that were deleted.
    pub nodes_deleted: usize,
}

/// Diffs `old` against `new`.
///
/// Requirements: every node of `old` has a non-`NONE` XID. On return,
/// every node of `new` has an XID (preserved or fresh from `next_xid`) and
/// a direct timestamp consistent with forward application of the delta at
/// `to_ts`, i.e. `apply_forward(old.clone())` produces a forest identical
/// to `new` including XIDs and timestamps. Every op is replayed on a
/// working copy as it is recorded; if that copy does not come out equal to
/// `new`, the diff fails with [`Error::DeltaMismatch`] instead of
/// returning a delta that would corrupt the history.
pub fn diff_trees(
    old: &Tree,
    new: &mut Tree,
    next_xid: &mut Xid,
    from_version: VersionId,
    from_ts: Timestamp,
    to_ts: Timestamp,
) -> Result<DiffResult> {
    let matching = compute_matching(old, new);

    // Assign XIDs in document order: matched nodes keep identity, the rest
    // draw fresh ids.
    let mut inserted = 0usize;
    let new_ids: Vec<NodeId> = new.iter().collect();
    for n in new_ids {
        match matching.old_of(n) {
            Some(o) => {
                new.node_mut(n).xid = old.node(o).xid;
                new.node_mut(n).ts = old.node(o).ts;
            }
            None => {
                new.node_mut(n).xid = *next_xid;
                *next_xid = next_xid.next();
                new.node_mut(n).ts = to_ts;
                inserted += 1;
            }
        }
    }

    // Generate the script on a working copy.
    let mut work = old.clone();
    let mut work_map = work.xid_map();
    let mut gen = ScriptGen {
        new,
        matching: &matching,
        applier: Applier::new(&mut work, &mut work_map),
        ops: Vec::new(),
        to_ts,
    };
    let (gone, hollowed) = doomed_roots(old, &matching);
    gen.emit_deletes(&gone)?;
    gen.emit_structure()?;
    gen.emit_deletes(&hollowed)?;
    let ops = gen.ops;

    // The working copy is now exactly the post-state including displaced
    // timestamps (nodes touched by deletes/moves differ from the
    // pre-assignment above): check it against `new` and adopt its stamps.
    adopt_replayed_timestamps(&work, new)?;

    let nodes_deleted = old.len() + inserted - new.len();
    Ok(DiffResult {
        delta: Delta { from_version, to_version: from_version.next(), from_ts, to_ts, ops },
        nodes_matched: matching.matched,
        nodes_inserted: inserted,
        nodes_deleted,
    })
}

/// Walks the replayed working copy and `new` in lockstep pre-order and
/// copies each node's timestamp onto `new`. Any difference in shape, XID
/// or content means the recorded script does not produce `new`.
fn adopt_replayed_timestamps(work: &Tree, new: &mut Tree) -> Result<()> {
    let mismatch = |what: &str| Error::DeltaMismatch(format!("diff replay differs in {what}"));
    if work.roots().len() != new.roots().len() {
        return Err(mismatch("root count"));
    }
    let mut stack: Vec<(NodeId, NodeId)> =
        work.roots().iter().copied().zip(new.roots().iter().copied()).rev().collect();
    while let Some((w, n)) = stack.pop() {
        let (wn, nn) = (work.node(w), new.node(n));
        if wn.xid != nn.xid {
            return Err(mismatch("xid"));
        }
        if !same_kind(&wn.kind, &nn.kind) || wn.children().len() != nn.children().len() {
            return Err(mismatch(&format!("the content of {}", wn.xid)));
        }
        stack.extend(wn.children().iter().copied().zip(nn.children().iter().copied()).rev());
        new.node_mut(n).ts = wn.ts;
    }
    Ok(())
}

/// Node content equality with attributes compared as a set, as the
/// matching ([`deep_eq`]) and `update_values` see them: replaying an
/// attribute insert appends it, so the working copy may hold `new`'s
/// attributes in another order.
fn same_kind(a: &NodeKind, b: &NodeKind) -> bool {
    match (a, b) {
        (NodeKind::Text { value: va }, NodeKind::Text { value: vb }) => va == vb,
        (NodeKind::Element { name: na, attrs: aa }, NodeKind::Element { name: nb, attrs: ab }) => {
            na == nb
                && aa.len() == ab.len()
                && aa.iter().all(|(k, v)| ab.iter().any(|(k2, v2)| k2 == k && v2 == v))
        }
        _ => false,
    }
}

/// Structural identity including XIDs and timestamps, attributes compared
/// as a set — used to validate diff replay in tests.
pub fn forest_identical(a: &Tree, b: &Tree) -> bool {
    fn node_identical(ta: &Tree, na: NodeId, tb: &Tree, nb: NodeId) -> bool {
        let (x, y) = (ta.node(na), tb.node(nb));
        x.xid == y.xid
            && x.ts == y.ts
            && same_kind(&x.kind, &y.kind)
            && x.children().len() == y.children().len()
            && x.children()
                .iter()
                .zip(y.children())
                .all(|(&ca, &cb)| node_identical(ta, ca, tb, cb))
    }
    a.roots().len() == b.roots().len()
        && a.roots().iter().zip(b.roots()).all(|(&ra, &rb)| node_identical(a, ra, b, rb))
}

/// A [`Matching`] slot with no partner (or a free arena slot).
const UNMATCHED: u32 = u32::MAX;

/// The node pairing between `old` and `new`, as two vectors indexed by
/// arena slot ([`NodeId::index`]) holding the partner's slot, sized by
/// [`Tree::arena_len`] because recycled slots leave gaps above `len()`.
struct Matching {
    old_to_new: Vec<u32>,
    new_to_old: Vec<u32>,
    /// Number of matched pairs.
    matched: usize,
}

impl Matching {
    fn new(old: &Tree, new: &Tree) -> Matching {
        Matching {
            old_to_new: vec![UNMATCHED; old.arena_len()],
            new_to_old: vec![UNMATCHED; new.arena_len()],
            matched: 0,
        }
    }

    fn link(&mut self, o: NodeId, n: NodeId) {
        debug_assert!(!self.has_old(o) && !self.has_new(n), "double match");
        self.old_to_new[o.index()] = n.index() as u32;
        self.new_to_old[n.index()] = o.index() as u32;
        self.matched += 1;
    }

    #[inline]
    fn has_old(&self, o: NodeId) -> bool {
        self.old_to_new[o.index()] != UNMATCHED
    }

    #[inline]
    fn has_new(&self, n: NodeId) -> bool {
        self.new_to_old[n.index()] != UNMATCHED
    }

    #[inline]
    fn old_of(&self, n: NodeId) -> Option<NodeId> {
        let o = self.new_to_old[n.index()];
        (o != UNMATCHED).then(|| NodeId::from_index(o as usize))
    }

    /// The matched `(old, new)` pairs in `old` slot order: a scan, so the
    /// order is fixed by the trees alone and the same two trees always
    /// give the same delta.
    fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::with_capacity(self.matched);
        for (o, &n) in self.old_to_new.iter().enumerate() {
            if n != UNMATCHED {
                pairs.push((NodeId::from_index(o), NodeId::from_index(n as usize)));
            }
        }
        pairs
    }
}

fn compute_matching(old: &Tree, new: &Tree) -> Matching {
    let mut m = Matching::new(old, new);
    let h_old = SubtreeHashes::compute(old);
    let h_new = SubtreeHashes::compute(new);

    // Phase 1: exact subtree matching, heaviest first. Candidates for a
    // hash are a run of `by_hash`, sorted by hash and, within a hash, in
    // document order of `old` (the sort is stable).
    let mut by_hash: Vec<(u64, NodeId)> = old.iter().map(|o| (h_old.hash(o), o)).collect();
    by_hash.sort_by_key(|&(h, _)| h);
    let mut new_nodes: Vec<NodeId> = new.iter().collect();
    new_nodes.sort_by_key(|&n| std::cmp::Reverse(h_new.size(n)));
    for n in new_nodes {
        if m.has_new(n) {
            continue;
        }
        let h = h_new.hash(n);
        let first = by_hash.partition_point(|&(oh, _)| oh < h);
        let cands = by_hash[first..].iter().take_while(|&&(oh, _)| oh == h).map(|&(_, o)| o);
        // Prefer a candidate whose parent is matched to n's parent.
        let n_parent_old = new.node(n).parent().and_then(|p| m.old_of(p));
        let mut chosen = None;
        for o in cands {
            if m.has_old(o) || !deep_eq(old, o, new, n) {
                continue;
            }
            let same_context = match (old.node(o).parent(), n_parent_old) {
                (Some(op), Some(exp)) => op == exp,
                (None, None) => true,
                _ => false,
            };
            if same_context {
                chosen = Some(o);
                break;
            }
            if chosen.is_none() {
                chosen = Some(o);
            }
        }
        if let Some(o) = chosen {
            match_subtrees(old, o, new, n, &mut m);
        }
    }

    // Phase 2: upward propagation.
    for (mut o, mut n) in m.pairs() {
        #[allow(clippy::while_let_loop)]
        loop {
            let (Some(po), Some(pn)) = (old.node(o).parent(), new.node(n).parent()) else {
                break;
            };
            if m.has_old(po) || m.has_new(pn) {
                break;
            }
            let same_name = match (old.node(po).name(), new.node(pn).name()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if !same_name {
                break;
            }
            m.link(po, pn);
            o = po;
            n = pn;
        }
    }

    // Phase 3: recursive child alignment from matched pairs and the
    // forest root level.
    let mut queue: Vec<(Option<NodeId>, Option<NodeId>)> = vec![(None, None)];
    queue.extend(m.pairs().into_iter().map(|(o, n)| (Some(o), Some(n))));
    let mut qi = 0;
    while qi < queue.len() {
        let (o, n) = queue[qi];
        qi += 1;
        let old_children = match o {
            Some(o) => old.node(o).children(),
            None => old.roots(),
        };
        let new_children = match n {
            Some(n) => new.node(n).children(),
            None => new.roots(),
        };
        let old_un: Vec<NodeId> = old_children.iter().copied().filter(|&c| !m.has_old(c)).collect();
        let new_un: Vec<NodeId> = new_children.iter().copied().filter(|&c| !m.has_new(c)).collect();
        if old_un.is_empty() || new_un.is_empty() {
            continue;
        }
        let keys_old: Vec<Label> = old_un.iter().map(|&c| old.node(c).name()).collect();
        let keys_new: Vec<Label> = new_un.iter().map(|&c| new.node(c).name()).collect();
        let lcs_pairs = lcs(&keys_old, &keys_new);
        let mut used_old = vec![false; old_un.len()];
        let mut used_new = vec![false; new_un.len()];
        let mut newly: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, j) in lcs_pairs {
            newly.push((old_un[i], new_un[j]));
            used_old[i] = true;
            used_new[j] = true;
        }
        // Greedy pass for leftovers with equal labels, in order.
        let mut j_iter = 0usize;
        for i in 0..old_un.len() {
            if used_old[i] {
                continue;
            }
            while j_iter < new_un.len() {
                let j = j_iter;
                j_iter += 1;
                if used_new[j] {
                    continue;
                }
                if keys_old[i] == keys_new[j] {
                    newly.push((old_un[i], new_un[j]));
                    used_old[i] = true;
                    used_new[j] = true;
                    break;
                }
            }
        }
        for (oc, nc) in newly {
            m.link(oc, nc);
            queue.push((Some(oc), Some(nc)));
        }
    }
    m
}

/// Matches two structurally identical subtrees node-by-node (pre-order zip).
fn match_subtrees(old: &Tree, o: NodeId, new: &Tree, n: NodeId, m: &mut Matching) {
    for (a, b) in old.descendants(o).zip(new.descendants(n)) {
        if !m.has_old(a) && !m.has_new(b) {
            m.link(a, b);
        }
    }
}

/// Alignment label: the element name, `None` for a text node.
type Label<'t> = Option<&'t str>;

/// Longest common subsequence of two label sequences, returning index pairs.
fn lcs<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[at(i, j)] = if a[i] == b[j] {
                dp[at(i + 1, j + 1)] + 1
            } else {
                dp[at(i + 1, j)].max(dp[at(i, j + 1)])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if dp[at(i + 1, j)] >= dp[at(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Emits the edit script, replaying each op on the working copy so that
/// recorded positions and timestamps match forward application exactly.
struct ScriptGen<'a, 'w> {
    new: &'a Tree,
    matching: &'a Matching,
    applier: Applier<'w>,
    ops: Vec<EditOp>,
    to_ts: Timestamp,
}

impl ScriptGen<'_, '_> {
    fn emit(&mut self, op: EditOp) -> Result<()> {
        self.applier.apply(&op, self.to_ts)?;
        self.ops.push(op);
        Ok(())
    }

    /// Top-down walk over `new`: aligns every matched parent's child list
    /// with moves and inserts, and applies value updates on matched pairs.
    fn emit_structure(&mut self) -> Result<()> {
        // Virtual root first (forest level), then matched elements in
        // pre-order of `new`.
        self.align_children(None)?;
        let order: Vec<NodeId> = self.new.iter().collect();
        for n in order {
            if self.matching.has_new(n) {
                self.update_values(n)?;
                if self.new.node(n).is_element() {
                    self.align_children(Some(n))?;
                }
            } else if self.new.node(n).is_element() && self.was_single_insert(n) {
                self.align_children(Some(n))?;
            }
        }
        Ok(())
    }

    /// True when `n` was inserted as a single node (has matched or
    /// separately-inserted descendants handled by alignment).
    fn was_single_insert(&self, n: NodeId) -> bool {
        subtree_has_match(self.new, n, &self.matching.new_to_old)
    }

    /// Aligns the children of the new node `n` (or the forest roots when
    /// `None`) in the working copy.
    ///
    /// The desired children that already sit under this parent keep their
    /// place as far as possible: a longest increasing subsequence of their
    /// current positions stays put, only the others are moved, so the
    /// moves under one parent number *(matched children that stay under
    /// it) − (LIS of their old order)* plus the children that arrive from
    /// another parent. Nodes the parent still holds but will lose — to a
    /// parent aligned later, or to the closing deletes — are stepped over;
    /// wherever they sit, the list equals `desired` once they are gone.
    fn align_children(&mut self, n: Option<NodeId>) -> Result<()> {
        let new = self.new;
        let (parent_xid, desired) = match n {
            Some(id) => (new.node(id).xid, new.node(id).children()),
            None => (Xid::NONE, new.roots()),
        };
        let parent = if n.is_some() { Some(self.applier.lookup(parent_xid)?) } else { None };
        let wt = self.applier.tree();
        let current = work_children(wt, parent);
        if current.len() == desired.len()
            && current.iter().zip(desired).all(|(&w, &c)| wt.node(w).xid == new.node(c).xid)
        {
            return Ok(());
        }
        let index_now: HashMap<Xid, usize> =
            current.iter().enumerate().map(|(i, &w)| (wt.node(w).xid, i)).collect();
        let stays_at: Vec<Option<usize>> =
            desired.iter().map(|&c| index_now.get(&new.node(c).xid).copied()).collect();
        let keep = longest_increasing(&stays_at);

        // `pos` is where the next desired child belongs: one past the
        // desired child placed last. Kept children not yet reached are
        // all at `pos` or beyond.
        let mut pos = 0usize;
        for (i, &c) in desired.iter().enumerate() {
            let cx = new.node(c).xid;
            let wt = self.applier.tree();
            if keep[i] {
                let ahead = work_children(wt, parent)[pos..]
                    .iter()
                    .position(|&w| wt.node(w).xid == cx)
                    .ok_or_else(|| Error::DeltaMismatch(format!("kept child {cx} not ahead")))?;
                pos += ahead + 1;
            } else if self.matching.has_new(c) {
                let w = self.applier.lookup(cx)?;
                let (old_parent, old_parent_ts) = match wt.node(w).parent() {
                    Some(p) => (wt.node(p).xid, wt.node(p).ts),
                    None => (Xid::NONE, Timestamp::ZERO),
                };
                let old_pos = wt.position(w);
                // Detaching a sibling that sits before `pos` shifts the slot.
                let new_pos = if stays_at[i].is_some() && old_pos < pos { pos - 1 } else { pos };
                let old_ts = wt.node(w).ts;
                self.emit(EditOp::Move {
                    xid: cx,
                    old_parent,
                    old_pos,
                    new_parent: parent_xid,
                    new_pos,
                    old_ts,
                    old_parent_ts,
                })?;
                pos = new_pos + 1;
            } else {
                let subtree = if subtree_has_match(new, c, &self.matching.new_to_old) {
                    // Insert just this node; its children are placed by
                    // later alignment of `c` itself.
                    let mut single = Tree::new();
                    let root = match &new.node(c).kind {
                        NodeKind::Element { name, attrs } => {
                            let e = single.new_element(name.clone());
                            for (k, v) in attrs {
                                single.set_attr(e, k.clone(), v.clone());
                            }
                            e
                        }
                        NodeKind::Text { value } => single.new_text(value.clone()),
                    };
                    single.node_mut(root).xid = cx;
                    single.node_mut(root).ts = self.to_ts;
                    single.push_root(root);
                    single
                } else {
                    new.extract_subtree(c)
                };
                self.emit(EditOp::InsertSubtree { parent: parent_xid, pos, subtree })?;
                pos += 1;
            }
        }
        Ok(())
    }

    /// Emits text/attribute updates for the matched new node `n`.
    fn update_values(&mut self, n: NodeId) -> Result<()> {
        let xid = self.new.node(n).xid;
        let w = self.applier.lookup(xid)?;
        let (old_kind, old_ts) = {
            let old = self.applier.tree().node(w);
            if old.kind == self.new.node(n).kind {
                return Ok(());
            }
            (old.kind.clone(), old.ts)
        };
        match (&old_kind, &self.new.node(n).kind) {
            (NodeKind::Text { value: ov }, NodeKind::Text { value: nv }) => {
                if ov != nv {
                    self.emit(EditOp::UpdateText {
                        xid,
                        old: ov.clone(),
                        new: nv.clone(),
                        old_ts,
                    })?;
                }
            }
            (NodeKind::Element { attrs: oa, .. }, NodeKind::Element { attrs: na, .. }) => {
                // Removed or changed attributes.
                let mut ops: Vec<EditOp> = Vec::new();
                for (k, ov) in oa {
                    match na.iter().find(|(nk, _)| nk == k) {
                        None => ops.push(EditOp::SetAttr {
                            xid,
                            key: k.clone(),
                            old: Some(ov.clone()),
                            new: None,
                            old_ts,
                        }),
                        Some((_, nv)) if nv != ov => ops.push(EditOp::SetAttr {
                            xid,
                            key: k.clone(),
                            old: Some(ov.clone()),
                            new: Some(nv.clone()),
                            old_ts,
                        }),
                        _ => {}
                    }
                }
                for (k, nv) in na {
                    if !oa.iter().any(|(ok, _)| ok == k) {
                        ops.push(EditOp::SetAttr {
                            xid,
                            key: k.clone(),
                            old: None,
                            new: Some(nv.clone()),
                            old_ts,
                        });
                    }
                }
                // Chained attr ops on the same node: later ops displace the
                // already-stamped ts; record the current ts at emit time.
                for (idx, mut op) in ops.into_iter().enumerate() {
                    if idx > 0 {
                        if let EditOp::SetAttr { old_ts: ts_slot, .. } = &mut op {
                            *ts_slot = self.to_ts;
                        }
                    }
                    self.emit(op)?;
                }
            }
            _ => unreachable!("matching never pairs text with element"),
        }
        Ok(())
    }

    /// Deletes the subtrees rooted at `roots` from the working copy.
    fn emit_deletes(&mut self, roots: &[Xid]) -> Result<()> {
        for &xid in roots {
            let id = self.applier.lookup(xid)?;
            let wt = self.applier.tree();
            let (parent, old_parent_ts) = match wt.node(id).parent() {
                Some(p) => (wt.node(p).xid, wt.node(p).ts),
                None => (Xid::NONE, Timestamp::ZERO),
            };
            let (pos, subtree) = (wt.position(id), wt.extract_subtree(id));
            self.emit(EditOp::DeleteSubtree { parent, pos, subtree, old_parent_ts })?;
        }
        Ok(())
    }
}

/// The child list of `parent` in `tree`, or its roots.
fn work_children(tree: &Tree, parent: Option<NodeId>) -> &[NodeId] {
    match parent {
        Some(p) => tree.node(p).children(),
        None => tree.roots(),
    }
}

/// The XIDs of the topmost old nodes that do not survive — unmatched, under
/// a matched parent or at root level — in document order, split in two:
/// subtrees with no matched node inside, which are deleted *before*
/// alignment so that the siblings they leave behind need no move, and
/// subtrees that still hold matched descendants, which can only go once
/// alignment has moved those out.
fn doomed_roots(old: &Tree, m: &Matching) -> (Vec<Xid>, Vec<Xid>) {
    let (mut gone, mut hollowed) = (Vec::new(), Vec::new());
    for o in old.iter() {
        let topmost = !m.has_old(o) && old.node(o).parent().is_none_or(|p| m.has_old(p));
        if topmost {
            let list =
                if subtree_has_match(old, o, &m.old_to_new) { &mut hollowed } else { &mut gone };
            list.push(old.node(o).xid);
        }
    }
    (gone, hollowed)
}

/// Marks one longest strictly increasing subsequence of the `Some` values
/// of `seq` (patience sorting, O(n log n)); `None` entries are never marked.
fn longest_increasing(seq: &[Option<usize>]) -> Vec<bool> {
    // tails[k]: index into `seq` of the smallest value ending an
    // increasing run of length k + 1; prev[i]: the element before `i` in
    // the run that ends at `i`.
    let mut tails: Vec<usize> = Vec::new();
    let mut prev: Vec<Option<usize>> = vec![None; seq.len()];
    for (i, v) in seq.iter().enumerate() {
        let Some(v) = *v else { continue };
        let k = tails.partition_point(|&t| seq[t] < Some(v));
        prev[i] = k.checked_sub(1).map(|k| tails[k]);
        if k == tails.len() {
            tails.push(i);
        } else {
            tails[k] = i;
        }
    }
    let mut keep = vec![false; seq.len()];
    let mut cur = tails.last().copied();
    while let Some(i) = cur {
        keep[i] = true;
        cur = prev[i];
    }
    keep
}

/// True when any node of the subtree rooted at `n` (excluding `n` itself)
/// is matched.
/// `matched` is one side of a [`Matching`], indexed by `tree`'s slots.
fn subtree_has_match(tree: &Tree, n: NodeId, matched: &[u32]) -> bool {
    tree.descendants(n).skip(1).any(|d| matched[d.index()] != UNMATCHED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::parse::parse_document;
    use txdb_xml::serialize::to_string;

    /// Sets up an old tree with XIDs 1..n and ts=100.
    fn old_tree(src: &str) -> (Tree, Xid) {
        let mut t = parse_document(src).unwrap();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(i as u64 + 1);
            t.node_mut(*id).ts = Timestamp::from_micros(100);
        }
        let next = Xid(ids.len() as u64 + 1);
        (t, next)
    }

    /// Runs the diff and verifies forward/backward replay.
    fn check(old_src: &str, new_src: &str) -> (DiffResult, Tree, Tree) {
        let (old, mut next) = old_tree(old_src);
        let mut new = parse_document(new_src).unwrap();
        let res = diff_trees(
            &old,
            &mut new,
            &mut next,
            VersionId(0),
            Timestamp::from_micros(100),
            Timestamp::from_micros(200),
        )
        .unwrap();
        // Forward replay reproduces `new` exactly (structure + identity).
        let mut fwd = old.clone();
        res.delta.apply_forward(&mut fwd).unwrap();
        assert!(forest_identical(&fwd, &new), "forward replay mismatch");
        // Backward replay restores `old` exactly.
        let mut bwd = fwd.clone();
        res.delta.apply_backward(&mut bwd).unwrap();
        assert!(forest_identical(&bwd, &old), "backward replay mismatch");
        (res, old, new)
    }

    #[test]
    fn identical_trees_empty_delta() {
        let (res, ..) = check("<a><b>x</b></a>", "<a><b>x</b></a>");
        assert!(res.delta.is_empty());
        assert_eq!(res.nodes_inserted, 0);
        assert_eq!(res.nodes_deleted, 0);
    }

    #[test]
    fn text_update_small_delta() {
        let (res, _, new) = check(
            "<r><name>Napoli</name><price>15</price></r>",
            "<r><name>Napoli</name><price>18</price></r>",
        );
        assert_eq!(res.delta.ops.len(), 1);
        assert!(matches!(res.delta.ops[0], EditOp::UpdateText { .. }));
        // All nodes keep identity.
        assert_eq!(res.nodes_inserted, 0);
        // price element keeps its xid but its text child got new ts.
        let price_text = new.iter().find(|&n| new.node(n).text() == Some("18")).unwrap();
        assert_eq!(new.node(price_text).ts, Timestamp::from_micros(200));
        assert_eq!(new.node(price_text).xid, Xid(5));
    }

    #[test]
    fn insert_new_sibling() {
        let (res, _, new) = check(
            "<guide><restaurant><name>Napoli</name></restaurant></guide>",
            "<guide><restaurant><name>Napoli</name></restaurant>\
             <restaurant><name>Akropolis</name></restaurant></guide>",
        );
        assert_eq!(res.delta.ops.len(), 1);
        assert!(matches!(res.delta.ops[0], EditOp::InsertSubtree { pos: 1, .. }));
        assert_eq!(res.nodes_inserted, 3);
        // Fresh xids beyond the old range.
        let max_xid = new.iter().map(|n| new.node(n).xid.0).max().unwrap();
        assert!(max_xid >= 7);
    }

    #[test]
    fn delete_subtree() {
        let (res, ..) = check("<g><r><n>A</n></r><r><n>B</n></r></g>", "<g><r><n>A</n></r></g>");
        assert_eq!(res.delta.ops.len(), 1);
        assert!(matches!(res.delta.ops[0], EditOp::DeleteSubtree { .. }));
        assert_eq!(res.nodes_deleted, 3);
    }

    #[test]
    fn attribute_changes() {
        let (res, ..) =
            check(r#"<r category="italian" stars="2"/>"#, r#"<r category="greek" rating="5"/>"#);
        // change category, remove stars, add rating
        assert_eq!(res.delta.ops.len(), 3);
        assert!(res.delta.ops.iter().all(|o| matches!(o, EditOp::SetAttr { .. })));
    }

    #[test]
    fn move_detected_for_identical_subtree() {
        let (res, _, new) = check(
            "<g><a><big><x>1</x><y>2</y><z>3</z></big></a><b/></g>",
            "<g><a/><b><big><x>1</x><y>2</y><z>3</z></big></b></g>",
        );
        // The heavy identical subtree must be moved, not delete+insert.
        assert!(
            res.delta.ops.iter().any(|o| matches!(o, EditOp::Move { .. })),
            "expected a move, got {:?}",
            res.delta.ops
        );
        assert_eq!(res.nodes_inserted, 0);
        assert_eq!(res.nodes_deleted, 0);
        // `big` keeps its xid.
        let big = new.iter().find(|&n| new.node(n).name() == Some("big")).unwrap();
        assert_eq!(new.node(big).xid, Xid(3));
    }

    #[test]
    fn reorder_children() {
        let (res, ..) = check("<l><i>1</i><i>2</i><i>3</i></l>", "<l><i>3</i><i>1</i><i>2</i></l>");
        // One move suffices (3 to front); LCS keeps 1,2 in place.
        let moves = res.delta.ops.iter().filter(|o| matches!(o, EditOp::Move { .. })).count();
        assert_eq!(moves, 1, "ops: {:?}", res.delta.ops);
        assert_eq!(res.nodes_inserted, 0);
    }

    fn moves(res: &DiffResult) -> usize {
        res.delta.ops.iter().filter(|o| matches!(o, EditOp::Move { .. })).count()
    }

    /// `<l><i>a</i><i>b</i>…</l>` with one `<i>` per listed value.
    fn list(values: impl IntoIterator<Item = usize>) -> String {
        let items: String = values.into_iter().map(|v| format!("<i>{v}</i>")).collect();
        format!("<l>{items}</l>")
    }

    #[test]
    fn deleting_one_sibling_is_one_op_and_no_move() {
        // The siblings a delete leaves behind keep their place: the delta
        // is the delete alone, wherever in the list it falls.
        for k in [0, 1, 74, 148, 149] {
            let (res, ..) = check(&list(0..150), &list((0..150).filter(|&v| v != k)));
            assert_eq!(res.delta.ops.len(), 1, "k={k}: {:?}", res.delta.ops);
            assert!(
                matches!(&res.delta.ops[0], EditOp::DeleteSubtree { pos, .. } if *pos == k),
                "k={k}: {:?}",
                res.delta.ops
            );
        }
    }

    #[test]
    fn rotation_is_one_move() {
        let (res, ..) = check(&list([1, 2, 3, 4]), &list([2, 3, 4, 1]));
        assert_eq!(res.delta.ops.len(), 1, "{:?}", res.delta.ops);
        assert!(
            matches!(res.delta.ops[0], EditOp::Move { old_pos: 0, new_pos: 3, .. }),
            "{:?}",
            res.delta.ops
        );
    }

    #[test]
    fn delete_insert_and_swap_move_only_the_swapped() {
        // 3 deleted, <n> inserted after 1, 5 and 6 swapped: one op each.
        let new = list([0, 1, 99, 2, 4, 6, 5, 7]).replace("<i>99</i>", "<n>9</n>");
        let (res, ..) = check(&list(0..8), &new);
        assert_eq!(moves(&res), 1, "{:?}", res.delta.ops);
        assert_eq!(res.delta.ops.len(), 3, "{:?}", res.delta.ops);
    }

    #[test]
    fn removed_wrapper_is_deleted_after_its_content_moved_out() {
        // <wrap> is unmatched but holds matched content and a doomed <junk>:
        // a and b move up, then wrap goes in one delete with junk inside.
        let (res, _, new) = check(
            "<g><c>0</c><wrap><a>1</a><junk>x</junk><b>2</b></wrap><d>3</d></g>",
            "<g><c>0</c><a>1</a><b>2</b><d>3</d></g>",
        );
        assert_eq!(moves(&res), 2, "{:?}", res.delta.ops);
        let deletes: Vec<_> =
            res.delta.ops.iter().filter(|o| matches!(o, EditOp::DeleteSubtree { .. })).collect();
        assert_eq!(deletes.len(), 1, "{:?}", res.delta.ops);
        assert!(matches!(res.delta.ops.last(), Some(EditOp::DeleteSubtree { .. })));
        assert_eq!(res.nodes_deleted, 3, "wrap, junk and its text");
        let a = new.iter().find(|&n| new.node(n).name() == Some("a")).unwrap();
        assert_eq!(new.node(a).xid, Xid(5), "a keeps identity");
    }

    #[test]
    fn ancestor_and_descendant_matched_crosswise() {
        // x and y pull their parents into a crosswise match: the inner old
        // <a> becomes the outer new one. Top-down placement moves the inner
        // one out before the outer one moves under it.
        let (res, ..) = check("<a><a><x/></a><y/></a>", "<a><a><y/></a><x/></a>");
        assert_eq!(res.nodes_inserted, 0, "{:?}", res.delta.ops);
        assert_eq!(res.nodes_deleted, 0, "{:?}", res.delta.ops);
    }

    #[test]
    fn same_trees_give_the_same_ops() {
        // Many equal-weight candidates and crossing parent chains: the
        // matching must not depend on hash-map iteration order.
        let old = "<r><a><x/><p>1</p></a><a><y/><p>2</p></a><a><z/><p>3</p></a></r>";
        let new = "<r><a><y/><p>3</p></a><a><z/><p>1</p></a><a><x/><p>2</p></a></r>";
        let first = format!("{:?}", check(old, new).0.delta.ops);
        for _ in 0..16 {
            assert_eq!(format!("{:?}", check(old, new).0.delta.ops), first);
        }
    }

    /// Removes the first `<x>` subtree and appends `<n>text</n>` under the
    /// root: the new nodes reuse the freed arena slots, so slot order is no
    /// longer document order and `arena_len()` exceeds `len()`.
    fn recycle(t: &mut Tree, text: &str) {
        let root = t.root().unwrap();
        let x = t.iter().find(|&n| t.node(n).name() == Some("x")).unwrap();
        t.remove_subtree(x);
        let n = t.new_element("n");
        let v = t.new_text(text);
        t.append_child(n, v);
        t.insert_child(root, 0, n);
    }

    #[test]
    fn recycled_arena_slots_round_trip() {
        let src = "<g><x><y>1</y><y>2</y><y>3</y></x><a>keep</a><b>old</b></g>";
        let mut old = parse_document(src).unwrap();
        recycle(&mut old, "first");
        let ids: Vec<NodeId> = old.iter().collect();
        for (i, &id) in ids.iter().enumerate() {
            old.node_mut(id).xid = Xid(i as u64 + 1);
            old.node_mut(id).ts = Timestamp::from_micros(100);
        }
        let mut new = parse_document(src.replace("old", "new").as_str()).unwrap();
        recycle(&mut new, "second");
        assert!(old.arena_len() > old.len() && new.arena_len() > new.len());
        let mut next = Xid(ids.len() as u64 + 1);
        let res = diff_trees(
            &old,
            &mut new,
            &mut next,
            VersionId(0),
            Timestamp::from_micros(100),
            Timestamp::from_micros(200),
        )
        .unwrap();
        assert_eq!(res.nodes_inserted, 0, "{:?}", res.delta.ops);
        assert_eq!(res.delta.ops.len(), 2, "two text updates: {:?}", res.delta.ops);
        let mut fwd = old.clone();
        res.delta.apply_forward(&mut fwd).unwrap();
        assert!(forest_identical(&fwd, &new), "forward replay mismatch");
        res.delta.apply_backward(&mut fwd).unwrap();
        assert!(forest_identical(&fwd, &old), "backward replay mismatch");
    }

    #[test]
    fn replay_check_rejects_a_different_tree() {
        let (old, _) = old_tree("<g><a>1</a></g>");
        let mut other = old.clone();
        assert!(adopt_replayed_timestamps(&old, &mut other).is_ok());
        let a = other.iter().find(|&n| other.node(n).text() == Some("1")).unwrap();
        other.set_text(a, "2");
        assert!(matches!(
            adopt_replayed_timestamps(&old, &mut other),
            Err(Error::DeltaMismatch(_))
        ));
        other.node_mut(a).xid = Xid(99);
        assert!(matches!(
            adopt_replayed_timestamps(&old, &mut other),
            Err(Error::DeltaMismatch(_))
        ));
    }

    #[test]
    fn attribute_order_does_not_fail_the_replay_check() {
        // Replay appends the new attribute, so the working copy holds
        // [a, c, b] against `new`'s [a, b, c].
        let (res, ..) = check(r#"<r a="1" c="3"><x/></r>"#, r#"<r a="1" b="2" c="3"><x/></r>"#);
        assert_eq!(res.delta.ops.len(), 1, "{:?}", res.delta.ops);
        assert!(matches!(res.delta.ops[0], EditOp::SetAttr { .. }));
        // A pure reorder is no change at all.
        let (res, ..) = check(r#"<r a="1" b="2"><x/></r>"#, r#"<r b="2" a="1"><x/></r>"#);
        assert!(res.delta.is_empty(), "{:?}", res.delta.ops);
        let (res, ..) = check(r#"<r a="1" b="2"/>"#, r#"<r c="3" b="2" a="9"/>"#);
        assert_eq!(res.nodes_inserted, 0);
    }

    #[test]
    fn longest_increasing_marks_a_maximal_run() {
        let seq = [Some(3), None, Some(0), Some(1), Some(5), Some(2), None, Some(4)];
        let keep = longest_increasing(&seq);
        let kept: Vec<usize> =
            seq.iter().zip(&keep).filter(|(_, &k)| k).map(|(v, _)| v.unwrap()).collect();
        assert_eq!(kept, vec![0, 1, 2, 4]);
        assert!(longest_increasing(&[]).is_empty());
        assert_eq!(longest_increasing(&[None, None]), vec![false, false]);
    }

    #[test]
    fn rename_is_delete_plus_insert() {
        let (res, ..) = check("<g><old>x</old></g>", "<g><new>x</new></g>");
        assert!(res.delta.ops.iter().any(|o| matches!(o, EditOp::InsertSubtree { .. })));
        assert!(res.delta.ops.iter().any(|o| matches!(o, EditOp::DeleteSubtree { .. })));
    }

    #[test]
    fn insert_wrapper_around_matched_content() {
        // New element wraps existing (matched) children: single-node insert
        // + moves.
        let (res, _, new) =
            check("<g><a>1</a><b>2</b></g>", "<g><wrap><a>1</a><b>2</b></wrap></g>");
        assert_eq!(res.nodes_inserted, 1, "only <wrap> is new: {:?}", res.delta.ops);
        let a = new.iter().find(|&n| new.node(n).name() == Some("a")).unwrap();
        assert_eq!(new.node(a).xid, Xid(2), "a keeps identity");
    }

    #[test]
    fn from_empty_tree_inserts_everything() {
        let old = Tree::new();
        let mut next = Xid::FIRST;
        let mut new = parse_document("<a><b>x</b></a>").unwrap();
        let res = diff_trees(
            &old,
            &mut new,
            &mut next,
            VersionId(0),
            Timestamp::ZERO,
            Timestamp::from_micros(10),
        )
        .unwrap();
        assert_eq!(res.nodes_inserted, 3);
        let mut fwd = Tree::new();
        res.delta.apply_forward(&mut fwd).unwrap();
        assert!(forest_identical(&fwd, &new));
        assert_eq!(to_string(&fwd), "<a><b>x</b></a>");
    }

    #[test]
    fn restaurant_guide_sequence() {
        // Figure 1's version sequence as one chained test.
        let v0 = "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>";
        let v1 = "<guide><restaurant><name>Napoli</name><price>15</price></restaurant>\
                  <restaurant><name>Akropolis</name><price>13</price></restaurant></guide>";
        let v2 = "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>";
        let (d01, ..) = check(v0, v1);
        assert_eq!(d01.delta.ops.len(), 1);
        let (d12, ..) = check(v1, v2);
        // delete Akropolis + update price
        assert_eq!(d12.delta.ops.len(), 2, "{:?}", d12.delta.ops);
    }

    #[test]
    fn xids_never_reused_after_delete_and_reinsert() {
        // §7.4: deleted and reintroduced content gets a NEW xid.
        let v0 = "<g><r><n>Napoli</n></r></g>";
        let v1 = "<g/>";
        let v2 = "<g><r><n>Napoli</n></r></g>";
        let (old, mut next) = old_tree(v0);
        let mut t1 = parse_document(v1).unwrap();
        let d1 = diff_trees(
            &old,
            &mut t1,
            &mut next,
            VersionId(0),
            Timestamp::from_micros(100),
            Timestamp::from_micros(200),
        )
        .unwrap();
        assert_eq!(d1.nodes_deleted, 3);
        let mut t2 = parse_document(v2).unwrap();
        let _d2 = diff_trees(
            &t1,
            &mut t2,
            &mut next,
            VersionId(1),
            Timestamp::from_micros(200),
            Timestamp::from_micros(300),
        )
        .unwrap();
        let r = t2.iter().find(|&n| t2.node(n).name() == Some("r")).unwrap();
        assert!(t2.node(r).xid.0 > 4, "reintroduced element has fresh xid");
    }

    #[test]
    fn timestamps_after_delete_stamp_parent() {
        let (res, _, new) = check("<g><a/><b/></g>", "<g><a/></g>");
        let _ = res;
        let g = new.root().unwrap();
        // Parent g was stamped by the delete.
        assert_eq!(new.node(g).ts, Timestamp::from_micros(200));
        assert_eq!(new.effective_ts(g), Timestamp::from_micros(200));
    }

    #[test]
    fn deep_random_like_workload() {
        // A broader structural shuffle to exercise all op kinds at once.
        let (res, ..) = check(
            r#"<db><t a="1"><u>one</u><v>two</v></t><t a="2"><u>three</u></t><junk/></db>"#,
            r#"<db><t a="2"><u>three</u><w>new</w></t><t a="9"><u>one!</u><v>two</v></t></db>"#,
        );
        assert!(!res.delta.ops.is_empty());
    }

    #[test]
    fn lcs_basic() {
        let a = ["a", "b", "c", "d"];
        let b = ["b", "d", "e"];
        let pairs = lcs(&a, &b);
        assert_eq!(pairs, vec![(1, 0), (3, 1)]);
        assert!(lcs::<&str>(&[], &b).is_empty());
    }
}
