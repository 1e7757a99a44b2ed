//! Arena-based XML trees with persistent element identity and timestamps.
//!
//! One [`Tree`] represents one *version* of one document, viewed — as the
//! paper's §4 prescribes — as a forest of trees (usually a single root).
//! Every node carries
//!
//! * an [`Xid`]: the persistent element identifier (§3.2) assigned by the
//!   database when the node first appears and preserved across versions by
//!   the diff; `Xid::NONE` on freshly parsed/built trees that have not yet
//!   been registered, and
//! * a [`Timestamp`]: "the time of update of the element or one of its
//!   children" (§4) — updating a node touches the timestamps of all its
//!   ancestors, implemented eagerly by [`Tree::touch`].
//!
//! Nodes live in a `Vec` arena addressed by [`NodeId`]; structural edits
//! recycle slots through a free list, so `NodeId`s are only meaningful
//! within one tree and must not be stored across versions (that is what
//! XIDs are for).

use std::collections::HashMap;

use txdb_base::{Timestamp, Xid};

/// Index of a node within one [`Tree`]'s arena.
///
/// Valid only for the tree that produced it; cross-version references must
/// use [`Xid`]s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's arena slot: dense in `0..tree.arena_len()`, so per-node
    /// side tables can be plain vectors indexed by it.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of arena slot `i` — the inverse of [`NodeId::index`]. Only
    /// meaningful for a slot that holds a live node of the tree at hand.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

/// What a node is: an element with a tag name and attributes, or a text
/// node. Attributes are stored on the element, ordered as written.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An element node like `<restaurant category="italian">`.
    Element {
        /// Tag name (qualified names are kept verbatim).
        name: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
    },
    /// A text node.
    Text {
        /// The character data (already entity-decoded).
        value: String,
    },
}

impl NodeKind {
    /// The tag name for elements, `None` for text nodes.
    pub fn name(&self) -> Option<&str> {
        match self {
            NodeKind::Element { name, .. } => Some(name),
            NodeKind::Text { .. } => None,
        }
    }

    /// The character data for text nodes, `None` for elements.
    pub fn text(&self) -> Option<&str> {
        match self {
            NodeKind::Text { value } => Some(value),
            NodeKind::Element { .. } => None,
        }
    }
}

/// One node of a document version.
#[derive(Clone, Debug)]
pub struct Node {
    /// Persistent element identity (§3.2); `Xid::NONE` until assigned.
    pub xid: Xid,
    /// Time of last update of this node or any descendant (§4).
    pub ts: Timestamp,
    /// Element or text payload.
    pub kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

impl Node {
    /// The node's parent, `None` for roots.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children in document order.
    #[inline]
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Convenience: the element name, or `None` for text nodes.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.kind.name()
    }

    /// Convenience: the text value, or `None` for elements.
    #[inline]
    pub fn text(&self) -> Option<&str> {
        self.kind.text()
    }

    /// Looks up an attribute value on an element node.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { attrs, .. } => {
                attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
            }
            NodeKind::Text { .. } => None,
        }
    }

    /// True for element nodes.
    #[inline]
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }
}

/// One version of one document: a forest of trees in an arena.
#[derive(Clone, Debug, Default)]
pub struct Tree {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
    free: Vec<NodeId>,
    live: usize,
}

impl Tree {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Tree::default()
    }

    /// The roots of the forest, in document order.
    #[inline]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The single root, if the forest has exactly one tree.
    pub fn root(&self) -> Option<NodeId> {
        match self.roots.as_slice() {
            [r] => Some(*r),
            _ => None,
        }
    }

    /// Number of live nodes in the forest.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of arena slots, live or free: every [`NodeId`] of this tree
    /// has `index() < arena_len()`. Larger than [`Tree::len`] once
    /// structural edits have recycled slots through the free list.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the forest has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Borrows a node.
    ///
    /// # Panics
    /// Panics if `id` was detached and recycled; `NodeId`s must not be kept
    /// across structural edits.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutably borrows a node (see [`Tree::node`] for validity rules).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = node;
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(node);
            id
        }
    }

    /// Creates a detached element node.
    pub fn new_element(&mut self, name: impl Into<String>) -> NodeId {
        self.alloc(Node {
            xid: Xid::NONE,
            ts: Timestamp::ZERO,
            kind: NodeKind::Element { name: name.into(), attrs: Vec::new() },
            parent: None,
            children: Vec::new(),
        })
    }

    /// Creates a detached text node.
    pub fn new_text(&mut self, value: impl Into<String>) -> NodeId {
        self.alloc(Node {
            xid: Xid::NONE,
            ts: Timestamp::ZERO,
            kind: NodeKind::Text { value: value.into() },
            parent: None,
            children: Vec::new(),
        })
    }

    /// Appends a detached node as the last root of the forest.
    pub fn push_root(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id.index()].parent.is_none());
        self.roots.push(id);
    }

    /// Inserts a detached node as root at position `pos`.
    pub fn insert_root(&mut self, pos: usize, id: NodeId) {
        debug_assert!(self.nodes[id.index()].parent.is_none());
        self.roots.insert(pos.min(self.roots.len()), id);
    }

    /// Appends `child` (detached) as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.nodes[child.index()].parent.is_none());
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(child);
    }

    /// Inserts `child` (detached) at position `pos` among `parent`'s
    /// children (clamped to the end).
    pub fn insert_child(&mut self, parent: NodeId, pos: usize, child: NodeId) {
        debug_assert!(self.nodes[child.index()].parent.is_none());
        self.nodes[child.index()].parent = Some(parent);
        let cs = &mut self.nodes[parent.index()].children;
        let pos = pos.min(cs.len());
        cs.insert(pos, child);
    }

    /// Detaches `id` from its parent (or from the root list), leaving its
    /// subtree intact but unrooted. Returns the position it occupied.
    pub fn detach(&mut self, id: NodeId) -> usize {
        match self.nodes[id.index()].parent.take() {
            Some(p) => {
                let cs = &mut self.nodes[p.index()].children;
                let pos = cs.iter().position(|&c| c == id).expect("child in parent");
                cs.remove(pos);
                pos
            }
            None => {
                let pos = self.roots.iter().position(|&r| r == id).expect("root in forest");
                self.roots.remove(pos);
                pos
            }
        }
    }

    /// Detaches and frees the whole subtree rooted at `id`.
    pub fn remove_subtree(&mut self, id: NodeId) {
        self.detach(id);
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            stack.extend_from_slice(&self.nodes[n.index()].children);
            self.nodes[n.index()].children.clear();
            self.nodes[n.index()].parent = None;
            self.nodes[n.index()].kind = NodeKind::Text { value: String::new() };
            self.nodes[n.index()].xid = Xid::NONE;
            self.free.push(n);
            self.live -= 1;
        }
    }

    /// The position of `id` among its siblings (or among the roots).
    pub fn position(&self, id: NodeId) -> usize {
        match self.nodes[id.index()].parent {
            Some(p) => self.nodes[p.index()]
                .children
                .iter()
                .position(|&c| c == id)
                .expect("child in parent"),
            None => self.roots.iter().position(|&r| r == id).expect("root in forest"),
        }
    }

    /// Sets the string value of a text node.
    ///
    /// # Panics
    /// Panics if `id` is an element.
    pub fn set_text(&mut self, id: NodeId, value: impl Into<String>) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text { value: v } => *v = value.into(),
            NodeKind::Element { .. } => panic!("set_text on element node"),
        }
    }

    /// Sets (inserts or replaces) an attribute on an element node.
    ///
    /// # Panics
    /// Panics if `id` is a text node.
    pub fn set_attr(&mut self, id: NodeId, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { attrs, .. } => {
                if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    attrs.push((key, value));
                }
            }
            NodeKind::Text { .. } => panic!("set_attr on text node"),
        }
    }

    /// Puts an element's attributes in name order (a no-op on text nodes).
    pub fn sort_attrs(&mut self, id: NodeId) {
        if let NodeKind::Element { attrs, .. } = &mut self.nodes[id.index()].kind {
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }

    /// Removes an attribute; returns the old value if present.
    pub fn remove_attr(&mut self, id: NodeId, key: &str) -> Option<String> {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { attrs, .. } => {
                attrs.iter().position(|(k, _)| k == key).map(|i| attrs.remove(i).1)
            }
            NodeKind::Text { .. } => None,
        }
    }

    /// Updates the timestamp of `id` and of every ancestor up to its root —
    /// the §4 rule "every update of an element also implies update of the
    /// element it is contained in".
    pub fn touch(&mut self, id: NodeId, ts: Timestamp) {
        let mut cur = Some(id);
        while let Some(n) = cur {
            let node = &mut self.nodes[n.index()];
            if node.ts >= ts {
                break; // ancestors are at least as new already
            }
            node.ts = ts;
            cur = node.parent;
        }
    }

    /// Sets the timestamp of every node in the forest (used when storing a
    /// brand-new document: all elements are created at insertion time).
    pub fn stamp_all(&mut self, ts: Timestamp) {
        let ids: Vec<NodeId> = self.iter().collect();
        for id in ids {
            self.nodes[id.index()].ts = ts;
        }
    }

    /// The *effective* timestamp of an element per the paper's §4 rule: "the
    /// time of update of the element or one of its children" — computed as
    /// the maximum direct timestamp over the subtree. Node `ts` fields store
    /// *direct* modification times; deletions and moves stamp the affected
    /// parent directly (see `txdb-delta`), so the subtree maximum is exactly
    /// the recursive rule without storing propagated values.
    pub fn effective_ts(&self, id: NodeId) -> Timestamp {
        self.descendants(id).map(|n| self.node(n).ts).max().unwrap_or(Timestamp::ZERO)
    }

    /// Iterates over all live nodes in document order (pre-order over each
    /// root in turn).
    pub fn iter(&self) -> DocOrderIter<'_> {
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        stack.reserve(16);
        DocOrderIter { tree: self, stack }
    }

    /// Iterates over the subtree rooted at `id` in pre-order (including `id`).
    pub fn descendants(&self, id: NodeId) -> DocOrderIter<'_> {
        DocOrderIter { tree: self, stack: vec![id] }
    }

    /// Iterates over `id`'s ancestors, nearest first (excluding `id`).
    pub fn ancestors(&self, id: NodeId) -> AncestorIter<'_> {
        AncestorIter { tree: self, cur: self.nodes[id.index()].parent }
    }

    /// The root of the tree containing `id`.
    pub fn root_of(&self, id: NodeId) -> NodeId {
        self.ancestors(id).last().unwrap_or(id)
    }

    /// The concatenated text content of the subtree rooted at `id`
    /// (XPath `string()` semantics).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let Some(t) = self.node(n).text() {
                out.push_str(t);
            }
        }
        out
    }

    /// Finds the live node with the given XID (linear scan; the database
    /// layer keeps an index for hot paths).
    pub fn find_xid(&self, xid: Xid) -> Option<NodeId> {
        if xid.is_none() {
            return None;
        }
        self.iter().find(|&n| self.node(n).xid == xid)
    }

    /// Builds a map XID → NodeId over the live forest.
    pub fn xid_map(&self) -> HashMap<Xid, NodeId> {
        let mut m = HashMap::with_capacity(self.live);
        for n in self.iter() {
            let x = self.node(n).xid;
            if !x.is_none() {
                m.insert(x, n);
            }
        }
        m
    }

    /// The chain of XIDs from the root down to `id`, inclusive. Used by the
    /// full-text index to decide parent/ancestor relationships (§7.2).
    pub fn xid_path(&self, id: NodeId) -> Vec<Xid> {
        let mut path: Vec<Xid> = self.ancestors(id).map(|a| self.node(a).xid).collect();
        path.reverse();
        path.push(self.node(id).xid);
        path
    }

    /// Deep-copies the subtree rooted at `src` in `from` into this tree,
    /// returning the new (detached) root. XIDs and timestamps are copied.
    pub fn copy_subtree_from(&mut self, from: &Tree, src: NodeId) -> NodeId {
        let node = from.node(src);
        let new = self.alloc(Node {
            xid: node.xid,
            ts: node.ts,
            kind: node.kind.clone(),
            parent: None,
            children: Vec::new(),
        });
        for &c in from.node(src).children() {
            let nc = self.copy_subtree_from(from, c);
            self.append_child(new, nc);
        }
        new
    }

    /// Extracts the subtree rooted at `id` as a new single-rooted tree,
    /// preserving XIDs and timestamps. Used by `ElementHistory` (§7.3.5) to
    /// filter out the subtree rooted at an EID.
    pub fn extract_subtree(&self, id: NodeId) -> Tree {
        let mut t = Tree::new();
        let root = t.copy_subtree_from(self, id);
        t.push_root(root);
        t
    }

    /// Checks internal arena invariants; used by tests and debug assertions.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (i, root) in self.roots.iter().enumerate() {
            if self.nodes[root.index()].parent.is_some() {
                return Err(format!("root #{i} has a parent"));
            }
        }
        for id in self.iter() {
            seen += 1;
            let n = self.node(id);
            for &c in n.children() {
                if self.nodes[c.index()].parent != Some(id) {
                    return Err(format!("child {c:?} of {id:?} has wrong parent"));
                }
            }
            if n.text().is_some() && !n.children().is_empty() {
                return Err(format!("text node {id:?} has children"));
            }
        }
        if seen != self.live {
            return Err(format!("live count {} != reachable {}", self.live, seen));
        }
        Ok(())
    }
}

/// Pre-order iterator over a forest or subtree.
pub struct DocOrderIter<'a> {
    tree: &'a Tree,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for DocOrderIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = self.tree.node(id).children();
        self.stack.extend(children.iter().rev());
        Some(id)
    }
}

/// Iterator over ancestors, nearest first.
pub struct AncestorIter<'a> {
    tree: &'a Tree,
    cur: Option<NodeId>,
}

impl<'a> Iterator for AncestorIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.tree.node(id).parent();
        Some(id)
    }
}

/// Fluent builder for constructing trees in tests and examples.
///
/// ```
/// use txdb_xml::tree::TreeBuilder;
/// let tree = TreeBuilder::new()
///     .open("restaurant")
///     .open("name").text("Napoli").close()
///     .open("price").text("15").close()
///     .close()
///     .build();
/// assert_eq!(tree.len(), 5);
/// ```
#[derive(Default)]
pub struct TreeBuilder {
    tree: Tree,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new element as a child of the current element (or as a root).
    pub fn open(mut self, name: &str) -> Self {
        let id = self.tree.new_element(name);
        match self.stack.last() {
            Some(&p) => self.tree.append_child(p, id),
            None => self.tree.push_root(id),
        }
        self.stack.push(id);
        self
    }

    /// Sets an attribute on the currently open element.
    pub fn attr(mut self, key: &str, value: &str) -> Self {
        let id = *self.stack.last().expect("attr outside element");
        self.tree.set_attr(id, key, value);
        self
    }

    /// Appends a text child to the currently open element.
    pub fn text(mut self, value: &str) -> Self {
        let id = self.tree.new_text(value);
        match self.stack.last() {
            Some(&p) => self.tree.append_child(p, id),
            None => self.tree.push_root(id),
        }
        self
    }

    /// Closes the currently open element.
    pub fn close(mut self) -> Self {
        self.stack.pop().expect("close without open");
        self
    }

    /// Finishes, returning the tree.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn build(self) -> Tree {
        assert!(self.stack.is_empty(), "unclosed elements in TreeBuilder");
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        TreeBuilder::new()
            .open("guide")
            .open("restaurant")
            .attr("category", "italian")
            .open("name")
            .text("Napoli")
            .close()
            .open("price")
            .text("15")
            .close()
            .close()
            .close()
            .build()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let t = sample();
        t.check_consistency().unwrap();
        let root = t.root().unwrap();
        assert_eq!(t.node(root).name(), Some("guide"));
        let rest = t.node(root).children()[0];
        assert_eq!(t.node(rest).name(), Some("restaurant"));
        assert_eq!(t.node(rest).attr("category"), Some("italian"));
        assert_eq!(t.node(rest).children().len(), 2);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn doc_order_iteration() {
        let t = sample();
        let names: Vec<String> = t
            .iter()
            .map(|n| {
                t.node(n)
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("#{}", t.node(n).text().unwrap()))
            })
            .collect();
        assert_eq!(names, ["guide", "restaurant", "name", "#Napoli", "price", "#15"]);
    }

    #[test]
    fn ancestors_and_root_of() {
        let t = sample();
        let price_text = t.iter().last().unwrap();
        let anc: Vec<Option<String>> =
            t.ancestors(price_text).map(|a| t.node(a).name().map(str::to_string)).collect();
        assert_eq!(
            anc,
            [Some("price".to_string()), Some("restaurant".to_string()), Some("guide".to_string())]
        );
        assert_eq!(t.root_of(price_text), t.root().unwrap());
    }

    #[test]
    fn text_content_concatenates() {
        let t = sample();
        assert_eq!(t.text_content(t.root().unwrap()), "Napoli15");
    }

    #[test]
    fn detach_and_reinsert() {
        let mut t = sample();
        let root = t.root().unwrap();
        let rest = t.node(root).children()[0];
        let price = t.node(rest).children()[1];
        let pos = t.detach(price);
        assert_eq!(pos, 1);
        assert_eq!(t.node(rest).children().len(), 1);
        t.insert_child(rest, 0, price);
        assert_eq!(t.node(rest).children()[0], price);
        t.check_consistency().unwrap();
    }

    #[test]
    fn remove_subtree_recycles_slots() {
        let mut t = sample();
        let root = t.root().unwrap();
        let rest = t.node(root).children()[0];
        let before = t.len();
        t.remove_subtree(rest);
        assert_eq!(t.len(), before - 5);
        t.check_consistency().unwrap();
        // New allocations reuse freed slots.
        let n = t.new_element("fresh");
        t.append_child(root, n);
        assert_eq!(t.len(), before - 4);
        t.check_consistency().unwrap();
    }

    #[test]
    fn touch_propagates_to_ancestors() {
        let mut t = sample();
        let root = t.root().unwrap();
        let rest = t.node(root).children()[0];
        let name = t.node(rest).children()[0];
        let ts = Timestamp::from_secs(100);
        t.touch(name, ts);
        assert_eq!(t.node(name).ts, ts);
        assert_eq!(t.node(rest).ts, ts);
        assert_eq!(t.node(root).ts, ts);
        // Sibling untouched.
        let price = t.node(rest).children()[1];
        assert_eq!(t.node(price).ts, Timestamp::ZERO);
        // Touching with an older timestamp does not go backwards.
        t.touch(name, Timestamp::from_secs(50));
        assert_eq!(t.node(name).ts, ts);
    }

    #[test]
    fn stamp_all_sets_every_node() {
        let mut t = sample();
        let ts = Timestamp::from_secs(7);
        t.stamp_all(ts);
        assert!(t.iter().all(|n| t.node(n).ts == ts));
    }

    #[test]
    fn set_and_remove_attr() {
        let mut t = sample();
        let root = t.root().unwrap();
        let rest = t.node(root).children()[0];
        t.set_attr(rest, "category", "pizzeria");
        assert_eq!(t.node(rest).attr("category"), Some("pizzeria"));
        t.set_attr(rest, "stars", "3");
        assert_eq!(t.node(rest).attr("stars"), Some("3"));
        assert_eq!(t.remove_attr(rest, "stars"), Some("3".to_string()));
        assert_eq!(t.node(rest).attr("stars"), None);
        assert_eq!(t.remove_attr(rest, "stars"), None);
    }

    #[test]
    fn xid_path_and_map() {
        let mut t = sample();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(i as u64 + 1);
        }
        let price_text = *ids.last().unwrap();
        let path = t.xid_path(price_text);
        assert_eq!(path, vec![Xid(1), Xid(2), Xid(5), Xid(6)]);
        let map = t.xid_map();
        assert_eq!(map.len(), 6);
        assert_eq!(map[&Xid(5)], ids[4]);
        assert_eq!(t.find_xid(Xid(5)), Some(ids[4]));
        assert_eq!(t.find_xid(Xid::NONE), None);
        assert_eq!(t.find_xid(Xid(99)), None);
    }

    #[test]
    fn extract_subtree_preserves_identity() {
        let mut t = sample();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(i as u64 + 1);
        }
        let rest = ids[1];
        let sub = t.extract_subtree(rest);
        assert_eq!(sub.len(), 5);
        let r = sub.root().unwrap();
        assert_eq!(sub.node(r).xid, Xid(2));
        assert_eq!(sub.node(r).name(), Some("restaurant"));
        sub.check_consistency().unwrap();
    }

    #[test]
    fn forest_with_multiple_roots() {
        let mut t = Tree::new();
        let a = t.new_element("a");
        let b = t.new_element("b");
        t.push_root(a);
        t.push_root(b);
        assert_eq!(t.roots().len(), 2);
        assert_eq!(t.root(), None);
        t.check_consistency().unwrap();
        let collected: Vec<NodeId> = t.iter().collect();
        assert_eq!(collected, vec![a, b]);
        // insert_root positions correctly
        let c = t.new_element("c");
        t.insert_root(1, c);
        assert_eq!(t.roots(), &[a, c, b]);
    }

    #[test]
    #[should_panic(expected = "set_text on element")]
    fn set_text_on_element_panics() {
        let mut t = Tree::new();
        let e = t.new_element("x");
        t.set_text(e, "boom");
    }
}
