//! Stable 64-bit hashing of nodes and subtrees.
//!
//! The XyDiff-style diff (txdb-delta) matches identical subtrees between two
//! versions by hash before doing any structural work, so the hash must be
//!
//! * **stable** across processes and builds (it may be persisted), and
//! * **structural**: it covers the node kind, name/text, attributes and the
//!   ordered sequence of child hashes — but *not* XIDs or timestamps, which
//!   differ between versions by construction.
//!
//! We use FNV-1a as the byte mixer with small domain-separation tags between
//! fields; it is fast for the short strings that dominate XML and has no
//! dependency on `std`'s randomized hashers.

use crate::tree::{NodeId, NodeKind, Tree};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mixes a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Mixes a u64 (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes a single tag byte (domain separation).
    #[inline]
    pub fn write_tag(&mut self, t: u8) {
        self.write(&[t]);
    }

    /// Finalizes.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hashes the *label* of a node: kind, name/text and attributes — not its
/// children, XID or timestamp. Two nodes with equal label hash are
/// shallow-equal with overwhelming probability.
pub fn label_hash(kind: &NodeKind) -> u64 {
    let mut h = Fnv64::new();
    match kind {
        NodeKind::Element { name, attrs } => {
            h.write_tag(1);
            h.write(name.as_bytes());
            for (k, v) in attrs {
                h.write_tag(2);
                h.write(k.as_bytes());
                h.write_tag(3);
                h.write(v.as_bytes());
            }
        }
        NodeKind::Text { value } => {
            h.write_tag(4);
            h.write(value.as_bytes());
        }
    }
    h.finish()
}

/// Per-node subtree hashes (and subtree sizes in nodes) for a whole forest.
///
/// `hash[n]` covers node `n`'s label and the ordered hashes of its children;
/// equal subtree hashes mean structurally identical subtrees (modulo hash
/// collisions, which the diff verifies against). Both tables are vectors
/// indexed by arena slot ([`NodeId::index`]) and sized by
/// [`Tree::arena_len`], since recycled slots leave gaps above `len()`; a
/// free slot reads as hash 0, size 0.
#[derive(Debug, Default)]
pub struct SubtreeHashes {
    hashes: Vec<u64>,
    sizes: Vec<u32>,
}

impl SubtreeHashes {
    /// Computes hashes for every node of the forest.
    pub fn compute(tree: &Tree) -> Self {
        let n = tree.arena_len();
        let mut out = SubtreeHashes { hashes: vec![0; n], sizes: vec![0; n] };
        for &root in tree.roots() {
            out.compute_node(tree, root);
        }
        out
    }

    fn compute_node(&mut self, tree: &Tree, id: NodeId) -> (u64, u32) {
        let mut h = Fnv64::new();
        h.write_u64(label_hash(&tree.node(id).kind));
        let mut size = 1u32;
        for &c in tree.node(id).children() {
            let (ch, cs) = self.compute_node(tree, c);
            h.write_tag(5);
            h.write_u64(ch);
            size += cs;
        }
        let hash = h.finish();
        self.hashes[id.index()] = hash;
        self.sizes[id.index()] = size;
        (hash, size)
    }

    /// The subtree hash of `id`.
    #[inline]
    pub fn hash(&self, id: NodeId) -> u64 {
        self.hashes[id.index()]
    }

    /// The subtree size (node count) of `id`.
    #[inline]
    pub fn size(&self, id: NodeId) -> u32 {
        self.sizes[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    #[test]
    fn identical_trees_same_hash() {
        let a = parse_document("<a><b>x</b><c/></a>").unwrap();
        let b = parse_document("<a><b>x</b><c/></a>").unwrap();
        let ha = SubtreeHashes::compute(&a);
        let hb = SubtreeHashes::compute(&b);
        assert_eq!(ha.hash(a.root().unwrap()), hb.hash(b.root().unwrap()));
    }

    #[test]
    fn text_change_changes_root_hash() {
        let a = parse_document("<a><b>x</b></a>").unwrap();
        let b = parse_document("<a><b>y</b></a>").unwrap();
        assert_ne!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }

    #[test]
    fn attr_change_changes_hash() {
        let a = parse_document(r#"<a k="1"/>"#).unwrap();
        let b = parse_document(r#"<a k="2"/>"#).unwrap();
        assert_ne!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }

    #[test]
    fn child_order_matters() {
        let a = parse_document("<a><b/><c/></a>").unwrap();
        let b = parse_document("<a><c/><b/></a>").unwrap();
        assert_ne!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }

    #[test]
    fn hash_ignores_xid_and_ts() {
        use txdb_base::{Timestamp, Xid};
        let a = parse_document("<a><b>x</b></a>").unwrap();
        let mut b = parse_document("<a><b>x</b></a>").unwrap();
        let ids: Vec<_> = b.iter().collect();
        for id in ids {
            b.node_mut(id).xid = Xid(99);
            b.node_mut(id).ts = Timestamp::from_secs(1);
        }
        assert_eq!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }

    #[test]
    fn sizes_counted() {
        let a = parse_document("<a><b>x</b><c/></a>").unwrap();
        let h = SubtreeHashes::compute(&a);
        assert_eq!(h.size(a.root().unwrap()), 4);
    }

    #[test]
    fn label_vs_subtree() {
        // Same label, different subtrees.
        let a = parse_document("<a><b/></a>").unwrap();
        let b = parse_document("<a><c/></a>").unwrap();
        assert_eq!(
            label_hash(&a.node(a.root().unwrap()).kind),
            label_hash(&b.node(b.root().unwrap()).kind)
        );
        assert_ne!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }

    #[test]
    fn tag_text_confusion_avoided() {
        // <x/> element vs text "x": domain separation must distinguish.
        let a = parse_document("<a><x/></a>").unwrap();
        let b = parse_document("<a>x</a>").unwrap();
        assert_ne!(
            SubtreeHashes::compute(&a).hash(a.root().unwrap()),
            SubtreeHashes::compute(&b).hash(b.root().unwrap())
        );
    }
}
