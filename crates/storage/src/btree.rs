//! B+-tree with byte-string keys and values.
//!
//! Used for the document catalog (name → doc id), the per-document
//! metadata directory (doc id → metadata record) and the persistent
//! EID-time index of §7.3.6. Keys and values are arbitrary byte strings up
//! to 1 KiB each; all comparisons are lexicographic, so numeric keys must
//! be encoded big-endian (the helpers in callers do).
//!
//! ```text
//! leaf:     [0x20][nkeys u16][next u64]  ([klen u16][vlen u16][key][val])*
//! internal: [0x21][nkeys u16][child0 u64]([klen u16][key][child u64])*
//! ```
//!
//! Entries are packed in key order from byte 11 and everything past the
//! last entry is zero, so a page's bytes are a function of its entries.
//!
//! Point operations work on the page bytes in place: a lookup descends
//! with one buffer-pool fetch per level, reading separators and leaf
//! entries where they sit, and allocates nothing but the value it
//! returns. An insert or delete takes the same descent; a leaf write that
//! fits is spliced into the page (a same-length value replace is a plain
//! copy), and so is the separator a split pushes into a parent that has
//! room. Only a split decodes a page into an entry vector, cuts it at its
//! size midpoint and writes both halves — counted as `btree.page_decodes`.
//! Deletes are lazy (no rebalancing; underfull pages persist and their
//! space is reused by later inserts into the same key range). Range scans
//! copy each leaf once and walk the leaf chain.

use std::ops::Range;

use txdb_base::{Error, Result};

use crate::buffer::{BufferPool, Frame};
use crate::pager::{PageId, PAGE_SIZE};

const TYPE_LEAF: u8 = 0x20;
const TYPE_INTERNAL: u8 = 0x21;
/// Bytes before the first entry: type, entry count, next/child0 pointer.
const HEADER: usize = 11;

/// Maximum key length.
pub const MAX_KEY: usize = 1024;
/// Maximum value length.
pub const MAX_VAL: usize = 1024;

type Entry = (Vec<u8>, Vec<u8>);
/// The separator key and new right page a split pushes up, if any.
type Split = Option<(Vec<u8>, PageId)>;

/// A page decoded into entry vectors — built only to split it.
enum Node {
    Leaf { entries: Vec<Entry>, next: PageId },
    Internal { child0: PageId, entries: Vec<(Vec<u8>, PageId)> },
}

fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(b[off..off + 2].try_into().expect("fixed-width slice"))
}
fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("fixed-width slice"))
}

fn overrun() -> Error {
    Error::Corrupt("btree entry overruns its page".into())
}

fn nkeys(b: &[u8]) -> usize {
    get_u16(b, 1) as usize
}

fn set_nkeys(b: &mut [u8], n: usize) {
    b[1..3].copy_from_slice(&(n as u16).to_le_bytes());
}

/// The key and value ranges of the leaf entry starting at `off`.
fn leaf_entry(b: &[u8], off: usize) -> Result<(Range<usize>, Range<usize>)> {
    if off + 4 > b.len() {
        return Err(overrun());
    }
    let key = off + 4..off + 4 + get_u16(b, off) as usize;
    let val = key.end..key.end + get_u16(b, off + 2) as usize;
    if val.end > b.len() {
        return Err(overrun());
    }
    Ok((key, val))
}

/// The key range and child pointer offset of the separator starting at `off`.
fn internal_entry(b: &[u8], off: usize) -> Result<(Range<usize>, usize)> {
    if off + 2 > b.len() {
        return Err(overrun());
    }
    let key = off + 2..off + 2 + get_u16(b, off) as usize;
    if key.end + 8 > b.len() {
        return Err(overrun());
    }
    Ok((key.clone(), key.end))
}

/// Where `key` sits in a leaf: the offset of its entry (or of the first
/// greater one, or the end of the entries) and its value when present.
fn leaf_search(b: &[u8], key: &[u8]) -> Result<(usize, Option<Range<usize>>)> {
    let mut off = HEADER;
    for _ in 0..nkeys(b) {
        let (k, v) = leaf_entry(b, off)?;
        match b[k].cmp(key) {
            std::cmp::Ordering::Less => off = v.end,
            std::cmp::Ordering::Equal => return Ok((off, Some(v))),
            std::cmp::Ordering::Greater => break,
        }
    }
    Ok((off, None))
}

/// One past the last entry byte of a page of either kind.
fn used_bytes(b: &[u8]) -> Result<usize> {
    let mut off = HEADER;
    for _ in 0..nkeys(b) {
        off = match b[0] {
            TYPE_LEAF => leaf_entry(b, off)?.1.end,
            _ => internal_entry(b, off)?.1 + 8,
        };
    }
    Ok(off)
}

/// One step of a descent through an internal page.
#[derive(Clone, Copy)]
struct Step {
    /// The internal page.
    page: PageId,
    /// The child chosen for the key.
    child: PageId,
    /// Separators at or below the key: where a separator pushed up by a
    /// split of `child` goes.
    slot: usize,
    /// Byte offset of that slot.
    at: usize,
}

/// The child of an internal page to descend into for `key`: the one after
/// the last separator `<= key` (`child0` when there is none).
fn internal_step(page: PageId, b: &[u8], key: &[u8]) -> Result<Step> {
    let mut step = Step { page, child: PageId(get_u64(b, 3)), slot: 0, at: HEADER };
    for slot in 1..=nkeys(b) {
        let (k, child_at) = internal_entry(b, step.at)?;
        if key < &b[k] {
            break;
        }
        step = Step { page, child: PageId(get_u64(b, child_at)), slot, at: child_at + 8 };
    }
    Ok(step)
}

/// Replaces `b[at..at + old_len]` with the concatenation of `parts`,
/// shifting the entries behind it and zeroing the bytes they vacate.
/// `used` is the end of the page's entries; the caller has checked that
/// the result fits.
fn splice(b: &mut [u8], used: usize, at: usize, old_len: usize, parts: &[&[u8]]) {
    let new_len: usize = parts.iter().map(|p| p.len()).sum();
    let new_used = used - old_len + new_len;
    debug_assert!(new_used <= PAGE_SIZE, "splice overflow");
    b.copy_within(at + old_len..used, at + new_len);
    if new_used < used {
        b[new_used..used].fill(0);
    }
    let mut off = at;
    for p in parts {
        b[off..off + p.len()].copy_from_slice(p);
        off += p.len();
    }
}

fn serialize(node: &Node, buf: &mut [u8]) {
    buf.fill(0);
    match node {
        Node::Leaf { entries, next } => {
            buf[0] = TYPE_LEAF;
            set_nkeys(buf, entries.len());
            buf[3..11].copy_from_slice(&next.0.to_le_bytes());
            let mut off = HEADER;
            for (k, v) in entries {
                let (klen, vlen) = ((k.len() as u16).to_le_bytes(), (v.len() as u16).to_le_bytes());
                splice(buf, off, off, 0, &[&klen, &vlen, k, v]);
                off += 4 + k.len() + v.len();
            }
        }
        Node::Internal { child0, entries } => {
            buf[0] = TYPE_INTERNAL;
            set_nkeys(buf, entries.len());
            buf[3..11].copy_from_slice(&child0.0.to_le_bytes());
            let mut off = HEADER;
            for (k, c) in entries {
                let klen = (k.len() as u16).to_le_bytes();
                splice(buf, off, off, 0, &[&klen, k, &c.0.to_le_bytes()]);
                off += 2 + k.len() + 8;
            }
        }
    }
}

/// The B+-tree. Thread-safety: callers serialize writes (the document
/// store holds its own lock); concurrent reads are safe.
pub struct BTree {
    pool: std::sync::Arc<BufferPool>,
    root_slot: usize,
}

impl BTree {
    /// Opens the tree rooted at pager root slot `root_slot`, creating an
    /// empty root leaf on first use.
    pub fn open(pool: std::sync::Arc<BufferPool>, root_slot: usize) -> Result<BTree> {
        if pool.pager().root(root_slot).is_null() {
            let (id, frame) = pool.allocate()?;
            serialize(&Node::Leaf { entries: Vec::new(), next: PageId::NULL }, &mut frame.write());
            pool.mark_dirty(id);
            pool.pager().set_root(root_slot, id);
        }
        Ok(BTree { pool, root_slot })
    }

    fn root(&self) -> PageId {
        self.pool.pager().root(self.root_slot)
    }

    /// Every page the tree references, from the root down. Best-effort:
    /// a referenced page is included even when it cannot be read or
    /// parsed (the referencing node still claims it), the walk just does
    /// not descend past it. Leaf sibling links are not followed — every
    /// leaf is already reachable through its parent. Used by fsck's
    /// reachability sweep.
    pub fn pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            if id.is_null() || !seen.insert(id.0) {
                continue;
            }
            out.push(id);
            let Ok(frame) = self.pool.get(id) else { continue };
            let b = frame.read();
            if b[0] != TYPE_INTERNAL {
                continue;
            }
            stack.push(PageId(get_u64(&b, 3)));
            let mut off = HEADER;
            for _ in 0..nkeys(&b) {
                let Ok((_, child_at)) = internal_entry(&b, off) else { break };
                stack.push(PageId(get_u64(&b, child_at)));
                off = child_at + 8;
            }
        }
        out
    }

    /// Decodes a page into entry vectors (the split path only).
    fn decode(&self, b: &[u8]) -> Result<Node> {
        self.pool.stats.page_decodes.inc();
        let n = nkeys(b);
        let mut off = HEADER;
        match b[0] {
            TYPE_LEAF => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let (k, v) = leaf_entry(b, off)?;
                    off = v.end;
                    entries.push((b[k].to_vec(), b[v].to_vec()));
                }
                Ok(Node::Leaf { entries, next: PageId(get_u64(b, 3)) })
            }
            TYPE_INTERNAL => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let (k, child_at) = internal_entry(b, off)?;
                    off = child_at + 8;
                    entries.push((b[k].to_vec(), PageId(get_u64(b, child_at))));
                }
                Ok(Node::Internal { child0: PageId(get_u64(b, 3)), entries })
            }
            t => Err(Error::Corrupt(format!("bad btree page type {t:#x}"))),
        }
    }

    fn store(&self, id: PageId, node: &Node) -> Result<()> {
        let frame = self.pool.get(id)?;
        serialize(node, &mut frame.write());
        self.pool.mark_dirty(id);
        Ok(())
    }

    /// Writes `node` to a freshly allocated page.
    fn store_new(&self, node: &Node) -> Result<PageId> {
        let (id, frame) = self.pool.allocate()?;
        serialize(node, &mut frame.write());
        self.pool.mark_dirty(id);
        Ok(id)
    }

    /// Descends from the root to the leaf responsible for `key`, one pool
    /// fetch per level, recording the internal steps in `path` if given.
    fn find_leaf(&self, key: &[u8], mut path: Option<&mut Vec<Step>>) -> Result<(PageId, Frame)> {
        let mut cur = self.root();
        loop {
            let frame = self.pool.get(cur)?;
            let step = {
                let b = frame.read();
                match b[0] {
                    TYPE_LEAF => None,
                    TYPE_INTERNAL => Some(internal_step(cur, &b, key)?),
                    t => return Err(Error::Corrupt(format!("bad btree page type {t:#x}"))),
                }
            };
            let Some(step) = step else { return Ok((cur, frame)) };
            if let Some(path) = path.as_deref_mut() {
                path.push(step);
            }
            cur = step.child;
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let (_, frame) = self.find_leaf(key, None)?;
        let b = frame.read();
        Ok(leaf_search(&b, key)?.1.map(|v| b[v].to_vec()))
    }

    /// Inserts or replaces. Returns the previous value if the key existed.
    pub fn insert(&self, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>> {
        if key.len() > MAX_KEY || val.len() > MAX_VAL {
            return Err(Error::Unsupported(format!(
                "btree key/value too large ({}/{} bytes)",
                key.len(),
                val.len()
            )));
        }
        let root = self.root();
        let mut path = Vec::new();
        let (leaf, frame) = self.find_leaf(key, Some(&mut path))?;
        let (old, mut split) = self.leaf_write(leaf, &frame, key, val)?;
        drop(frame);
        // Carry a split up the descent path; a parent with room absorbs it.
        while let Some((sep, right)) = split {
            match path.pop() {
                Some(step) => split = self.push_separator(step, &sep, right)?,
                None => {
                    // The root split: grow a new root above it.
                    let node = Node::Internal { child0: root, entries: vec![(sep, right)] };
                    let new_root = self.store_new(&node)?;
                    self.pool.pager().set_root(self.root_slot, new_root);
                    break;
                }
            }
        }
        Ok(old)
    }

    /// Writes `key → val` into the leaf `id` (held by `frame`): in place
    /// when it fits, else by splitting. Returns the replaced value and the
    /// split (separator key, new right page), if any.
    fn leaf_write(
        &self,
        id: PageId,
        frame: &Frame,
        key: &[u8],
        val: &[u8],
    ) -> Result<(Option<Vec<u8>>, Split)> {
        let mut b = frame.write();
        let (at, found) = leaf_search(&b, key)?;
        if let Some(v) = &found {
            if v.len() == val.len() {
                let old = b[v.clone()].to_vec();
                b[v.clone()].copy_from_slice(val);
                drop(b);
                self.pool.mark_dirty(id);
                return Ok((Some(old), None));
            }
        }
        let used = used_bytes(&b)?;
        let grown = match &found {
            Some(v) => used - v.len() + val.len(),
            None => used + 4 + key.len() + val.len(),
        };
        if grown <= PAGE_SIZE {
            let vlen = (val.len() as u16).to_le_bytes();
            let old = match found {
                Some(v) => {
                    let old = b[v.clone()].to_vec();
                    b[at + 2..at + 4].copy_from_slice(&vlen);
                    splice(&mut b, used, v.start, v.len(), &[val]);
                    Some(old)
                }
                None => {
                    let n = nkeys(&b);
                    splice(
                        &mut b,
                        used,
                        at,
                        0,
                        &[&(key.len() as u16).to_le_bytes(), &vlen, key, val],
                    );
                    set_nkeys(&mut b, n + 1);
                    None
                }
            };
            drop(b);
            self.pool.mark_dirty(id);
            return Ok((old, None));
        }
        let Node::Leaf { mut entries, next } = self.decode(&b)? else {
            return Err(Error::Corrupt("btree descent ended on an internal page".into()));
        };
        drop(b);
        let old = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, val.to_vec())),
            Err(i) => {
                entries.insert(i, (key.to_vec(), val.to_vec()));
                None
            }
        };
        let cut = size_split_point(entries.iter().map(|(k, v)| 4 + k.len() + v.len()));
        let right_entries = entries.split_off(cut);
        let sep = right_entries[0].0.clone();
        let right = self.store_new(&Node::Leaf { entries: right_entries, next })?;
        self.store(id, &Node::Leaf { entries, next: right })?;
        Ok((old, Some((sep, right))))
    }

    /// Inserts the separator `sep → right` that a split of `step.child`
    /// pushed up into `step.page`: in place when it fits, else by
    /// splitting that page too, returning the separator for its parent.
    fn push_separator(&self, step: Step, sep: &[u8], right: PageId) -> Result<Split> {
        let frame = self.pool.get(step.page)?;
        let mut b = frame.write();
        let used = used_bytes(&b)?;
        if used + 2 + sep.len() + 8 <= PAGE_SIZE {
            let n = nkeys(&b);
            let klen = (sep.len() as u16).to_le_bytes();
            splice(&mut b, used, step.at, 0, &[&klen, sep, &right.0.to_le_bytes()]);
            set_nkeys(&mut b, n + 1);
            drop(b);
            self.pool.mark_dirty(step.page);
            return Ok(None);
        }
        let Node::Internal { child0, mut entries } = self.decode(&b)? else {
            return Err(Error::Corrupt("btree descent left an internal page".into()));
        };
        drop(b);
        drop(frame);
        entries.insert(step.slot, (sep.to_vec(), right));
        let cut = size_split_point(entries.iter().map(|(k, _)| 2 + k.len() + 8));
        // entries[cut] moves up; right gets entries[cut+1..].
        let mut right_entries = entries.split_off(cut);
        let (up, right_child0) = right_entries.remove(0);
        let right_id =
            self.store_new(&Node::Internal { child0: right_child0, entries: right_entries })?;
        self.store(step.page, &Node::Internal { child0, entries })?;
        Ok(Some((up, right_id)))
    }

    /// Deletes a key. Returns the removed value, if present. No
    /// rebalancing: underfull pages persist (space is reused by later
    /// inserts into the same key range).
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let (leaf, frame) = self.find_leaf(key, None)?;
        let mut b = frame.write();
        let (at, Some(v)) = leaf_search(&b, key)? else { return Ok(None) };
        let old = b[v.clone()].to_vec();
        let (used, n) = (used_bytes(&b)?, nkeys(&b));
        splice(&mut b, used, at, v.end - at, &[]);
        set_nkeys(&mut b, n - 1);
        drop(b);
        self.pool.mark_dirty(leaf);
        Ok(Some(old))
    }

    /// Copies the entry bytes of a leaf for a range scan, with its entry
    /// count and next-leaf link.
    fn leaf_image(&self, frame: &Frame) -> Result<(Vec<u8>, usize, PageId)> {
        let b = frame.read();
        if b[0] != TYPE_LEAF {
            return Err(Error::Corrupt("leaf chain hit internal page".into()));
        }
        let used = used_bytes(&b)?;
        Ok((b[..used].to_vec(), nkeys(&b), PageId(get_u64(&b, 3))))
    }

    /// Iterates over all `(key, value)` pairs with `start <= key < end`
    /// (`end = None` means unbounded).
    pub fn range(&self, start: &[u8], end: Option<&[u8]>) -> Result<RangeIter<'_>> {
        let (_, frame) = self.find_leaf(start, None)?;
        let (page, mut left, next) = self.leaf_image(&frame)?;
        // Skip the entries below `start`.
        let mut off = HEADER;
        while left > 0 {
            let (k, v) = leaf_entry(&page, off)?;
            if &page[k] >= start {
                break;
            }
            off = v.end;
            left -= 1;
        }
        Ok(RangeIter { tree: self, page, off, left, next, end: end.map(|e| e.to_vec()) })
    }

    /// Full scan.
    pub fn iter(&self) -> Result<RangeIter<'_>> {
        self.range(&[], None)
    }

    /// Number of entries (walks the leaf chain; for tests and stats).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        for e in self.iter()? {
            e?;
            n += 1;
        }
        Ok(n)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.iter()?.next().is_none())
    }
}

/// Picks a split index so both halves are under half the page budget-ish.
fn size_split_point(sizes: impl Iterator<Item = usize>) -> usize {
    let sizes: Vec<usize> = sizes.collect();
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc > total / 2 {
            // Keep at least one entry on each side.
            return i.clamp(1, sizes.len() - 1);
        }
    }
    sizes.len() / 2
}

/// Iterator over a key range: a copy of the current leaf's entry bytes
/// and the link to the next leaf.
pub struct RangeIter<'t> {
    tree: &'t BTree,
    page: Vec<u8>,
    off: usize,
    left: usize,
    next: PageId,
    end: Option<Vec<u8>>,
}

impl Iterator for RangeIter<'_> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.left > 0 {
                let (k, v) = match leaf_entry(&self.page, self.off) {
                    Ok(kv) => kv,
                    Err(e) => return Some(Err(e)),
                };
                self.off = v.end;
                self.left -= 1;
                if let Some(end) = &self.end {
                    if self.page[k.clone()] >= end[..] {
                        self.left = 0;
                        self.next = PageId::NULL;
                        return None;
                    }
                }
                return Some(Ok((self.page[k].to_vec(), self.page[v].to_vec())));
            }
            if self.next.is_null() {
                return None;
            }
            let image = self.tree.pool.get(self.next).and_then(|f| self.tree.leaf_image(&f));
            match image {
                Ok((page, left, next)) => {
                    (self.page, self.off, self.left, self.next) = (page, HEADER, left, next);
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    use std::sync::Arc;

    fn tree_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Pager::memory(), 256))
    }

    #[test]
    fn insert_get_simple() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        assert_eq!(t.get(b"a").unwrap(), None);
        assert_eq!(t.insert(b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(b"b", b"2").unwrap(), None);
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.insert(b"a", b"9").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"a").unwrap(), Some(b"9".to_vec()));
    }

    #[test]
    fn many_inserts_with_splits_model_based() {
        // Scrambled inserts (with collisions → overwrites) checked against
        // a std BTreeMap model.
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let n = 5000u32;
        for i in 0..n {
            let k = (i.wrapping_mul(2654435761)) % n;
            let key = format!("key{k:08}").into_bytes();
            let val = format!("val{}", i).into_bytes();
            let old_tree = t.insert(&key, &val).unwrap();
            let old_model = model.insert(key, val);
            assert_eq!(old_tree, old_model, "overwrite semantics match");
        }
        assert!(pool.pager().page_count() > 4, "splits happened");
        // Every model key retrievable with the model's value.
        for (k, v) in model.iter().step_by(37) {
            assert_eq!(t.get(k).unwrap().as_ref(), Some(v));
        }
        // Full scan is sorted, complete and equal to the model.
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = t.iter().unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(scanned.len(), model.len());
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        for ((sk, sv), (mk, mv)) in scanned.iter().zip(model.iter()) {
            assert_eq!(sk, mk);
            assert_eq!(sv, mv);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), b"x").unwrap();
        }
        let got: Vec<u32> = t
            .range(&10u32.to_be_bytes(), Some(&20u32.to_be_bytes()))
            .unwrap()
            .map(|e| u32::from_be_bytes(e.unwrap().0.try_into().expect("fixed-width slice")))
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<u32>>());
        // Empty range.
        assert_eq!(t.range(&50u32.to_be_bytes(), Some(&50u32.to_be_bytes())).unwrap().count(), 0);
        // Open-ended.
        assert_eq!(t.range(&95u32.to_be_bytes(), None).unwrap().count(), 5);
    }

    #[test]
    fn delete_and_len() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len().unwrap(), 500);
        for i in (0..500u32).step_by(2) {
            assert!(t.delete(&i.to_be_bytes()).unwrap().is_some());
        }
        assert_eq!(t.delete(&0u32.to_be_bytes()).unwrap(), None);
        assert_eq!(t.len().unwrap(), 250);
        for i in 0..500u32 {
            let want = if i % 2 == 1 { Some(i.to_le_bytes().to_vec()) } else { None };
            assert_eq!(t.get(&i.to_be_bytes()).unwrap(), want);
        }
    }

    #[test]
    fn large_values_split_correctly() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), &vec![i as u8; 900]).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(t.get(&i.to_be_bytes()).unwrap(), Some(vec![i as u8; 900]));
        }
    }

    #[test]
    fn oversized_rejected() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        assert!(t.insert(&vec![0; 2000], b"x").is_err());
        assert!(t.insert(b"x", &vec![0; 2000]).is_err());
    }

    #[test]
    fn empty_tree_behaviour() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.iter().unwrap().count(), 0);
        assert_eq!(t.delete(b"nothing").unwrap(), None);
    }

    #[test]
    fn two_trees_coexist() {
        let pool = tree_pool();
        let a = BTree::open(pool.clone(), 1).unwrap();
        let b = BTree::open(pool.clone(), 2).unwrap();
        a.insert(b"k", b"from-a").unwrap();
        b.insert(b"k", b"from-b").unwrap();
        assert_eq!(a.get(b"k").unwrap(), Some(b"from-a".to_vec()));
        assert_eq!(b.get(b"k").unwrap(), Some(b"from-b".to_vec()));
    }

    #[test]
    fn reopen_same_slot_sees_data() {
        let pool = tree_pool();
        {
            let t = BTree::open(pool.clone(), 1).unwrap();
            for i in 0..200u32 {
                t.insert(&i.to_be_bytes(), b"v").unwrap();
            }
        }
        let t = BTree::open(pool.clone(), 1).unwrap();
        assert_eq!(t.len().unwrap(), 200);
    }

    /// A seeded op stream over mixed key lengths (3..=303 bytes) and value
    /// lengths (0..=399): enough long keys that leaves *and* internal
    /// pages split.
    struct Workload {
        rng: u64,
    }

    impl Workload {
        fn next(&mut self) -> u64 {
            // xorshift64*
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn key(&mut self) -> Vec<u8> {
            let k = (self.next() % 2000) as u32;
            let mut key = k.wrapping_mul(2654435761).to_be_bytes()[..3].to_vec();
            key.resize(3 + (k as usize * 37) % 301, b'k');
            key
        }

        fn val(&mut self, len: usize) -> Vec<u8> {
            let b = self.next() as u8;
            vec![b; len]
        }
    }

    /// Runs the model workload: every op is checked against a
    /// `BTreeMap`, with a point lookup and a range scan after each one.
    fn run_model_workload(seed: u64, ops: usize) -> (Arc<BufferPool>, BTree) {
        use std::collections::BTreeMap;
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut w = Workload { rng: seed };
        for _ in 0..ops {
            let key = w.key();
            match w.next() % 20 {
                0..=10 => {
                    let len = (w.next() % 400) as usize;
                    let val = w.val(len);
                    assert_eq!(t.insert(&key, &val).unwrap(), model.insert(key.clone(), val));
                }
                11..=13 => {
                    // Replace with the same length when the key exists.
                    let len = model.get(&key).map_or(8, Vec::len);
                    let val = w.val(len);
                    assert_eq!(t.insert(&key, &val).unwrap(), model.insert(key.clone(), val));
                }
                14..=17 => assert_eq!(t.delete(&key).unwrap(), model.remove(&key)),
                _ => {}
            }
            assert_eq!(t.get(&key).unwrap().as_ref(), model.get(&key));
            let (a, b) = (w.key(), w.key());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let got: Vec<Entry> = t.range(&lo, Some(&hi)).unwrap().map(|e| e.unwrap()).collect();
            let want: Vec<Entry> =
                model.range(lo..hi).map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want);
        }
        let scanned: Vec<Entry> = t.iter().unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(scanned, model.into_iter().collect::<Vec<Entry>>());
        (pool, t)
    }

    #[test]
    fn in_place_writes_match_a_btreemap_and_the_page_format() {
        let (pool, t) = run_model_workload(0x9e37_79b9_7f4a_7c15, 6000);
        let pages = t.pages();
        let internal = pages.iter().filter(|&&id| pool.get(id).unwrap().read()[0] == TYPE_INTERNAL);
        assert!(internal.count() > 1, "internal pages split too");
        // Every page is byte-identical to what decoding its entries and
        // writing them out again gives — the format a whole-page rewrite
        // produces, zero tail included.
        for id in pages {
            let frame = pool.get(id).unwrap();
            let page = frame.read();
            let mut rewritten = crate::pager::new_page();
            serialize(&t.decode(&page).unwrap(), &mut rewritten);
            assert!(page[..] == rewritten[..], "page {} differs from its rewrite", id.0);
        }
    }

    #[test]
    fn pages_are_pinned_for_a_fixed_op_stream() {
        // The page images a fixed op stream leaves behind, recorded when
        // every write still decoded and rewrote whole pages: splicing in
        // place must produce the same bytes (and the same splits).
        let (pool, t) = run_model_workload(7, 6000);
        let mut pages = t.pages();
        pages.sort();
        let mut images = Vec::new();
        for id in &pages {
            images.extend_from_slice(&id.0.to_le_bytes());
            images.extend_from_slice(&pool.get(*id).unwrap().read());
        }
        assert_eq!((pages.len(), crate::wal::crc32(&images)), (103, 3670464345));
    }

    #[test]
    fn point_reads_and_fitting_writes_decode_no_page() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        for i in 0..2000u32 {
            t.insert(&i.to_be_bytes(), &[7; 40]).unwrap();
        }
        let decodes = &pool.stats.page_decodes;
        assert!(decodes.get() > 0, "the fill split pages");
        let before = decodes.get();
        for i in (0..2000u32).step_by(7) {
            assert!(t.get(&i.to_be_bytes()).unwrap().is_some());
            t.insert(&i.to_be_bytes(), &[8; 40]).unwrap(); // same length
            t.insert(&i.to_be_bytes(), &[9; 12]).unwrap(); // shorter
            t.delete(&(i + 1).to_be_bytes()).unwrap();
            t.insert(&(i + 1).to_be_bytes(), &[1; 20]).unwrap(); // fits again
        }
        assert_eq!(decodes.get(), before, "no page decoded outside a split");
    }

    #[test]
    fn mixed_key_lengths_ordering() {
        let pool = tree_pool();
        let t = BTree::open(pool.clone(), 1).unwrap();
        t.insert(b"a", b"1").unwrap();
        t.insert(b"aa", b"2").unwrap();
        t.insert(b"b", b"3").unwrap();
        t.insert(b"", b"4").unwrap();
        let keys: Vec<Vec<u8>> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(keys, vec![b"".to_vec(), b"a".to_vec(), b"aa".to_vec(), b"b".to_vec()]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pager::Pager;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u16, u8),
        Delete(u16),
        Get(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
            1 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
            1 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Model-based: a random op sequence behaves like `BTreeMap`,
        /// and the final scan matches the model exactly.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec(op_strategy(), 1..300)) {
            let pool = Arc::new(BufferPool::new(Pager::memory(), 64));
            let tree = BTree::open(pool, 1).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        let key = k.to_be_bytes().to_vec();
                        // Values padded so splits actually happen.
                        let val = vec![*v; 64];
                        let old_t = tree.insert(&key, &val).unwrap();
                        let old_m = model.insert(key, val);
                        prop_assert_eq!(old_t, old_m);
                    }
                    Op::Delete(k) => {
                        let key = k.to_be_bytes().to_vec();
                        prop_assert_eq!(tree.delete(&key).unwrap(), model.remove(&key));
                    }
                    Op::Get(k) => {
                        let key = k.to_be_bytes().to_vec();
                        prop_assert_eq!(tree.get(&key).unwrap(), model.get(&key).cloned());
                    }
                }
            }
            let scanned: Vec<Entry> = tree.iter().unwrap().map(|e| e.unwrap()).collect();
            let expected: Vec<Entry> =
                model.into_iter().collect();
            prop_assert_eq!(scanned, expected);
        }
    }
}
