//! The temporal full-text index (§7.2).
//!
//! One inverted list per token. A token is either an element's (lowercased)
//! tag name — a *Name* occurrence — or a word from the element's own
//! attribute keys/values and immediate text children — a *Word* occurrence.
//! Occurrences are attributed to the containing element, exactly what the
//! `PatternScan` join needs.
//!
//! A [`Posting`] covers a half-open **version range** `[from, to)` of its
//! document: it is opened when the occurrence appears and closed by the
//! version (or deletion) that removes it — the paper's chosen alternative,
//! "index the contents of the versions", with version numbers instead of
//! timestamps (§7.1: timestamps live in the delta index). The hierarchical
//! information is the element's *xid-path* (chain of XIDs from the root):
//! persistent XIDs make parent/ancestor tests decidable from two postings
//! alone.
//!
//! The three lookup modes map directly onto ranges:
//!
//! * [`FullTextIndex::lookup`] — postings whose range is still open
//!   (current versions of undeleted documents);
//! * [`FullTextIndex::lookup_t`] — postings whose range contains the
//!   version valid at time *t* (the caller resolves time → version per
//!   document through the delta index);
//! * [`FullTextIndex::lookup_h`] — every posting, all times.
//!
//! The index lives in memory and is maintained incrementally by
//! [`crate::maint::IndexSet`]. Bootstrap no longer requires replaying all
//! of history: [`FullTextIndex::encode_into`] / [`FullTextIndex::decode_from`]
//! serialize the whole index compactly (sorted token dictionary, per-doc
//! posting groups with delta-of-version varints) for the index checkpoint
//! (see [`crate::persist`]), and open-time recovery replays only versions
//! above each document's checkpointed high-water mark.

use std::collections::{HashMap, HashSet};

use txdb_base::obs::{Counter, Registry};
use txdb_base::{DocId, Error, Result, VersionId, Xid};

use crate::persist::{read_u8, read_varint, write_varint};

/// Lookup counters, one per mode — the paper's §6 cost metrics
/// `FTI_lookup`, `FTI_lookup_T` and `FTI_lookup_H`. Registered under
/// `fti.*` when the index is opened with a metrics registry; handles are
/// carried across checkpoint [`install`](crate::maint::IndexSet::install)s
/// so the counts survive index replacement.
#[derive(Clone, Debug, Default)]
pub struct FtiMetrics {
    /// `FTI_lookup` calls (current-version lookups).
    pub lookups: Counter,
    /// `FTI_lookup_T` calls (time-point lookups).
    pub lookups_t: Counter,
    /// `FTI_lookup_H` calls (whole-history lookups).
    pub lookups_h: Counter,
}

impl FtiMetrics {
    /// Metrics registered in `reg` under `fti.*`.
    pub fn registered(reg: &Registry) -> FtiMetrics {
        FtiMetrics {
            lookups: reg.counter("fti.lookup"),
            lookups_t: reg.counter("fti.lookup_t"),
            lookups_h: reg.counter("fti.lookup_h"),
        }
    }
}

/// What kind of occurrence a posting records.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OccKind {
    /// The token is the element's tag name.
    Name,
    /// The token occurs in the element's own text or attributes.
    Word,
}

/// Open upper bound for a posting's version range.
pub const OPEN: u32 = u32::MAX;

/// One posting: a token occurrence in one element over a version range.
#[derive(Clone, Debug)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// The element the occurrence is attributed to.
    pub xid: Xid,
    /// Name or word occurrence.
    pub kind: OccKind,
    /// XIDs from the root down to (and including) `xid` — the
    /// hierarchical-relationship information of §7.2.
    pub path: Box<[Xid]>,
    /// First version (inclusive) the occurrence exists in.
    pub from_version: u32,
    /// First version (exclusive) it no longer exists in; [`OPEN`] while
    /// current.
    pub to_version: u32,
}

impl Posting {
    /// True when the posting is valid in version `v` of its document.
    #[inline]
    pub fn valid_at(&self, v: VersionId) -> bool {
        self.from_version <= v.0 && v.0 < self.to_version
    }

    /// True while the occurrence exists in the current version.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.to_version == OPEN
    }

    /// `self` is the parent element of `other` (same document).
    pub fn is_parent_of(&self, other: &Posting) -> bool {
        self.doc == other.doc
            && other.path.len() >= 2
            && other.path[other.path.len() - 2] == self.xid
    }

    /// `self` is a proper ancestor element of `other` (same document).
    pub fn is_ancestor_of(&self, other: &Posting) -> bool {
        self.doc == other.doc
            && other.path.len() > 1
            && other.path[..other.path.len() - 1].contains(&self.xid)
    }

    /// The two postings describe the same element.
    #[inline]
    pub fn same_element(&self, other: &Posting) -> bool {
        self.doc == other.doc && self.xid == other.xid
    }
}

/// One token's postings within one document. Postings are appended in
/// version order (maintenance processes versions monotonically), so
/// `from_version` is non-decreasing — snapshot lookups binary-search the
/// prefix. `open` lists the indices of still-open postings, so
/// current-version lookups never touch closed history (the "additional
/// access structures" §7.2 anticipates: without it, every lookup scans a
/// posting list that grows with churn forever).
#[derive(Default)]
struct DocPostings {
    postings: Vec<Posting>,
    open: Vec<u32>,
}

/// One token's inverted list, partitioned by document so that
/// document-scoped lookups (and selectivity-ordered pattern evaluation)
/// never touch other documents' postings.
#[derive(Default)]
struct TokenList {
    by_doc: HashMap<DocId, DocPostings>,
    total: usize,
}

/// An open posting's address: token, occurrence kind, index into the
/// per-doc posting vector. Maintenance only appends, so indices stay
/// stable.
type OpenRef = (String, OccKind, usize);

/// The temporal full-text index.
#[derive(Default)]
pub struct FullTextIndex {
    lists: HashMap<String, TokenList>,
    /// Open postings per (doc, element).
    open: HashMap<(DocId, Xid), Vec<OpenRef>>,
    /// The tokens with postings in each document, so that whole-document
    /// work (close, drop, list elements) touches only that document.
    doc_tokens: HashMap<DocId, HashSet<String>>,
    /// Per-mode lookup counters (shared with the registry when attached).
    metrics: FtiMetrics,
}

impl FullTextIndex {
    /// Fresh empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the metric handles (used to share counters with a store's
    /// registry, and to carry them across checkpoint installs).
    pub fn set_metrics(&mut self, metrics: FtiMetrics) {
        self.metrics = metrics;
    }

    /// The index's metric handles.
    pub fn metrics(&self) -> &FtiMetrics {
        &self.metrics
    }

    /// Opens a posting at `version` for `(doc, xid)` with the given token.
    pub fn open_posting(
        &mut self,
        token: &str,
        doc: DocId,
        xid: Xid,
        kind: OccKind,
        path: &[Xid],
        version: VersionId,
    ) {
        let list = self.lists.entry(token.to_string()).or_default();
        list.total += 1;
        let per_doc = list.by_doc.entry(doc).or_default();
        let idx = per_doc.postings.len();
        debug_assert!(per_doc.postings.last().is_none_or(|p| p.from_version <= version.0));
        per_doc.postings.push(Posting {
            doc,
            xid,
            kind,
            path: path.into(),
            from_version: version.0,
            to_version: OPEN,
        });
        per_doc.open.push(idx as u32);
        self.open.entry((doc, xid)).or_default().push((token.to_string(), kind, idx));
        let tokens = self.doc_tokens.entry(doc).or_default();
        if !tokens.contains(token) {
            tokens.insert(token.to_string());
        }
    }

    /// Closes the open posting for `(doc, xid, token, kind)` at `version`
    /// (the first version in which the occurrence no longer exists).
    /// Returns true if an open posting was found.
    pub fn close_posting(
        &mut self,
        token: &str,
        doc: DocId,
        xid: Xid,
        kind: OccKind,
        version: VersionId,
    ) -> bool {
        let Some(entries) = self.open.get_mut(&(doc, xid)) else { return false };
        let Some(pos) = entries.iter().position(|(t, k, _)| t == token && *k == kind) else {
            return false;
        };
        let (t, _, idx) = entries.swap_remove(pos);
        if entries.is_empty() {
            self.open.remove(&(doc, xid));
        }
        let per_doc = self
            .lists
            .get_mut(&t)
            .expect("list exists")
            .by_doc
            .get_mut(&doc)
            .expect("doc list exists");
        let p = &mut per_doc.postings[idx];
        debug_assert!(p.is_open());
        p.to_version = version.0;
        per_doc.open.retain(|&i| i != idx as u32);
        true
    }

    /// Closes *every* open posting of a document at `version` (document
    /// deletion).
    pub fn close_document(&mut self, doc: DocId, version: VersionId) {
        for t in self.doc_tokens.get(&doc).into_iter().flatten() {
            let Some(g) = self.lists.get_mut(t).and_then(|l| l.by_doc.get_mut(&doc)) else {
                continue;
            };
            for i in g.open.drain(..) {
                let p = &mut g.postings[i as usize];
                p.to_version = version.0;
                self.open.remove(&(doc, p.xid));
            }
        }
    }

    /// The open postings of one element: (token, kind). Used by maintenance
    /// to diff old vs new occurrence sets.
    pub fn open_tokens(&self, doc: DocId, xid: Xid) -> Vec<(String, OccKind)> {
        self.open
            .get(&(doc, xid))
            .map(|v| v.iter().map(|(t, k, _)| (t.clone(), *k)).collect())
            .unwrap_or_default()
    }

    /// True while the element has an open Name posting, i.e. while it is in
    /// its document's current version (every element has a Name posting).
    pub fn is_alive(&self, doc: DocId, xid: Xid) -> bool {
        self.open.get(&(doc, xid)).is_some_and(|v| v.iter().any(|(_, k, _)| *k == OccKind::Name))
    }

    /// Every element of `doc` that has a posting: the elements of its
    /// indexed versions.
    pub fn doc_elements(&self, doc: DocId) -> HashSet<Xid> {
        (self.doc_tokens.get(&doc).into_iter().flatten())
            .filter_map(|t| self.lists.get(t)?.by_doc.get(&doc))
            .flat_map(|g| g.postings.iter().map(|p| p.xid))
            .collect()
    }

    /// The path recorded on the open postings of one element (all open
    /// postings of an element share it). Borrowed straight from the
    /// posting — maintenance calls this once per affected element, and
    /// cloning a path per call was pure overhead.
    pub fn open_path(&self, doc: DocId, xid: Xid) -> Option<&[Xid]> {
        let (t, _, idx) = self.open.get(&(doc, xid))?.first()?;
        Some(&self.lists[t.as_str()].by_doc[&doc].postings[*idx].path)
    }

    /// The total posting count of a token (selectivity estimate for the
    /// pattern-node evaluation order).
    pub fn list_len(&self, token: &str) -> usize {
        self.lists.get(token).map(|l| l.total).unwrap_or(0)
    }

    /// The per-doc posting groups of a token, restricted to `docs` when
    /// given.
    fn doc_groups<'a>(
        &'a self,
        token: &str,
        docs: Option<&HashSet<DocId>>,
    ) -> Vec<&'a DocPostings> {
        let Some(list) = self.lists.get(token) else {
            return Vec::new();
        };
        match docs {
            Some(set) => set.iter().filter_map(|d| list.by_doc.get(d)).collect(),
            None => list.by_doc.values().collect(),
        }
    }

    /// `FTI_lookup(word)` — occurrences in current versions of undeleted
    /// documents (§7.2).
    pub fn lookup<'a>(&'a self, token: &str, kind: OccKind) -> Vec<&'a Posting> {
        self.lookup_scoped(token, kind, None)
    }

    /// `FTI_lookup` restricted to a document set.
    pub fn lookup_scoped<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
    ) -> Vec<&'a Posting> {
        self.open_cursor(token, kind, docs).collect()
    }

    /// Cursor form of [`FullTextIndex::lookup`]: a lazy iterator over the
    /// open postings. Only the open access lists are touched — cost is
    /// O(postings consumed), independent of history length, and a caller
    /// that stops early (pattern intersection emptied, LIMIT satisfied)
    /// never pays for the rest of the list.
    pub fn open_cursor<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
    ) -> OpenCursor<'a> {
        self.metrics.lookups.inc();
        OpenCursor { groups: self.doc_groups(token, docs).into_iter(), cur: None, pos: 0, kind }
    }

    /// `FTI_lookup_T(word, t)` — occurrences valid at time *t*. The caller
    /// resolves the version valid at *t* per document (through the delta
    /// index, which maps version numbers to timestamps); documents that did
    /// not exist at *t* resolve to `None`.
    pub fn lookup_t<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        version_at: impl FnMut(DocId) -> Option<VersionId>,
    ) -> Vec<&'a Posting> {
        self.lookup_t_scoped(token, kind, None, version_at)
    }

    /// `FTI_lookup_T` restricted to a document set.
    pub fn lookup_t_scoped<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
        version_at: impl FnMut(DocId) -> Option<VersionId>,
    ) -> Vec<&'a Posting> {
        self.snapshot_cursor(token, kind, docs, version_at).collect()
    }

    /// Cursor form of [`FullTextIndex::lookup_t`]. The timestamp predicate
    /// is pushed into the cursor: per document, `from_version` is
    /// non-decreasing, so a binary search bounds the candidate prefix and
    /// postings past the partition point are never visited.
    pub fn snapshot_cursor<'a, F>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
        version_at: F,
    ) -> SnapshotCursor<'a, F>
    where
        F: FnMut(DocId) -> Option<VersionId>,
    {
        self.metrics.lookups_t.inc();
        SnapshotCursor {
            groups: self.doc_groups(token, docs).into_iter(),
            cur: None,
            pos: 0,
            kind,
            version_at,
        }
    }

    /// `FTI_lookup_H(word)` — every posting over the whole history (§7.2).
    pub fn lookup_h<'a>(&'a self, token: &str, kind: OccKind) -> Vec<&'a Posting> {
        self.lookup_h_scoped(token, kind, None)
    }

    /// `FTI_lookup_H` restricted to a document set.
    pub fn lookup_h_scoped<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
    ) -> Vec<&'a Posting> {
        self.history_cursor(token, kind, docs).collect()
    }

    /// Cursor form of [`FullTextIndex::lookup_h`]: lazily yields every
    /// posting of the token over the whole history.
    pub fn history_cursor<'a>(
        &'a self,
        token: &str,
        kind: OccKind,
        docs: Option<&HashSet<DocId>>,
    ) -> HistoryCursor<'a> {
        self.metrics.lookups_h.inc();
        HistoryCursor { groups: self.doc_groups(token, docs).into_iter(), cur: None, kind }
    }

    /// Number of postings (index-size metric for E7).
    pub fn posting_count(&self) -> usize {
        self.lists.values().map(|l| l.total).sum()
    }

    /// Number of distinct tokens.
    pub fn token_count(&self) -> usize {
        self.lists.len()
    }

    /// Removes every trace of a document (postings, open lists, open-map
    /// entries) before its chain is replayed from scratch.
    pub fn drop_document(&mut self, doc: DocId) {
        for t in self.doc_tokens.remove(&doc).unwrap_or_default() {
            let Some(list) = self.lists.get_mut(&t) else { continue };
            if let Some(g) = list.by_doc.remove(&doc) {
                list.total -= g.postings.len();
                for &i in &g.open {
                    self.open.remove(&(doc, g.postings[i as usize].xid));
                }
            }
            if list.by_doc.is_empty() {
                self.lists.remove(&t);
            }
        }
    }

    /// Serializes the index: a sorted token dictionary, and per token the
    /// per-document posting groups with `from_version` delta-encoded as
    /// varints (postings are stored in `from_version` order, so deltas are
    /// small). `to_version` is written as `0` for [`OPEN`], else
    /// `to - from + 1` — closed ranges are short-lived in practice.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut tokens: Vec<(&String, &TokenList)> = self.lists.iter().collect();
        tokens.sort_by_key(|(t, _)| t.as_str());
        write_varint(out, tokens.len() as u64);
        for (token, list) in tokens {
            write_varint(out, token.len() as u64);
            out.extend_from_slice(token.as_bytes());
            let mut groups: Vec<(&DocId, &DocPostings)> = list.by_doc.iter().collect();
            groups.sort_by_key(|(d, _)| d.0);
            write_varint(out, groups.len() as u64);
            for (doc, g) in groups {
                write_varint(out, doc.0 as u64);
                write_varint(out, g.postings.len() as u64);
                let mut prev_from = 0u32;
                for p in &g.postings {
                    write_varint(out, (p.from_version - prev_from) as u64);
                    prev_from = p.from_version;
                    let to = if p.to_version == OPEN {
                        0
                    } else {
                        (p.to_version - p.from_version) as u64 + 1
                    };
                    write_varint(out, to);
                    write_varint(out, p.xid.0);
                    out.push(match p.kind {
                        OccKind::Name => 0,
                        OccKind::Word => 1,
                    });
                    write_varint(out, p.path.len() as u64);
                    for x in p.path.iter() {
                        write_varint(out, x.0);
                    }
                }
            }
        }
    }

    /// Deserializes an index written by [`FullTextIndex::encode_into`],
    /// rebuilding the open-posting access structures from the postings
    /// whose range is still open. Consumes its portion of `input`.
    pub fn decode_from(input: &mut &[u8]) -> Result<FullTextIndex> {
        let mut fti = FullTextIndex::new();
        let n_tokens = read_varint(input)? as usize;
        for _ in 0..n_tokens {
            let len = read_varint(input)? as usize;
            if input.len() < len {
                return Err(Error::Corrupt("fti checkpoint: truncated token".into()));
            }
            let (head, rest) = input.split_at(len);
            *input = rest;
            let token = String::from_utf8(head.to_vec())
                .map_err(|_| Error::Corrupt("fti checkpoint: token not UTF-8".into()))?;
            let list = fti.lists.entry(token.clone()).or_default();
            let n_docs = read_varint(input)? as usize;
            for _ in 0..n_docs {
                let doc = DocId(
                    u32::try_from(read_varint(input)?)
                        .map_err(|_| Error::Corrupt("fti checkpoint: doc id overflow".into()))?,
                );
                let n_postings = read_varint(input)? as usize;
                fti.doc_tokens.entry(doc).or_default().insert(token.clone());
                let per_doc = list.by_doc.entry(doc).or_default();
                let mut prev_from = 0u32;
                for _ in 0..n_postings {
                    let from = prev_from
                        .checked_add(u32::try_from(read_varint(input)?).map_err(|_| {
                            Error::Corrupt("fti checkpoint: version overflow".into())
                        })?)
                        .ok_or_else(|| Error::Corrupt("fti checkpoint: version overflow".into()))?;
                    prev_from = from;
                    let to_raw = read_varint(input)?;
                    let to = if to_raw == 0 {
                        OPEN
                    } else {
                        from.checked_add(
                            u32::try_from(to_raw - 1).map_err(|_| {
                                Error::Corrupt("fti checkpoint: range overflow".into())
                            })?,
                        )
                        .ok_or_else(|| Error::Corrupt("fti checkpoint: range overflow".into()))?
                    };
                    let xid = Xid(read_varint(input)?);
                    let kind = match read_u8(input)? {
                        0 => OccKind::Name,
                        1 => OccKind::Word,
                        x => {
                            return Err(Error::Corrupt(format!(
                                "fti checkpoint: bad occurrence kind {x}"
                            )))
                        }
                    };
                    let path_len = read_varint(input)? as usize;
                    if path_len > input.len() {
                        return Err(Error::Corrupt("fti checkpoint: truncated path".into()));
                    }
                    let mut path = Vec::with_capacity(path_len);
                    for _ in 0..path_len {
                        path.push(Xid(read_varint(input)?));
                    }
                    let idx = per_doc.postings.len();
                    per_doc.postings.push(Posting {
                        doc,
                        xid,
                        kind,
                        path: path.into(),
                        from_version: from,
                        to_version: to,
                    });
                    list.total += 1;
                    if to == OPEN {
                        per_doc.open.push(idx as u32);
                        fti.open.entry((doc, xid)).or_default().push((token.clone(), kind, idx));
                    }
                }
            }
        }
        Ok(fti)
    }

    /// Approximate memory footprint in bytes (E7 index-size metric).
    pub fn approx_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|(t, l)| {
                t.len()
                    + 48
                    + l.by_doc
                        .values()
                        .flat_map(|g| g.postings.iter())
                        .map(|p| std::mem::size_of::<Posting>() + p.path.len() * 8)
                        .sum::<usize>()
                    + l.by_doc.values().map(|g| 48 + g.open.len() * 4).sum::<usize>()
            })
            .sum::<usize>()
            + self.open.len() * 64
            + (self.doc_tokens.values())
                .map(|s| 48 + s.iter().map(|t| t.len() + 32).sum::<usize>())
                .sum::<usize>()
    }
}

/// Lazy `FTI_lookup` cursor over a token's open postings, created by
/// [`FullTextIndex::open_cursor`]. Pulls one posting per `next()`; a
/// caller that stops early never touches the remaining access lists.
pub struct OpenCursor<'a> {
    groups: std::vec::IntoIter<&'a DocPostings>,
    cur: Option<&'a DocPostings>,
    pos: usize,
    kind: OccKind,
}

impl<'a> Iterator for OpenCursor<'a> {
    type Item = &'a Posting;

    fn next(&mut self) -> Option<&'a Posting> {
        loop {
            if let Some(g) = self.cur {
                while self.pos < g.open.len() {
                    let p = &g.postings[g.open[self.pos] as usize];
                    self.pos += 1;
                    if p.kind == self.kind {
                        return Some(p);
                    }
                }
                self.cur = None;
            }
            self.cur = Some(self.groups.next()?);
            self.pos = 0;
        }
    }
}

/// Lazy `FTI_lookup_T` cursor, created by
/// [`FullTextIndex::snapshot_cursor`]. The snapshot version is resolved
/// once per document group and the non-decreasing `from_version` order is
/// exploited to bound each group by binary search before iteration — the
/// timestamp predicate is evaluated inside the cursor, not by the caller.
pub struct SnapshotCursor<'a, F> {
    groups: std::vec::IntoIter<&'a DocPostings>,
    cur: Option<(&'a [Posting], u32)>,
    pos: usize,
    kind: OccKind,
    version_at: F,
}

impl<'a, F: FnMut(DocId) -> Option<VersionId>> Iterator for SnapshotCursor<'a, F> {
    type Item = &'a Posting;

    fn next(&mut self) -> Option<&'a Posting> {
        loop {
            if let Some((slice, v)) = self.cur {
                while self.pos < slice.len() {
                    let p = &slice[self.pos];
                    self.pos += 1;
                    if p.kind == self.kind && v < p.to_version {
                        return Some(p);
                    }
                }
                self.cur = None;
            }
            let g = self.groups.next()?;
            let Some(first) = g.postings.first() else { continue };
            let Some(v) = (self.version_at)(first.doc) else { continue };
            let end = g.postings.partition_point(|p| p.from_version <= v.0);
            self.cur = Some((&g.postings[..end], v.0));
            self.pos = 0;
        }
    }
}

/// Lazy `FTI_lookup_H` cursor over a token's whole history, created by
/// [`FullTextIndex::history_cursor`].
pub struct HistoryCursor<'a> {
    groups: std::vec::IntoIter<&'a DocPostings>,
    cur: Option<std::slice::Iter<'a, Posting>>,
    kind: OccKind,
}

impl<'a> Iterator for HistoryCursor<'a> {
    type Item = &'a Posting;

    fn next(&mut self) -> Option<&'a Posting> {
        loop {
            if let Some(it) = self.cur.as_mut() {
                for p in it {
                    if p.kind == self.kind {
                        return Some(p);
                    }
                }
                self.cur = None;
            }
            self.cur = Some(self.groups.next()?.postings.iter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u32) -> DocId {
        DocId(n)
    }
    fn x(n: u64) -> Xid {
        Xid(n)
    }
    fn v(n: u32) -> VersionId {
        VersionId(n)
    }

    #[test]
    fn open_lookup_close_cycle() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("napoli", d(1), x(3), OccKind::Word, &[x(1), x(2), x(3)], v(0));
        assert_eq!(fti.lookup("napoli", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup("napoli", OccKind::Name).len(), 0);
        assert!(fti.close_posting("napoli", d(1), x(3), OccKind::Word, v(2)));
        assert_eq!(fti.lookup("napoli", OccKind::Word).len(), 0);
        // Historical lookups still see it within [0, 2).
        let got = fti.lookup_t("napoli", OccKind::Word, |_| Some(v(1)));
        assert_eq!(got.len(), 1);
        let got = fti.lookup_t("napoli", OccKind::Word, |_| Some(v(2)));
        assert_eq!(got.len(), 0);
        assert_eq!(fti.lookup_h("napoli", OccKind::Word).len(), 1);
        // Double close is a no-op-false.
        assert!(!fti.close_posting("napoli", d(1), x(3), OccKind::Word, v(3)));
    }

    #[test]
    fn name_and_word_occurrences_distinct() {
        let mut fti = FullTextIndex::new();
        // <restaurant> element named "restaurant" containing word "restaurant".
        fti.open_posting("restaurant", d(1), x(2), OccKind::Name, &[x(1), x(2)], v(0));
        fti.open_posting("restaurant", d(1), x(2), OccKind::Word, &[x(1), x(2)], v(0));
        assert_eq!(fti.lookup("restaurant", OccKind::Name).len(), 1);
        assert_eq!(fti.lookup("restaurant", OccKind::Word).len(), 1);
        assert!(fti.close_posting("restaurant", d(1), x(2), OccKind::Word, v(1)));
        assert_eq!(fti.lookup("restaurant", OccKind::Name).len(), 1, "name survives");
    }

    #[test]
    fn relationships_from_paths() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("guide", d(1), x(1), OccKind::Name, &[x(1)], v(0));
        fti.open_posting("restaurant", d(1), x(2), OccKind::Name, &[x(1), x(2)], v(0));
        fti.open_posting("name", d(1), x(3), OccKind::Name, &[x(1), x(2), x(3)], v(0));
        let g = &fti.lookup("guide", OccKind::Name)[0];
        let r = &fti.lookup("restaurant", OccKind::Name)[0];
        let n = &fti.lookup("name", OccKind::Name)[0];
        assert!(g.is_parent_of(r));
        assert!(!g.is_parent_of(n));
        assert!(g.is_ancestor_of(n));
        assert!(g.is_ancestor_of(r));
        assert!(r.is_parent_of(n));
        assert!(!n.is_ancestor_of(g));
        assert!(!r.same_element(n));
    }

    #[test]
    fn cross_document_relationships_never_hold() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("a", d(1), x(1), OccKind::Name, &[x(1)], v(0));
        fti.open_posting("b", d(2), x(2), OccKind::Name, &[x(1), x(2)], v(0));
        let a = &fti.lookup("a", OccKind::Name)[0];
        let b = &fti.lookup("b", OccKind::Name)[0];
        assert!(!a.is_parent_of(b));
        assert!(!a.is_ancestor_of(b));
    }

    #[test]
    fn close_document_closes_everything() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("a", d(1), x(1), OccKind::Name, &[x(1)], v(0));
        fti.open_posting("w", d(1), x(1), OccKind::Word, &[x(1)], v(0));
        fti.open_posting("a", d(2), x(1), OccKind::Name, &[x(1)], v(0));
        fti.close_document(d(1), v(3));
        assert_eq!(fti.lookup("a", OccKind::Name).len(), 1, "doc 2 untouched");
        assert_eq!(fti.lookup("w", OccKind::Word).len(), 0);
        assert_eq!(fti.lookup_t("w", OccKind::Word, |_| Some(v(2))).len(), 1);
    }

    #[test]
    fn lookup_t_per_document_versions() {
        let mut fti = FullTextIndex::new();
        // doc 1 has the word in versions [0, 5); doc 2 in [3, OPEN).
        fti.open_posting("w", d(1), x(1), OccKind::Word, &[x(1)], v(0));
        fti.close_posting("w", d(1), x(1), OccKind::Word, v(5));
        fti.open_posting("w", d(2), x(1), OccKind::Word, &[x(1)], v(3));
        // At a time where doc1 is at v4 and doc2 at v2:
        let got =
            fti.lookup_t("w", OccKind::Word, |doc| Some(if doc == d(1) { v(4) } else { v(2) }));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].doc, d(1));
        // Doc without a version at t is excluded.
        let got =
            fti.lookup_t("w", OccKind::Word, |doc| if doc == d(2) { Some(v(4)) } else { None });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].doc, d(2));
    }

    #[test]
    fn open_tokens_and_path() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("name", d(1), x(3), OccKind::Name, &[x(1), x(3)], v(0));
        fti.open_posting("napoli", d(1), x(3), OccKind::Word, &[x(1), x(3)], v(0));
        let mut toks = fti.open_tokens(d(1), x(3));
        toks.sort();
        assert_eq!(
            toks,
            vec![("name".to_string(), OccKind::Name), ("napoli".to_string(), OccKind::Word)]
        );
        assert_eq!(fti.open_path(d(1), x(3)).unwrap(), &[x(1), x(3)]);
        assert!(fti.open_path(d(1), x(9)).is_none());
    }

    #[test]
    fn stats_counters() {
        let mut fti = FullTextIndex::new();
        assert_eq!(fti.posting_count(), 0);
        fti.open_posting("a", d(1), x(1), OccKind::Name, &[x(1)], v(0));
        fti.open_posting("b", d(1), x(1), OccKind::Word, &[x(1)], v(0));
        assert_eq!(fti.posting_count(), 2);
        assert_eq!(fti.token_count(), 2);
        assert!(fti.approx_bytes() > 0);
    }

    #[test]
    fn encode_decode_round_trip_preserves_lookups() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("guide", d(1), x(1), OccKind::Name, &[x(1)], v(0));
        fti.open_posting("napoli", d(1), x(3), OccKind::Word, &[x(1), x(2), x(3)], v(0));
        fti.close_posting("napoli", d(1), x(3), OccKind::Word, v(4));
        fti.open_posting("roma", d(1), x(3), OccKind::Word, &[x(1), x(2), x(3)], v(4));
        fti.open_posting("napoli", d(2), x(7), OccKind::Word, &[x(7)], v(2));
        let mut blob = Vec::new();
        fti.encode_into(&mut blob);
        let mut cursor = blob.as_slice();
        let back = FullTextIndex::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "decode consumed everything");
        assert_eq!(back.posting_count(), fti.posting_count());
        assert_eq!(back.token_count(), fti.token_count());
        // Open/current lookups survive (the rebuilt open structures work).
        assert_eq!(back.lookup("napoli", OccKind::Word).len(), 1);
        assert_eq!(back.lookup("roma", OccKind::Word).len(), 1);
        // Snapshot + history lookups survive.
        assert_eq!(back.lookup_t("napoli", OccKind::Word, |_| Some(v(1))).len(), 1);
        assert_eq!(back.lookup_h("napoli", OccKind::Word).len(), 2);
        // Paths and relationships survive.
        let g = &back.lookup("guide", OccKind::Name)[0];
        let r = &back.lookup("roma", OccKind::Word)[0];
        assert!(g.is_ancestor_of(r));
        // The rebuilt index is maintainable: close through the open map.
        let mut back = back;
        assert!(back.close_posting("roma", d(1), x(3), OccKind::Word, v(9)));
        assert_eq!(back.lookup("roma", OccKind::Word).len(), 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        for blob in [vec![0xffu8; 3], vec![2, 1, b'a', 1, 1], vec![1, 200]] {
            let mut cursor = blob.as_slice();
            assert!(FullTextIndex::decode_from(&mut cursor).is_err(), "garbage {blob:?} decoded");
        }
    }

    #[test]
    fn drop_document_removes_all_traces() {
        let mut fti = FullTextIndex::new();
        fti.open_posting("w", d(1), x(1), OccKind::Word, &[x(1)], v(0));
        fti.open_posting("w", d(2), x(1), OccKind::Word, &[x(1)], v(0));
        fti.close_posting("w", d(1), x(1), OccKind::Word, v(1));
        fti.open_posting("only1", d(1), x(2), OccKind::Word, &[x(1), x(2)], v(1));
        fti.drop_document(d(1));
        assert_eq!(fti.lookup_h("w", OccKind::Word).len(), 1);
        assert_eq!(fti.lookup_h("w", OccKind::Word)[0].doc, d(2));
        assert_eq!(fti.list_len("only1"), 0, "token emptied by the drop vanishes");
        assert!(fti.open_tokens(d(1), x(2)).is_empty());
        assert_eq!(fti.posting_count(), 1);
        assert!(fti.doc_elements(d(1)).is_empty());
        assert_eq!(fti.doc_elements(d(2)), HashSet::from([x(1)]));
        // Re-indexing the dropped document starts from nothing.
        fti.open_posting("w", d(1), x(3), OccKind::Word, &[x(3)], v(2));
        assert_eq!(fti.doc_elements(d(1)), HashSet::from([x(3)]));
        fti.close_document(d(1), v(3));
        assert_eq!(fti.lookup("w", OccKind::Word).len(), 1, "doc 2 still open");
        assert!(fti.open_tokens(d(1), x(3)).is_empty());
    }

    #[test]
    fn missing_token_lookups_empty() {
        let fti = FullTextIndex::new();
        assert!(fti.lookup("nothing", OccKind::Word).is_empty());
        assert!(fti.lookup_h("nothing", OccKind::Word).is_empty());
        assert!(fti.lookup_t("nothing", OccKind::Word, |_| Some(v(0))).is_empty());
    }
}
