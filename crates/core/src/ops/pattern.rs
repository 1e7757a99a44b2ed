//! `PatternScan`, `TPatternScan` and `TPatternScanAll` (§7.3.1–7.3.2).
//!
//! The paper's algorithm, verbatim:
//!
//! > 1. For all words wᵢ in pattern, call Lᵢ = FTI_lookup(wᵢ).
//! > 2. Execute Join(L₁, …, Lₙ) with join attributes: document identifier,
//! >    relationship (e.g., isparentof or isascendantof).
//!
//! `TPatternScan` swaps in `FTI_lookup_T`; `TPatternScanAll` uses
//! `FTI_lookup_H` and adds **time** to the join attributes ("words in the
//! pattern valid at same time, which actually implies that this is a
//! temporal join").
//!
//! Per-pattern-node candidates are the same-element intersection of that
//! node's token posting lists (a pattern node constrains one element with
//! its tag and content words); the structural join then binds pattern
//! nodes top-down, deciding `isParentOf`/`isAscendantOf` from the
//! xid-paths carried in the postings — no document access at all, which is
//! the point of the paper's Q2 observation (aggregates over scans never
//! reconstruct).
//!
//! Every pattern node must carry at least one token (tag name or word);
//! the query planner routes wildcard-only patterns to the reconstruction
//! fallback instead (see `txdb-query`).

use std::collections::HashMap;

use txdb_base::{DocId, Eid, Error, Result, Timestamp, VersionId, Xid};
use txdb_index::fti::{OccKind, Posting, OPEN};
use txdb_storage::repo::VersionKind;
use txdb_xml::pattern::{PatternEdge, PatternNode, PatternTree};

use crate::db::Database;

/// One match produced by a (temporal) pattern scan: the elements bound to
/// the pattern nodes in pre-order, in one version of one document.
#[derive(Clone, Debug)]
pub struct Match {
    /// The document the match lives in.
    pub doc: DocId,
    /// The document version the match refers to.
    pub version: VersionId,
    /// The commit timestamp of that version (the TEID timestamp).
    pub ts: Timestamp,
    /// Bound elements, indexed like the pattern's pre-order nodes.
    pub nodes: Vec<Eid>,
}

/// Cost counters for a scan (experiment metrics).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// FTI lookups performed (one per pattern token).
    pub fti_lookups: usize,
    /// Total postings retrieved.
    pub postings: usize,
    /// Matches produced.
    pub matches: usize,
}

/// Flattened pattern: pre-order nodes with parent links.
struct FlatPattern<'p> {
    nodes: Vec<(&'p PatternNode, Option<usize>)>,
}

impl<'p> FlatPattern<'p> {
    fn new(pattern: &'p PatternTree) -> Self {
        let mut nodes = Vec::new();
        fn walk<'p>(
            n: &'p PatternNode,
            parent: Option<usize>,
            out: &mut Vec<(&'p PatternNode, Option<usize>)>,
        ) {
            let idx = out.len();
            out.push((n, parent));
            for c in &n.children {
                walk(c, Some(idx), out);
            }
        }
        walk(&pattern.root, None, &mut nodes);
        FlatPattern { nodes }
    }

    /// The FTI tokens of node `i`: `(token, kind)`.
    fn tokens(&self, i: usize) -> Vec<(String, OccKind)> {
        let node = self.nodes[i].0;
        let mut out = Vec::new();
        if let Some(tag) = &node.tag {
            out.push((tag.to_lowercase(), OccKind::Name));
        }
        for w in &node.words {
            out.push((w.clone(), OccKind::Word));
        }
        out
    }
}

/// Which lookup mode a scan runs in.
#[derive(Clone, Copy)]
enum Mode {
    Current,
    At(Timestamp),
    /// All versions whose commit time falls in the interval. `ALL` is the
    /// plain `TPatternScanAll`; narrower intervals implement the §8
    /// algebraic rewriting (temporal predicates pushed into the scan).
    All(txdb_base::Interval),
}

impl Database {
    /// `PatternScan(Δ, pattern)` — matches in the *current* versions of all
    /// undeleted documents (the non-temporal baseline operator of \[2\]).
    pub fn pattern_scan(&self, docs: Option<DocId>, pattern: &PatternTree) -> Result<Vec<Match>> {
        Ok(self.drain(docs, pattern, Mode::Current)?.0)
    }

    /// `TPatternScan(Δ, pattern, t)` — matches in the snapshot valid at
    /// `t` (§7.3.1). Output rows carry the TEID timestamp of the matched
    /// version.
    pub fn tpattern_scan(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        t: Timestamp,
    ) -> Result<Vec<Match>> {
        Ok(self.drain(docs, pattern, Mode::At(t))?.0)
    }

    /// `TPatternScan` with cost counters.
    pub fn tpattern_scan_counted(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        t: Timestamp,
    ) -> Result<(Vec<Match>, ScanStats)> {
        self.drain(docs, pattern, Mode::At(t))
    }

    /// `TPatternScanAll(Δ, pattern)` — matches across *all* versions
    /// (§7.3.2, the temporal multiway join). One [`Match`] is emitted per
    /// content version of the document within the joint validity range of
    /// the binding.
    pub fn tpattern_scan_all(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
    ) -> Result<Vec<Match>> {
        Ok(self.drain(docs, pattern, Mode::All(txdb_base::Interval::ALL))?.0)
    }

    /// `TPatternScanAll` restricted to versions committed within
    /// `interval` — the §8 "algebraic rewriting" target: the query planner
    /// lowers `TIME(R) >= t` / `TIME(R) < t` conjuncts into this interval
    /// instead of expanding every version and filtering afterwards.
    pub fn tpattern_scan_all_between(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        interval: txdb_base::Interval,
    ) -> Result<Vec<Match>> {
        Ok(self.drain(docs, pattern, Mode::All(interval))?.0)
    }

    /// Streaming [`Database::pattern_scan`]: a [`MatchCursor`] that pulls
    /// one match at a time instead of materializing the result set.
    pub fn pattern_cursor(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
    ) -> Result<MatchCursor<'_>> {
        MatchCursor::new(self, docs, pattern, Mode::Current)
    }

    /// Streaming [`Database::tpattern_scan`].
    pub fn tpattern_cursor(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        t: Timestamp,
    ) -> Result<MatchCursor<'_>> {
        MatchCursor::new(self, docs, pattern, Mode::At(t))
    }

    /// Streaming [`Database::tpattern_scan_all_between`].
    pub fn tpattern_cursor_all_between(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        interval: txdb_base::Interval,
    ) -> Result<MatchCursor<'_>> {
        MatchCursor::new(self, docs, pattern, Mode::All(interval))
    }

    /// The eager scans are a consumer of the one cursor: drain it, in its
    /// `(doc, version, bound XIDs)` order.
    fn drain(
        &self,
        docs: Option<DocId>,
        pattern: &PatternTree,
        mode: Mode,
    ) -> Result<(Vec<Match>, ScanStats)> {
        let mut cursor = MatchCursor::new(self, docs, pattern, mode)?;
        let mut out = Vec::new();
        while let Some(m) = cursor.try_next()? {
            out.push(m);
        }
        Ok((out, cursor.stats()))
    }
}

/// A candidate element for one pattern node, with the version range over
/// which all the node's tokens co-exist on the element. Cloned out of the
/// postings so a long-lived cursor never holds the FTI read guard (which
/// would block index maintenance for the cursor's whole lifetime).
struct OwnedCand {
    xid: Xid,
    path: Box<[Xid]>,
    from: u32,
    to: u32,
}

/// Step-1 output: the documents that hold candidates for *every* pattern
/// node, ascending, each with its candidates per node, plus the
/// snapshot-version resolutions made along the way.
struct Candidates {
    docs: Vec<(DocId, Vec<Vec<OwnedCand>>)>,
    version_cache: HashMap<DocId, Option<VersionId>>,
}

/// Step 1 of the scan algorithm: per-node candidates = same-element
/// intersection of the node's token posting lists. Nodes are processed
/// most-selective first (shortest posting list), and each processed node
/// restricts the documents later lookups touch — the join is per-document,
/// so documents absent from any node's candidates can never match.
/// Postings are pulled lazily off the FTI cursors under its read guard;
/// the intersection borrows their paths and clones only the candidates of
/// the documents that survive every node.
fn collect_candidates(
    db: &Database,
    flat: &FlatPattern<'_>,
    docs: Option<DocId>,
    mode: Mode,
    stats: &mut ScanStats,
) -> Result<Candidates> {
    /// [`OwnedCand`] with its path borrowed from the posting.
    #[derive(Clone, Copy)]
    struct Cand<'a> {
        xid: Xid,
        path: &'a [Xid],
        from: u32,
        to: u32,
    }

    for i in 0..flat.nodes.len() {
        if flat.tokens(i).is_empty() {
            return Err(Error::Unsupported(
                "index pattern scan requires a tag or word on every pattern node".into(),
            ));
        }
    }

    // Per-document version resolution for the snapshot mode is cached
    // across all lookups of this scan. It reads the store under the FTI
    // guard (lock order FTI → `store.sync`). The cursor takes a plain
    // resolver, so the first store error is kept and fails the scan once
    // the lookups are done.
    let fti = db.indexes().fti();
    let mut version_cache: HashMap<DocId, Option<VersionId>> = HashMap::new();
    let mut resolve_err = None;
    let mut resolve = |doc: DocId, t: Timestamp| -> Option<VersionId> {
        *version_cache.entry(doc).or_insert_with(|| {
            db.store().version_at(doc, t).unwrap_or_else(|e| {
                resolve_err.get_or_insert(e);
                None
            })
        })
    };

    let mut order: Vec<usize> = (0..flat.nodes.len()).collect();
    order.sort_by_key(|&i| {
        flat.tokens(i).iter().map(|(t, _)| fti.list_len(t)).min().unwrap_or(usize::MAX)
    });
    let mut allowed: Option<std::collections::HashSet<DocId>> =
        docs.map(|d| std::collections::HashSet::from([d]));
    let mut borrowed: Vec<HashMap<DocId, Vec<Cand<'_>>>> =
        (0..flat.nodes.len()).map(|_| HashMap::new()).collect();
    for &i in &order {
        // Within the node, start from the rarest token too.
        let mut tokens = flat.tokens(i);
        tokens.sort_by_key(|(t, _)| fti.list_len(t));
        let mut per_elem: HashMap<(DocId, Xid), Vec<Cand<'_>>> = HashMap::new();
        for (tok_idx, (tok, kind)) in tokens.iter().enumerate() {
            stats.fti_lookups += 1;
            let postings: Box<dyn Iterator<Item = &Posting> + '_> = match &mode {
                Mode::Current => Box::new(fti.open_cursor(tok, *kind, allowed.as_ref())),
                Mode::At(t) => Box::new(fti.snapshot_cursor(tok, *kind, allowed.as_ref(), {
                    let resolve = &mut resolve;
                    move |doc| resolve(doc, *t)
                })),
                Mode::All(_) => Box::new(fti.history_cursor(tok, *kind, allowed.as_ref())),
            };
            let require_root = flat.nodes[i].0.at_root;
            if tok_idx == 0 {
                for p in postings {
                    stats.postings += 1;
                    if require_root && p.path.len() != 1 {
                        continue;
                    }
                    per_elem.entry((p.doc, p.xid)).or_default().push(Cand {
                        xid: p.xid,
                        path: &p.path,
                        from: p.from_version,
                        to: p.to_version,
                    });
                }
            } else {
                // Intersect ranges with the accumulated candidates.
                let mut next: HashMap<(DocId, Xid), Vec<Cand<'_>>> = HashMap::new();
                for p in postings {
                    stats.postings += 1;
                    let Some(acc) = per_elem.get(&(p.doc, p.xid)) else { continue };
                    for c in acc {
                        let from = c.from.max(p.from_version);
                        let to = c.to.min(p.to_version);
                        if from < to {
                            // Paths agree within an overlapping range
                            // (both postings describe the same element
                            // in the same versions).
                            next.entry((p.doc, p.xid)).or_default().push(Cand { from, to, ..*c });
                        }
                    }
                }
                per_elem = next;
            }
            if per_elem.is_empty() {
                break;
            }
        }
        let mut by_doc: HashMap<DocId, Vec<Cand<'_>>> = HashMap::new();
        for ((doc, _), cs) in per_elem {
            by_doc.entry(doc).or_default().extend(cs);
        }
        allowed = Some(by_doc.keys().copied().collect());
        borrowed[i] = by_doc;
        if allowed.as_ref().is_some_and(|a| a.is_empty()) {
            break;
        }
    }
    if let Some(e) = resolve_err {
        return Err(e);
    }

    let mut survivors: Vec<DocId> = borrowed[0].keys().copied().collect();
    survivors.retain(|d| borrowed.iter().all(|m| m.contains_key(d)));
    survivors.sort();
    let docs = survivors
        .into_iter()
        .map(|d| {
            let per_node = borrowed
                .iter()
                .map(|m| {
                    m[&d]
                        .iter()
                        .map(|c| OwnedCand {
                            xid: c.xid,
                            path: c.path.into(),
                            from: c.from,
                            to: c.to,
                        })
                        .collect()
                })
                .collect();
            (d, per_node)
        })
        .collect();
    Ok(Candidates { docs, version_cache })
}

/// One complete pattern binding in one document: the bound elements in
/// pattern pre-order and the joint version-validity range.
struct Binding {
    nodes: Vec<Eid>,
    from: u32,
    to: u32,
}

/// Per-document iteration state of a [`MatchCursor`]: the document's
/// structural join has run (its bindings are small — one entry per match
/// skeleton, not per version) and matches are now enumerated lazily.
struct DocState {
    doc: DocId,
    bindings: Vec<Binding>,
    entries: Vec<txdb_storage::repo::VersionEntry>,
    /// Snapshot mode: the version valid at the requested time.
    resolved: Option<VersionId>,
    /// Current mode: the latest content version, if any.
    current: Option<(VersionId, Timestamp)>,
    entry_idx: usize,
    bind_idx: usize,
}

/// The one implementation of the §7.3.1–7.3.2 scans: pulls [`Match`]es
/// one at a time in `(doc, version, bound XIDs)` order. The executor pulls
/// it; the eager `pattern_scan`/`tpattern_scan*` operators drain it.
///
/// Construction runs step 1 (the FTI candidate intersection) and clones
/// the surviving candidates to owned storage — bounded by pattern
/// selectivity, not by result size — then drops the FTI read guard. The
/// per-document structural join and the version expansion of
/// `TPatternScanAll` run lazily as the consumer pulls, so an early-exit
/// consumer (a `LIMIT` node) never pays for unvisited documents or
/// versions.
pub struct MatchCursor<'db> {
    db: &'db Database,
    pattern: PatternTree,
    mode: Mode,
    stats: ScanStats,
    docs: Vec<(DocId, Vec<Vec<OwnedCand>>)>,
    version_cache: HashMap<DocId, Option<VersionId>>,
    doc_idx: usize,
    cur: Option<DocState>,
}

impl<'db> MatchCursor<'db> {
    fn new(
        db: &'db Database,
        docs: Option<DocId>,
        pattern: &PatternTree,
        mode: Mode,
    ) -> Result<Self> {
        let mut stats = ScanStats::default();
        let set = collect_candidates(db, &FlatPattern::new(pattern), docs, mode, &mut stats)?;
        Ok(MatchCursor {
            db,
            pattern: pattern.clone(),
            mode,
            stats,
            docs: set.docs,
            version_cache: set.version_cache,
            doc_idx: 0,
            cur: None,
        })
    }

    /// Cost counters so far (`matches` counts emitted matches).
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Rows/candidates currently buffered inside the cursor — the
    /// bounded-memory figure the executor reports: candidate skeletons
    /// plus the active document's bindings and version entries, never the
    /// full match set.
    pub fn buffered(&self) -> usize {
        self.docs.iter().flat_map(|(_, per_node)| per_node).map(Vec::len).sum::<usize>()
            + self.cur.as_ref().map_or(0, |s| s.bindings.len() + s.entries.len())
    }

    /// Runs the structural join for the `i`th document and preps lazy
    /// emission.
    fn build_doc_state(&self, i: usize) -> Result<DocState> {
        let flat = FlatPattern::new(&self.pattern);
        let (doc, per_node) = (self.docs[i].0, &self.docs[i].1);
        let mut bindings: Vec<Binding> = Vec::new();
        let mut bvec: Vec<&OwnedCand> = Vec::with_capacity(flat.nodes.len());
        join_rec(&flat, per_node, &mut bvec, &mut |b| {
            // Joint validity range of the whole binding.
            let from = b.iter().map(|c| c.from).max().unwrap_or(0);
            let to = b.iter().map(|c| c.to).min().unwrap_or(OPEN);
            if from < to {
                bindings.push(Binding {
                    nodes: b.iter().map(|c| Eid::new(doc, c.xid)).collect(),
                    from,
                    to,
                });
            }
        });
        // Versions ascend via the entry walk, bindings ascend by bound
        // xids here: together the cursor's (doc, version, nodes) order.
        bindings.sort_by(|a, b| a.nodes.cmp(&b.nodes));
        let entries = self.db.store().versions(doc)?;
        let resolved = match self.mode {
            Mode::At(t) => match self.version_cache.get(&doc) {
                Some(v) => *v,
                None => self.db.store().version_at(doc, t)?,
            },
            _ => None,
        };
        let current = entries
            .iter()
            .rev()
            .find(|e| e.kind == VersionKind::Content)
            .map(|e| (e.version, e.ts));
        Ok(DocState { doc, bindings, entries, resolved, current, entry_idx: 0, bind_idx: 0 })
    }

    /// Pulls the next match, or `None` when the scan is exhausted.
    pub fn try_next(&mut self) -> Result<Option<Match>> {
        loop {
            let mode = self.mode;
            if let Some(st) = self.cur.as_mut() {
                let emitted = match mode {
                    Mode::Current => {
                        // The binding is valid now; report the current
                        // content version.
                        match st.current {
                            Some((v, ts)) if st.bind_idx < st.bindings.len() => {
                                let b = &st.bindings[st.bind_idx];
                                st.bind_idx += 1;
                                Some(Match { doc: st.doc, version: v, ts, nodes: b.nodes.clone() })
                            }
                            _ => None,
                        }
                    }
                    Mode::At(_) => match st.resolved {
                        Some(v) if st.bind_idx < st.bindings.len() => {
                            let b = &st.bindings[st.bind_idx];
                            st.bind_idx += 1;
                            debug_assert!(b.from <= v.0 && v.0 < b.to);
                            let ts = st.entries[v.0 as usize].ts;
                            Some(Match { doc: st.doc, version: v, ts, nodes: b.nodes.clone() })
                        }
                        _ => None,
                    },
                    Mode::All(interval) => {
                        // Expand bindings to content versions — the
                        // temporal join's "valid at same time" — keeping
                        // only versions committed inside the requested
                        // interval (§8 rewriting), lazily per pull.
                        let mut found = None;
                        'outer: while st.entry_idx < st.entries.len() {
                            let e = &st.entries[st.entry_idx];
                            if e.kind == VersionKind::Content && interval.contains(e.ts) {
                                while st.bind_idx < st.bindings.len() {
                                    let b = &st.bindings[st.bind_idx];
                                    st.bind_idx += 1;
                                    if e.version.0 >= b.from && e.version.0 < b.to {
                                        found = Some(Match {
                                            doc: st.doc,
                                            version: e.version,
                                            ts: e.ts,
                                            nodes: b.nodes.clone(),
                                        });
                                        break 'outer;
                                    }
                                }
                            }
                            st.entry_idx += 1;
                            st.bind_idx = 0;
                        }
                        found
                    }
                };
                match emitted {
                    Some(m) => {
                        self.stats.matches += 1;
                        return Ok(Some(m));
                    }
                    None => self.cur = None,
                }
            }
            if self.doc_idx == self.docs.len() {
                return Ok(None);
            }
            let i = self.doc_idx;
            self.doc_idx += 1;
            self.cur = Some(self.build_doc_state(i)?);
        }
    }
}

/// Recursive structural join: bind pattern nodes in pre-order; node `k`'s
/// candidate must satisfy the edge relationship with its pattern-parent's
/// binding and overlap it temporally.
fn join_rec<'c>(
    flat: &FlatPattern<'_>,
    per_node: &'c [Vec<OwnedCand>],
    binding: &mut Vec<&'c OwnedCand>,
    emit: &mut dyn FnMut(&[&OwnedCand]),
) {
    let k = binding.len();
    if k == flat.nodes.len() {
        return emit(binding);
    }
    let (pnode, parent_idx) = (&flat.nodes[k].0, flat.nodes[k].1);
    for cand in &per_node[k] {
        if let Some(pi) = parent_idx {
            let parent = binding[pi];
            let ok = match pnode.edge {
                PatternEdge::Child => {
                    cand.path.len() >= 2 && cand.path[cand.path.len() - 2] == parent.xid
                }
                PatternEdge::Descendant => {
                    cand.path.len() > 1 && cand.path[..cand.path.len() - 1].contains(&parent.xid)
                }
            };
            if !ok {
                continue;
            }
            // Temporal overlap with everything bound so far.
            if binding.iter().any(|b| cand.from >= b.to || b.from >= cand.to) {
                continue;
            }
        }
        binding.push(cand);
        join_rec(flat, per_node, binding, emit);
        binding.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::pattern::PatternNode;

    fn ts(n: u64) -> Timestamp {
        Timestamp::from_micros(n * 1000)
    }

    /// The Figure 1 database: guide.com restaurant list over four states.
    fn figure1() -> Database {
        let db = Database::in_memory();
        // 01/01: Napoli 15
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>",
            ts(101),
        )
        .unwrap();
        // 15/01: + Akropolis 13
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>15</price></restaurant>\
             <restaurant><name>Akropolis</name><price>13</price></restaurant></guide>",
            ts(115),
        )
        .unwrap();
        // 31/01: Akropolis gone, Napoli 18
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>",
            ts(131),
        )
        .unwrap();
        db
    }

    fn restaurant_pattern() -> PatternTree {
        PatternTree::new(PatternNode::tag("restaurant").project())
    }

    #[test]
    fn q1_snapshot_restaurants_at_26_01() {
        // Q1: list all restaurants as of 26/01 → snapshot with 2 restaurants.
        let db = figure1();
        let m = db.tpattern_scan(None, &restaurant_pattern(), ts(126)).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|x| x.version == VersionId(1)));
        assert!(m.iter().all(|x| x.ts == ts(115)), "TEID ts = version commit time");
    }

    #[test]
    fn snapshot_before_creation_is_empty() {
        let db = figure1();
        let m = db.tpattern_scan(None, &restaurant_pattern(), ts(50)).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn current_scan_sees_only_latest() {
        let db = figure1();
        let m = db.pattern_scan(None, &restaurant_pattern()).unwrap();
        assert_eq!(m.len(), 1, "only Napoli remains");
        assert_eq!(m[0].version, VersionId(2));
    }

    #[test]
    fn q3_price_history_of_napoli() {
        // Q3: EVERY + name=Napoli → all versions of the Napoli restaurant.
        let db = figure1();
        let pattern = PatternTree::new(
            PatternNode::tag("restaurant").project().child(PatternNode::tag("name").word("napoli")),
        );
        let m = db.tpattern_scan_all(None, &pattern).unwrap();
        // Napoli exists in versions 0, 1, 2.
        assert_eq!(m.len(), 3);
        let versions: Vec<u32> = m.iter().map(|x| x.version.0).collect();
        assert_eq!(versions, vec![0, 1, 2]);
        // Akropolis appears in exactly one version.
        let pattern = PatternTree::new(
            PatternNode::tag("restaurant")
                .project()
                .child(PatternNode::tag("name").word("akropolis")),
        );
        let m = db.tpattern_scan_all(None, &pattern).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].version, VersionId(1));
    }

    #[test]
    fn structural_join_parent_vs_ancestor() {
        let db = Database::in_memory();
        db.put("d", "<a><b><c>deep</c></b><c>shallow</c></a>", ts(1)).unwrap();
        // a isParentOf c → only the shallow c.
        let p = PatternTree::new(PatternNode::tag("a").child(PatternNode::tag("c").project()));
        assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 1);
        // a isAscendantOf c → both.
        let p = PatternTree::new(PatternNode::tag("a").descendant(PatternNode::tag("c").project()));
        assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 2);
    }

    #[test]
    fn word_and_tag_conjunction_same_element() {
        let db = Database::in_memory();
        db.put("d", "<g><name>Napoli</name><city>Napoli</city></g>", ts(1)).unwrap();
        let p = PatternTree::new(PatternNode::tag("name").word("napoli"));
        assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 1);
        let p = PatternTree::new(PatternNode::tag("city").word("napoli"));
        assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 1);
    }

    #[test]
    fn doc_filter_restricts() {
        let db = Database::in_memory();
        let d1 = db.put("one", "<g><r><n>X</n></r></g>", ts(1)).unwrap().doc;
        db.put("two", "<g><r><n>X</n></r></g>", ts(2)).unwrap();
        let p = PatternTree::new(PatternNode::tag("r"));
        assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 2);
        assert_eq!(db.pattern_scan(Some(d1), &p).unwrap().len(), 1);
    }

    #[test]
    fn deleted_doc_excluded_from_current_but_not_history() {
        let db = figure1();
        db.delete("guide.com/restaurants", ts(140)).unwrap();
        assert!(db.pattern_scan(None, &restaurant_pattern()).unwrap().is_empty());
        // Snapshot before deletion still works.
        assert_eq!(db.tpattern_scan(None, &restaurant_pattern(), ts(126)).unwrap().len(), 2);
        // And inside the tombstone gap, nothing.
        assert!(db.tpattern_scan(None, &restaurant_pattern(), ts(150)).unwrap().is_empty());
    }

    #[test]
    fn temporal_join_rejects_disjoint_ranges() {
        // An element whose word appears only in v0 and a sibling created in
        // v1 never co-occur.
        let db = Database::in_memory();
        db.put("d", "<g><a>early</a></g>", ts(1)).unwrap();
        db.put("d", "<g><a>late</a><b>other</b></g>", ts(2)).unwrap();
        let p = PatternTree::new(
            PatternNode::tag("g")
                .child(PatternNode::tag("a").word("early"))
                .child(PatternNode::tag("b")),
        );
        assert!(db.tpattern_scan_all(None, &p).unwrap().is_empty());
        // But "late" and b co-exist in v1.
        let p = PatternTree::new(
            PatternNode::tag("g")
                .child(PatternNode::tag("a").word("late"))
                .child(PatternNode::tag("b")),
        );
        let m = db.tpattern_scan_all(None, &p).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].version, VersionId(1));
    }

    #[test]
    fn stats_counters_populated() {
        let db = figure1();
        let p = PatternTree::new(
            PatternNode::tag("restaurant").child(PatternNode::tag("name").word("napoli")),
        );
        let (m, stats) = db.tpattern_scan_counted(None, &p, ts(126)).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(stats.fti_lookups, 3, "restaurant, name, napoli");
        assert!(stats.postings >= 3);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn unconstrained_node_rejected() {
        let db = figure1();
        let p = PatternTree::new(PatternNode::any());
        assert!(matches!(db.pattern_scan(None, &p), Err(Error::Unsupported(_))));
    }

    #[test]
    fn multi_doc_scan_drains_in_doc_version_xid_order() {
        let db = Database::in_memory();
        let mut docs = Vec::new();
        for i in 0..40u64 {
            let name = format!("doc{i}");
            docs.push(
                db.put(&name, &format!("<g><r><n>shared</n><p>{i}</p></r></g>"), ts(i + 1))
                    .unwrap()
                    .doc,
            );
            db.put(&name, &format!("<g><r><n>shared</n><p>{}</p></r></g>", i + 100), ts(i + 100))
                .unwrap();
        }
        docs.sort();
        let p = PatternTree::new(
            PatternNode::tag("r").project().child(PatternNode::tag("n").word("shared")),
        );
        let key = |ms: &[Match]| -> Vec<(DocId, VersionId, Vec<Eid>)> {
            ms.iter().map(|m| (m.doc, m.version, m.nodes.clone())).collect()
        };
        let scan = |name: &str, d: Option<DocId>| {
            match name {
                "pattern_scan" => db.pattern_scan(d, &p),
                "tpattern_scan" => db.tpattern_scan(d, &p, ts(50)),
                _ => db.tpattern_scan_all(d, &p),
            }
            .unwrap()
        };
        for (name, rows) in [("pattern_scan", 40), ("tpattern_scan", 40), ("tpattern_scan_all", 80)]
        {
            let all = key(&scan(name, None));
            assert_eq!(all.len(), rows, "{name}");
            let mut sorted = all.clone();
            sorted.sort();
            assert_eq!(all, sorted, "{name}: (doc, version, nodes) order");
            let per_doc: Vec<_> = docs.iter().flat_map(|&d| key(&scan(name, Some(d)))).collect();
            assert_eq!(all, per_doc, "{name}: the per-document scans, concatenated");
        }
        let (m, stats) = db.tpattern_scan_counted(None, &p, ts(50)).unwrap();
        assert_eq!(stats.matches, m.len());
        assert_eq!(m.len(), 40);
    }
}
