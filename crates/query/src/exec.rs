//! Query execution: shared state, expression evaluation and statistics.
//!
//! The row flow lives in [`crate::operators`]: the plan is lowered to a
//! pull-based operator tree (`open`/`next`/`close`) and both
//! [`crate::QueryRequest::run`] and [`crate::QueryRequest::stream`] drive
//! that tree. This module keeps what the operators share: the execution
//! context, the expression evaluator, [`ExecStats`], and the
//! `EXPLAIN ANALYZE` [`ExplainNode`] tree, which maps one-to-one onto the
//! live operator tree, each node metered by its own operator.
//!
//! ### Reconstruction: one walk per document
//!
//! Versions are materialised only when an expression reads them: a
//! `COUNT(R)` query over an index scan finishes with zero reconstructions —
//! the paper's Q2 observation that "storage of only deltas of previous
//! document versions does not create performance problems" for aggregate
//! queries. A document the query does read gets one working tree, a
//! [`Walk`], and a request for version *v* of it is served by these rules:
//!
//! * the version the walk stands on, or one kept for this query: a hit;
//! * a later version: the walk steps forward through the completed deltas
//!   in between, in place (§7.3.4's one delta per version; the tree is
//!   copied only while a row value still points at the old version);
//! * the current version or a snapshot that is not the walk's next step:
//!   read directly (zero deltas) and kept, without moving the walk, so
//!   `CURRENT(R)` under `[EVERY]` stays linear;
//! * anything else — the first request, an earlier version, a content
//!   version with no delta into it (a resurrection after a full vacuum):
//!   a *reseed*, one point reconstruction through the store (§7.3.3, seeded
//!   from the version cache, a snapshot or the current version). A reseed
//!   to an earlier version restarts the walk there, and from then on the
//!   document keeps every version the walk steps past, so access out of
//!   ascending order materialises each version about once.
//!
//! [`ExecStats::reseeds`] counts reseeds, so a query whose access order
//! defeats the walk names itself in `EXPLAIN ANALYZE`. The version list of
//! a document is fetched only once the walk exists and a request misses
//! it, so `[t]` and current queries pay one point reconstruction per
//! document, nothing more.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use txdb_base::{DocId, Error, Result, Teid, Timestamp, VersionId, Xid};
use txdb_core::ops::lifetime::LifetimeStrategy;
use txdb_core::ops::versions::{neighbour, Neighbour};
use txdb_core::Database;
use txdb_delta::Walk;
use txdb_storage::repo::{VersionEntry, VersionKind};
use txdb_xml::equality::shallow_eq;
use txdb_xml::similarity;
use txdb_xml::tree::{NodeId, Tree};

use crate::ast::{CmpOp, Expr, Func};
use crate::plan::{Plan, ScanMode};
use crate::result::{OutValue, QueryResult};

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Document versions materialised for the query (walk steps, direct
    /// reads and reseeds; hits on the walk or a kept version are free).
    pub reconstructions: usize,
    /// Completed deltas applied during those reconstructions.
    pub deltas_applied: usize,
    /// Point reconstructions that started or restarted a document's walk:
    /// one per document read, plus one per restart (a request behind the
    /// walk, or past a version with no delta into it).
    pub reseeds: usize,
    /// Rows produced by the source scans (before filtering).
    pub rows_scanned: usize,
    /// Rows in the final result.
    pub rows_output: usize,
    /// This query's materialized-version cache hits (its reconstructions'
    /// own lookups, not other readers').
    pub cache_hits: usize,
    /// This query's materialized-version cache misses.
    pub cache_misses: usize,
}

impl ExecStats {
    /// Adds what `now` counted beyond `then`: the work of one window
    /// between two readings of a run's ledger.
    pub(crate) fn add_since(&mut self, now: &ExecStats, then: &ExecStats) {
        self.reconstructions += now.reconstructions - then.reconstructions;
        self.deltas_applied += now.deltas_applied - then.deltas_applied;
        self.reseeds += now.reseeds - then.reseeds;
        self.rows_scanned += now.rows_scanned - then.rows_scanned;
        self.rows_output += now.rows_output - then.rows_output;
        self.cache_hits += now.cache_hits - then.cache_hits;
        self.cache_misses += now.cache_misses - then.cache_misses;
    }
}

/// One annotated node of an executed plan tree (`EXPLAIN ANALYZE`).
///
/// Produced by [`crate::QueryRequest::explain`]. Each node reports the
/// wall-clock time spent in its stage, the rows it produced, and the
/// paper's §6 cost metrics attributed to that stage (reconstructions,
/// deltas applied, materialized-version cache traffic, FTI lookups and
/// postings for index scans). Stage counters partition the work: summing
/// a counter over the whole tree reproduces the top-level [`ExecStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainNode {
    /// Human-readable stage label, e.g. `index scan R: TPatternScan @ t`.
    pub label: String,
    /// Wall-clock time spent in this stage, microseconds.
    pub elapsed_us: u64,
    /// Rows this stage produced.
    pub rows: usize,
    /// Named cost counters attributed to this stage.
    pub counters: Vec<(&'static str, u64)>,
    /// Input stages (leaves are source scans).
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// Renders the tree as indented text, one node per line:
    ///
    /// ```text
    /// project (time=12us rows=3)
    ///   filter (time=840us rows=3 reconstructions=3 ...)
    ///     nested-loop join (1 source) (time=1us rows=3)
    ///       index scan R: TPatternScanAll [...] (time=95us rows=3 fti_lookups=2 ...)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{:indent$}{} (time={}us rows={}",
            "",
            self.label,
            self.elapsed_us,
            self.rows,
            indent = depth * 2
        );
        for (name, v) in &self.counters {
            if *v != 0 {
                let _ = write!(out, " {name}={v}");
            }
        }
        out.push_str(")\n");
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Sums a named counter over this node and all descendants.
    pub fn counter_total(&self, name: &str) -> u64 {
        let own: u64 = self.counters.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).sum();
        own + self.children.iter().map(|c| c.counter_total(name)).sum::<u64>()
    }
}

/// Executes an already-built plan (the engine behind [`crate::QueryExt`]):
/// lowers it to an operator tree, drains the resulting
/// [`crate::operators::RowStream`] and materialises a [`QueryResult`].
/// With `explain`, the result carries the [`ExplainNode`] tree read back
/// from the live operators.
pub(crate) fn run_plan_inner(db: &Database, plan: &Plan, explain: bool) -> Result<QueryResult> {
    let mut stream = crate::operators::open_stream(db, plan, explain)?;
    let mut rows = Vec::new();
    for r in &mut stream {
        rows.push(r?);
    }
    Ok(QueryResult { rows, stats: stream.stats(), explain: stream.take_explain() })
}

/// One bound variable in a row.
#[derive(Clone, Debug)]
pub(crate) struct Bound {
    pub(crate) var: String,
    pub(crate) teid: Teid,
    pub(crate) doc: DocId,
    pub(crate) version: VersionId,
}

/// Shared execution state: the database handle, the query's `NOW` anchor,
/// one [`DocWalk`] per document read and the run's [`ExecStats`]. One
/// `Ctx` is shared (via `Rc`) by every operator of a lowered tree.
pub(crate) struct Ctx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) now: Timestamp,
    docs: RefCell<HashMap<DocId, DocWalk>>,
    pub(crate) stats: RefCell<ExecStats>,
}

impl Ctx<'_> {
    /// Fresh context for one query run.
    pub(crate) fn new(db: &Database, now: Timestamp) -> Ctx<'_> {
        Ctx {
            db,
            now,
            docs: RefCell::new(HashMap::new()),
            stats: RefCell::new(ExecStats::default()),
        }
    }

    /// Document versions the context holds: walk trees plus kept versions
    /// (the buffered-memory metric).
    pub(crate) fn cached_trees(&self) -> usize {
        self.docs.borrow().values().map(|d| d.kept.len() + usize::from(d.walk.is_some())).sum()
    }

    /// Version `version` of `doc`, served by the walk rules of the module
    /// docs. A failed request drops the document's walk, whose tree may be
    /// half-stepped.
    pub(crate) fn tree(&self, doc: DocId, version: VersionId) -> Result<Rc<Tree>> {
        let mut docs = self.docs.borrow_mut();
        let d = docs.entry(doc).or_default();
        let served = d.serve(self.db, doc, version, &mut self.stats.borrow_mut());
        if served.is_err() {
            d.walk = None;
        }
        served
    }

    /// The node carrying `xid` in version `version` of `doc`, if the
    /// element exists there. The walk's XID map answers for its own tree
    /// and, checked, for trees it stepped past (arena ids survive a step).
    pub(crate) fn node(
        &self,
        doc: DocId,
        version: VersionId,
        xid: Xid,
    ) -> Result<Option<(Rc<Tree>, NodeId)>> {
        let tree = self.tree(doc, version)?;
        let docs = self.docs.borrow();
        let walk = docs.get(&doc).and_then(|d| d.walk.as_ref()).map(|(_, w)| w);
        let node = match walk {
            Some(w) if Rc::ptr_eq(w.tree(), &tree) => w.node(xid),
            _ => walk
                .and_then(|w| w.node(xid))
                .filter(|n| n.index() < tree.arena_len() && tree.node(*n).xid == xid)
                .or_else(|| tree.find_xid(xid)),
        };
        Ok(node.map(|n| (tree, n)))
    }

    /// The version `which` names for `teid` (§7.3.7), with its timestamp,
    /// looked up in the document's version list the walk already holds.
    fn neighbour(&self, teid: Teid, which: Neighbour) -> Result<Option<(VersionId, Timestamp)>> {
        let doc = teid.doc();
        let mut docs = self.docs.borrow_mut();
        let d = docs.entry(doc).or_default();
        if d.entries.last().is_none_or(|e| e.ts < teid.ts) {
            d.entries = self.db.store().versions(doc)?;
        }
        Ok(neighbour(&d.entries, teid, which)?.map(|e| (e.version, e.ts)))
    }
}

/// One document's reconstruction state within a query.
#[derive(Default)]
struct DocWalk {
    /// The working tree and the version it stands on.
    walk: Option<(VersionId, Walk)>,
    /// Versions read directly or kept from the walk, served as hits.
    kept: HashMap<VersionId, Rc<Tree>>,
    /// The document's version list; empty until a request misses the walk.
    entries: Vec<VersionEntry>,
    /// Set by the first restart: keep every version the walk steps past.
    retain: bool,
}

impl DocWalk {
    /// Version `v`, by the walk rules of the module docs.
    fn serve(
        &mut self,
        db: &Database,
        doc: DocId,
        v: VersionId,
        stats: &mut ExecStats,
    ) -> Result<Rc<Tree>> {
        let at = match &self.walk {
            Some((at, walk)) if *at == v => return Ok(walk.tree().clone()),
            Some((at, _)) => Some(*at),
            None => None,
        };
        if let Some(tree) = self.kept.get(&v) {
            return Ok(tree.clone());
        }
        stats.reconstructions += 1;
        let Some(at) = at else { return self.reseed(db, doc, v, stats) };
        let i = v.0 as usize;
        if self.entries.len() <= i {
            self.entries = db.store().versions(doc)?;
        }
        let Some(e) = self.entries.get(i) else { return Err(Error::NoSuchVersion(doc, v)) };
        let between = self.entries.get(at.0 as usize + 1..i).unwrap_or_default();
        let next_step = v > at && between.iter().all(|e| e.kind != VersionKind::Content);
        let current = self.entries.iter().rev().find(|e| e.kind == VersionKind::Content);
        if !next_step && (e.snapshot_rid.is_some() || current.is_some_and(|c| c.version == v)) {
            let tree = Rc::new(read(db, doc, v, stats)?);
            self.kept.insert(v, tree.clone());
            return Ok(tree);
        }
        let steppable = v > at
            && self.entries[at.0 as usize + 1..=i]
                .iter()
                .all(|e| e.kind == VersionKind::Tombstone || e.delta_rid.is_some());
        if steppable {
            return self.step(db, doc, v, stats);
        }
        self.retain |= v < at;
        self.reseed(db, doc, v, stats)
    }

    /// Moves the walk forward to `v`.
    fn step(
        &mut self,
        db: &Database,
        doc: DocId,
        v: VersionId,
        stats: &mut ExecStats,
    ) -> Result<Rc<Tree>> {
        let DocWalk { walk, kept, entries, retain } = self;
        let (at, w) = walk.as_mut().expect("a step starts from a walk");
        for u in at.0 + 1..=v.0 {
            if entries[u as usize].kind != VersionKind::Content {
                continue; // a tombstone: no delta, no tree
            }
            let delta = db
                .store()
                .delta(doc, VersionId(u))?
                .ok_or_else(|| Error::Corrupt(format!("doc {doc}: no delta into v{u}")))?;
            if *retain {
                kept.insert(*at, w.tree().clone());
            }
            w.forward(&delta)?;
            *at = VersionId(u);
            stats.deltas_applied += 1;
        }
        Ok(w.tree().clone())
    }

    /// Starts the walk over at `v` with one point reconstruction.
    fn reseed(
        &mut self,
        db: &Database,
        doc: DocId,
        v: VersionId,
        stats: &mut ExecStats,
    ) -> Result<Rc<Tree>> {
        let walk = Walk::new(read(db, doc, v, stats)?);
        stats.reseeds += 1;
        let tree = walk.tree().clone();
        if let Some((at, old)) = self.walk.replace((v, walk)) {
            if self.retain {
                self.kept.insert(at, old.tree().clone());
            }
        }
        Ok(tree)
    }
}

/// Version `v` of `doc` read through the store (§7.3.3), its cost —
/// deltas applied and this read's own version-cache hits and misses —
/// added to the query's ledger.
fn read(db: &Database, doc: DocId, v: VersionId, stats: &mut ExecStats) -> Result<Tree> {
    let (tree, cost) = db.store().version_tree_counted(doc, v)?;
    stats.deltas_applied += cost.deltas;
    stats.cache_hits += cost.cache_hits;
    stats.cache_misses += cost.cache_misses;
    Ok(tree)
}

/// Evaluated values.
#[derive(Clone, Debug)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Time(Timestamp),
    Nodes(Vec<NodeV>),
}

/// A node value: a node within a (shared) tree.
#[derive(Clone, Debug)]
pub(crate) struct NodeV {
    teid: Option<Teid>,
    tree: Rc<Tree>,
    node: NodeId,
}

/// Renders the snapshot mode of a scan for explain labels.
pub(crate) fn mode_label(mode: &ScanMode) -> String {
    match mode {
        ScanMode::Current => String::new(),
        ScanMode::At(t) => format!(" @ {t}"),
        ScanMode::Every(iv) => format!(" {iv}"),
    }
}

pub(crate) fn find_bound<'r>(row: &'r [Bound], var: &str) -> Result<&'r Bound> {
    row.iter()
        .find(|b| b.var == var)
        .ok_or_else(|| Error::QueryInvalid(format!("unbound variable `{var}`")))
}

pub(crate) fn eval(ctx: &Ctx<'_>, e: &Expr, row: &[Bound]) -> Result<Value> {
    match e {
        Expr::Str(s) => Ok(Value::Str(s.clone())),
        Expr::Num(n) => Ok(Value::Num(*n)),
        Expr::Date(t) => Ok(Value::Time(*t)),
        Expr::Now => Ok(Value::Time(ctx.now)),
        Expr::Star => Ok(Value::Num(1.0)),
        Expr::Var(v) => {
            let b = find_bound(row, v)?;
            let (tree, node) = ctx
                .node(b.doc, b.version, b.teid.xid())?
                .ok_or(Error::NoSuchElement(b.teid.eid))?;
            Ok(Value::Nodes(vec![NodeV { teid: Some(b.teid), tree, node }]))
        }
        Expr::PathOf { base, path } => {
            let base_v = eval(ctx, base, row)?;
            let Value::Nodes(nodes) = base_v else {
                return Ok(Value::Null);
            };
            let mut out = Vec::new();
            for nv in nodes {
                for hit in path.eval_from(&nv.tree, nv.node) {
                    let teid = nv
                        .teid
                        .map(|t| txdb_base::Eid::new(t.doc(), nv.tree.node(hit).xid).at(t.ts));
                    out.push(NodeV { teid, tree: nv.tree.clone(), node: hit });
                }
            }
            Ok(Value::Nodes(out))
        }
        Expr::TimeShift { base, negative, micros } => match eval(ctx, base, row)? {
            Value::Time(t) => Ok(Value::Time(if *negative {
                t - txdb_base::Duration::from_micros(*micros)
            } else {
                t + txdb_base::Duration::from_micros(*micros)
            })),
            _ => Ok(Value::Null),
        },
        Expr::Func { name, args } => eval_func(ctx, *name, args, row),
        Expr::Cmp { op, lhs, rhs } => {
            let a = eval(ctx, lhs, row)?;
            let b = eval(ctx, rhs, row)?;
            Ok(Value::Bool(compare(*op, &a, &b)))
        }
        Expr::And(a, b) => {
            Ok(Value::Bool(truthy(&eval(ctx, a, row)?) && truthy(&eval(ctx, b, row)?)))
        }
        Expr::Or(a, b) => {
            Ok(Value::Bool(truthy(&eval(ctx, a, row)?) || truthy(&eval(ctx, b, row)?)))
        }
        Expr::Not(inner) => Ok(Value::Bool(!truthy(&eval(ctx, inner, row)?))),
    }
}

fn eval_func(ctx: &Ctx<'_>, name: Func, args: &[Expr], row: &[Bound]) -> Result<Value> {
    match name {
        Func::Count | Func::Sum => {
            Err(Error::QueryInvalid("aggregate used outside the select list".into()))
        }
        Func::Time => {
            // TIME(R): the element's §4 timestamp (time of update of the
            // element or one of its children) in the bound version.
            let v = eval(ctx, &args[0], row)?;
            let Value::Nodes(nodes) = v else { return Ok(Value::Null) };
            let Some(nv) = nodes.first() else { return Ok(Value::Null) };
            Ok(Value::Time(nv.tree.effective_ts(nv.node)))
        }
        Func::CreateTime | Func::DeleteTime => {
            let v = eval(ctx, &args[0], row)?;
            let Value::Nodes(nodes) = v else { return Ok(Value::Null) };
            let Some(teid) = nodes.first().and_then(|n| n.teid) else {
                return Ok(Value::Null);
            };
            let t = if name == Func::CreateTime {
                ctx.db.cre_time(teid, LifetimeStrategy::Index)?
            } else {
                ctx.db.del_time(teid, LifetimeStrategy::Index)?
            };
            Ok(Value::Time(t))
        }
        Func::Current | Func::Previous | Func::Next => {
            // The argument's value is dropped before the target version is
            // fetched, so a walk step need not copy the tree it pointed at.
            let Value::Nodes(nodes) = eval(ctx, &args[0], row)? else { return Ok(Value::Null) };
            let Some(teid) = nodes.first().and_then(|n| n.teid) else {
                return Ok(Value::Null);
            };
            drop(nodes);
            let which = match name {
                Func::Previous => Neighbour::Previous,
                Func::Next => Neighbour::Next,
                _ => Neighbour::Current,
            };
            let Some((version, ts)) = ctx.neighbour(teid, which)? else { return Ok(Value::Null) };
            // The element's node inside the whole target version: paths
            // only go downward, so it answers as §7.3.3's extracted
            // subtree would. The element may not exist in that version.
            Ok(match ctx.node(teid.doc(), version, teid.xid())? {
                Some((tree, node)) => {
                    Value::Nodes(vec![NodeV { teid: Some(teid.eid.at(ts)), tree, node }])
                }
                None => Value::Null,
            })
        }
        Func::Diff => {
            let a = eval(ctx, &args[0], row)?;
            let b = eval(ctx, &args[1], row)?;
            let (Some(na), Some(nb)) = (first_node(&a), first_node(&b)) else {
                return Ok(Value::Null);
            };
            let old = na.tree.extract_subtree(na.node);
            let new = nb.tree.extract_subtree(nb.node);
            let t1 = na.teid.map(|t| t.ts).unwrap_or(Timestamp::ZERO);
            let t2 = nb.teid.map(|t| t.ts).unwrap_or(Timestamp::ZERO);
            let script = ctx.db.diff_trees_xml(&old, new, t1, t2)?;
            let tree = Rc::new(script);
            let root = tree.root().ok_or_else(|| Error::Corrupt("diff produced no root".into()))?;
            Ok(Value::Nodes(vec![NodeV { teid: None, tree, node: root }]))
        }
        Func::Similarity => {
            let a = eval(ctx, &args[0], row)?;
            let b = eval(ctx, &args[1], row)?;
            let (Some(na), Some(nb)) = (first_node(&a), first_node(&b)) else {
                return Ok(Value::Null);
            };
            Ok(Value::Num(similarity::similarity(&na.tree, na.node, &nb.tree, nb.node)))
        }
    }
}

fn first_node(v: &Value) -> Option<&NodeV> {
    match v {
        Value::Nodes(ns) => ns.first(),
        _ => None,
    }
}

pub(crate) fn node_text(nv: &NodeV) -> String {
    match nv.tree.node(nv.node).text() {
        Some(t) => t.to_string(),
        None => nv.tree.text_content(nv.node),
    }
}

pub(crate) fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Nodes(ns) => !ns.is_empty(),
        Value::Num(n) => *n != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Time(_) => true,
    }
}

/// Comparison with XPath-style existential semantics over node sets.
fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Nodes(ns), other) if !matches!(other, Value::Nodes(_)) => {
            ns.iter().any(|n| compare_scalar_node(op, n, other, false))
        }
        (other, Value::Nodes(ns)) if !matches!(other, Value::Nodes(_)) => {
            ns.iter().any(|n| compare_scalar_node(op, n, other, true))
        }
        (Value::Nodes(xs), Value::Nodes(ys)) => {
            xs.iter().any(|x| ys.iter().any(|y| compare_nodes(op, x, y)))
        }
        _ => compare_scalars(op, a, b),
    }
}

fn compare_nodes(op: CmpOp, x: &NodeV, y: &NodeV) -> bool {
    match op {
        // §7.4: `=` between elements uses shallow value equality.
        CmpOp::Eq => shallow_eq(&x.tree, x.node, &y.tree, y.node),
        CmpOp::Neq => !shallow_eq(&x.tree, x.node, &y.tree, y.node),
        // `==` compares persistent identity.
        CmpOp::Identity => match (x.teid, y.teid) {
            (Some(a), Some(b)) => a.eid == b.eid,
            _ => false,
        },
        // `~` similarity with the default threshold.
        CmpOp::Similar => {
            similarity::similar(&x.tree, x.node, &y.tree, y.node, similarity::DEFAULT_THRESHOLD)
        }
        CmpOp::Contains => node_text(x).to_lowercase().contains(&node_text(y).to_lowercase()),
        // Ordering: compare text (numerically when both numeric).
        _ => compare_scalars(op, &Value::Str(node_text(x)), &Value::Str(node_text(y))),
    }
}

/// Compares a node against a scalar; `flipped` when the scalar is the lhs.
fn compare_scalar_node(op: CmpOp, n: &NodeV, scalar: &Value, flipped: bool) -> bool {
    let text = Value::Str(node_text(n));
    if flipped {
        compare_scalars(op, scalar, &text)
    } else {
        compare_scalars(op, &text, scalar)
    }
}

fn compare_scalars(op: CmpOp, a: &Value, b: &Value) -> bool {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.partial_cmp(y),
        (Value::Time(x), Value::Time(y)) => Some(x.cmp(y)),
        // A bare number against a timestamp compares as raw microseconds
        // (the harness and tests write snapshot times this way).
        (Value::Time(x), Value::Num(y)) => (x.micros() as f64).partial_cmp(y),
        (Value::Num(x), Value::Time(y)) => x.partial_cmp(&(y.micros() as f64)),
        (Value::Time(x), Value::Str(y)) => Timestamp::parse(y).ok().map(|t| x.cmp(&t)),
        (Value::Str(x), Value::Time(y)) => Timestamp::parse(x).ok().map(|t| t.cmp(y)),
        (Value::Str(x), Value::Str(y)) => {
            // Numeric comparison when both parse as numbers.
            match (x.trim().parse::<f64>(), y.trim().parse::<f64>()) {
                (Ok(nx), Ok(ny)) => nx.partial_cmp(&ny),
                _ => Some(x.cmp(y)),
            }
        }
        (Value::Str(x), Value::Num(y)) => {
            x.trim().parse::<f64>().ok().and_then(|v| v.partial_cmp(y))
        }
        (Value::Num(x), Value::Str(y)) => {
            y.trim().parse::<f64>().ok().and_then(|v| x.partial_cmp(&v))
        }
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::Null, _) | (_, Value::Null) => None,
        _ => None,
    };
    match op {
        CmpOp::Contains => match (a, b) {
            (Value::Str(x), Value::Str(y)) => x.to_lowercase().contains(&y.to_lowercase()),
            _ => false,
        },
        CmpOp::Similar => match (a, b) {
            (Value::Str(x), Value::Str(y)) => {
                let bx: std::collections::HashMap<String, u32> =
                    similarity::tokenize(x).fold(HashMap::new(), |mut m, t| {
                        *m.entry(t).or_default() += 1;
                        m
                    });
                let by: std::collections::HashMap<String, u32> =
                    similarity::tokenize(y).fold(HashMap::new(), |mut m, t| {
                        *m.entry(t).or_default() += 1;
                        m
                    });
                similarity::dice(&bx, &by) >= similarity::DEFAULT_THRESHOLD
            }
            _ => false,
        },
        CmpOp::Identity => false, // identity needs elements
        CmpOp::Eq => ord == Some(Ordering::Equal),
        CmpOp::Neq => matches!(ord, Some(o) if o != Ordering::Equal),
        CmpOp::Lt => ord == Some(Ordering::Less),
        CmpOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
        CmpOp::Gt => ord == Some(Ordering::Greater),
        CmpOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
    }
}

pub(crate) fn to_out(_ctx: &Ctx<'_>, v: Value) -> OutValue {
    match v {
        Value::Null => OutValue::Null,
        Value::Bool(b) => OutValue::Bool(b),
        Value::Num(n) => OutValue::Num(n),
        Value::Str(s) => OutValue::Str(s),
        Value::Time(t) => OutValue::Time(t),
        Value::Nodes(ns) => {
            if ns.is_empty() {
                return OutValue::Null;
            }
            let mut xml = String::new();
            for nv in &ns {
                match nv.tree.node(nv.node).text() {
                    Some(t) => {
                        txdb_xml::serialize::escape_text(t, &mut xml);
                    }
                    None => {
                        xml.push_str(&txdb_xml::serialize::subtree_to_string(&nv.tree, nv.node));
                    }
                }
            }
            OutValue::Xml(xml)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryExt;

    /// Midnight on a January/February 2001 day — the paper's timeline.
    fn jan(d: u32) -> Timestamp {
        Timestamp::from_date(2001, 1, d)
    }
    fn feb(d: u32) -> Timestamp {
        Timestamp::from_date(2001, 2, d)
    }

    /// The Figure 1 restaurant database: versions on 01/01, 15/01, 31/01.
    fn figure1() -> Database {
        let db = Database::in_memory();
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>",
            jan(1),
        )
        .unwrap();
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>15</price></restaurant>\
             <restaurant><name>Akropolis</name><price>13</price></restaurant></guide>",
            jan(15),
        )
        .unwrap();
        db.put(
            "guide.com/restaurants",
            "<guide><restaurant><name>Napoli</name><price>18</price></restaurant></guide>",
            jan(31),
        )
        .unwrap();
        db
    }

    fn run(db: &Database, q: &str) -> QueryResult {
        db.query(q).at(feb(20)).run().unwrap()
    }

    #[test]
    fn q1_snapshot_listing() {
        let db = figure1();
        let r = run(&db, r#"SELECT R FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R"#);
        assert_eq!(r.len(), 2);
        let xml = r.to_xml();
        assert!(xml.contains("<name>Napoli</name>"), "{xml}");
        assert!(xml.contains("<name>Akropolis</name>"), "{xml}");
        assert!(xml.contains("<price>15</price>"), "{xml}");
    }

    #[test]
    fn q2_count_without_reconstruction() {
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT COUNT(R) FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R"#,
        );
        assert_eq!(r.rows, vec![vec![OutValue::Num(2.0)]]);
        // The paper's Q2 point: no reconstruction needed for aggregates.
        assert_eq!(r.stats.reconstructions, 0, "{:?}", r.stats);
        assert_eq!(r.stats.deltas_applied, 0);
    }

    #[test]
    fn q3_price_history() {
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT TIME(R), R/price
               FROM doc("guide.com/restaurants")[EVERY]//restaurant R
               WHERE R/name = "Napoli""#,
        );
        assert_eq!(r.len(), 3, "{}", r.to_xml());
        let xml = r.to_xml();
        assert!(xml.contains("<price>15</price>"));
        assert!(xml.contains("<price>18</price>"));
        // Row timestamps are the version times.
        assert_eq!(r.rows[0][0], OutValue::Time(jan(1)));
        assert_eq!(r.rows[2][0], OutValue::Time(jan(31)));
    }

    #[test]
    fn current_version_default() {
        let db = figure1();
        let r = run(&db, r#"SELECT R/name FROM doc("guide.com/restaurants")//restaurant R"#);
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_xml(), "<results><result><name>Napoli</name></result></results>");
    }

    #[test]
    fn where_price_filter() {
        // The paper's intro example: restaurants with price < 14.
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT R/name FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R WHERE R/price < 14"#,
        );
        assert_eq!(r.to_xml(), "<results><result><name>Akropolis</name></result></results>");
    }

    #[test]
    fn create_time_predicate() {
        let db = figure1();
        // Restaurants created on/after day 110 (Akropolis, day 115).
        let r = run(
            &db,
            r#"SELECT R/name FROM doc("guide.com/restaurants")[EVERY]//restaurant R
               WHERE CREATETIME(R) >= 11/01/2001"#,
        );
        let xml = r.to_xml();
        assert!(xml.contains("Akropolis"), "{xml}");
        assert!(!xml.contains("Napoli"), "{xml}");
    }

    #[test]
    fn previous_and_current_functions() {
        let db = figure1();
        // The previous version of each current restaurant element.
        let r =
            run(&db, r#"SELECT PREVIOUS(R)/price FROM doc("guide.com/restaurants")//restaurant R"#);
        assert_eq!(r.to_xml(), "<results><result><price>15</price></result></results>");
        // CURRENT of a historical binding.
        let r = run(
            &db,
            r#"SELECT DISTINCT CURRENT(R)/price
               FROM doc("guide.com/restaurants")[EVERY]//restaurant R
               WHERE R/name = "Napoli""#,
        );
        assert_eq!(r.to_xml(), "<results><result><price>18</price></result></results>");
    }

    #[test]
    fn price_increase_join() {
        // §7.4: restaurants that have increased their prices since day 110.
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT R1/name
               FROM doc("guide.com/restaurants")[10/01/2001]//restaurant R1,
                    doc("guide.com/restaurants")//restaurant R2
               WHERE R1/name = R2/name AND R1/price < R2/price"#,
        );
        assert_eq!(r.to_xml(), "<results><result><name>Napoli</name></result></results>");
    }

    #[test]
    fn identity_join() {
        let db = figure1();
        // Same element across time: == compares EIDs.
        let r = run(
            &db,
            r#"SELECT TIME(R1)
               FROM doc("guide.com/restaurants")[01/01/2001]//restaurant R1,
                    doc("guide.com/restaurants")//restaurant R2
               WHERE R1 == R2"#,
        );
        assert_eq!(r.len(), 1, "Napoli then == Napoli now");
    }

    #[test]
    fn similarity_operator() {
        let db = Database::in_memory();
        db.put("a", "<r><name>Napoli</name><price>15</price></r>", jan(1)).unwrap();
        db.put("b", "<r><name>Napoli</name><price>16</price></r>", jan(2)).unwrap();
        db.put("c", "<r><name>Corner Bar</name><menu>beer wine soda</menu></r>", jan(3)).unwrap();
        let r = run(
            &db,
            r#"SELECT R2/name FROM doc("a")//r R1, doc("*")//r R2 WHERE R1 ~ R2 AND NOT R1 == R2"#,
        );
        assert_eq!(r.to_xml(), "<results><result><name>Napoli</name></result></results>");
    }

    #[test]
    fn diff_in_select() {
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT DIFF(R1, R2)
               FROM doc("guide.com/restaurants")[01/01/2001]//restaurant R1,
                    doc("guide.com/restaurants")//restaurant R2
               WHERE R1 == R2"#,
        );
        assert_eq!(r.len(), 1);
        let xml = r.to_xml();
        assert!(xml.contains("<delta"), "{xml}");
        assert!(xml.contains("<old>15</old>"), "{xml}");
        assert!(xml.contains("<new>18</new>"), "{xml}");
    }

    #[test]
    fn contains_and_wildcards() {
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT R FROM doc("guide.com/restaurants")[26/01/2001]/guide/*/name R WHERE R CONTAINS "apo""#,
        );
        // Napoli and Akropolis both contain "apo" — wait: Akropolis has "
        // ropo"; only Napoli matches "apo"? N-a-p-o-l-i: yes; A-k-r-o-p-o:
        // no "apo". One row.
        assert_eq!(r.len(), 1, "{}", r.to_xml());
    }

    #[test]
    fn sum_aggregate() {
        let db = figure1();
        let r = run(
            &db,
            r#"SELECT SUM(R/price) FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R"#,
        );
        assert_eq!(r.rows, vec![vec![OutValue::Num(28.0)]]);
        let r =
            run(&db, r#"SELECT COUNT(*) FROM doc("guide.com/restaurants")[EVERY]//restaurant R"#);
        assert_eq!(r.rows, vec![vec![OutValue::Num(4.0)]], "3 Napoli versions + 1 Akropolis");
    }

    #[test]
    fn time_pushdown_prunes_versions_and_reconstructions() {
        // §8 rewriting: TIME(R) >= t restricts the EVERY expansion. The
        // rows must be identical with and without pushdown-visible syntax,
        // but the scan and reconstruction counts shrink.
        let db = figure1();
        let narrowed = run(
            &db,
            r#"SELECT TIME(R), R/price FROM doc("*")[EVERY]//restaurant R
               WHERE R/name = "Napoli" AND TIME(R) >= 20/01/2001"#,
        );
        assert_eq!(narrowed.len(), 1, "{}", narrowed.to_xml());
        assert!(narrowed.to_xml().contains("<price>18</price>"));
        // Only the matching version row was scanned at all.
        assert_eq!(narrowed.stats.rows_scanned, 1, "{:?}", narrowed.stats);
        // The equivalent filter without a recognisable TIME bound scans
        // all three versions.
        let full = run(
            &db,
            r#"SELECT TIME(R), R/price FROM doc("*")[EVERY]//restaurant R
               WHERE R/name = "Napoli" AND NOT TIME(R) < 20/01/2001"#,
        );
        assert_eq!(full.to_xml(), narrowed.to_xml());
        assert_eq!(full.stats.rows_scanned, 3);
        assert!(full.stats.reconstructions >= narrowed.stats.reconstructions);
    }

    #[test]
    fn now_in_where_clause_uses_query_anchor() {
        // Regression: NOW inside WHERE used to evaluate to FOREVER.
        let db = figure1();
        // Napoli changed on 31/01; with NOW = 09/02, "within the last two
        // weeks" includes it; "within the last week" does not.
        let r = db
            .query(
                r#"SELECT R/name FROM doc("*")[EVERY]//restaurant R
                   WHERE TIME(R) >= NOW - 2 WEEKS"#,
            )
            .at(feb(9))
            .run()
            .unwrap();
        assert_eq!(r.to_xml(), "<results><result><name>Napoli</name></result></results>");
        let r = db
            .query(
                r#"SELECT R/name FROM doc("*")[EVERY]//restaurant R
                   WHERE TIME(R) >= NOW - 1 WEEKS"#,
            )
            .at(feb(9))
            .run()
            .unwrap();
        assert!(r.is_empty(), "{}", r.to_xml());
    }

    #[test]
    fn empty_results() {
        let db = figure1();
        let r = run(&db, r#"SELECT R FROM doc("no.such")//x R"#);
        assert!(r.is_empty());
        assert_eq!(r.to_xml(), "<results></results>");
        let r = run(&db, r#"SELECT R FROM doc("guide.com/restaurants")[01/12/2000]//restaurant R"#);
        assert!(r.is_empty());
    }

    #[test]
    fn snapshot_after_delete_empty() {
        let db = figure1();
        db.delete("guide.com/restaurants", feb(9)).unwrap();
        let r = run(&db, r#"SELECT R FROM doc("guide.com/restaurants")//restaurant R"#);
        assert!(r.is_empty());
        let r = run(&db, r#"SELECT R FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R"#);
        assert_eq!(r.len(), 2, "history still answers");
    }

    #[test]
    fn delete_time_exposed() {
        let db = figure1();
        db.delete("guide.com/restaurants", feb(9)).unwrap();
        let r = run(
            &db,
            r#"SELECT DELETETIME(R) FROM doc("guide.com/restaurants")[26/01/2001]//restaurant R
               WHERE R/name = "Napoli""#,
        );
        assert_eq!(r.rows, vec![vec![OutValue::Time(feb(9))]]);
    }

    #[test]
    fn tree_scan_fallback_agrees_with_index() {
        let db = figure1();
        let a = run(&db, r#"SELECT R/name FROM doc("*")[26/01/2001]//restaurant R"#);
        let b =
            run(&db, r#"SELECT R/name FROM doc("*")[26/01/2001]/guide/*  R WHERE R/name != """#);
        // The wildcard scan binds to the same restaurant elements.
        assert_eq!(a.len(), b.len());
        // And the tree-scan path did reconstruct.
        assert!(b.stats.reconstructions > 0);
    }

    #[test]
    fn tree_scan_warm_cache_reported_in_stats() {
        // An [EVERY] tree scan seeds one walk per document with a point
        // reconstruction — which offers the seed to the materialized-
        // version cache — and steps forward one delta per version. A
        // repeat of the query seeds from the cache (a hit, no backward
        // deltas) and pays only the forward steps; the cache is not
        // filled with the stepped versions.
        let db = figure1();
        let q = r#"SELECT R/name FROM doc("*")[EVERY]/guide/* R WHERE R/name != """#;
        let inserts = || db.store().vcache_stats().snapshot().2;
        let before = inserts();
        let cold = run(&db, q);
        assert_eq!(inserts() - before, 1, "only the seed is cached");
        let warm = run(&db, q);
        assert_eq!(cold.to_xml(), warm.to_xml());
        assert_eq!(cold.stats.reseeds, 1, "{:?}", cold.stats);
        assert_eq!(cold.stats.deltas_applied, 4, "2 back to v0, 2 forward: {:?}", cold.stats);
        assert_eq!(warm.stats.reseeds, 1, "{:?}", warm.stats);
        assert!(warm.stats.cache_hits >= 1, "{:?}", warm.stats);
        assert_eq!(warm.stats.deltas_applied, 2, "forward steps only: {:?}", warm.stats);
        assert_eq!(warm.stats.reconstructions, 3, "{:?}", warm.stats);
    }

    #[test]
    fn explain_tree_sums_to_exec_stats() {
        // EXPLAIN ANALYZE on a representative pattern + history query:
        // the per-node counters must partition the top-level ExecStats,
        // every node must carry a timing, and the tree must name the
        // index-vs-scan choice.
        let db = figure1();
        let r = db
            .query(
                r#"SELECT TIME(R), R/price
                   FROM doc("guide.com/restaurants")[EVERY]//restaurant R
                   WHERE R/name = "Napoli""#,
            )
            .at(feb(20))
            .explain()
            .run()
            .unwrap();
        assert_eq!(r.len(), 3);
        let tree = r.explain.as_ref().expect("explain() populates the plan tree");
        // Per-stage counters sum to the run totals.
        assert_eq!(tree.counter_total("reconstructions"), r.stats.reconstructions as u64);
        assert_eq!(tree.counter_total("deltas_applied"), r.stats.deltas_applied as u64);
        assert_eq!(tree.counter_total("reseeds"), r.stats.reseeds as u64);
        assert_eq!(tree.counter_total("cache_hits"), r.stats.cache_hits as u64);
        assert_eq!(tree.counter_total("cache_misses"), r.stats.cache_misses as u64);
        // Ascending access: one walk, seeded once.
        assert_eq!(r.stats.reseeds, 1, "{:?}", r.stats);
        // Root is the projection and reports the output rows.
        assert!(tree.label.starts_with("project"), "{}", tree.label);
        assert_eq!(tree.rows, r.stats.rows_output);
        // project → filter → join → index scan.
        let filter = &tree.children[0];
        assert_eq!(filter.label, "filter");
        let join = &filter.children[0];
        assert!(join.label.starts_with("nested-loop join"), "{}", join.label);
        assert_eq!(join.rows, r.stats.rows_scanned);
        let scan = &join.children[0];
        assert!(scan.label.starts_with("index scan R: TPatternScanAll"), "{}", scan.label);
        assert!(scan.counter_total("fti_lookups") > 0, "{scan:?}");
        // The rendering shows one line per node with timings.
        let text = tree.render();
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.lines().all(|l| l.contains("us rows=")), "{text}");
        // Without .explain() the tree is absent.
        let plain = run(&db, r#"SELECT COUNT(*) FROM doc("*")//restaurant R"#);
        assert!(plain.explain.is_none());
        // PREVIOUS reads behind the walk: the restart is a second reseed,
        // and the stage that asked for it — the projection — shows it.
        let r = db
            .query(
                r#"SELECT PREVIOUS(R)/price
                   FROM doc("guide.com/restaurants")[EVERY]//restaurant R
                   WHERE R/name = "Napoli""#,
            )
            .at(feb(20))
            .explain()
            .run()
            .unwrap();
        let tree = r.explain.as_ref().unwrap();
        assert_eq!(r.stats.reseeds, 2, "{:?}", r.stats);
        assert_eq!(tree.counter_total("reseeds"), r.stats.reseeds as u64);
        assert_eq!(tree.counter_total("reconstructions"), r.stats.reconstructions as u64);
        assert_eq!(tree.counter_total("deltas_applied"), r.stats.deltas_applied as u64);
        assert!(tree.label.starts_with("project"), "{}", tree.label);
        assert_eq!(tree.counters.iter().find(|(n, _)| *n == "reseeds"), Some(&("reseeds", 1)));
        assert!(tree.render().lines().next().unwrap().contains("reseeds=1"), "{}", tree.render());
    }

    #[test]
    fn explain_tree_scan_labels_reconstruction() {
        let db = figure1();
        let r = db
            .query(r#"SELECT R/name FROM doc("*")[26/01/2001]/guide/* R"#)
            .at(feb(20))
            .explain()
            .run()
            .unwrap();
        let tree = r.explain.unwrap();
        // No filter stage: project → join → tree scan.
        let scan = &tree.children[0].children[0];
        assert!(scan.label.starts_with("tree scan R: reconstruct @ "), "{}", scan.label);
        assert!(scan.counter_total("reconstructions") > 0, "{scan:?}");
        assert_eq!(tree.counter_total("reconstructions"), r.stats.reconstructions as u64);
    }

    // ------------------------------------------------- walk edge cases

    /// Every version-reading function over every `item` of every version.
    const WALK_Q: &str =
        r#"SELECT TIME(R), R, PREVIOUS(R), NEXT(R), CURRENT(R) FROM doc("d")[EVERY]//item R"#;

    fn sorted(mut rows: Vec<Vec<OutValue>>) -> Vec<Vec<OutValue>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// What [`WALK_Q`] answers when each version is rebuilt on its own and
    /// `PREVIOUS`/`NEXT`/`CURRENT` go through `PreviousTS`/`NextTS`/
    /// `CurrentTS` and a `Reconstruct` of the element's subtree.
    fn point_reference(db: &Database) -> Vec<Vec<OutValue>> {
        use txdb_xml::serialize::{subtree_to_string, to_string};
        let doc = db.store().doc_id("d").unwrap().unwrap();
        let mut rows = Vec::new();
        for e in db.store().versions(doc).unwrap() {
            if e.kind != VersionKind::Content {
                continue;
            }
            let tree = db.store().version_tree(doc, e.version).unwrap();
            for n in tree.iter().filter(|&n| tree.node(n).name() == Some("item")) {
                let teid = txdb_base::Eid::new(doc, tree.node(n).xid).at(e.ts);
                let near =
                    |ts: Option<Timestamp>| match ts.map(|ts| db.reconstruct(teid.eid.at(ts))) {
                        Some(Ok(sub)) => OutValue::Xml(to_string(&sub)),
                        None | Some(Err(Error::NoSuchElement(_))) => OutValue::Null,
                        Some(Err(e)) => panic!("reference reconstruct: {e}"),
                    };
                rows.push(vec![
                    OutValue::Time(tree.effective_ts(n)),
                    OutValue::Xml(subtree_to_string(&tree, n)),
                    near(db.previous_ts(teid).unwrap()),
                    near(db.next_ts(teid).unwrap()),
                    near(db.current_ts(teid.eid).unwrap()),
                ]);
            }
        }
        sorted(rows)
    }

    /// Runs [`WALK_Q`], checks it against [`point_reference`] and returns
    /// the run's statistics.
    fn walk_matches_reference(db: &Database) -> ExecStats {
        let r = run(db, WALK_Q);
        assert_eq!(sorted(r.rows.clone()), point_reference(db));
        r.stats
    }

    /// Two items whose prices move differently; item `b` is absent from
    /// some versions.
    fn item_doc(a: u32, b: Option<u32>) -> String {
        let b = b.map(|p| format!("<item><n>b</n><p>{p}</p></item>")).unwrap_or_default();
        format!("<d><item><n>a</n><p>{a}</p></item>{b}</d>")
    }

    #[test]
    fn walk_steps_over_a_tombstone_gap_into_a_resurrection() {
        let db = Database::in_memory();
        db.put("d", &item_doc(1, Some(1)), jan(1)).unwrap();
        db.put("d", &item_doc(2, Some(1)), jan(2)).unwrap();
        db.delete("d", jan(3)).unwrap();
        let r = db.put("d", &item_doc(3, None), jan(4)).unwrap();
        assert!(r.resurrected && r.delta.is_some(), "diffed against the version before the gap");
        db.put("d", &item_doc(4, Some(9)), jan(5)).unwrap();
        walk_matches_reference(&db);
        // Ascending access steps across the tombstone: one seed.
        let r = run(&db, r#"SELECT R/p FROM doc("d")[EVERY]//item R WHERE R/n = "a""#);
        assert_eq!(r.len(), 4);
        assert_eq!(r.stats.reseeds, 1, "{:?}", r.stats);
        assert_eq!(r.stats.reconstructions, 4, "{:?}", r.stats);
    }

    #[test]
    fn walk_reseeds_at_a_resurrection_after_a_full_vacuum() {
        let db = Database::in_memory();
        db.put("d", &item_doc(1, Some(1)), jan(1)).unwrap();
        db.put("d", &item_doc(2, Some(1)), jan(2)).unwrap();
        db.delete("d", jan(3)).unwrap();
        assert_eq!(db.vacuum("d", jan(10)).unwrap().unwrap().purged_versions, 2);
        let r = db.put("d", &item_doc(3, None), jan(11)).unwrap();
        assert!(r.delta.is_none(), "nothing left to diff against");
        db.put("d", &item_doc(4, Some(9)), jan(12)).unwrap();
        db.put("d", &item_doc(5, Some(9)), jan(13)).unwrap();
        walk_matches_reference(&db);
        let r = run(&db, r#"SELECT R/p FROM doc("d")[EVERY]//item R WHERE R/n = "a""#);
        assert_eq!(
            r.to_xml(),
            "<results><result><p>3</p></result><result><p>4</p></result>\
             <result><p>5</p></result></results>"
        );
        assert_eq!(r.stats.reseeds, 1, "{:?}", r.stats);
    }

    #[test]
    fn walk_with_snapshots_every_third_version() {
        let db = txdb_core::DbOptions::new().snapshot_every(3).open().unwrap();
        for i in 0..10u32 {
            db.put("d", &item_doc(i, (i % 4 != 1).then_some(100 - i)), jan(i + 1)).unwrap();
        }
        walk_matches_reference(&db);
        let r = run(&db, r#"SELECT R/p FROM doc("d")[EVERY]//item R WHERE R/n = "a""#);
        assert_eq!(r.len(), 10);
        // Snapshot versions on the way are stepped through, not re-read.
        assert_eq!((r.stats.reseeds, r.stats.reconstructions), (1, 10), "{:?}", r.stats);
        assert!(r.stats.deltas_applied <= 2 * 10, "{:?}", r.stats);
    }

    #[test]
    fn walk_after_a_vacuumed_prefix() {
        let db = Database::in_memory();
        for i in 0..6u32 {
            db.put("d", &item_doc(i, Some(i / 2)), jan(i + 1)).unwrap();
        }
        assert_eq!(db.vacuum("d", jan(4)).unwrap().unwrap().purged_versions, 2);
        walk_matches_reference(&db);
        let r = run(
            &db,
            r#"SELECT PREVIOUS(R)/p FROM doc("d")[EVERY]//item R WHERE R/n = "a" LIMIT 1"#,
        );
        assert_eq!(r.rows, vec![vec![OutValue::Null]], "nothing before the first live version");
    }

    #[test]
    fn walk_previous_and_next_at_the_ends() {
        let db = Database::in_memory();
        for i in 0..4u32 {
            db.put("d", &item_doc(i, None), jan(i + 1)).unwrap();
        }
        walk_matches_reference(&db);
        let r = run(&db, r#"SELECT PREVIOUS(R)/p, NEXT(R)/p FROM doc("d")[EVERY]//item R"#);
        let xml = |p: u32| OutValue::Xml(format!("<p>{p}</p>"));
        assert_eq!(
            r.rows,
            vec![
                vec![OutValue::Null, xml(1)],
                vec![xml(0), xml(2)],
                vec![xml(1), xml(3)],
                vec![xml(2), OutValue::Null],
            ]
        );
        // No per-row point reconstruction: one restart when PREVIOUS first
        // reads behind the walk, then every version is kept as it passes.
        assert_eq!(r.stats.reseeds, 2, "{:?}", r.stats);
        assert!(r.stats.reconstructions <= 4 + r.stats.reseeds, "{:?}", r.stats);
    }

    #[test]
    fn walk_current_under_every_is_read_once() {
        let db = Database::in_memory();
        for i in 0..20u32 {
            db.put("d", &item_doc(i, Some(7)), jan(i + 1)).unwrap();
        }
        walk_matches_reference(&db);
        let r = run(&db, r#"SELECT CURRENT(R)/p FROM doc("d")[EVERY]//item R WHERE R/n = "a""#);
        assert_eq!(r.len(), 20);
        assert!(r.rows.iter().all(|row| row[0] == OutValue::Xml("<p>19</p>".into())));
        // The current version is read directly and kept; the walk never
        // moves to it and back.
        assert_eq!((r.stats.reseeds, r.stats.reconstructions), (1, 20), "{:?}", r.stats);
    }

    #[test]
    fn walk_join_of_two_every_sources_over_one_document() {
        let db = Database::in_memory();
        let versions = 6u32;
        for i in 0..versions {
            db.put("d", &item_doc(i, (i != 2).then_some(10 + i % 3)), jan(i + 1)).unwrap();
        }
        walk_matches_reference(&db);
        let r = run(
            &db,
            r#"SELECT R1/p, R2/p FROM doc("d")[EVERY]//item R1, doc("d")[EVERY]//item R2
               WHERE R1/n = R2/n"#,
        );
        // Reference: every pair of versions, rebuilt one at a time.
        let doc = db.store().doc_id("d").unwrap().unwrap();
        let items: Vec<Vec<(String, String)>> = (0..versions)
            .map(|v| {
                let t = db.store().version_tree(doc, VersionId(v)).unwrap();
                let text = |n: NodeId, tag: &str| {
                    let c = t.node(n).children().iter().find(|&&c| t.node(c).name() == Some(tag));
                    c.map(|&c| txdb_xml::serialize::subtree_to_string(&t, c)).unwrap()
                };
                t.iter()
                    .filter(|&n| t.node(n).name() == Some("item"))
                    .map(|n| (text(n, "n"), text(n, "p")))
                    .collect()
            })
            .collect();
        let mut want = Vec::new();
        for outer in &items {
            for inner in &items {
                for (n1, p1) in outer {
                    for (_, p2) in inner.iter().filter(|(n2, _)| n2 == n1) {
                        want.push(vec![OutValue::Xml(p1.clone()), OutValue::Xml(p2.clone())]);
                    }
                }
            }
        }
        assert_eq!(sorted(r.rows.clone()), sorted(want));
        assert!(
            r.stats.reconstructions <= versions as usize + r.stats.reseeds,
            "each version about once: {:?}",
            r.stats
        );
    }

    #[test]
    fn now_in_snapshot_spec() {
        // §5's relative-time idiom: NOW - 14 DAYS from 09/02/2001 is
        // 26/01/2001, inside the two-restaurant snapshot.
        let db = figure1();
        let r = db
            .query(
                r#"SELECT R/price FROM doc("guide.com/restaurants")[NOW - 14 DAYS]//restaurant R"#,
            )
            .at(feb(9))
            .run()
            .unwrap();
        assert_eq!(r.len(), 2, "{}", r.to_xml());
    }
}
