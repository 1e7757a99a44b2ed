//! The streaming Volcano executor: pull-based operators over the plan.
//!
//! [`open_stream`] lowers a [`Plan`] into a tree of [`Operator`]s —
//! index/tree scans at the leaves, nested-loop join, filter, project or
//! aggregate, and an optional `LIMIT` early-exit at the root — and wraps
//! it in a [`RowStream`], a cursor the caller pulls one row at a time.
//! Nothing is materialised ahead of demand: index scans drive the lazy
//! [`MatchCursor`] postings cursors of the FTI, so a `LIMIT 1` query
//! stops after the first posting chains through, and peak memory is
//! bounded by the operator buffers (inner join sides, the active
//! document's candidates) and the context's per-document walks (one
//! working tree each, plus the versions a non-ascending access keeps)
//! rather than by the result size. Each operator meters itself — wall
//! time, rows, §6 cost counters, its inputs included — and
//! [`Operator::explain_node`] reads the `EXPLAIN ANALYZE`
//! tree straight off the live operators, so the explain tree maps
//! one-to-one onto what actually ran.

use std::collections::{HashSet, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use txdb_base::obs::{Span, TraceContext, TraceValue};
use txdb_base::{DocId, Error, Result, Timestamp, VersionId};
use txdb_core::{Database, MatchCursor};
use txdb_storage::repo::VersionKind;
use txdb_xml::path::Path;
use txdb_xml::pattern::PatternTree;

use crate::ast::{Expr, Func};
use crate::exec::{
    eval, mode_label, node_text, to_out, truthy, Bound, Ctx, ExecStats, ExplainNode, Value,
};
use crate::plan::{DocSel, Plan, ScanMode, SourcePlan, Strategy};
use crate::result::OutValue;

/// One row flowing through the operator tree: the joined variable
/// bindings and, above the projection, the evaluated output values.
#[derive(Clone, Debug, Default)]
pub struct Row {
    pub(crate) binds: Vec<Bound>,
    pub(crate) values: Vec<OutValue>,
}

impl Row {
    /// The projected output values (empty below the projection).
    pub fn values(&self) -> &[OutValue] {
        &self.values
    }

    /// Consumes the row into its output values.
    pub fn into_values(self) -> Vec<OutValue> {
        self.values
    }
}

/// A pull-based (Volcano) operator. `open` prepares state, `next` yields
/// one row at a time until `None`, `close` releases resources. After the
/// tree has run, [`Operator::explain_node`] reports the node's own
/// `EXPLAIN ANALYZE` annotation (inclusive of its inputs; the stream
/// post-processes the tree into exclusive per-stage figures).
pub trait Operator {
    /// Prepares the operator (and its inputs) for pulling.
    fn open(&mut self) -> Result<()>;
    /// Produces the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;
    /// Releases operator state.
    fn close(&mut self);
    /// This node's annotated explain tree (timings inclusive of inputs).
    fn explain_node(&self) -> ExplainNode;
    /// Rows/candidates currently buffered in this operator *and* its
    /// inputs — the bounded-memory figure behind `exec.peak_rows_buffered`.
    fn buffered(&self) -> usize {
        0
    }
}

/// Per-operator instrumentation: wall time, rows and the share of the
/// query's [`ExecStats`] counted inside this operator's `open`/`next`
/// calls.
struct Meter {
    enabled: bool,
    elapsed: Duration,
    rows: usize,
    stats: ExecStats,
}

/// The start of a metered window: the clock and the query's ledger.
type MeterWindow = (Instant, ExecStats);

impl Meter {
    fn new(enabled: bool) -> Meter {
        Meter { enabled, elapsed: Duration::ZERO, rows: 0, stats: ExecStats::default() }
    }

    /// Opens a metering window (no-op without `EXPLAIN ANALYZE`).
    fn begin(&self, ctx: &Ctx<'_>) -> Option<MeterWindow> {
        self.enabled.then(|| (Instant::now(), *ctx.stats.borrow()))
    }

    /// Closes the window, attributing what the ledger counted to this
    /// operator.
    fn end(&mut self, w: Option<MeterWindow>, ctx: &Ctx<'_>, emitted: usize) {
        self.rows += emitted;
        let Some((t0, then)) = w else { return };
        self.elapsed += t0.elapsed();
        self.stats.add_since(&ctx.stats.borrow(), &then);
    }

    /// Builds the node skeleton with the standard counter set.
    fn node(&self, label: String) -> ExplainNode {
        let s = &self.stats;
        ExplainNode {
            label,
            elapsed_us: self.elapsed.as_micros() as u64,
            rows: self.rows,
            counters: vec![
                ("reconstructions", s.reconstructions as u64),
                ("deltas_applied", s.deltas_applied as u64),
                ("reseeds", s.reseeds as u64),
                ("cache_hits", s.cache_hits as u64),
                ("cache_misses", s.cache_misses as u64),
            ],
            children: Vec::new(),
        }
    }
}

/// Scan over a source whose document doesn't exist: always empty.
struct EmptyScanOp {
    label: String,
    meter: Meter,
}

impl Operator for EmptyScanOp {
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(None)
    }

    fn close(&mut self) {}

    fn explain_node(&self) -> ExplainNode {
        let mut node = self.meter.node(self.label.clone());
        node.counters.push(("fti_lookups", 0));
        node.counters.push(("postings", 0));
        node
    }
}

/// Index scan leaf: drives a lazy [`MatchCursor`] over the FTI postings
/// (§7.3.1/7.3.2), binding the source variable to each match. Dedups on
/// `(doc, version, xid)` exactly like the materialising executor did;
/// because the cursor emits in `(doc, version)` order the seen-set can be
/// reset per version, keeping it bounded by one version's bindings.
struct IndexScanOp<'db> {
    ctx: Rc<Ctx<'db>>,
    var: String,
    docs: Option<DocId>,
    mode: ScanMode,
    pattern: PatternTree,
    label: String,
    var_idx: usize,
    cursor: Option<MatchCursor<'db>>,
    last_key: Option<(DocId, VersionId)>,
    seen: HashSet<txdb_base::Xid>,
    meter: Meter,
}

impl<'db> Operator for IndexScanOp<'db> {
    fn open(&mut self) -> Result<()> {
        let w = self.meter.begin(&self.ctx);
        // The variable binds to the pattern node carrying it.
        self.var_idx = self
            .pattern
            .nodes()
            .iter()
            .position(|n| n.var.as_deref() == Some(self.var.as_str()))
            .ok_or_else(|| Error::QueryInvalid("pattern lost its variable".into()))?;
        let db: &'db Database = self.ctx.db;
        let cursor = match self.mode {
            ScanMode::Current => db.pattern_cursor(self.docs, &self.pattern)?,
            ScanMode::At(t) => db.tpattern_cursor(self.docs, &self.pattern, t)?,
            ScanMode::Every(iv) => db.tpattern_cursor_all_between(self.docs, &self.pattern, iv)?,
        };
        self.cursor = Some(cursor);
        self.meter.end(w, &self.ctx, 0);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let w = self.meter.begin(&self.ctx);
        let Some(cursor) = self.cursor.as_mut() else {
            self.meter.end(w, &self.ctx, 0);
            return Ok(None);
        };
        while let Some(m) = cursor.try_next()? {
            let eid = m.nodes[self.var_idx];
            let key = (m.doc, m.version);
            if self.last_key != Some(key) {
                self.last_key = Some(key);
                self.seen.clear();
            }
            if self.seen.insert(eid.xid) {
                let row = Row {
                    binds: vec![Bound {
                        var: self.var.clone(),
                        teid: eid.at(m.ts),
                        doc: m.doc,
                        version: m.version,
                    }],
                    values: Vec::new(),
                };
                self.meter.end(w, &self.ctx, 1);
                return Ok(Some(row));
            }
        }
        self.meter.end(w, &self.ctx, 0);
        Ok(None)
    }

    fn close(&mut self) {
        self.cursor = None;
        self.seen.clear();
    }

    fn explain_node(&self) -> ExplainNode {
        let mut node = self.meter.node(self.label.clone());
        let stats = self.cursor.as_ref().map(|c| c.stats()).unwrap_or_default();
        node.counters.push(("fti_lookups", stats.fti_lookups as u64));
        node.counters.push(("postings", stats.postings as u64));
        node
    }

    fn buffered(&self) -> usize {
        self.cursor.as_ref().map_or(0, |c| c.buffered()) + self.seen.len()
    }
}

/// Tree-scan leaf: resolves the `(doc, version)` targets up front (cheap
/// metadata only), then reconstructs and walks one version at a time.
/// Bindings of the version under the cursor are queued; the queue never
/// holds more than one version's worth of bindings.
struct TreeScanOp<'db> {
    ctx: Rc<Ctx<'db>>,
    var: String,
    docs: Option<DocId>,
    mode: ScanMode,
    path: Path,
    label: String,
    targets: Vec<(DocId, VersionId, Timestamp)>,
    t_idx: usize,
    pending: VecDeque<Bound>,
    meter: Meter,
}

impl Operator for TreeScanOp<'_> {
    fn open(&mut self) -> Result<()> {
        let w = self.meter.begin(&self.ctx);
        let docs: Vec<DocId> = match self.docs {
            Some(d) => vec![d],
            None => self.ctx.db.store().list()?.iter().map(|(d, _)| *d).collect(),
        };
        for doc in docs {
            let entries = self.ctx.db.store().versions(doc)?;
            match self.mode {
                ScanMode::Current => {
                    if let Some(e) = entries.last() {
                        if e.kind == VersionKind::Content {
                            self.targets.push((doc, e.version, e.ts));
                        }
                    }
                }
                ScanMode::At(t) => {
                    if let Some(v) = self.ctx.db.store().version_at(doc, t)? {
                        self.targets.push((doc, v, entries[v.0 as usize].ts));
                    }
                }
                ScanMode::Every(iv) => self.targets.extend(
                    entries
                        .iter()
                        .filter(|e| e.kind == VersionKind::Content && iv.contains(e.ts))
                        .map(|e| (doc, e.version, e.ts)),
                ),
            }
        }
        self.meter.end(w, &self.ctx, 0);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let w = self.meter.begin(&self.ctx);
        loop {
            if let Some(b) = self.pending.pop_front() {
                self.meter.end(w, &self.ctx, 1);
                return Ok(Some(Row { binds: vec![b], values: Vec::new() }));
            }
            let Some(&(doc, v, ts)) = self.targets.get(self.t_idx) else {
                self.meter.end(w, &self.ctx, 0);
                return Ok(None);
            };
            self.t_idx += 1;
            let tree = self.ctx.tree(doc, v)?;
            for n in self.path.eval_roots(&tree) {
                let xid = tree.node(n).xid;
                self.pending.push_back(Bound {
                    var: self.var.clone(),
                    teid: txdb_base::Eid::new(doc, xid).at(ts),
                    doc,
                    version: v,
                });
            }
        }
    }

    fn close(&mut self) {
        self.targets.clear();
        self.pending.clear();
    }

    fn explain_node(&self) -> ExplainNode {
        let mut node = self.meter.node(self.label.clone());
        node.counters.push(("fti_lookups", 0));
        node.counters.push(("postings", 0));
        node
    }

    fn buffered(&self) -> usize {
        self.targets.len().saturating_sub(self.t_idx) + self.pending.len()
    }
}

/// Nested-loop join over the cartesian product of the sources. Streams
/// the **first** source (the outer loop) and materialises only the inner
/// sides — for single-source queries (the common case) nothing is
/// buffered at all and rows flow straight through.
struct JoinOp<'db> {
    ctx: Rc<Ctx<'db>>,
    sources: Vec<Box<dyn Operator + 'db>>,
    /// Materialised rows of sources `1..` (inner loops).
    inners: Vec<Vec<Row>>,
    /// Odometer over the inner sides.
    idx: Vec<usize>,
    left: Option<Row>,
    exhausted: bool,
    meter: Meter,
}

impl Operator for JoinOp<'_> {
    fn open(&mut self) -> Result<()> {
        for s in &mut self.sources {
            s.open()?;
        }
        let w = self.meter.begin(&self.ctx);
        for s in self.sources.iter_mut().skip(1) {
            let mut rows = Vec::new();
            while let Some(r) = s.next()? {
                rows.push(r);
            }
            self.inners.push(rows);
        }
        // The join is a cartesian product: any empty source empties it.
        self.exhausted = self.inners.iter().any(Vec::is_empty);
        self.idx = vec![0; self.inners.len()];
        self.meter.end(w, &self.ctx, 0);
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let w = self.meter.begin(&self.ctx);
        if self.exhausted {
            self.meter.end(w, &self.ctx, 0);
            return Ok(None);
        }
        if self.left.is_none() {
            self.left = self.sources[0].next()?;
            self.idx.iter_mut().for_each(|i| *i = 0);
        }
        let Some(left) = self.left.as_ref() else {
            self.exhausted = true;
            self.meter.end(w, &self.ctx, 0);
            return Ok(None);
        };
        let mut binds = left.binds.clone();
        for (k, inner) in self.inners.iter().enumerate() {
            binds.extend(inner[self.idx[k]].binds.iter().cloned());
        }
        self.ctx.stats.borrow_mut().rows_scanned += 1;
        // Advance the odometer; when it wraps, move the outer cursor.
        let mut pos = self.inners.len();
        loop {
            if pos == 0 {
                self.left = None;
                break;
            }
            pos -= 1;
            self.idx[pos] += 1;
            if self.idx[pos] < self.inners[pos].len() {
                break;
            }
            self.idx[pos] = 0;
        }
        self.meter.end(w, &self.ctx, 1);
        Ok(Some(Row { binds, values: Vec::new() }))
    }

    fn close(&mut self) {
        for s in &mut self.sources {
            s.close();
        }
        self.inners.clear();
        self.left = None;
    }

    fn explain_node(&self) -> ExplainNode {
        let n = self.sources.len();
        let label = format!("nested-loop join ({n} source{})", if n == 1 { "" } else { "s" });
        let mut node = self.meter.node(label);
        node.children = self.sources.iter().map(|s| s.explain_node()).collect();
        node
    }

    fn buffered(&self) -> usize {
        self.inners.iter().map(Vec::len).sum::<usize>()
            + self.sources.iter().map(|s| s.buffered()).sum::<usize>()
    }
}

/// Filter: pulls from its input until a row passes the predicate.
struct FilterOp<'db> {
    ctx: Rc<Ctx<'db>>,
    input: Box<dyn Operator + 'db>,
    pred: Expr,
    meter: Meter,
}

impl Operator for FilterOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            let w = self.meter.begin(&self.ctx);
            let Some(row) = self.input.next()? else {
                self.meter.end(w, &self.ctx, 0);
                return Ok(None);
            };
            if truthy(&eval(&self.ctx, &self.pred, &row.binds)?) {
                self.meter.end(w, &self.ctx, 1);
                return Ok(Some(row));
            }
            self.meter.end(w, &self.ctx, 0);
        }
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn explain_node(&self) -> ExplainNode {
        let mut node = self.meter.node("filter".to_string());
        node.children.push(self.input.explain_node());
        node
    }

    fn buffered(&self) -> usize {
        self.input.buffered()
    }
}

/// Projection: evaluates the select list per row; `DISTINCT` keeps a
/// seen-set of rendered rows (the only unbounded buffer, and only under
/// `DISTINCT`, counted in [`Operator::buffered`]).
struct ProjectOp<'db> {
    ctx: Rc<Ctx<'db>>,
    input: Box<dyn Operator + 'db>,
    items: Vec<Expr>,
    distinct: bool,
    seen: HashSet<String>,
    meter: Meter,
}

impl Operator for ProjectOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            let w = self.meter.begin(&self.ctx);
            let Some(mut row) = self.input.next()? else {
                self.meter.end(w, &self.ctx, 0);
                return Ok(None);
            };
            let mut values = Vec::with_capacity(self.items.len());
            for item in &self.items {
                values.push(to_out(&self.ctx, eval(&self.ctx, item, &row.binds)?));
            }
            if self.distinct && !self.seen.insert(format!("{values:?}")) {
                self.meter.end(w, &self.ctx, 0);
                continue;
            }
            row.values = values;
            self.meter.end(w, &self.ctx, 1);
            return Ok(Some(row));
        }
    }

    fn close(&mut self) {
        self.input.close();
        self.seen.clear();
    }

    fn explain_node(&self) -> ExplainNode {
        let stage = if self.distinct { "project distinct" } else { "project" };
        let n = self.items.len();
        let label = format!("{stage} ({n} item{})", if n == 1 { "" } else { "s" });
        let mut node = self.meter.node(label);
        node.children.push(self.input.explain_node());
        node
    }

    fn buffered(&self) -> usize {
        self.input.buffered() + self.seen.len()
    }
}

/// One running aggregate accumulator.
enum Acc {
    /// `COUNT(*)` / `COUNT(R)`: row count, no document access (the
    /// paper's Q2 point — the scan already counted).
    CountRows { n: usize },
    /// `COUNT(expr)`: non-null evaluations.
    CountExpr { arg: Expr, n: usize },
    /// `SUM(expr)`.
    Sum { arg: Expr, sum: f64 },
}

/// Aggregation: drains its input once, folding every row into the
/// accumulators, then emits exactly one row (even over empty input).
struct AggregateOp<'db> {
    ctx: Rc<Ctx<'db>>,
    input: Box<dyn Operator + 'db>,
    items: Vec<Expr>,
    accs: Vec<Acc>,
    done: bool,
    meter: Meter,
}

impl Operator for AggregateOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        for item in &self.items {
            let acc = match item {
                Expr::Func { name: Func::Count, args } => {
                    if matches!(args[0], Expr::Star | Expr::Var(_)) {
                        Acc::CountRows { n: 0 }
                    } else {
                        Acc::CountExpr { arg: args[0].clone(), n: 0 }
                    }
                }
                Expr::Func { name: Func::Sum, args } => Acc::Sum { arg: args[0].clone(), sum: 0.0 },
                other => {
                    return Err(Error::QueryInvalid(format!(
                        "select item is not a supported aggregate: {other:?}"
                    )))
                }
            };
            self.accs.push(acc);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let w = self.meter.begin(&self.ctx);
            let Some(row) = self.input.next()? else {
                self.done = true;
                let values = self
                    .accs
                    .iter()
                    .map(|acc| match acc {
                        Acc::CountRows { n } | Acc::CountExpr { n, .. } => OutValue::Num(*n as f64),
                        Acc::Sum { sum, .. } => OutValue::Num(*sum),
                    })
                    .collect();
                self.meter.end(w, &self.ctx, 1);
                return Ok(Some(Row { binds: Vec::new(), values }));
            };
            for acc in &mut self.accs {
                match acc {
                    Acc::CountRows { n } => *n += 1,
                    Acc::CountExpr { arg, n } => match eval(&self.ctx, arg, &row.binds)? {
                        Value::Null => {}
                        Value::Nodes(nodes) => *n += nodes.len().min(1),
                        _ => *n += 1,
                    },
                    Acc::Sum { arg, sum } => match eval(&self.ctx, arg, &row.binds)? {
                        Value::Num(x) => *sum += x,
                        Value::Str(s) => *sum += s.trim().parse::<f64>().unwrap_or(0.0),
                        Value::Nodes(nodes) => {
                            for nv in &nodes {
                                *sum += node_text(nv).trim().parse::<f64>().unwrap_or(0.0);
                            }
                        }
                        _ => {}
                    },
                }
            }
            self.meter.end(w, &self.ctx, 0);
        }
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn explain_node(&self) -> ExplainNode {
        let n = self.items.len();
        let label = format!("aggregate ({n} item{})", if n == 1 { "" } else { "s" });
        let mut node = self.meter.node(label);
        node.children.push(self.input.explain_node());
        node
    }

    fn buffered(&self) -> usize {
        self.input.buffered()
    }
}

/// `LIMIT n`: stops pulling its input after `n` rows — the early-exit
/// that lets a `LIMIT 1` over a huge history finish after one posting
/// chain instead of a full materialisation.
struct LimitOp<'db> {
    ctx: Rc<Ctx<'db>>,
    input: Box<dyn Operator + 'db>,
    n: usize,
    emitted: usize,
    meter: Meter,
}

impl Operator for LimitOp<'_> {
    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next(&mut self) -> Result<Option<Row>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        let w = self.meter.begin(&self.ctx);
        let row = self.input.next()?;
        let emitted = usize::from(row.is_some());
        self.emitted += emitted;
        self.meter.end(w, &self.ctx, emitted);
        Ok(row)
    }

    fn close(&mut self) {
        self.input.close();
    }

    fn explain_node(&self) -> ExplainNode {
        let mut node = self.meter.node(format!("limit {}", self.n));
        node.children.push(self.input.explain_node());
        node
    }

    fn buffered(&self) -> usize {
        self.input.buffered()
    }
}

/// Lowers one `FROM` source to its scan leaf.
fn lower_scan<'db>(ctx: &Rc<Ctx<'db>>, s: &SourcePlan, explain: bool) -> Box<dyn Operator + 'db> {
    let docs = match s.docs {
        DocSel::Missing => {
            return Box::new(EmptyScanOp {
                label: format!("scan {}: no such document", s.var),
                meter: Meter::new(explain),
            })
        }
        DocSel::One(d) => Some(d),
        DocSel::All => None,
    };
    match &s.strategy {
        Strategy::Index(pattern) => {
            let op = match s.mode {
                ScanMode::Current => "PatternScan",
                ScanMode::At(_) => "TPatternScan",
                ScanMode::Every(_) => "TPatternScanAll",
            };
            Box::new(IndexScanOp {
                ctx: ctx.clone(),
                var: s.var.clone(),
                docs,
                mode: s.mode,
                pattern: pattern.clone(),
                label: format!("index scan {}: {op}{}", s.var, mode_label(&s.mode)),
                var_idx: 0,
                cursor: None,
                last_key: None,
                seen: HashSet::new(),
                meter: Meter::new(explain),
            })
        }
        Strategy::Tree(path) => Box::new(TreeScanOp {
            ctx: ctx.clone(),
            var: s.var.clone(),
            docs,
            mode: s.mode,
            path: path.clone(),
            label: format!("tree scan {}: reconstruct{}", s.var, mode_label(&s.mode)),
            targets: Vec::new(),
            t_idx: 0,
            pending: VecDeque::new(),
            meter: Meter::new(explain),
        }),
    }
}

/// Lowers a plan to its operator tree:
/// `scans → join → [filter] → project|aggregate → [limit]`.
fn lower<'db>(ctx: &Rc<Ctx<'db>>, plan: &Plan, explain: bool) -> Box<dyn Operator + 'db> {
    let sources: Vec<Box<dyn Operator + 'db>> =
        plan.sources.iter().map(|s| lower_scan(ctx, s, explain)).collect();
    let mut root: Box<dyn Operator + 'db> = Box::new(JoinOp {
        ctx: ctx.clone(),
        sources,
        inners: Vec::new(),
        idx: Vec::new(),
        left: None,
        exhausted: false,
        meter: Meter::new(explain),
    });
    if let Some(pred) = &plan.filter {
        root = Box::new(FilterOp {
            ctx: ctx.clone(),
            input: root,
            pred: pred.clone(),
            meter: Meter::new(explain),
        });
    }
    root = if plan.aggregate {
        Box::new(AggregateOp {
            ctx: ctx.clone(),
            input: root,
            items: plan.select.clone(),
            accs: Vec::new(),
            done: false,
            meter: Meter::new(explain),
        })
    } else {
        Box::new(ProjectOp {
            ctx: ctx.clone(),
            input: root,
            items: plan.select.clone(),
            distinct: plan.distinct,
            seen: HashSet::new(),
            meter: Meter::new(explain),
        })
    };
    if let Some(n) = plan.limit {
        root = Box::new(LimitOp {
            ctx: ctx.clone(),
            input: root,
            n,
            emitted: 0,
            meter: Meter::new(explain),
        });
    }
    root
}

/// Rewrites an inclusive explain tree (each node's figures cover its
/// whole subtree) into exclusive per-stage figures by subtracting the
/// children's (still-inclusive) totals before recursing.
fn make_exclusive(node: &mut ExplainNode) {
    let child_us: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
    node.elapsed_us = node.elapsed_us.saturating_sub(child_us);
    for i in 0..node.counters.len() {
        let (name, own) = node.counters[i];
        let child_sum: u64 = node.children.iter().map(|c| c.counter_total(name)).sum();
        node.counters[i] = (name, own.saturating_sub(child_sum));
    }
    for c in &mut node.children {
        make_exclusive(c);
    }
}

/// Records a finished (exclusive) explain tree as trace spans under
/// `trace` — one span per operator, durations re-inflated to inclusive
/// (own + children) so a child never outlasts its parent and the tree's
/// exclusive times still sum to the metered total.
fn record_operator_spans(trace: &TraceContext, node: &ExplainNode) {
    fn inclusive_us(n: &ExplainNode) -> u64 {
        n.elapsed_us + n.children.iter().map(inclusive_us).sum::<u64>()
    }
    let mut fields = vec![("rows".to_string(), TraceValue::U64(node.rows as u64))];
    for (name, v) in &node.counters {
        if *v > 0 {
            fields.push(((*name).to_string(), TraceValue::U64(*v)));
        }
    }
    let child = trace.record_complete(&node.label, inclusive_us(node), fields);
    for c in &node.children {
        record_operator_spans(&child, c);
    }
}

/// Lowers the plan and opens the operator tree, returning the pull
/// cursor. This is the single entry point behind both
/// [`crate::QueryRequest::run`] (which drains it) and
/// [`crate::QueryRequest::stream`].
pub(crate) fn open_stream<'db>(
    db: &'db Database,
    plan: &Plan,
    explain: bool,
) -> Result<RowStream<'db>> {
    let span = db.metrics().span("query.run_us");
    // When a trace is installed on this thread, the span above has just
    // become its innermost node; capture a context pointing at it so the
    // finished operator tree can be recorded as its children.
    let trace = TraceContext::current();
    // Pin the oldest snapshot time this plan can touch for the cursor's
    // whole lifetime: a concurrent vacuum clamps its purge horizon below
    // this pin, so every version the query can still pull stays
    // reconstructible even if the caller holds the stream open across
    // later writes and vacuums.
    let pin = db.pin_snapshot(plan.min_snapshot_time());
    let ctx = Rc::new(Ctx::new(db, plan.now));
    let mut root = lower(&ctx, plan, explain);
    root.open()?;
    let peak = root.buffered() + ctx.cached_trees();
    Ok(RowStream {
        _pin: pin,
        ctx,
        root,
        span: Some(span),
        trace,
        explain,
        finished: false,
        peak_buffered: peak,
        explain_tree: None,
    })
}

/// A pull-based cursor over a running query: each [`Iterator::next`]
/// pulls one output row through the operator tree. Dropping the stream —
/// or exhausting it — closes the operators, folds the run into the
/// metrics registry (including the `exec.peak_rows_buffered` gauge) and,
/// under `EXPLAIN ANALYZE`, freezes the explain tree.
pub struct RowStream<'db> {
    /// Snapshot pin at the query's `NOW` anchor, held until the stream
    /// drops: fences concurrent vacuum from purging versions this cursor
    /// may still reconstruct.
    _pin: txdb_storage::SnapshotPin,
    ctx: Rc<Ctx<'db>>,
    root: Box<dyn Operator + 'db>,
    span: Option<Span<'db>>,
    trace: Option<TraceContext>,
    explain: bool,
    finished: bool,
    peak_buffered: usize,
    explain_tree: Option<ExplainNode>,
}

impl RowStream<'_> {
    /// Finalises the run (idempotent): closes operators, publishes the
    /// run's stats as metrics and ends the timing span.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.explain {
            let mut tree = self.root.explain_node();
            make_exclusive(&mut tree);
            if let Some(trace) = &self.trace {
                record_operator_spans(trace, &tree);
            }
            self.explain_tree = Some(tree);
        }
        self.root.close();
        let stats = self.stats();
        let reg = self.ctx.db.metrics();
        reg.counter("query.runs").inc();
        reg.counter("query.rows_scanned").add(stats.rows_scanned as u64);
        reg.counter("query.rows_output").add(stats.rows_output as u64);
        reg.gauge("exec.peak_rows_buffered").set(self.peak_buffered as u64);
        self.span.take();
    }

    /// Execution statistics: the run's ledger, live while the stream is
    /// still being pulled and final once it is exhausted (or dropped).
    pub fn stats(&self) -> ExecStats {
        *self.ctx.stats.borrow()
    }

    /// The `EXPLAIN ANALYZE` tree (after exhaustion, when requested).
    pub fn explain(&self) -> Option<&ExplainNode> {
        self.explain_tree.as_ref()
    }

    /// Takes the explain tree out of a finished stream.
    pub(crate) fn take_explain(&mut self) -> Option<ExplainNode> {
        self.explain_tree.take()
    }

    /// High-water mark of rows/candidates buffered across the operator
    /// tree plus cached reconstructed versions — the bounded-memory
    /// figure, independent of how many rows the query returns.
    pub fn peak_rows_buffered(&self) -> usize {
        self.peak_buffered
    }
}

impl Iterator for RowStream<'_> {
    type Item = Result<Vec<OutValue>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        match self.root.next() {
            Ok(Some(row)) => {
                self.ctx.stats.borrow_mut().rows_output += 1;
                let buffered = self.root.buffered() + self.ctx.cached_trees();
                self.peak_buffered = self.peak_buffered.max(buffered);
                Some(Ok(row.into_values()))
            }
            Ok(None) => {
                self.finish();
                None
            }
            Err(e) => {
                self.finish();
                Some(Err(e))
            }
        }
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}
