//! The harness's own span list for the traced pass.
//!
//! Spans are recorded from outside the engine, around calls into each
//! crate's public functions. Two kinds exist:
//!
//! * a **real** span brackets a call with [`SpanLog::begin`] /
//!   [`SpanLog::end`]; its start and end are wall-clock readings;
//! * a **re-issued** span ([`SpanLog::reissued`]) carries the measured
//!   duration of a lower-layer call that the harness repeated on its own
//!   right after the enclosing call returned (the engine's internals are
//!   not instrumented by this benchmark). Its *duration* is measured;
//!   its *position* inside the parent is assigned — children are laid
//!   out back to back from the parent's start — so that the usual rule
//!   applies: self time = duration − the part children cover.
//!
//! A re-issued child that measures longer than what is left of its
//! parent (the repeated call goes through the public entry points and a
//! different cache state) is clamped to the parent and counted in
//! [`SpanLog::clamped`]; callers attach the small children first, so a
//! clamp cuts the largest one.

use std::collections::BTreeMap;
use std::time::Instant;

use txdb_client::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in the log.
    pub id: usize,
    /// The span that caused this one (`None` for an operation root).
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one sampled operation.
    pub op: usize,
    /// `<layer>.<what>`, the layer being the crate called.
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// True for a re-issued span (duration measured, position assigned).
    pub reissued: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer (crate) the span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span list, written out when the run ends.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    /// Re-issued children cut short to fit their parent.
    pub clamped: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log; span times count from now.
    pub fn new() -> SpanLog {
        SpanLog { t0: Instant::now(), spans: Vec::new(), clamped: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a real span. A root (`parent == None`) starts a new operation.
    pub fn begin(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let op = parent.map_or(id, |p| self.spans[p].op);
        let now = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns: now, end_ns: now, reissued: false });
        id
    }

    /// Closes a real span.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attaches a re-issued child of measured duration `dur_ns` to the
    /// (closed) span `parent`, after the children it already has.
    pub fn reissued(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let (p_start, p_end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p_start);
        let mut end = start + dur_ns;
        if end > p_end {
            end = p_end;
            self.clamped += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op,
            name,
            start_ns: start,
            end_ns: end,
            reissued: true,
        });
        id
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let iv = &mut kids[s.id];
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in iv.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Checks the span invariants: every child lies inside its parent,
    /// and per operation the self times add up to the root's duration
    /// within 1%.
    pub fn check(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            if let Some(p) = s.parent {
                let p = &self.spans[p];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!("span {} ({}) leaves its parent {}", s.id, s.name, p.name));
                }
            }
        }
        let selfs = self.self_times_ns();
        let mut per_op: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            *per_op.entry(s.op).or_default() += selfs[s.id];
        }
        for (op, sum) in per_op {
            let root = self.spans[op].dur_ns();
            if sum.abs_diff(root) as f64 > root as f64 * 0.01 {
                return Err(format!("op {op}: self times sum to {sum} ns, root is {root} ns"));
            }
        }
        Ok(())
    }

    /// Per root kind (`op.query`, `op.put`, …), the self time of every
    /// span name summed over the sampled operations of that kind.
    pub fn breakdown(&self) -> Vec<Breakdown> {
        let selfs = self.self_times_ns();
        let mut by_root: BTreeMap<&'static str, Breakdown> = BTreeMap::new();
        for s in &self.spans {
            let root = &self.spans[s.op];
            let b = by_root.entry(root.name).or_insert_with(|| Breakdown {
                root: root.name,
                ops: 0,
                total_ns: 0,
                rows: Vec::new(),
            });
            if s.parent.is_none() {
                b.ops += 1;
                b.total_ns += s.dur_ns();
            }
            match b.rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.count += 1;
                    r.self_ns += selfs[s.id];
                }
                None => b.rows.push(BreakdownRow {
                    name: s.name,
                    layer: s.layer(),
                    count: 1,
                    self_ns: selfs[s.id],
                }),
            }
        }
        by_root.into_values().collect()
    }

    /// The trace file: every span plus the per-kind breakdown.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    Json::field("id", Json::u64(s.id as u64)),
                    s.parent.map(|p| ("parent", Json::u64(p as u64))),
                    Json::field("op", Json::u64(s.op as u64)),
                    Json::field("name", Json::str(s.name)),
                    Json::field("start_ns", Json::u64(s.start_ns)),
                    Json::field("end_ns", Json::u64(s.end_ns)),
                    Json::field("reissued", Json::Bool(s.reissued)),
                ])
            })
            .collect();
        let breakdown = self
            .breakdown()
            .iter()
            .map(|b| {
                Json::obj([
                    Json::field("root", Json::str(b.root)),
                    Json::field("ops", Json::u64(b.ops)),
                    Json::field("mean_us", Json::Num(b.mean_us())),
                    Json::field(
                        "self_us_per_op",
                        Json::Obj(
                            b.rows
                                .iter()
                                .map(|r| (r.name.to_string(), Json::Num(b.self_us_per_op(r))))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            Json::field("workload", Json::str(workload)),
            Json::field("seed", Json::u64(seed)),
            Json::field("clamped_reissued_spans", Json::u64(self.clamped)),
            Json::field("breakdown", Json::Arr(breakdown)),
            Json::field("spans", Json::Arr(spans)),
        ])
    }
}

/// Self-time totals of one kind of sampled operation.
pub struct Breakdown {
    /// Name of the root span (`op.query`, `op.wire_query`, `op.put`).
    pub root: &'static str,
    /// Sampled operations of this kind.
    pub ops: u64,
    /// Sum of the root durations.
    pub total_ns: u64,
    /// One row per span name seen under this root.
    pub rows: Vec<BreakdownRow>,
}

/// One span name's share of a [`Breakdown`].
pub struct BreakdownRow {
    /// Span name.
    pub name: &'static str,
    /// Layer (crate) of the span.
    pub layer: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Their summed self time.
    pub self_ns: u64,
}

impl Breakdown {
    /// Mean duration of one operation of this kind, µs.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// A row's self time per operation, µs.
    pub fn self_us_per_op(&self, r: &BreakdownRow) -> f64 {
        r.self_ns as f64 / 1e3 / self.ops.max(1) as f64
    }

    /// The share (0..1) of this kind's time spent in the given layers.
    pub fn layer_share(&self, layers: &[&str]) -> f64 {
        let part: u64 =
            self.rows.iter().filter(|r| layers.contains(&r.layer)).map(|r| r.self_ns).sum();
        part as f64 / self.total_ns.max(1) as f64
    }

    /// The share (0..1) of this kind's time spent in the named spans.
    pub fn span_share(&self, names: &[&str]) -> f64 {
        let part: u64 =
            self.rows.iter().filter(|r| names.contains(&r.name)).map(|r| r.self_ns).sum();
        part as f64 / self.total_ns.max(1) as f64
    }

    /// The "where an operation's microseconds go" table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "where one {} spends its time ({} sampled, mean {:.1} us)\n",
            self.root,
            self.ops,
            self.mean_us()
        );
        let mut rows: Vec<&BreakdownRow> = self.rows.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        for r in rows {
            out.push_str(&format!(
                "  {:<28} {:>10.2} us  {:>5.1}%  ({} spans)\n",
                r.name,
                self.self_us_per_op(r),
                100.0 * r.self_ns as f64 / self.total_ns.max(1) as f64,
                r.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn real_and_reissued_spans_keep_the_invariants() {
        let mut log = SpanLog::new();
        let op = log.begin(None, "op.query");
        let parse = log.begin(Some(op), "query.parse");
        spin(50);
        log.end(parse);
        let scan = log.begin(Some(op), "core.tpattern_scan");
        spin(200);
        log.end(scan);
        spin(100);
        log.end(op);
        let look = log.reissued(scan, "index.fti.lookup_t", 80_000);
        log.reissued(look, "index.inner", 10_000);
        // Longer than the parent has room for: clamped, not overlapping.
        log.reissued(scan, "storage.version_tree", 10_000_000);
        assert_eq!(log.clamped, 1);
        log.check().expect("invariants hold");
        let selfs = log.self_times_ns();
        assert_eq!(selfs[scan], 0, "children cover the whole scan after clamping");
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, log.spans()[op].dur_ns(), "self times telescope to the root");
        let b = &log.breakdown()[0];
        assert_eq!((b.root, b.ops), ("op.query", 1));
        assert!((b.layer_share(&["op", "query", "core", "index", "storage"]) - 1.0).abs() < 1e-9);
        assert!(b.render().contains("index.fti.lookup_t"));
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let mut log = SpanLog::new();
        let op = log.begin(None, "op.put");
        log.end(op);
        let kid = log.begin(Some(op), "xml.parse");
        spin(20);
        log.end(kid);
        assert!(log.check().is_err());
    }
}
