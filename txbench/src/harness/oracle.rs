//! Answer checking against the stratum oracle (`txdb-stratum`).
//!
//! The stratum stores every version of a few followed documents complete
//! and has no deltas, no indexes, no element timestamps and no element
//! identity. What it can say about an answer is therefore
//! identity-free:
//!
//! * a snapshot answer is exactly the filter and projection of the
//!   version valid at *t* — compared as a multiset of rows, because the
//!   language has no `ORDER BY` and the engine emits the elements of one
//!   version in XID order, not document order;
//! * an `[EVERY]` answer has its rows in version order — over the
//!   restaurant of one name, one row per version listing that name; over
//!   a price filter, per version the multiset of qualifying prices —
//!   and its `R/price` cells are the prices listed (exact);
//! * cells that follow an *element* through time (`TIME`, `CREATETIME`,
//!   `DELETETIME`, `PREVIOUS`, `NEXT`) depend on which old element the
//!   diff matched a new one to — two siblings whose changed prices cross
//!   can swap identities — so they are held to what every matching must
//!   satisfy: timestamps bracket the row's version, and a neighbouring
//!   version's price is one that version lists.

use txdb_base::{Duration, Interval, Timestamp};
use txdb_stratum::{StoredVersion, StratumDb};
use txdb_xml::pattern::{PatternNode, PatternTree};
use txdb_xml::serialize::subtree_to_string;
use txdb_xml::tree::{NodeId, Tree};

use super::workload::{PutOp, QueryOp, Template};

/// One result: rows of rendered cells.
pub type Rows = Vec<Vec<String>>;

/// The oracle: a stratum store fed the same version stream as the
/// engine, for the documents it follows.
pub struct Oracle {
    stratum: StratumDb,
    docs: Vec<usize>,
    tag: &'static str,
}

fn child(tree: &Tree, node: NodeId, name: &str) -> Option<NodeId> {
    tree.node(node).children().iter().copied().find(|&c| tree.node(c).name() == Some(name))
}

fn child_xml(tree: &Tree, node: NodeId, name: &str) -> String {
    child(tree, node, name).map(|c| subtree_to_string(tree, c)).unwrap_or_default()
}

fn child_text(tree: &Tree, node: NodeId, name: &str) -> String {
    child(tree, node, name).map(|c| tree.text_content(c)).unwrap_or_default()
}

/// The elements named `tag` directly under the root, in document order.
fn elements(tree: &Tree, tag: &str) -> Vec<NodeId> {
    let Some(root) = tree.root() else { return Vec::new() };
    let kids = tree.node(root).children().iter().copied();
    kids.filter(|&c| tree.node(c).name() == Some(tag)).collect()
}

/// All `<price>` elements a guide version lists, serialized.
fn listed_prices(tree: &Tree) -> Vec<String> {
    elements(tree, "restaurant").into_iter().map(|r| child_xml(tree, r, "price")).collect()
}

fn sorted(rows: &Rows) -> Rows {
    let mut v = rows.clone();
    v.sort();
    v
}

impl Oracle {
    /// An oracle following `docs`, whose queries range over `tag` elements.
    pub fn new(docs: Vec<usize>, tag: &'static str) -> Oracle {
        Oracle { stratum: StratumDb::new(), docs, tag }
    }

    /// True when the oracle follows document `doc`.
    pub fn follows(&self, doc: usize) -> bool {
        self.docs.contains(&doc)
    }

    /// Records a put of the version stream (ignored for other documents).
    pub fn observe(&mut self, name: &str, put: &PutOp) {
        if self.follows(put.doc) {
            self.stratum.put(name, &put.xml, put.ts).expect("oracle put");
        }
    }

    /// The versions of `name` committed at or before `bound`, oldest first.
    fn history(&self, name: &str, bound: Timestamp) -> Vec<&StoredVersion> {
        let upto = Interval::new(Timestamp::ZERO, bound + Duration::from_micros(1));
        let mut h = self.stratum.doc_history(name, upto);
        h.reverse();
        h
    }

    /// The latest version of `name`, serialized canonically.
    pub fn latest(&self, name: &str) -> Option<String> {
        let h = self.stratum.doc_history(name, Interval::ALL);
        h.first().map(|v| txdb_xml::serialize::to_string(&v.tree))
    }

    /// Checks the rows the engine returned for `op` on document `name`;
    /// `Err` says what is wrong with them.
    pub fn check(&self, name: &str, op: &QueryOp, got: &Rows) -> Result<(), String> {
        match &op.template {
            Template::TimePrice(limit) => self.check_price_history(name, op, *limit, got),
            Template::Lifetime(who) | Template::DistinctPrice(who) | Template::PrevNext(who) => {
                self.check_history(name, op, who, got)
            }
            _ => {
                let want = self.snapshot_rows(name, op);
                if sorted(got) == sorted(&want) {
                    Ok(())
                } else {
                    Err(format!("got {got:?}, the stratum says {want:?}"))
                }
            }
        }
    }

    /// The rows of a snapshot (or current-version) shape.
    fn snapshot_rows(&self, name: &str, op: &QueryOp) -> Rows {
        let counting = matches!(op.template, Template::Count | Template::TdocCount);
        let elems: Vec<Tree> = if op.template.is_current() {
            let h = self.history(name, op.probe);
            h.last().map_or_else(Vec::new, |v| {
                elements(&v.tree, self.tag).into_iter().map(|e| v.tree.extract_subtree(e)).collect()
            })
        } else {
            // The middleware translation of TPatternScan: the version
            // valid at t, tree-matched.
            let pattern = PatternTree::new(PatternNode::tag(self.tag).project());
            let (matches, _) = self.stratum.pattern_at(&pattern, op.probe);
            matches.into_iter().find(|m| m.url == name).map_or_else(Vec::new, |m| m.subtrees)
        };
        if counting {
            return vec![vec![elems.len().to_string()]];
        }
        elems.iter().filter_map(|t| t.root().and_then(|e| project(t, e, &op.template))).collect()
    }

    /// `TIME(R), R/price … [EVERY] … WHERE R/price < limit`: version by
    /// version, the prices below the limit (as a multiset: XID order
    /// within a version), each with a timestamp that is in order and not
    /// after the version's.
    fn check_price_history(
        &self,
        name: &str,
        op: &QueryOp,
        limit: u32,
        got: &Rows,
    ) -> Result<(), String> {
        let mut rest = got.as_slice();
        for v in self.history(name, op.probe) {
            let mut want: Vec<String> = elements(&v.tree, "restaurant")
                .into_iter()
                .filter(|&r| {
                    let price = child_text(&v.tree, r, "price").trim().parse::<f64>();
                    price.is_ok_and(|p| p < f64::from(limit))
                })
                .map(|r| child_xml(&v.tree, r, "price"))
                .collect();
            if rest.len() < want.len() {
                return Err(format!("rows run out at version {}", v.ts));
            }
            let (rows, tail) = rest.split_at(want.len());
            rest = tail;
            let mut have: Vec<String> = rows.iter().map(|r| r[1].clone()).collect();
            have.sort();
            want.sort();
            if have != want {
                return Err(format!("at {}: prices {have:?}, listed {want:?}", v.ts));
            }
            for r in rows {
                let t = Timestamp::parse(&r[0]).map_err(|_| format!("`{}` is no time", r[0]))?;
                if t > v.ts {
                    return Err(format!("TIME {t} is after its version {}", v.ts));
                }
            }
        }
        if rest.is_empty() {
            Ok(())
        } else {
            Err(format!("{} rows beyond the last version", rest.len()))
        }
    }

    /// `[EVERY]` shapes over the restaurant called `who`.
    fn check_history(&self, name: &str, op: &QueryOp, who: &str, got: &Rows) -> Result<(), String> {
        let h = self.history(name, op.probe);
        // The versions listing the name, with the price listed.
        let listed: Vec<(usize, String)> = h
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                let found = elements(&v.tree, "restaurant")
                    .into_iter()
                    .find(|&r| child_text(&v.tree, r, "name") == who);
                found.map(|r| (i, child_xml(&v.tree, r, "price")))
            })
            .collect();
        if let Template::DistinctPrice(_) = op.template {
            let mut want: Rows = Vec::new();
            for (_, price) in &listed {
                if !want.iter().any(|r| r[0] == *price) {
                    want.push(vec![price.clone()]);
                }
            }
            return if *got == want {
                Ok(())
            } else {
                Err(format!("got {got:?}, the stratum says {want:?}"))
            };
        }
        if got.len() != listed.len() {
            return Err(format!("{} rows, but {} versions list {who}", got.len(), listed.len()));
        }
        let time = |cell: &str| match cell {
            "FOREVER" => Ok(Timestamp::FOREVER),
            _ => Timestamp::parse(cell).map_err(|_| format!("`{cell}` is not a timestamp")),
        };
        for (row, (i, _)) in got.iter().zip(&listed) {
            let version_ts = h[*i].ts;
            match op.template {
                Template::Lifetime(_) => {
                    let (created, deleted) = (time(&row[0])?, time(&row[1])?);
                    if created > version_ts || deleted <= version_ts {
                        return Err(format!(
                            "lifetime [{created}, {deleted}) misses version {version_ts}"
                        ));
                    }
                }
                Template::PrevNext(_) => {
                    let neighbours = [i.checked_sub(1), Some(i + 1).filter(|&j| j < h.len())];
                    for (cell, j) in row.iter().zip(neighbours) {
                        let allowed = j.map_or_else(Vec::new, |j| listed_prices(&h[j].tree));
                        if !cell.is_empty() && !allowed.contains(cell) {
                            return Err(format!("{cell} is not listed next to {version_ts}"));
                        }
                    }
                }
                _ => unreachable!("not an [EVERY] shape"),
            }
        }
        Ok(())
    }
}

/// Filter + projection of a snapshot shape over one element; `None`
/// when the element does not qualify.
fn project(tree: &Tree, e: NodeId, template: &Template) -> Option<Vec<String>> {
    let contains = |text: String, w: &str| text.to_lowercase().contains(w);
    match template {
        Template::PriceBelow(p) => {
            let price: f64 = child_text(tree, e, "price").trim().parse().ok()?;
            (price < f64::from(*p))
                .then(|| vec![child_xml(tree, e, "name"), child_xml(tree, e, "price")])
        }
        Template::Contains(w) => {
            contains(tree.text_content(e), w).then(|| vec![child_xml(tree, e, "name")])
        }
        Template::NameEq(n) => {
            (child_text(tree, e, "name") == *n).then(|| vec![child_xml(tree, e, "price")])
        }
        Template::TdocContains(w) | Template::TdocCurrent(w) => {
            contains(child_text(tree, e, "text"), w).then(|| vec![child_xml(tree, e, "kind")])
        }
        Template::TdocKindEq(k) => {
            (child_text(tree, e, "kind") == *k).then(|| vec![child_xml(tree, e, "text")])
        }
        _ => None,
    }
}

/// Renders engine rows the way the wire does (`OutValue::as_text`).
pub fn render(rows: &[Vec<txdb_query::OutValue>]) -> Rows {
    rows.iter().map(|r| r.iter().map(|v| v.as_text()).collect()).collect()
}

/// A 64-bit FNV-1a digest of a result, to compare every wire answer with
/// its in-process twin without keeping either.
pub fn digest(rows: &Rows) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in rows {
        for cell in row {
            eat(cell.as_bytes());
            eat(&[0x1f]);
        }
        eat(&[0x1e]);
    }
    h
}
