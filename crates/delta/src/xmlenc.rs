//! Deltas as XML documents.
//!
//! The paper requires edit scripts to be XML trees themselves: "as long as
//! an edit script is represented in XML this operator does not break
//! closure properties of queries" (§6, Diff), and the storage model stores
//! "each delta ... as a separate XML document" (§7.1). This module encodes
//! a [`Delta`] losslessly as a [`Tree`] and back:
//!
//! ```xml
//! <delta from="0" to="1" t1="100" t2="200">
//!   <insert parent="5" pos="1"> ...subtree with txdb:xid/txdb:ts... </insert>
//!   <delete parent="5" pos="0" pts="100"> ...subtree... </delete>
//!   <update xid="7" ots="100"><old>15</old><new>18</new></update>
//!   <setattr xid="3" key="category" ots="100"><old>x</old><new>y</new></setattr>
//!   <move xid="9" oparent="2" opos="1" nparent="4" npos="0" ots="100" opts="100"/>
//! </delta>
//! ```
//!
//! Subtree payloads carry their XIDs and direct timestamps in the reserved
//! `txdb:xid`/`txdb:ts` attributes; `<old>`/`<new>` children are omitted
//! when the corresponding value is absent (attribute creation/removal).
//! The same encoding doubles as the storage format of deltas and as the
//! query-visible result of the `Diff` operator.

use txdb_base::{Error, Result, Timestamp, VersionId, Xid};
use txdb_xml::tree::{NodeId, Tree};

use crate::ops::{Delta, EditOp};

/// Encodes a delta as an XML tree.
pub fn delta_to_xml(delta: &Delta) -> Tree {
    let mut t = Tree::new();
    let root = t.new_element("delta");
    t.set_attr(root, "from", delta.from_version.0.to_string());
    t.set_attr(root, "to", delta.to_version.0.to_string());
    t.set_attr(root, "t1", delta.from_ts.micros().to_string());
    t.set_attr(root, "t2", delta.to_ts.micros().to_string());
    t.push_root(root);
    for op in &delta.ops {
        let e = match op {
            EditOp::InsertSubtree { parent, pos, subtree } => {
                let e = t.new_element("insert");
                t.set_attr(e, "parent", parent.0.to_string());
                t.set_attr(e, "pos", pos.to_string());
                attach_payload(&mut t, e, subtree);
                e
            }
            EditOp::DeleteSubtree { parent, pos, subtree, old_parent_ts } => {
                let e = t.new_element("delete");
                t.set_attr(e, "parent", parent.0.to_string());
                t.set_attr(e, "pos", pos.to_string());
                t.set_attr(e, "pts", old_parent_ts.micros().to_string());
                attach_payload(&mut t, e, subtree);
                e
            }
            EditOp::UpdateText { xid, old, new, old_ts } => {
                let e = t.new_element("update");
                t.set_attr(e, "xid", xid.0.to_string());
                t.set_attr(e, "ots", old_ts.micros().to_string());
                let o = t.new_element("old");
                let ot = t.new_text(old.clone());
                t.append_child(o, ot);
                t.append_child(e, o);
                let n = t.new_element("new");
                let nt = t.new_text(new.clone());
                t.append_child(n, nt);
                t.append_child(e, n);
                e
            }
            EditOp::SetAttr { xid, key, old, new, old_ts } => {
                let e = t.new_element("setattr");
                t.set_attr(e, "xid", xid.0.to_string());
                t.set_attr(e, "key", key.clone());
                t.set_attr(e, "ots", old_ts.micros().to_string());
                if let Some(ov) = old {
                    let o = t.new_element("old");
                    let ot = t.new_text(ov.clone());
                    t.append_child(o, ot);
                    t.append_child(e, o);
                }
                if let Some(nv) = new {
                    let n = t.new_element("new");
                    let nt = t.new_text(nv.clone());
                    t.append_child(n, nt);
                    t.append_child(e, n);
                }
                e
            }
            EditOp::Move {
                xid,
                old_parent,
                old_pos,
                new_parent,
                new_pos,
                old_ts,
                old_parent_ts,
            } => {
                let e = t.new_element("move");
                t.set_attr(e, "xid", xid.0.to_string());
                t.set_attr(e, "oparent", old_parent.0.to_string());
                t.set_attr(e, "opos", old_pos.to_string());
                t.set_attr(e, "nparent", new_parent.0.to_string());
                t.set_attr(e, "npos", new_pos.to_string());
                t.set_attr(e, "ots", old_ts.micros().to_string());
                t.set_attr(e, "opts", old_parent_ts.micros().to_string());
                e
            }
        };
        t.append_child(root, e);
    }
    t
}

/// Copies `payload` under `op_elem`, materializing XIDs/timestamps as
/// `txdb:xid`/`txdb:ts` attributes.
fn attach_payload(t: &mut Tree, op_elem: NodeId, payload: &Tree) {
    for &r in payload.roots() {
        let copied = t.copy_subtree_from(payload, r);
        // Wrap text roots so attributes have a host: <txdb:text> wrapper.
        let host = if t.node(copied).is_element() {
            copied
        } else {
            let wrap = t.new_element("txdb:text");
            t.append_child(wrap, copied);
            wrap
        };
        annotate(t, copied);
        t.append_child(op_elem, host);
    }
}

fn annotate(t: &mut Tree, id: NodeId) {
    let ids: Vec<NodeId> = t.descendants(id).collect();
    for n in ids {
        if t.node(n).is_element() {
            let xid = t.node(n).xid;
            let ts = t.node(n).ts;
            t.set_attr(n, "txdb:xid", xid.0.to_string());
            t.set_attr(n, "txdb:ts", ts.micros().to_string());
        } else {
            // Text nodes carry identity via a wrapper sibling convention:
            // their xid/ts is encoded on the parent as txdb:txid.N/txdb:tts.N
            // where N is the child index.
            let (mut parent, mut pos, xid, ts) = {
                let p = t.node(n).parent().expect("payload text under element");
                (p, t.position(n), t.node(n).xid, t.node(n).ts)
            };
            // Two adjacent text nodes (a payload can hold them once a
            // child between them moved out) would serialize as one run of
            // characters and parse back as one node: host the later one
            // in a <txdb:text> wrapper, as text roots are.
            if pos > 0 && !t.node(t.node(parent).children()[pos - 1]).is_element() {
                let wrap = t.new_element("txdb:text");
                t.detach(n);
                t.insert_child(parent, pos, wrap);
                t.append_child(wrap, n);
                (parent, pos) = (wrap, 0);
            }
            t.set_attr(parent, format!("txdb:txid.{pos}"), xid.0.to_string());
            t.set_attr(parent, format!("txdb:tts.{pos}"), ts.micros().to_string());
        }
    }
}

/// Decodes a delta from its XML representation.
pub fn delta_from_xml(tree: &Tree) -> Result<Delta> {
    let root = tree
        .root()
        .filter(|&r| tree.node(r).name() == Some("delta"))
        .ok_or_else(|| Error::Corrupt("delta document must have a <delta> root".into()))?;
    let from_version = VersionId(attr_num(tree, root, "from")? as u32);
    let to_version = VersionId(attr_num(tree, root, "to")? as u32);
    let from_ts = Timestamp::from_micros(attr_num(tree, root, "t1")?);
    let to_ts = Timestamp::from_micros(attr_num(tree, root, "t2")?);
    let mut ops = Vec::new();
    for &op_el in tree.node(root).children() {
        let name =
            tree.node(op_el).name().ok_or_else(|| Error::Corrupt("text in delta body".into()))?;
        let op = match name {
            "insert" => EditOp::InsertSubtree {
                parent: Xid(attr_num(tree, op_el, "parent")?),
                pos: attr_num(tree, op_el, "pos")? as usize,
                subtree: extract_payload(tree, op_el)?,
            },
            "delete" => EditOp::DeleteSubtree {
                parent: Xid(attr_num(tree, op_el, "parent")?),
                pos: attr_num(tree, op_el, "pos")? as usize,
                subtree: extract_payload(tree, op_el)?,
                old_parent_ts: Timestamp::from_micros(attr_num(tree, op_el, "pts")?),
            },
            "update" => EditOp::UpdateText {
                xid: Xid(attr_num(tree, op_el, "xid")?),
                old: child_text(tree, op_el, "old")?
                    .ok_or_else(|| Error::Corrupt("update without <old>".into()))?,
                new: child_text(tree, op_el, "new")?
                    .ok_or_else(|| Error::Corrupt("update without <new>".into()))?,
                old_ts: Timestamp::from_micros(attr_num(tree, op_el, "ots")?),
            },
            "setattr" => EditOp::SetAttr {
                xid: Xid(attr_num(tree, op_el, "xid")?),
                key: tree
                    .node(op_el)
                    .attr("key")
                    .ok_or_else(|| Error::Corrupt("setattr without key".into()))?
                    .to_string(),
                old: child_text(tree, op_el, "old")?,
                new: child_text(tree, op_el, "new")?,
                old_ts: Timestamp::from_micros(attr_num(tree, op_el, "ots")?),
            },
            "move" => EditOp::Move {
                xid: Xid(attr_num(tree, op_el, "xid")?),
                old_parent: Xid(attr_num(tree, op_el, "oparent")?),
                old_pos: attr_num(tree, op_el, "opos")? as usize,
                new_parent: Xid(attr_num(tree, op_el, "nparent")?),
                new_pos: attr_num(tree, op_el, "npos")? as usize,
                old_ts: Timestamp::from_micros(attr_num(tree, op_el, "ots")?),
                old_parent_ts: Timestamp::from_micros(attr_num(tree, op_el, "opts")?),
            },
            other => return Err(Error::Corrupt(format!("unknown delta op <{other}>"))),
        };
        ops.push(op);
    }
    Ok(Delta { from_version, to_version, from_ts, to_ts, ops })
}

fn attr_num(tree: &Tree, id: NodeId, key: &str) -> Result<u64> {
    tree.node(id)
        .attr(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Error::Corrupt(format!("missing/invalid numeric attribute `{key}`")))
}

/// Text content of the child element named `name`, if present. An empty
/// element yields the empty string.
fn child_text(tree: &Tree, id: NodeId, name: &str) -> Result<Option<String>> {
    for &c in tree.node(id).children() {
        if tree.node(c).name() == Some(name) {
            return Ok(Some(tree.text_content(c)));
        }
    }
    Ok(None)
}

/// Rebuilds an op payload: strips the `txdb:*` annotations back into node
/// fields and unwraps `<txdb:text>` hosts.
fn extract_payload(tree: &Tree, op_el: NodeId) -> Result<Tree> {
    let mut out = Tree::new();
    for &c in tree.node(op_el).children() {
        let copied = out.copy_subtree_from(tree, c);
        out.push_root(copied);
    }
    // De-annotate.
    let ids: Vec<NodeId> = out.iter().collect();
    for n in ids {
        if !out.node(n).is_element() {
            continue;
        }
        if let Some(x) = out.node(n).attr("txdb:xid").and_then(|v| v.parse::<u64>().ok()) {
            out.node_mut(n).xid = Xid(x);
        }
        if let Some(ts) = out.node(n).attr("txdb:ts").and_then(|v| v.parse::<u64>().ok()) {
            out.node_mut(n).ts = Timestamp::from_micros(ts);
        }
        out.remove_attr(n, "txdb:xid");
        out.remove_attr(n, "txdb:ts");
        // Text-child identities.
        let child_count = out.node(n).children().len();
        for pos in 0..child_count {
            let xk = format!("txdb:txid.{pos}");
            let tk = format!("txdb:tts.{pos}");
            let x = out.node(n).attr(&xk).and_then(|v| v.parse::<u64>().ok());
            let t = out.node(n).attr(&tk).and_then(|v| v.parse::<u64>().ok());
            if let Some(x) = x {
                let c = out.node(n).children()[pos];
                out.node_mut(c).xid = Xid(x);
            }
            if let Some(t) = t {
                let c = out.node(n).children()[pos];
                out.node_mut(c).ts = Timestamp::from_micros(t);
            }
            out.remove_attr(n, &xk);
            out.remove_attr(n, &tk);
        }
    }
    // Unwrap <txdb:text> hosts: text roots, and text nodes that followed
    // another text sibling.
    let wrappers: Vec<NodeId> =
        out.iter().filter(|&n| out.node(n).name() == Some("txdb:text")).collect();
    for w in wrappers {
        let inner = out
            .node(w)
            .children()
            .first()
            .copied()
            .ok_or_else(|| Error::Corrupt("empty txdb:text wrapper".into()))?;
        let (parent, pos) = (out.node(w).parent(), out.position(w));
        out.detach(inner);
        out.remove_subtree(w);
        match parent {
            Some(p) => out.insert_child(p, pos, inner),
            None => out.insert_root(pos, inner),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txdb_xml::parse::parse_document;
    use txdb_xml::serialize::to_string;

    fn payload(src: &str, first_xid: u64, ts: u64) -> Tree {
        let mut t = parse_document(src).unwrap();
        let ids: Vec<NodeId> = t.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            t.node_mut(*id).xid = Xid(first_xid + i as u64);
            t.node_mut(*id).ts = Timestamp::from_micros(ts);
        }
        t
    }

    fn sample_delta() -> Delta {
        Delta {
            from_version: VersionId(3),
            to_version: VersionId(4),
            from_ts: Timestamp::from_micros(1000),
            to_ts: Timestamp::from_micros(2000),
            ops: vec![
                EditOp::InsertSubtree {
                    parent: Xid(5),
                    pos: 1,
                    subtree: payload("<c a=\"x\">hi</c>", 10, 2000),
                },
                EditOp::DeleteSubtree {
                    parent: Xid::NONE,
                    pos: 0,
                    subtree: payload("<gone><sub/></gone>", 20, 500),
                    old_parent_ts: Timestamp::from_micros(700),
                },
                EditOp::UpdateText {
                    xid: Xid(7),
                    old: "15".into(),
                    new: "18".into(),
                    old_ts: Timestamp::from_micros(900),
                },
                EditOp::SetAttr {
                    xid: Xid(3),
                    key: "category".into(),
                    old: Some("italian".into()),
                    new: None,
                    old_ts: Timestamp::from_micros(800),
                },
                EditOp::SetAttr {
                    xid: Xid(3),
                    key: "stars".into(),
                    old: None,
                    new: Some("4".into()),
                    old_ts: Timestamp::from_micros(800),
                },
                EditOp::Move {
                    xid: Xid(9),
                    old_parent: Xid(2),
                    old_pos: 1,
                    new_parent: Xid(4),
                    new_pos: 0,
                    old_ts: Timestamp::from_micros(600),
                    old_parent_ts: Timestamp::from_micros(650),
                },
            ],
        }
    }

    fn assert_deltas_equal(a: &Delta, b: &Delta) {
        assert_eq!(a.from_version, b.from_version);
        assert_eq!(a.to_version, b.to_version);
        assert_eq!(a.from_ts, b.from_ts);
        assert_eq!(a.to_ts, b.to_ts);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn roundtrip_through_tree() {
        let d = sample_delta();
        let xml = delta_to_xml(&d);
        let back = delta_from_xml(&xml).unwrap();
        assert_deltas_equal(&d, &back);
    }

    #[test]
    fn roundtrip_through_text() {
        // Deltas are stored as XML text (§7.1): serialize → parse → decode.
        let d = sample_delta();
        let xml = delta_to_xml(&d);
        let text = to_string(&xml);
        let reparsed = parse_document(&text).unwrap();
        let back = delta_from_xml(&reparsed).unwrap();
        assert_deltas_equal(&d, &back);
    }

    #[test]
    fn empty_delta_roundtrip() {
        let d = Delta::empty(VersionId(0), Timestamp::ZERO, Timestamp::from_micros(5));
        let back = delta_from_xml(&delta_to_xml(&d)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.to_version, VersionId(1));
    }

    #[test]
    fn text_root_payload_roundtrip() {
        // An inserted bare text node (mixed content edits).
        let mut t = Tree::new();
        let txt = t.new_text("dangling");
        t.node_mut(txt).xid = Xid(77);
        t.node_mut(txt).ts = Timestamp::from_micros(42);
        t.push_root(txt);
        let d = Delta {
            from_version: VersionId(0),
            to_version: VersionId(1),
            from_ts: Timestamp::ZERO,
            to_ts: Timestamp::from_micros(1),
            ops: vec![EditOp::InsertSubtree { parent: Xid(1), pos: 0, subtree: t }],
        };
        let text = to_string(&delta_to_xml(&d));
        let back = delta_from_xml(&parse_document(&text).unwrap()).unwrap();
        match &back.ops[0] {
            EditOp::InsertSubtree { subtree, .. } => {
                let r = subtree.root().unwrap();
                assert_eq!(subtree.node(r).text(), Some("dangling"));
                assert_eq!(subtree.node(r).xid, Xid(77));
                assert_eq!(subtree.node(r).ts, Timestamp::from_micros(42));
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn update_with_empty_strings() {
        let d = Delta {
            from_version: VersionId(0),
            to_version: VersionId(1),
            from_ts: Timestamp::ZERO,
            to_ts: Timestamp::from_micros(1),
            ops: vec![EditOp::UpdateText {
                xid: Xid(1),
                old: String::new(),
                new: "x".into(),
                old_ts: Timestamp::ZERO,
            }],
        };
        let text = to_string(&delta_to_xml(&d));
        let back = delta_from_xml(&parse_document(&text).unwrap()).unwrap();
        match &back.ops[0] {
            EditOp::UpdateText { old, new, .. } => {
                assert_eq!(old, "");
                assert_eq!(new, "x");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        let t = parse_document("<notadelta/>").unwrap();
        assert!(delta_from_xml(&t).is_err());
        let t = parse_document(r#"<delta from="0" to="1" t1="0" t2="1"><bogus/></delta>"#).unwrap();
        assert!(delta_from_xml(&t).is_err());
        let t = parse_document(r#"<delta from="x" to="1" t1="0" t2="1"/>"#).unwrap();
        assert!(delta_from_xml(&t).is_err());
    }

    #[test]
    fn decoded_delta_is_applicable() {
        // End-to-end: diff → encode → decode → apply.
        use crate::diff::{diff_trees, forest_identical};
        let mut old = parse_document("<g><r><n>Napoli</n><p>15</p></r></g>").unwrap();
        let ids: Vec<NodeId> = old.iter().collect();
        for (i, id) in ids.iter().enumerate() {
            old.node_mut(*id).xid = Xid(i as u64 + 1);
            old.node_mut(*id).ts = Timestamp::from_micros(10);
        }
        let mut next = Xid(100);
        let mut new = parse_document("<g><r><n>Napoli</n><p>18</p></r><x/></g>").unwrap();
        let res = diff_trees(
            &old,
            &mut new,
            &mut next,
            VersionId(0),
            Timestamp::from_micros(10),
            Timestamp::from_micros(20),
        )
        .unwrap();
        let text = to_string(&delta_to_xml(&res.delta));
        let decoded = delta_from_xml(&parse_document(&text).unwrap()).unwrap();
        let mut replay = old.clone();
        decoded.apply_forward(&mut replay).unwrap();
        assert!(forest_identical(&replay, &new));
        decoded.apply_backward(&mut replay).unwrap();
        assert!(forest_identical(&replay, &old));
    }

    #[test]
    fn adjacent_text_nodes_survive_the_text_roundtrip() {
        // <p/> moves out of <a> before <a> is deleted, so the deleted
        // subtree holds "red" and "zz" side by side; stored as text they
        // used to parse back as one "redzz" node, and the backward delta
        // rebuilt an <a> with one child too few.
        use crate::diff::{diff_trees, forest_identical};
        let old = payload("<r><a>red<p/>zz</a></r>", 1, 10);
        let mut next = Xid(100);
        let mut new = parse_document("<r><p/></r>").unwrap();
        let t = Timestamp::from_micros;
        let res = diff_trees(&old, &mut new, &mut next, VersionId(0), t(10), t(20)).unwrap();
        let text = to_string(&delta_to_xml(&res.delta));
        let decoded = delta_from_xml(&parse_document(&text).unwrap()).unwrap();
        let mut replay = new.clone();
        decoded.apply_backward(&mut replay).unwrap();
        assert!(forest_identical(&replay, &old));
    }
}
