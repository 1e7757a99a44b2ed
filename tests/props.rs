//! Property-based tests over the core invariants (proptest).
//!
//! * parse ∘ serialize = id on arbitrary trees;
//! * the binary codec round-trips trees exactly (including identity);
//! * diff-then-apply-forward reproduces the target; apply-backward
//!   restores the source; the XML delta encoding round-trips;
//! * the temporal FTI agrees with a scan of every reconstructed snapshot;
//! * interval algebra laws.

use proptest::prelude::*;
use temporal_xml::delta::diff::forest_identical;
use temporal_xml::delta::{delta_from_xml, delta_to_xml, diff_trees, EditOp};
use temporal_xml::index::fti::OccKind;
use temporal_xml::index::maint::element_signature;
use temporal_xml::wgen::{DocGen, DocGenConfig, RestaurantGuide};
use temporal_xml::xml::codec::{decode_tree, encode_tree};
use temporal_xml::xml::hash::Fnv64;
use temporal_xml::xml::parse::parse_document;
use temporal_xml::xml::serialize::to_string;
use temporal_xml::xml::tree::{NodeId, Tree};
use temporal_xml::{Database, Interval, Timestamp, VersionId, Xid};

// ---------------------------------------------------------------- trees

/// Strategy: a small element name.
fn name_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "item", "name", "price", "x1"]).prop_map(str::to_string)
}

/// Strategy: short text without XML-hostile whitespace-only content.
fn text_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["red", "blue", "15", "18 kr", "hello world", "zz"])
        .prop_map(str::to_string)
}

/// A recursive tree description that we turn into a real `Tree`.
#[derive(Clone, Debug)]
enum Spec {
    Text(String),
    Elem { name: String, attrs: Vec<(String, String)>, children: Vec<Spec> },
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    spec_with_keys(Just("k".to_string()).boxed())
}

/// Trees whose elements carry up to two attributes, named by `key`.
fn spec_with_keys(key: BoxedStrategy<String>) -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![
        text_strategy().prop_map(Spec::Text),
        (name_strategy(), prop::collection::vec((key.clone(), text_strategy()), 0..2))
            .prop_map(|(name, attrs)| Spec::Elem { name, attrs, children: vec![] }),
    ];
    leaf.prop_recursive(3, 24, 4, move |inner| {
        (
            name_strategy(),
            prop::collection::vec((key.clone(), text_strategy()), 0..2),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| Spec::Elem { name, attrs, children })
    })
}

fn build(spec: &Spec, tree: &mut Tree, parent: Option<NodeId>) {
    match spec {
        Spec::Text(t) => {
            // Text nodes only under elements; also avoid adjacent text
            // nodes (serialization would merge them).
            if let Some(p) = parent {
                let last_is_text = tree
                    .node(p)
                    .children()
                    .last()
                    .map(|&c| tree.node(c).text().is_some())
                    .unwrap_or(false);
                if !last_is_text {
                    let id = tree.new_text(t.clone());
                    tree.append_child(p, id);
                }
            }
        }
        Spec::Elem { name, attrs, children } => {
            let id = tree.new_element(name.clone());
            for (k, v) in attrs {
                tree.set_attr(id, k.clone(), v.clone());
            }
            match parent {
                Some(p) => tree.append_child(p, id),
                None => tree.push_root(id),
            }
            for c in children {
                build(c, tree, Some(id));
            }
        }
    }
}

/// Numbers the nodes 1..n in document order, all stamped at second 1, as
/// a stored first version would be; returns the next free XID.
fn assign_xids(t: &mut Tree) -> Xid {
    let ids: Vec<NodeId> = t.iter().collect();
    for (i, id) in ids.iter().enumerate() {
        t.node_mut(*id).xid = Xid(i as u64 + 1);
        t.node_mut(*id).ts = Timestamp::from_secs(1);
    }
    Xid(ids.len() as u64 + 1)
}

/// Builds a single-rooted tree from a spec (wrapping in `<root>`), with
/// XIDs assigned in document order.
fn tree_from(spec: &Spec) -> Tree {
    let mut t = Tree::new();
    let root = t.new_element("root");
    t.push_root(root);
    build(spec, &mut t, Some(root));
    assign_xids(&mut t);
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn serialize_parse_roundtrip(spec in spec_strategy()) {
        let t = tree_from(&spec);
        let text = to_string(&t);
        let back = parse_document(&text).unwrap();
        prop_assert_eq!(to_string(&back), text);
    }

    #[test]
    fn codec_roundtrip_identical(spec in spec_strategy()) {
        let t = tree_from(&spec);
        let back = decode_tree(&encode_tree(&t)).unwrap();
        prop_assert!(forest_identical(&t, &back));
    }

    #[test]
    fn diff_apply_roundtrip(old_spec in spec_strategy(), new_spec in spec_strategy()) {
        let old = tree_from(&old_spec);
        let mut new = tree_from(&new_spec);
        // New tree arrives without identity, like a fresh crawl.
        let ids: Vec<NodeId> = new.iter().collect();
        for id in ids {
            new.node_mut(id).xid = Xid::NONE;
            new.node_mut(id).ts = Timestamp::ZERO;
        }
        let mut next = Xid(10_000);
        let res = diff_trees(
            &old,
            &mut new,
            &mut next,
            VersionId(0),
            Timestamp::from_secs(1),
            Timestamp::from_secs(2),
        )
        .unwrap();
        // Forward replay reproduces the new tree exactly.
        let mut fwd = old.clone();
        res.delta.apply_forward(&mut fwd).unwrap();
        prop_assert!(forest_identical(&fwd, &new));
        // Backward replay restores the old tree exactly.
        res.delta.apply_backward(&mut fwd).unwrap();
        prop_assert!(forest_identical(&fwd, &old));
    }

    /// Sibling churn under one parent — a random permutation of the
    /// survivors, deletes, inserts — costs exactly the moves that cannot
    /// be avoided: (children matched under the parent) − (longest run of
    /// them still in their old order). Deletes alone never cost a move.
    #[test]
    fn sibling_moves_are_matched_minus_lis(
        fate in prop::collection::vec((any::<u32>(), any::<bool>()), 1..40),
        inserts in prop::collection::vec(0usize..64, 0..6),
        reorder in any::<bool>(),
    ) {
        let item = |v: &str| format!("<i>{v}</i>");
        let old_xml: String = (0..fate.len()).map(|v| item(&v.to_string())).collect();
        let mut survivors: Vec<usize> = (0..fate.len()).filter(|&v| fate[v].1).collect();
        if reorder {
            survivors.sort_by_key(|&v| fate[v].0);
        }
        let mut new_items: Vec<String> = survivors.iter().map(|v| item(&v.to_string())).collect();
        for (j, at) in inserts.iter().enumerate() {
            new_items.insert(at % (new_items.len() + 1), item(&format!("new{j}")));
        }
        let mut old = parse_document(&format!("<l>{old_xml}</l>")).unwrap();
        let mut next = assign_xids(&mut old);
        let mut new = parse_document(&format!("<l>{}</l>", new_items.concat())).unwrap();
        let res = diff_trees(
            &old, &mut new, &mut next,
            VersionId(0), Timestamp::from_secs(1), Timestamp::from_secs(2),
        ).unwrap();

        // Identity and timestamps included, both ways.
        let mut replay = old.clone();
        res.delta.apply_forward(&mut replay).unwrap();
        prop_assert!(forest_identical(&replay, &new));
        res.delta.apply_backward(&mut replay).unwrap();
        prop_assert!(forest_identical(&replay, &old));

        // Where each surviving identity sat under the old parent, in new order.
        let kids = |t: &Tree| -> Vec<Xid> {
            t.node(t.root().unwrap()).children().iter().map(|&c| t.node(c).xid).collect()
        };
        let old_kids = kids(&old);
        let was_at: Vec<usize> = kids(&new)
            .iter()
            .filter_map(|x| old_kids.iter().position(|o| o == x))
            .collect();
        let mut run = vec![1usize; was_at.len()];
        for i in 0..was_at.len() {
            for j in 0..i {
                if was_at[j] < was_at[i] {
                    run[i] = run[i].max(run[j] + 1);
                }
            }
        }
        let lis = run.iter().copied().max().unwrap_or(0);
        let moves = res.delta.ops.iter().filter(|o| matches!(o, EditOp::Move { .. })).count();
        prop_assert_eq!(moves, was_at.len() - lis, "moves under <l>, of {} ops", res.delta.ops.len());
        if !reorder && inserts.is_empty() {
            let deleted = fate.iter().filter(|f| !f.1).count();
            prop_assert_eq!(res.delta.ops.len(), deleted, "deletes alone");
        }
    }

    #[test]
    fn delta_xml_roundtrip(old_spec in spec_strategy(), new_spec in spec_strategy()) {
        let old = tree_from(&old_spec);
        let mut new = tree_from(&new_spec);
        let ids: Vec<NodeId> = new.iter().collect();
        for id in ids {
            new.node_mut(id).xid = Xid::NONE;
        }
        let mut next = Xid(10_000);
        let res = diff_trees(
            &old, &mut new, &mut next,
            VersionId(0), Timestamp::from_secs(1), Timestamp::from_secs(2),
        ).unwrap();
        // Encode to XML text and back; the decoded delta must still apply.
        let text = to_string(&delta_to_xml(&res.delta));
        let reparsed = temporal_xml::xml::parse::parse_with(
            &text,
            temporal_xml::xml::parse::ParseOptions { keep_whitespace: true, allow_forest: true },
        ).unwrap();
        let decoded = delta_from_xml(&reparsed).unwrap();
        let mut fwd = old.clone();
        decoded.apply_forward(&mut fwd).unwrap();
        prop_assert!(forest_identical(&fwd, &new));
    }

    #[test]
    fn interval_laws(a in 0u64..100, b in 0u64..100, c in 0u64..100, d in 0u64..100) {
        let i1 = Interval::new(Timestamp::from_secs(a.min(b)), Timestamp::from_secs(a.max(b)));
        let i2 = Interval::new(Timestamp::from_secs(c.min(d)), Timestamp::from_secs(c.max(d)));
        // Overlap is symmetric.
        prop_assert_eq!(i1.overlaps(i2), i2.overlaps(i1));
        // Intersection is contained in both.
        let inter = i1.intersect(i2);
        if !inter.is_empty() {
            prop_assert!(i1.covers(inter));
            prop_assert!(i2.covers(inter));
            prop_assert!(i1.overlaps(i2));
        } else {
            prop_assert!(!i1.overlaps(i2));
        }
    }
}

// ------------------------------------------------------ diff determinism

/// The encoded deltas (as the store writes them) along one version
/// stream: `first`, then every version `step` yields.
fn stream_delta_bytes(first: String, step: impl FnMut() -> String) -> Vec<String> {
    let mut cur = parse_document(&first).unwrap();
    let mut next = assign_xids(&mut cur);
    std::iter::repeat_with(step)
        .take(12)
        .enumerate()
        .map(|(v, xml)| {
            let mut new = parse_document(&xml).unwrap();
            let (from, to) =
                (Timestamp::from_secs(v as u64 + 1), Timestamp::from_secs(v as u64 + 2));
            let res = diff_trees(&cur, &mut new, &mut next, VersionId(v as u32), from, to).unwrap();
            cur = new;
            to_string(&delta_to_xml(&res.delta))
        })
        .collect()
}

/// A TDocGen stream (item updates, inserts, deletes) followed by a
/// restaurant-guide stream, whose crossing prices make several restaurants
/// compete for one match — where the order the matcher visits pairs in
/// decides who wins.
fn generated_delta_bytes() -> Vec<String> {
    let cfg = DocGenConfig { items: 60, changes_per_version: 8, ..DocGenConfig::default() };
    let mut docs = DocGen::new(cfg, 7);
    let mut guide = RestaurantGuide::new(25, 7);
    let mut out = stream_delta_bytes(docs.xml(), || docs.step());
    out.extend(stream_delta_bytes(guide.xml(), || guide.step(12)));
    out
}

/// The same version streams give byte-identical deltas: twice in one
/// thread (every `HashMap` draws another seed) and in fresh threads, which
/// draw fresh hasher keys the way a fresh process does.
#[test]
fn same_version_stream_gives_byte_identical_deltas() {
    let here = generated_delta_bytes();
    assert!(generated_delta_bytes() == here, "second run in the same thread differs");
    for _ in 0..3 {
        let there = std::thread::spawn(generated_delta_bytes).join().unwrap();
        assert!(there == here, "run in a fresh thread differs");
    }
}

/// The diff's output is pinned, not just repeatable: a fixed TDocGen stream
/// and a fixed restaurant-guide stream must encode to exactly these delta
/// bytes. The digest was recorded before the matching tables moved from
/// hash maps to arena-indexed vectors; a change of representation or speed
/// must leave it alone, and a change of output has to say so here.
#[test]
fn delta_stream_digest_is_pinned() {
    let cfg = DocGenConfig { items: 150, changes_per_version: 5, ..DocGenConfig::default() };
    let mut docs = DocGen::new(cfg, 11);
    let mut guide = RestaurantGuide::new(40, 3);
    let mut deltas = generated_delta_bytes();
    deltas.extend(stream_delta_bytes(docs.xml(), || docs.step()));
    deltas.extend(stream_delta_bytes(guide.xml(), || guide.step(20)));
    let mut h = Fnv64::new();
    for d in &deltas {
        h.write(d.as_bytes());
        h.write_tag(0);
    }
    let bytes: usize = deltas.iter().map(String::len).sum();
    assert_eq!(
        (deltas.len(), bytes, h.finish()),
        (48, 66713, 0x38cd_ae02_3030_9c17),
        "encoded delta stream changed"
    );
}

// --------------------------------------------- FTI snapshot consistency

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// After an arbitrary sequence of versions, `FTI_lookup_T(w, t)` must
    /// equal a direct scan of the reconstructed snapshot at `t`, for every
    /// version boundary and probe word.
    #[test]
    fn fti_matches_reconstructed_snapshots(specs in prop::collection::vec(spec_strategy(), 2..5)) {
        let db = Database::in_memory();
        let mut times = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let t = tree_from(spec);
            let ts = Timestamp::from_secs(10 + i as u64 * 10);
            // Strip identity: the db assigns its own.
            let mut fresh = parse_document(&to_string(&t)).unwrap();
            let ids: Vec<NodeId> = fresh.iter().collect();
            for id in ids {
                fresh.node_mut(id).xid = Xid::NONE;
            }
            let r = db.put_tree("doc", fresh, ts).unwrap();
            if r.changed {
                times.push(ts);
            }
        }
        let doc = db.store().doc_id("doc").unwrap().unwrap();
        let words = ["red", "blue", "15", "hello", "zz"];
        for &probe in &times {
            let v = db.store().version_at(doc, probe).unwrap().unwrap();
            let snapshot = db.store().version_tree(doc, v).unwrap();
            for w in words {
                let expected = snapshot
                    .iter()
                    .filter(|&n| snapshot.node(n).is_element())
                    .filter(|&n| {
                        element_signature(&snapshot, n)
                            .iter()
                            .any(|(tok, k)| tok == w && *k == OccKind::Word)
                    })
                    .count();
                let got = db
                    .indexes()
                    .fti()
                    .lookup_t(w, OccKind::Word, |d| db.store().version_at(d, probe).unwrap())
                    .len();
                prop_assert_eq!(got, expected, "word {} at {}", w, probe);
            }
        }
    }
}

// ------------------------------------------- planner strategy equivalence

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The index-backed scan and the reconstruct-and-walk fallback must
    /// bind exactly the same rows, over random version sequences and at
    /// random probe times. `//tag` compiles to an index pattern;
    /// `/*//tag` starts with a wildcard step and falls back to the tree
    /// scan — under a single root the two paths are semantically equal
    /// (no generated tag is ever the root element).
    #[test]
    fn index_and_tree_strategies_equivalent(
        specs in prop::collection::vec(spec_strategy(), 2..5),
        probe_sel in 0usize..4,
    ) {
        use temporal_xml::QueryExt;
        let db = Database::in_memory();
        let mut times = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let t = tree_from(spec);
            let ts = Timestamp::from_secs(10 + i as u64 * 10);
            let mut fresh = parse_document(&to_string(&t)).unwrap();
            let ids: Vec<NodeId> = fresh.iter().collect();
            for id in ids {
                fresh.node_mut(id).xid = Xid::NONE;
            }
            let r = db.put_tree("doc", fresh, ts).unwrap();
            if r.changed {
                times.push(ts);
            }
        }
        prop_assume!(!times.is_empty());
        let probe = times[probe_sel % times.len()];
        let now = Timestamp::from_secs(1000);
        for tag in ["item", "name", "price", "a", "b"] {
            for spec in [format!("[{}]", probe.micros()), "[EVERY]".to_string(), String::new()] {
                let via_index =
                    format!(r#"SELECT R FROM doc("doc"){spec}//{tag} R"#);
                let via_scan =
                    format!(r#"SELECT R FROM doc("doc"){spec}/*//{tag} R"#);
                let a = db.query(&via_index).at(now).run().unwrap();
                let b = db.query(&via_scan).at(now).run().unwrap();
                // Row order is unspecified (no ORDER BY in the dialect):
                // compare as multisets.
                let norm = |r: &temporal_xml::QueryResult| {
                    let mut rows: Vec<String> =
                        r.rows.iter().map(|row| format!("{row:?}")).collect();
                    rows.sort();
                    rows
                };
                prop_assert_eq!(norm(&a), norm(&b), "tag {} spec {:?}", tag, spec);
            }
        }
    }
}

// ----------------------------------------------- cache transparency

/// One step of a random store workload over a small set of documents.
#[derive(Clone, Debug)]
enum DbOp {
    Put(usize, Spec),
    Delete(usize),
    Vacuum(usize, u8),
    Read(usize, u8),
}

fn db_op_strategy() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        5 => (0usize..2, spec_strategy()).prop_map(|(d, s)| DbOp::Put(d, s)),
        1 => (0usize..2).prop_map(DbOp::Delete),
        1 => (0usize..2, 0u8..4).prop_map(|(d, f)| DbOp::Vacuum(d, f)),
        3 => (0usize..2, 0u8..4).prop_map(|(d, f)| DbOp::Read(d, f)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The materialized-version cache must be invisible: the same random
    /// interleaving of puts, deletes, vacuums and reads against a cached
    /// and an uncached database yields byte-identical serializations for
    /// every readable version — both mid-run (where reads double as cache
    /// warmers on one side only) and in a final sweep over all history.
    #[test]
    fn cache_on_and_off_are_byte_identical(ops in prop::collection::vec(db_op_strategy(), 1..24)) {
        use temporal_xml::storage::repo::VersionKind;
        use temporal_xml::DbOptions;

        let cached = DbOptions::new().cache_bytes(8 << 20).open().unwrap();
        let plain = DbOptions::new().cache_bytes(0).open().unwrap();
        prop_assert!(plain.store().vcache().is_disabled());

        let name = |d: usize| format!("doc{d}");
        for (step, op) in ops.iter().enumerate() {
            let now = Timestamp::from_secs(10 + step as u64);
            match op {
                DbOp::Put(d, spec) => {
                    let xml = to_string(&tree_from(spec));
                    let a = cached.put(&name(*d), &xml, now).unwrap();
                    let b = plain.put(&name(*d), &xml, now).unwrap();
                    prop_assert_eq!(a.version, b.version);
                    prop_assert_eq!(a.changed, b.changed);
                }
                DbOp::Delete(d) => {
                    let a = cached.delete(&name(*d), now).unwrap();
                    let b = plain.delete(&name(*d), now).unwrap();
                    prop_assert_eq!(a.is_some(), b.is_some());
                }
                DbOp::Vacuum(d, f) => {
                    let horizon =
                        Timestamp::from_secs(10 + step as u64 * u64::from(*f) / 4);
                    let a = cached.vacuum(&name(*d), horizon).unwrap();
                    let b = plain.vacuum(&name(*d), horizon).unwrap();
                    prop_assert_eq!(a.is_some(), b.is_some());
                }
                DbOp::Read(d, f) => {
                    let Some(doc_a) = cached.store().doc_id(&name(*d)).unwrap() else {
                        continue;
                    };
                    let doc_b = plain.store().doc_id(&name(*d)).unwrap().unwrap();
                    let readable: Vec<VersionId> = cached
                        .store()
                        .versions(doc_a)
                        .unwrap()
                        .iter()
                        .filter(|e| e.kind == VersionKind::Content)
                        .map(|e| e.version)
                        .collect();
                    if readable.is_empty() {
                        continue;
                    }
                    let v = readable[usize::from(*f) * readable.len() / 4 % readable.len()];
                    // Read twice on the cached side: the second read takes
                    // the hit path and must still agree byte-for-byte.
                    let want = to_string(&plain.store().version_tree(doc_b, v).unwrap());
                    let got1 = to_string(&cached.store().version_tree(doc_a, v).unwrap());
                    let got2 = to_string(&cached.store().version_tree(doc_a, v).unwrap());
                    prop_assert_eq!(&got1, &want, "first read of v{} differs", v.0);
                    prop_assert_eq!(&got2, &want, "cached re-read of v{} differs", v.0);
                }
            }
        }

        // Final sweep: identical catalogs, identical version chains,
        // byte-identical trees for everything still readable.
        let docs_a = cached.store().list().unwrap();
        let docs_b = plain.store().list().unwrap();
        prop_assert_eq!(docs_a.len(), docs_b.len());
        for d in 0..2usize {
            let (Some(doc_a), Some(doc_b)) = (
                cached.store().doc_id(&name(d)).unwrap(),
                plain.store().doc_id(&name(d)).unwrap(),
            ) else {
                continue;
            };
            let vs_a = cached.store().versions(doc_a).unwrap();
            let vs_b = plain.store().versions(doc_b).unwrap();
            prop_assert_eq!(vs_a.len(), vs_b.len());
            for (ea, eb) in vs_a.iter().zip(&vs_b) {
                prop_assert_eq!(ea.version, eb.version);
                prop_assert_eq!(ea.ts, eb.ts);
                prop_assert_eq!(ea.kind, eb.kind);
                if ea.kind != VersionKind::Content {
                    continue;
                }
                let ta = to_string(&cached.store().version_tree(doc_a, ea.version).unwrap());
                let tb = to_string(&plain.store().version_tree(doc_b, eb.version).unwrap());
                prop_assert_eq!(ta, tb, "doc{} v{} differs", d, ea.version.0);
            }
        }
    }
}

// ------------------------------------- index checkpoint equivalence

/// One step of a random workload that ends in a checkpointed close.
#[derive(Clone, Debug)]
enum CkptOp {
    Put(usize, Spec),
    Delete(usize),
    Vacuum(usize, u8),
    Checkpoint,
}

fn ckpt_op_strategy() -> impl Strategy<Value = CkptOp> {
    prop_oneof![
        6 => (0usize..3, spec_strategy()).prop_map(|(d, s)| CkptOp::Put(d, s)),
        2 => (0usize..3).prop_map(CkptOp::Delete),
        1 => (0usize..3, 0u8..4).prop_map(|(d, f)| CkptOp::Vacuum(d, f)),
        1 => Just(CkptOp::Checkpoint),
    ]
}

/// Loading a persisted index checkpoint must be invisible, and so must the
/// path that built the index state: after an arbitrary interleaving of
/// puts, deletes, vacuums and mid-run checkpoints, the store's live handle
/// (gathered before it is dropped), a reopen that loads the checkpoint and a
/// full-replay reference all give the same [`index_answers`]. The reference
/// is a second store fed the same ops minus the checkpoints and dropped
/// without `close()`, so its open finds no index blob at all. Half the cases
/// drop the checkpointed store without `close()` too, so its open loads the
/// last mid-run checkpoint and replays the WAL tail above it.
fn checkpoint_load_equals_full_replay_case(ops: &[CkptOp], close: bool) -> TestCaseResult {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use temporal_xml::storage::IndexCheckpointState;
    use temporal_xml::DbOptions;

    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir_for = |kind: &str| {
        let dir = std::env::temp_dir()
            .join(format!("txdb-props-ckpt-{kind}-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (dir, reference_dir) = (dir_for("loaded"), dir_for("replayed"));

    let name = |d: usize| format!("doc{d}");
    let mut times = Vec::new();
    let mut live = Vec::new();
    for (checkpointed, dir) in [(true, &dir), (false, &reference_dir)] {
        let db = DbOptions::at(dir).open().unwrap();
        for (step, op) in ops.iter().enumerate() {
            let now = Timestamp::from_secs(10 + step as u64);
            match op {
                CkptOp::Put(d, spec) => {
                    let xml = to_string(&tree_from(spec));
                    if db.put(&name(*d), &xml, now).unwrap().changed && checkpointed {
                        times.push(now);
                    }
                }
                CkptOp::Delete(d) => {
                    if db.delete(&name(*d), now).unwrap().is_some() && checkpointed {
                        times.push(now);
                    }
                }
                CkptOp::Vacuum(d, f) => {
                    let horizon = Timestamp::from_secs(10 + step as u64 * u64::from(*f) / 4);
                    let _ = db.vacuum(&name(*d), horizon).unwrap();
                }
                CkptOp::Checkpoint if checkpointed => db.checkpoint().unwrap(),
                CkptOp::Checkpoint => {}
            }
        }
        if checkpointed {
            live = index_answers(&db, &times)?;
            if close {
                db.close().unwrap();
            }
        }
    }

    // Gather every answer from the checkpoint-loaded handle first, then
    // from the full-replay reference, and compare all three.
    let reopened = |dir: &std::path::Path| {
        let db = DbOptions::at(dir).open().unwrap();
        let report = db.recovery_report().index_checkpoint.clone();
        index_answers(&db, &times).map(|answers| (report, answers))
    };
    let (loaded_report, loaded) = reopened(&dir)?;
    let (replayed_report, replayed) = reopened(&reference_dir)?;
    let checkpointed = close || ops.iter().any(|op| matches!(op, CkptOp::Checkpoint));
    prop_assert_eq!(
        loaded_report.state,
        if checkpointed { IndexCheckpointState::Loaded } else { IndexCheckpointState::Absent },
        "every checkpoint must leave a loadable blob (note: {:?})",
        loaded_report.note
    );
    prop_assert_eq!(replayed_report.state, IndexCheckpointState::Absent);
    prop_assert_eq!(live.len(), replayed.len());
    prop_assert_eq!(loaded.len(), replayed.len());
    for (((la, lv), (ca, cv)), (ra, rv)) in live.iter().zip(&loaded).zip(&replayed) {
        prop_assert_eq!(la, ra);
        prop_assert_eq!(ca, ra);
        prop_assert_eq!(lv, rv, "live and replayed answers differ for {}", la);
        prop_assert_eq!(cv, rv, "checkpoint-loaded and replayed answers differ for {}", la);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&reference_dir).unwrap();
    Ok(())
}

/// What a store's indexes answer, labelled: `lookup`, `lookup_h` and
/// `lookup_t` at every write time for the probe words, every document's
/// element lifetimes, and `CREATETIME`/`DELETETIME` of every element of
/// every surviving content version — which must be the same by the
/// EID-time index as by delta traversal.
fn index_answers(
    db: &Database,
    times: &[Timestamp],
) -> Result<Vec<(String, Vec<String>)>, TestCaseError> {
    use temporal_xml::core::ops::lifetime::LifetimeStrategy::{Index, Traverse};
    use temporal_xml::storage::repo::VersionKind;
    use temporal_xml::Eid;

    let words = ["red", "blue", "15", "hello", "zz", "item", "name"];
    let norm = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let fti = db.indexes().fti();
    for w in words {
        for kind in [OccKind::Word, OccKind::Name] {
            let cur = fti.lookup(w, kind).iter().map(|p| format!("{p:?}")).collect();
            out.push((format!("lookup {w} {kind:?}"), norm(cur)));
            let hist = fti.lookup_h(w, kind).iter().map(|p| format!("{p:?}")).collect();
            out.push((format!("lookup_h {w} {kind:?}"), norm(hist)));
            for &t in times {
                let at = fti
                    .lookup_t(w, kind, |d| db.store().version_at(d, t).unwrap())
                    .iter()
                    .map(|p| format!("{p:?}"))
                    .collect();
                out.push((format!("lookup_t {w} {kind:?} @{}", t.micros()), norm(at)));
            }
        }
    }
    drop(fti);
    for (doc, name) in db.store().list().unwrap() {
        let lifetimes = db.indexes().eid_index().doc_lifetimes(doc).unwrap();
        out.push((
            format!("lifetimes {name}"),
            lifetimes.iter().map(|l| format!("{l:?}")).collect(),
        ));
        for e in db.store().versions(doc).unwrap() {
            if e.kind != VersionKind::Content {
                continue;
            }
            let tree = db.store().version_tree(doc, e.version).unwrap();
            for n in tree.iter().filter(|&n| tree.node(n).is_element()) {
                let teid = Eid::new(doc, tree.node(n).xid).at(e.ts);
                let cre = format!("{:?}", db.cre_time(teid, Index));
                prop_assert_eq!(
                    &cre,
                    &format!("{:?}", db.cre_time(teid, Traverse)),
                    "CREATETIME {:?}",
                    teid
                );
                let del = format!("{:?}", db.del_time(teid, Index));
                prop_assert_eq!(
                    &del,
                    &format!("{:?}", db.del_time(teid, Traverse)),
                    "DELETETIME {:?}",
                    teid
                );
            }
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// [`checkpoint_load_equals_full_replay_case`], the shipped 10 cases.
    #[test]
    fn checkpoint_load_equals_full_replay(
        ops in prop::collection::vec(ckpt_op_strategy(), 1..20),
        close in any::<bool>(),
    ) {
        checkpoint_load_equals_full_replay_case(&ops, close)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1500, ..ProptestConfig::default() })]

    /// [`checkpoint_load_equals_full_replay_case`] at 1500 cases;
    /// `scripts/check.sh` runs it with `--ignored`.
    #[test]
    #[ignore]
    fn checkpoint_load_equals_full_replay_1500(
        ops in prop::collection::vec(ckpt_op_strategy(), 1..20),
        close in any::<bool>(),
    ) {
        checkpoint_load_equals_full_replay_case(&ops, close)?;
    }
}

/// The live handle's two §7.3.6 strategies agree after a vacuum purges an
/// element's creation version: both answer the first surviving version's
/// time, as a reopen without an index blob does.
#[test]
fn prefix_vacuum_keeps_createtime_strategies_equal() {
    use temporal_xml::core::ops::lifetime::LifetimeStrategy::{Index, Traverse};
    use temporal_xml::{DbOptions, Eid};
    let dir = std::env::temp_dir().join(format!("txdb-props-cretime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let secs = Timestamp::from_secs;
    let a = {
        let db = DbOptions::at(&dir).open().unwrap();
        let doc = db.put("g", "<g><a/></g>", secs(10)).unwrap().doc;
        db.put("g", "<g><a/><b/></g>", secs(20)).unwrap();
        db.put("g", "<g><a>x</a><b/></g>", secs(30)).unwrap();
        let stats = db.vacuum("g", secs(25)).unwrap().unwrap();
        assert_eq!(stats.purged_versions, 1);
        let cur = db.store().current_tree(doc).unwrap();
        let a = cur.iter().find(|&n| cur.node(n).name() == Some("a")).unwrap();
        let a = Eid::new(doc, cur.node(a).xid).at(secs(30));
        assert_eq!(db.cre_time(a, Index).unwrap(), secs(20), "live, index");
        assert_eq!(db.cre_time(a, Traverse).unwrap(), secs(20), "live, traversal");
        a
        // Dropped without close(): the reopen finds no index blob.
    };
    let db = DbOptions::at(&dir).open().unwrap();
    assert_eq!(
        db.recovery_report().index_checkpoint.state,
        temporal_xml::storage::IndexCheckpointState::Absent
    );
    assert_eq!(db.cre_time(a, Index).unwrap(), secs(20), "reopened, index");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Case 555 of `checkpoint_load_equals_full_replay` at 1500 cases, shrunk.
/// A vacuum purges the first version while the `<name>` element lives on
/// into the second; a later put closes its posting. Replaying the vacuumed
/// chain indexes the first surviving version from scratch, so the posting
/// starts there. The live handle's vacuum must leave the same posting, or
/// `lookup_h` answers differently after a reopen. `[EVERY]` answers agree
/// either way: the scan expands postings over content versions only, and
/// the purged version is not one.
#[test]
fn prefix_vacuum_leaves_the_postings_a_replay_builds() {
    use temporal_xml::{DbOptions, QueryExt};
    let dir = std::env::temp_dir().join(format!("txdb-props-case555-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let every = r#"SELECT TIME(R), R FROM doc("doc1")[EVERY]//name R"#;
    let answers = |db: &Database| {
        let fti = db.indexes().fti();
        let mut postings: Vec<String> =
            fti.lookup_h("name", OccKind::Name).iter().map(|p| format!("{p:?}")).collect();
        postings.sort();
        drop(fti);
        (postings, db.query(every).run().unwrap().to_xml())
    };
    let live = {
        let db = DbOptions::at(&dir).open().unwrap();
        db.put("doc1", r#"<root><name k="blue"><price/></name></root>"#, Timestamp::from_secs(10))
            .unwrap();
        db.put("doc1", r#"<root><name><a k="red"/></name></root>"#, Timestamp::from_secs(13))
            .unwrap();
        db.put("doc1", "<root><price/></root>", Timestamp::from_secs(17)).unwrap();
        let stats = db.vacuum("doc1", Timestamp::from_secs(17)).unwrap().unwrap();
        assert_eq!(stats.purged_versions, 1);
        answers(&db)
        // Dropped without close(): the reopen replays every chain.
    };
    let replayed = answers(&DbOptions::at(&dir).open().unwrap());
    assert_eq!(live, replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------ the walk equals point reconstruction

/// One step of a random document history.
#[derive(Clone, Debug)]
enum HistOp {
    /// Puts a fresh version.
    Put(Spec),
    /// Puts the previous version again, rearranged by [`rearrange`].
    Rearrange(u8),
    Delete,
    /// Vacuums below `10 + step * f / 4` seconds (`f = 4`: everything the
    /// latest entry does not cover, a full vacuum after a delete).
    Vacuum(u8),
}

fn hist_op_strategy() -> impl Strategy<Value = HistOp> {
    let keys = prop::sample::select(vec!["a", "k", "m", "z"]).prop_map(str::to_string).boxed();
    prop_oneof![
        4 => spec_with_keys(keys).prop_map(HistOp::Put),
        4 => any::<u8>().prop_map(HistOp::Rearrange),
        1 => Just(HistOp::Delete),
        1 => (0u8..5).prop_map(HistOp::Vacuum),
    ]
}

/// `spec` with every element's attributes rotated by `r` (a reorder), an
/// attribute `m` dropped or inserted first, and its children rotated
/// (moves for the diff).
fn rearrange(spec: &Spec, r: u8) -> Spec {
    let Spec::Elem { name, attrs, children } = spec else { return spec.clone() };
    let r = usize::from(r);
    let mut attrs = attrs.clone();
    let n = attrs.len().max(1);
    attrs.rotate_left(r % n);
    if r % 3 == 0 {
        attrs.retain(|(k, _)| k != "m");
    } else if r % 3 == 1 && attrs.iter().all(|(k, _)| k != "m") {
        attrs.insert(0, ("m".to_string(), "zz".to_string()));
    }
    let mut children: Vec<Spec> =
        children.iter().map(|c| rearrange(c, (r / 2 + 1) as u8)).collect();
    let n = children.len().max(1);
    children.rotate_left(r % n);
    Spec::Elem { name: name.clone(), attrs, children }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Stepping a version forward through the completed delta into the
    /// next one gives exactly what a point reconstruction of that version
    /// gives — structure, XIDs, text, attributes in order and per-node
    /// timestamps — over histories with moves, attribute inserts, removals
    /// and reorders, tombstones, resurrection after a full vacuum, prefix
    /// vacuums, and snapshots every third version or none. The executor's
    /// `[EVERY]` row for each version serializes byte for byte like the
    /// `[t]` row of that version, and its `PREVIOUS`/`NEXT` cells like a
    /// `Reconstruct` of the neighbouring version.
    #[test]
    fn walk_equals_point_reconstruction(
        first in spec_with_keys(prop::sample::select(vec!["a", "k", "m"]).prop_map(str::to_string).boxed()),
        ops in prop::collection::vec(hist_op_strategy(), 1..16),
        snapshots in any::<bool>(),
    ) {
        use temporal_xml::delta::Walk;
        use temporal_xml::storage::repo::VersionKind;
        use temporal_xml::query::OutValue;
        use temporal_xml::{DbOptions, Eid, QueryExt};

        let opts = if snapshots { DbOptions::new().snapshot_every(3) } else { DbOptions::new() };
        let db = opts.open().unwrap();
        let mut last = first;
        db.put("doc", &to_string(&tree_from(&last)), Timestamp::from_secs(10)).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let step = i as u64 + 1;
            let now = Timestamp::from_secs(10 + step);
            match op {
                HistOp::Put(spec) => last = spec.clone(),
                HistOp::Rearrange(r) => last = rearrange(&last, *r),
                HistOp::Delete => {
                    db.delete("doc", now).unwrap();
                    continue;
                }
                HistOp::Vacuum(f) => {
                    db.vacuum("doc", Timestamp::from_secs(10 + step * u64::from(*f) / 4)).unwrap();
                    continue;
                }
            }
            db.put("doc", &to_string(&tree_from(&last)), now).unwrap();
        }

        let store = db.store();
        let doc = store.doc_id("doc").unwrap().unwrap();
        let entries = store.versions(doc).unwrap();
        let mut walk: Option<Walk> = None;
        for e in &entries {
            match e.kind {
                VersionKind::Purged => walk = None,
                VersionKind::Tombstone => {}
                VersionKind::Content => {
                    let point = store.version_tree(doc, e.version).unwrap();
                    match (walk.as_mut(), store.delta(doc, e.version).unwrap()) {
                        (Some(w), Some(delta)) => w.forward(&delta).unwrap(),
                        _ => walk = Some(Walk::new(point.clone())),
                    }
                    let stepped = walk.as_ref().unwrap().tree();
                    prop_assert!(
                        forest_identical(stepped, &point) && to_string(stepped) == to_string(&point),
                        "v{}: stepped {} but the point reconstruction is {}",
                        e.version.0, to_string(stepped), to_string(&point)
                    );
                }
            }
        }

        let q = |spec: &str| format!(r#"SELECT R, PREVIOUS(R), NEXT(R) FROM doc("doc"){spec}/root R"#);
        let every = db.query(q("[EVERY]")).run().unwrap();
        let live: Vec<_> = entries.iter().filter(|e| e.kind == VersionKind::Content).collect();
        prop_assert_eq!(every.rows.len(), live.len());
        for (row, e) in every.rows.iter().zip(&live) {
            let at = db.query(q(&format!("[{}]", e.ts.micros()))).run().unwrap();
            prop_assert_eq!(&at.rows, &vec![row.clone()], "v{}", e.version.0);
            let tree = store.version_tree(doc, e.version).unwrap();
            let teid = Eid::new(doc, tree.node(tree.root().unwrap()).xid).at(e.ts);
            let near = |ts: Option<Timestamp>| match ts.map(|ts| db.reconstruct(teid.eid.at(ts))) {
                Some(Ok(sub)) => OutValue::Xml(to_string(&sub)),
                _ => OutValue::Null,
            };
            let want = [near(db.previous_ts(teid).unwrap()), near(db.next_ts(teid).unwrap())];
            prop_assert_eq!(&row[1..], &want[..], "v{} PREVIOUS/NEXT", e.version.0);
        }
    }
}
