//! Crash-recovery and persistence of the full database (store + WAL +
//! index rebuild), end to end.

use temporal_xml::core::DbOptions;
use temporal_xml::index::fti::OccKind;
use temporal_xml::xml::pattern::{PatternNode, PatternTree};
use temporal_xml::{Timestamp, VersionId};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(1_000_000 + n)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    // Keyed on pid *and* a per-process counter: pid alone collides when
    // two tests in the same process pick the same tag (or the same test
    // makes two dirs).
    static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("txdb-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &std::path::Path) -> DbOptions {
    DbOptions::at(dir)
}

#[test]
fn clean_reopen_preserves_everything() {
    let dir = tmpdir("clean");
    {
        let db = opts(&dir).open().unwrap();
        db.put("a", "<x><w>alpha</w></x>", ts(1)).unwrap();
        db.put("a", "<x><w>beta</w></x>", ts(2)).unwrap();
        db.put("b", "<y><w>gamma</w></y>", ts(3)).unwrap();
        db.delete("b", ts(4)).unwrap();
        db.checkpoint().unwrap();
    }
    let db = opts(&dir).open().unwrap();
    let report = db.recovery_report();
    assert_eq!(report.replayed, 0, "clean shutdown needs no replay");
    // Store state.
    let a = db.store().doc_id("a").unwrap().unwrap();
    assert_eq!(db.store().versions(a).unwrap().len(), 2);
    assert_eq!(
        temporal_xml::xml::to_string(&db.store().version_tree(a, VersionId(0)).unwrap()),
        "<x><w>alpha</w></x>"
    );
    let b = db.store().doc_id("b").unwrap().unwrap();
    assert!(db.store().is_deleted(b).unwrap());
    // FTI rebuilt.
    let fti = db.indexes().fti();
    assert_eq!(fti.lookup("beta", OccKind::Word).len(), 1);
    assert_eq!(fti.lookup("alpha", OccKind::Word).len(), 0);
    assert_eq!(fti.lookup_h("gamma", OccKind::Word).len(), 1);
    drop(fti);
    // Temporal scan works on the rebuilt index.
    let p = PatternTree::new(PatternNode::tag("w").word("alpha").project());
    assert_eq!(db.tpattern_scan(None, &p, ts(1)).unwrap().len(), 1);
    assert_eq!(db.tpattern_scan(None, &p, ts(2)).unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_after_checkpoint_replays_wal_tail() {
    let dir = tmpdir("crash");
    {
        let db = opts(&dir).open().unwrap();
        db.put("doc", "<d><v>1</v></d>", ts(1)).unwrap();
        db.checkpoint().unwrap();
        // These land only in the WAL; the process "crashes" before any
        // checkpoint (pages never flushed — the pool is no-steal).
        db.put("doc", "<d><v>2</v></d>", ts(2)).unwrap();
        db.put("doc", "<d><v>3</v></d>", ts(3)).unwrap();
        db.put("other", "<o>hello</o>", ts(4)).unwrap();
        db.store().buffer_stats(); // keep db alive to here
                                   // Drop without checkpoint = crash.
    }
    let db = opts(&dir).open().unwrap();
    let report = db.recovery_report();
    assert_eq!(report.replayed, 3);
    let doc = db.store().doc_id("doc").unwrap().unwrap();
    assert_eq!(db.store().versions(doc).unwrap().len(), 3);
    // Replay is deterministic: same XIDs, same deltas, reconstruction works.
    for (v, want) in [(0u32, "1"), (1, "2"), (2, "3")] {
        assert_eq!(
            temporal_xml::xml::to_string(&db.store().version_tree(doc, VersionId(v)).unwrap()),
            format!("<d><v>{want}</v></d>")
        );
    }
    // Index sees the recovered state.
    let p = PatternTree::new(PatternNode::tag("o").word("hello").project());
    assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let dir = tmpdir("cycles");
    for round in 0..4u64 {
        let db = opts(&dir).open().unwrap();
        db.put("d", &format!("<a><n>{round}</n></a>"), ts(10 + round)).unwrap();
        if round % 2 == 0 {
            db.checkpoint().unwrap();
        }
        // else: crash with the put only in the WAL.
    }
    let db = opts(&dir).open().unwrap();
    let d = db.store().doc_id("d").unwrap().unwrap();
    assert_eq!(db.store().versions(d).unwrap().len(), 4);
    assert_eq!(
        temporal_xml::xml::to_string(&db.store().current_tree(d).unwrap()),
        "<a><n>3</n></a>"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshots_survive_reopen() {
    let dir = tmpdir("snap");
    let o = DbOptions::at(dir.clone()).snapshot_every(3);
    {
        let db = o.clone().open().unwrap();
        for i in 0..10u64 {
            db.put("d", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
        }
        db.checkpoint().unwrap();
    }
    let db = o.open().unwrap();
    let d = db.store().doc_id("d").unwrap().unwrap();
    // Snapshot at v3 bounds reconstruction of v1 to ≤ 2 deltas.
    let (tree, cost) = db.store().version_tree_counted(d, VersionId(1)).unwrap();
    assert_eq!(temporal_xml::xml::to_string(&tree), "<a><v>1</v></a>");
    assert!(cost.deltas <= 2, "snapshot used after reopen: {cost:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn vacuum_is_wal_logged_and_survives_crash() {
    let dir = tmpdir("vacuum");
    let o = opts(&dir);
    {
        let db = o.clone().open().unwrap();
        for i in 1..=6u64 {
            db.put("d", &format!("<a><v>{i}</v></a>"), ts(i * 10)).unwrap();
        }
        db.checkpoint().unwrap();
        // Vacuum lands only in the WAL; crash before checkpoint.
        let stats = db.vacuum("d", ts(45)).unwrap().unwrap();
        assert!(stats.purged_versions > 0);
    }
    let db = o.open().unwrap();
    let report = db.recovery_report();
    assert_eq!(report.replayed, 1, "the vacuum op replays");
    let d = db.store().doc_id("d").unwrap().unwrap();
    // Purged prefix unreconstructable; retained tail intact.
    assert!(db.store().version_tree(d, VersionId(0)).is_err());
    assert_eq!(
        temporal_xml::xml::to_string(&db.store().current_tree(d).unwrap()),
        "<a><v>6</v></a>"
    );
    // The rebuilt FTI serves current and retained-history queries.
    let p = PatternTree::new(PatternNode::tag("v").word("6").project());
    assert_eq!(db.pattern_scan(None, &p).unwrap().len(), 1);
    let p4 = PatternTree::new(PatternNode::tag("v").word("4").project());
    assert_eq!(db.tpattern_scan(None, &p4, ts(41)).unwrap().len(), 1);
    // Queries before the vacuum horizon return nothing.
    let p1 = PatternTree::new(PatternNode::tag("v").word("1").project());
    assert!(db.tpattern_scan(None, &p1, ts(11)).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sealed_journal_replays_before_anything_else_on_open() {
    use temporal_xml::storage::repo::roots;
    use temporal_xml::storage::{journal, Pager, RealVfs, Vfs, PAGE_SIZE, PHYS_PAGE_SIZE};
    let dir = tmpdir("journal-sealed");
    {
        let db = opts(&dir).open().unwrap();
        db.put("a", "<x><w>alpha</w></x>", ts(1)).unwrap();
        db.put("a", "<x><w>beta</w></x>", ts(2)).unwrap();
        db.close().unwrap();
    }
    let data = dir.join("data.db");
    // Reconstruct the crash window between journal seal and home flush:
    // capture page 1's committed logical image into a sealed journal
    // stamped with the *next* generation, then tear the home copy.
    let bytes = std::fs::read(&data).unwrap();
    let image = &bytes[PHYS_PAGE_SIZE..PHYS_PAGE_SIZE + PAGE_SIZE];
    let generation = Pager::open(&data).unwrap().root(roots::CKPT_GEN).0;
    {
        let mut j = RealVfs.open(&journal::journal_path(&dir)).unwrap();
        journal::write_batch(j.as_mut(), generation + 1, &[(1, image)]).unwrap();
    }
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&data).unwrap();
        f.seek(SeekFrom::Start(PHYS_PAGE_SIZE as u64 + 777)).unwrap();
        f.write_all(&[0xAB; 64]).unwrap();
    }
    let db = opts(&dir).open().unwrap();
    let report = db.recovery_report();
    assert!(report.journal_state.contains("sealed"), "state: {}", report.journal_state);
    assert_eq!(report.journal_replayed_pages, 1);
    assert!(!report.journal_fenced);
    assert!(report.salvage.is_none(), "replay must repair the tear: {:?}", report.salvage);
    let snap = db.metrics().snapshot();
    assert_eq!(snap.counter("recovery.journal_replays"), Some(1));
    // The torn page came back byte-exact: both versions reconstruct.
    let a = db.store().doc_id("a").unwrap().unwrap();
    assert_eq!(
        temporal_xml::xml::to_string(&db.store().version_tree(a, VersionId(0)).unwrap()),
        "<x><w>alpha</w></x>"
    );
    assert_eq!(
        temporal_xml::xml::to_string(&db.store().current_tree(a).unwrap()),
        "<x><w>beta</w></x>"
    );
    let r = db.store().fsck();
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.journal, "absent", "replayed journal was retired");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_journal_is_never_replayed_and_auto_retired_on_open() {
    let dir = tmpdir("journal-stale");
    {
        let db = opts(&dir).open().unwrap();
        db.put("a", "<x><w>alpha</w></x>", ts(1)).unwrap();
        db.close().unwrap();
    }
    // A torn journal write (crash before the seal reached disk) leaves
    // unsealed residue. It must never be applied to the data file; open
    // retires it automatically and records a recovery event.
    let before = std::fs::read(dir.join("data.db")).unwrap();
    std::fs::write(dir.join("journal.db"), vec![0x5A; 1000]).unwrap();
    let db = opts(&dir).open().unwrap();
    let report = db.recovery_report();
    assert!(report.journal_state.contains("stale"), "state: {}", report.journal_state);
    assert_eq!(report.journal_replayed_pages, 0);
    assert!(report.journal_stale_retired, "open retires the residue");
    let snap = db.metrics().snapshot();
    assert_eq!(snap.counter("recovery.journal_replays"), Some(0), "registered but untouched");
    assert_eq!(snap.counter("recovery.journal_residue_retired"), Some(1));
    assert_eq!(std::fs::read(dir.join("data.db")).unwrap(), before, "data untouched");
    // The residue is already gone: fsck sees a clean, absent journal and
    // a manual retire is a no-op.
    let r = db.store().fsck();
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.journal, "absent", "journal: {}", r.journal);
    assert!(!db.store().retire_journal().unwrap(), "nothing left to retire");
    drop(db);
    // A clean reopen reports no residue and does not bump the counter.
    let db = opts(&dir).open().unwrap();
    assert!(!db.recovery_report().journal_stale_retired);
    assert_eq!(db.metrics().snapshot().counter("recovery.journal_residue_retired"), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn salvage_rebuilds_catalog_from_surviving_heap_pages() {
    use temporal_xml::storage::repo::roots;
    use temporal_xml::storage::{DocumentStore, Pager, PHYS_PAGE_SIZE};
    use temporal_xml::StoreOptions;
    let dir = tmpdir("salvage-cat");
    let sopts = StoreOptions { path: Some(dir.clone()), ..Default::default() };
    {
        let (store, _) = DocumentStore::open(sopts.clone()).unwrap();
        store.put("one", "<a><w>uno</w></a>", ts(1)).unwrap();
        store.put("two", "<b><w>dos</w></b>", ts(2)).unwrap();
        store.put("two", "<b><w>tres</w></b>", ts(3)).unwrap();
        store.checkpoint().unwrap();
    }
    // Destroy the doc-catalog btree root. The metadata records live in
    // the heap and identify themselves, so the catalog is rebuildable.
    let docs_root = Pager::open(&dir.join("data.db")).unwrap().root(roots::DOCS);
    assert!(!docs_root.is_null());
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(dir.join("data.db")).unwrap();
        f.seek(SeekFrom::Start(docs_root.0 * PHYS_PAGE_SIZE as u64 + 40)).unwrap();
        f.write_all(&[0xFF; 8]).unwrap();
    }
    let (store, _) = DocumentStore::open(sopts.clone()).unwrap();
    let r = store.fsck();
    assert!(!r.is_clean(), "the smashed root must show up");
    assert!(r.salvageable_docs >= 2, "fsck counts rebuildable docs:\n{r}");
    // The name->id catalog is intact (doc_id resolves), but the id->meta
    // btree is smashed: anything touching metadata errors until salvage.
    let two_id = store.doc_id("two").unwrap().unwrap();
    assert!(store.versions(two_id).is_err(), "metadata unreachable before the rebuild");
    let rebuilt = store.salvage_rebuild_catalog().unwrap();
    assert!(rebuilt >= 2, "both documents salvaged, got {rebuilt}");
    // Readable again on the live handle...
    let one = store.doc_id("one").unwrap().unwrap();
    assert_eq!(
        temporal_xml::xml::to_string(&store.current_tree(one).unwrap()),
        "<a><w>uno</w></a>"
    );
    drop(store);
    // ...and durably: a fresh open finds the full catalog and chains.
    let (store, report) = DocumentStore::open(sopts).unwrap();
    assert!(report.salvage.is_none(), "{:?}", report.salvage);
    let two = store.doc_id("two").unwrap().unwrap();
    assert_eq!(store.versions(two).unwrap().len(), 2);
    assert_eq!(
        temporal_xml::xml::to_string(&store.current_tree(two).unwrap()),
        "<b><w>tres</w></b>"
    );
    // New writes pick up past the highest salvaged doc id.
    store.put("three", "<c><w>new</w></c>", ts(4)).unwrap();
    let three = store.doc_id("three").unwrap().unwrap();
    assert!(three != one && three != two, "doc-id allocator restored");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rejected_writes_never_poison_the_wal() {
    // Regression: a non-monotonic put used to be WAL-logged before
    // validation, wedging every subsequent open on replay.
    let dir = tmpdir("poison");
    let o = opts(&dir);
    {
        let db = o.clone().open().unwrap();
        db.put("d", "<a>1</a>", ts(100)).unwrap();
        // Rejected: in the past.
        assert!(db.put("d", "<a>2</a>", ts(50)).is_err());
        assert!(db.delete("d", ts(50)).is_err());
        // Crash without checkpoint.
    }
    let db = o.clone().open().unwrap();
    let report = db.recovery_report();
    assert_eq!(report.skipped, 0, "rejected ops were never logged");
    let d = db.store().doc_id("d").unwrap().unwrap();
    assert_eq!(db.store().versions(d).unwrap().len(), 1);
    // And valid writes still work afterwards.
    db.put("d", "<a>3</a>", ts(200)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn attribute_inserts_and_reorders_put_and_replay() {
    // Regression: the diff's replay check compared attribute lists in
    // order, so an attribute inserted mid-list (replay appends it) or a
    // reorder failed the put after it was logged and sent the next open
    // into salvage mode.
    use temporal_xml::xml::equality::deep_eq;
    let versions = [
        r#"<r a="1" c="3"><v>1</v></r>"#,
        r#"<r a="1" b="2" c="3"><v>1</v></r>"#,
        r#"<r c="3" b="2" a="1"><v>2</v></r>"#,
    ];
    let dir = tmpdir("attr-order");
    let o = opts(&dir);
    {
        let db = o.clone().open().unwrap();
        for (i, v) in versions.iter().enumerate() {
            db.put("d", v, ts(i as u64)).unwrap();
        }
        // Crash without checkpoint: reopen replays all three puts.
    }
    let db = o.clone().open().unwrap();
    let report = db.recovery_report();
    assert!(report.salvage.is_none(), "salvage: {:?}", report.salvage);
    assert_eq!(report.replayed, 3);
    let d = db.store().doc_id("d").unwrap().unwrap();
    for (i, v) in versions.iter().enumerate() {
        let want = temporal_xml::xml::parse_document(v).unwrap();
        let got = db.store().version_tree(d, VersionId(i as u32)).unwrap();
        assert!(
            deep_eq(&got, got.root().unwrap(), &want, want.root().unwrap()),
            "version {i}: {}",
            temporal_xml::xml::to_string(&got)
        );
    }
    db.put("d", r#"<r b="2"><v>3</v></r>"#, ts(10)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_skips_logically_invalid_records() {
    // Defense in depth: if an unappliable record IS in the log (e.g.
    // written by a buggy or newer client), recovery skips it instead of
    // refusing to open — and the skip is reported.
    let dir = tmpdir("skip");
    std::fs::create_dir_all(&dir).unwrap();
    let o = opts(&dir);
    {
        let db = o.clone().open().unwrap();
        db.put("d", "<a>1</a>", ts(100)).unwrap();
        db.checkpoint().unwrap();
    }
    // Craft a poisoned WAL record by hand: a put at an already-used time.
    {
        use temporal_xml::xml::codec::encode_tree;
        let tree = temporal_xml::xml::parse_document("<a>stale</a>").unwrap();
        let mut payload = vec![1u8]; // WAL_PUT
        let name = b"d";
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&ts(100).micros().to_le_bytes()); // same ts → invalid
        payload.extend_from_slice(&encode_tree(&tree));
        let wal = temporal_xml::storage::wal::Wal::open(&dir.join("wal.log"), false).unwrap();
        wal.append(&payload).unwrap();
    }
    let db = o.open().unwrap();
    let report = db.recovery_report();
    assert_eq!(report.skipped, 1, "poisoned record skipped, not fatal");
    let d = db.store().doc_id("d").unwrap().unwrap();
    assert_eq!(db.store().versions(d).unwrap().len(), 1);
    assert_eq!(temporal_xml::xml::to_string(&db.store().current_tree(d).unwrap()), "<a>1</a>");
    std::fs::remove_dir_all(&dir).unwrap();
}
