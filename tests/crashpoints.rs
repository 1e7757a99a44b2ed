//! Crash-point recovery sweep over the fault-injecting VFS.
//!
//! A scripted workload of puts, deletes and checkpoints runs against a
//! [`FaultyVfs`] that crashes after the Nth file-system operation, for a
//! sweep of N covering the whole workload. Each crash point is reopened
//! (the crash disarms the fault schedule) and the durability contract is
//! checked:
//!
//! * **Never a panic** — every outcome is a value: full recovery, a
//!   read-only salvage open, or a structured open error.
//! * **Never silently missing committed versions** — when the reopened
//!   store passes `fsck`, every operation the workload saw commit
//!   (`wal_sync = true`, so an `Ok` return means the WAL record was
//!   fsynced) is present with byte-exact content; when a torn page write
//!   destroyed data, `fsck` says so.
//! * **Every surviving delta chain walks** — reconstruction of every
//!   version either succeeds or returns a structured error, and on a
//!   clean store it always succeeds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use temporal_xml::base::Error;
use temporal_xml::core::DbOptions;
use temporal_xml::storage::repo::VersionKind;
use temporal_xml::storage::{DocumentStore, FaultyVfs, PHYS_PAGE_SIZE};
use temporal_xml::xml::to_string;
use temporal_xml::{Database, StoreOptions, Timestamp};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(2_000_000 + n)
}

/// Paths are virtual (the FaultyVfs holds file images in memory), but the
/// store still `create_dir_all`s them on the real fs — keep them unique.
fn tmpdir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("txdb-cp-{tag}-{}-{n}", std::process::id()))
}

fn db_opts(vfs: &FaultyVfs, dir: &std::path::Path) -> DbOptions {
    DbOptions {
        store: StoreOptions {
            path: Some(dir.to_path_buf()),
            // An Ok return must mean "durable": fsync the WAL per append.
            wal_sync: true,
            vfs: Some(Arc::new(vfs.clone())),
            ..Default::default()
        },
    }
}

enum Op {
    Put(&'static str, String, u64),
    Delete(&'static str, u64),
    Checkpoint,
}

/// The scripted workload: three documents, interleaved updates, a delete,
/// a resurrection, and checkpoints at three different phases.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    ops.push(Op::Put("alpha", "<a><w>seed</w></a>".into(), 1));
    for i in 2..=5u64 {
        ops.push(Op::Put("alpha", format!("<a><w>alpha{i}</w></a>"), i));
    }
    ops.push(Op::Put("beta", "<b><w>born</w></b>".into(), 6));
    ops.push(Op::Checkpoint);
    ops.push(Op::Put("beta", "<b><w>grown</w></b>".into(), 7));
    ops.push(Op::Put("gamma", "<g><w>third</w></g>".into(), 8));
    ops.push(Op::Delete("beta", 9));
    ops.push(Op::Checkpoint);
    for i in 10..=13u64 {
        ops.push(Op::Put("gamma", format!("<g><w>gamma{i}</w></g>"), i));
    }
    ops.push(Op::Put("beta", "<b><w>reborn</w></b>".into(), 14));
    ops.push(Op::Checkpoint);
    ops
}

/// One committed version in the model: `content = None` is a tombstone.
struct ModelVersion {
    ts: u64,
    content: Option<String>,
}

type Model = BTreeMap<&'static str, Vec<ModelVersion>>;

/// Runs the script until the first error (the crash), recording every
/// operation that committed. Returns the committed model.
fn run_attempt(opts: &DbOptions) -> Model {
    let mut model = Model::new();
    let Ok(db) = Database::open(opts.clone()) else {
        return model;
    };
    for op in script() {
        match op {
            Op::Put(name, xml, t) => match db.put(name, &xml, ts(t)) {
                Ok(_) => {
                    model.entry(name).or_default().push(ModelVersion { ts: t, content: Some(xml) })
                }
                Err(_) => break,
            },
            Op::Delete(name, t) => match db.delete(name, ts(t)) {
                Ok(_) => model.entry(name).or_default().push(ModelVersion { ts: t, content: None }),
                Err(_) => break,
            },
            Op::Checkpoint => {
                if db.checkpoint().is_err() {
                    break;
                }
            }
        }
    }
    model
}

/// Full-recovery check: every committed version exists, reconstructs to
/// byte-exact content, and carries the right timestamp and kind. At most
/// one trailing extra version per document is allowed — the operation
/// in flight at the crash, whose WAL record was already durable.
fn verify_committed(db: &Database, model: &Model) {
    for (name, versions) in model {
        let doc = db
            .store()
            .doc_id(name)
            .unwrap()
            .unwrap_or_else(|| panic!("committed document {name} missing after recovery"));
        let entries = db.store().versions(doc).unwrap();
        assert!(
            entries.len() >= versions.len(),
            "{name}: {} committed versions, only {} present",
            versions.len(),
            entries.len()
        );
        assert!(
            entries.len() <= versions.len() + 1,
            "{name}: more extra versions than one in-flight op can explain"
        );
        for (i, mv) in versions.iter().enumerate() {
            let e = &entries[i];
            assert_eq!(e.ts, ts(mv.ts), "{name} v{i}: wrong timestamp");
            match &mv.content {
                Some(xml) => {
                    assert_eq!(e.kind, VersionKind::Content, "{name} v{i}: wrong kind");
                    let tree = db
                        .store()
                        .version_tree(doc, e.version)
                        .unwrap_or_else(|err| panic!("{name} v{i}: unreadable: {err}"));
                    assert_eq!(&to_string(&tree), xml, "{name} v{i}: wrong content");
                }
                None => {
                    assert_eq!(e.kind, VersionKind::Tombstone, "{name} v{i}: wrong kind");
                }
            }
        }
    }
    // Index rebuild matches the store: the FTI (rebuilt from scratch at
    // open) serves the current word of every live document.
    for (name, versions) in model {
        let doc = db.store().doc_id(name).unwrap().unwrap();
        let entries = db.store().versions(doc).unwrap();
        // Skip documents whose tail may be the in-flight extra version.
        if entries.len() != versions.len() {
            continue;
        }
        if let Some(ModelVersion { content: Some(xml), .. }) = versions.last() {
            let word_start = xml.find("<w>").unwrap() + 3;
            let word = &xml[word_start..xml.find("</w>").unwrap()];
            let fti = db.indexes().fti();
            let hits = fti.lookup(word, temporal_xml::index::fti::OccKind::Word);
            assert_eq!(hits.len(), 1, "{name}: FTI missing current word {word}");
        }
    }
}

/// Degraded check: whatever survives must be reachable without panicking;
/// reconstruction may fail, but only with a structured error.
fn exercise_reads(db: &Database) {
    let store = db.store();
    if let Ok(list) = store.list() {
        for (doc, _) in list {
            if let Ok(entries) = store.versions(doc) {
                for e in &entries {
                    if e.kind == VersionKind::Content {
                        let _ = store.version_tree(doc, e.version);
                    }
                }
            }
        }
    }
    // fsck is the never-panics diagnostic of last resort.
    let _ = store.fsck();
}

#[test]
fn crash_point_sweep_recovers_or_salvages() {
    // Fault-free baseline: the whole script commits, and the op counter
    // tells us how wide the sweep must be.
    let dir = tmpdir("sweep");
    let baseline_vfs = FaultyVfs::new(0xC0FF_EE00);
    let baseline = run_attempt(&db_opts(&baseline_vfs, &dir));
    assert_eq!(baseline.len(), 3, "baseline run must complete");
    let total_ops = baseline_vfs.ops();
    assert!(total_ops > 40, "workload too small to sweep ({total_ops} ops)");
    {
        let db = Database::open(db_opts(&baseline_vfs, &dir)).unwrap();
        assert!(db.recovery_report().salvage.is_none());
        verify_committed(&db, &baseline);
    }

    // Sweep: crash after every Nth VFS op. Step keeps the sweep dense at
    // small N (where open/recovery crashes live) while bounding runtime.
    let step = (total_ops as usize / 150).max(1) as u64;
    let (mut clean, mut salvaged, mut detected, mut refused) = (0u32, 0u32, 0u32, 0u32);
    let mut n = 1;
    while n < total_ops {
        let vfs = FaultyVfs::new(0xBAD5_EED0 + n);
        let dir = tmpdir("point");
        let opts = db_opts(&vfs, &dir);
        vfs.crash_after_ops(n);
        let model = run_attempt(&opts);
        assert_eq!(vfs.crash_count(), 1, "crash point {n} did not fire");
        match Database::open(opts) {
            Ok(db) => {
                if db.recovery_report().salvage.is_some() {
                    salvaged += 1;
                    assert!(db.store().is_read_only());
                    // Writes must fail — with ReadOnly when the lookup
                    // path is intact, or with the underlying structured
                    // corruption error when it is not.
                    assert!(
                        db.put("alpha", "<a>nope</a>", ts(99)).is_err(),
                        "salvage mode accepted a write"
                    );
                    exercise_reads(&db);
                } else if db.store().fsck().is_clean() {
                    clean += 1;
                    verify_committed(&db, &model);
                } else {
                    // A torn page write destroyed data the WAL cannot
                    // restore; the loss is detected, not silent.
                    detected += 1;
                    exercise_reads(&db);
                }
            }
            // Roots themselves torn: open refuses with a structured
            // error (stringly inspectable, never a panic).
            Err(e) => {
                refused += 1;
                assert!(!e.to_string().is_empty());
            }
        }
        n += step;
    }
    // The sweep must actually exercise the interesting outcomes: most
    // points recover fully, and at least a few crash mid-recovery-write.
    assert!(clean > 0, "no crash point recovered cleanly");
    assert!(
        clean >= salvaged + detected + refused,
        "degraded outcomes dominate: {clean} clean, {salvaged} salvaged, \
         {detected} detected-loss, {refused} refused"
    );
}

#[test]
fn crash_mid_checkpoint_never_loses_synced_wal() {
    // Target the checkpoint explicitly: run to just before the first
    // checkpoint completes, then crash during it, for several offsets.
    let mut verified = 0;
    for offset in 0..12u64 {
        let dir = tmpdir("ckpt");
        let vfs = FaultyVfs::new(0x5EED_0000 + offset);
        let opts = db_opts(&vfs, &dir);
        // Commit the pre-checkpoint prefix fault-free, then crash inside
        // the checkpoint's page flush (`crash_after_ops` is relative).
        let db = Database::open(opts.clone()).unwrap();
        db.put("alpha", "<a><w>one</w></a>", ts(1)).unwrap();
        db.put("alpha", "<a><w>two</w></a>", ts(2)).unwrap();
        db.put("beta", "<b><w>three</w></b>", ts(3)).unwrap();
        vfs.crash_after_ops(1 + offset);
        let _ = db.checkpoint();
        drop(db);
        if vfs.crash_count() == 0 {
            // Checkpoint finished before the crash point: done probing.
            continue;
        }
        match Database::open(opts) {
            Ok(db) => {
                if db.recovery_report().salvage.is_none() && db.store().fsck().is_clean() {
                    // All three puts were WAL-synced before the
                    // checkpoint: they must all be present.
                    let a = db.store().doc_id("alpha").unwrap().expect("alpha");
                    assert_eq!(db.store().versions(a).unwrap().len(), 2);
                    let b = db.store().doc_id("beta").unwrap().expect("beta");
                    assert_eq!(
                        to_string(&db.store().current_tree(b).unwrap()),
                        "<b><w>three</w></b>"
                    );
                    verified += 1;
                } else {
                    exercise_reads(&db);
                }
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
    assert!(verified > 0, "no mid-checkpoint crash recovered cleanly");
}

fn prefix_put(db: &Database, model: &mut Model, name: &'static str, xml: String, t: u64) {
    db.put(name, &xml, ts(t)).unwrap();
    model.entry(name).or_default().push(ModelVersion { ts: t, content: Some(xml) });
}

/// The state every checkpoint-interior attempt rebuilds: interleaved puts,
/// one completed checkpoint (so the probed one runs against a non-zero
/// generation fence), a delete and an overflow-sized document.
fn build_checkpoint_state(db: &Database) -> Model {
    let mut model = Model::new();
    prefix_put(db, &mut model, "alpha", "<a><w>one</w></a>".into(), 1);
    prefix_put(db, &mut model, "alpha", "<a><w>two</w></a>".into(), 2);
    prefix_put(db, &mut model, "beta", "<b><w>born</w></b>".into(), 3);
    db.checkpoint().unwrap();
    let bulk = format!("<g><w>bulk</w><v>{}</v></g>", "x".repeat(9000));
    prefix_put(db, &mut model, "gamma", bulk, 4);
    db.delete("beta", ts(5)).unwrap();
    model.entry("beta").or_default().push(ModelVersion { ts: 5, content: None });
    prefix_put(db, &mut model, "alpha", "<a><w>three</w></a>".into(), 6);
    model
}

/// Checkpoint-interior strictness: no operation is in flight during a
/// checkpoint, so the reopened store must hold *exactly* the committed
/// versions — not one more, not one fewer.
fn verify_exact(db: &Database, model: &Model, point: u64) {
    verify_committed(db, model);
    for (name, versions) in model {
        let doc = db.store().doc_id(name).unwrap().unwrap();
        let got = db.store().versions(doc).unwrap().len();
        assert_eq!(got, versions.len(), "crash point {point}: {name} version count");
    }
}

#[test]
fn checkpoint_interior_sweep_loses_nothing() {
    // With the double-write journal, a crash at *any* file-system
    // operation inside a checkpoint flush — including sub-page tears and
    // cross-file reordering of the unsynced tail — must recover to the
    // exact committed history: outcome 1, never salvage, never detected
    // loss. Measure the checkpoint's op count fault-free first (the
    // fault rng is consumed only at crash time, so the count does not
    // depend on the seed), then crash after every interior op.
    let probe_vfs = FaultyVfs::new(1);
    let probe_dir = tmpdir("ckint-probe");
    let db = Database::open(db_opts(&probe_vfs, &probe_dir)).unwrap();
    build_checkpoint_state(&db);
    let before = probe_vfs.ops();
    db.checkpoint().unwrap();
    let n_ops = probe_vfs.ops() - before;
    drop(db);
    assert!(n_ops >= 10, "checkpoint too small to sweep ({n_ops} ops)");

    let mut journal_replays = 0u64;
    for seed in [0xA11C_E5EEu64, 0x0DD5_EED5] {
        for k in 1..=n_ops {
            let vfs = FaultyVfs::new(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9)));
            let dir = tmpdir("ckint");
            let opts = db_opts(&vfs, &dir);
            let db = Database::open(opts.clone()).unwrap();
            let expect = build_checkpoint_state(&db);
            vfs.crash_after_ops(k);
            assert!(db.checkpoint().is_err(), "crash point {k}: checkpoint survived its crash");
            assert_eq!(vfs.crash_count(), 1, "crash point {k} did not fire");
            drop(db);
            vfs.clear_faults();

            let db = Database::open(opts)
                .unwrap_or_else(|e| panic!("crash point {k} seed {seed:#x}: reopen failed: {e}"));
            let report = db.recovery_report();
            assert!(
                report.salvage.is_none(),
                "crash point {k} seed {seed:#x}: degraded to salvage: {:?}",
                report.salvage
            );
            let fsck = db.store().fsck();
            assert!(fsck.is_clean(), "crash point {k} seed {seed:#x}: fsck dirty:\n{fsck}");
            verify_exact(&db, &expect, k);
            let snap = db.metrics().snapshot();
            journal_replays += snap.counter("recovery.journal_replays").unwrap_or(0);
        }
    }
    // Crash points inside the home-page flush leave a sealed journal
    // behind: the sweep must actually exercise its replay path.
    assert!(journal_replays > 0, "sweep never replayed a checkpoint journal");
}

#[test]
fn byte_flip_in_store_file_surfaces_as_corruption() {
    // End-to-end version of the pager unit test: flip one byte in the
    // durable image of a data page and the read comes back as a
    // structured checksum error, pinpointed by fsck.
    let dir = tmpdir("flip");
    let vfs = FaultyVfs::new(42);
    let store_opts = StoreOptions {
        path: Some(dir.clone()),
        wal_sync: true,
        vfs: Some(Arc::new(vfs.clone())),
        ..Default::default()
    };
    {
        let (store, _) = DocumentStore::open(store_opts.clone()).unwrap();
        // The small first version makes the component roots allocate
        // early; the big second version then spills into overflow pages
        // at the end of the file — pages that open never touches, so the
        // flip survives to the read path.
        store.put("big", "<a><v>tiny</v></a>", ts(1)).unwrap();
        let body = "z".repeat(3 * temporal_xml::storage::PAGE_SIZE);
        store.put("big", &format!("<a><v>{body}</v></a>"), ts(2)).unwrap();
        store.checkpoint().unwrap();
    }
    let db_file = dir.join("data.db");
    let len = vfs.durable_len(&db_file);
    assert!(len >= 2 * PHYS_PAGE_SIZE as u64);
    vfs.corrupt_byte(&db_file, len - PHYS_PAGE_SIZE as u64 + 99, 0x10);

    let (store, report) = DocumentStore::open(store_opts).unwrap();
    assert!(report.salvage.is_none(), "no WAL damage, open is clean");
    let doc = store.doc_id("big").unwrap().unwrap();
    match store.current_tree(doc) {
        Err(Error::Corruption { page, expected, actual }) => {
            assert!(page > 0);
            assert_ne!(expected, actual);
        }
        Ok(_) => panic!("corrupted page read must fail"),
        Err(e) => panic!("expected a checksum error, got: {e}"),
    }
    let r = store.fsck();
    assert!(!r.is_clean());
    assert_eq!(r.bad_pages.len(), 1);
    assert!(
        r.errors.iter().any(|e| e.contains("big")),
        "fsck names the damaged document: {:?}",
        r.errors
    );
}
