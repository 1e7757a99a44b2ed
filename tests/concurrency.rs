//! Concurrency: shared-handle readers, group-commit writers, snapshot
//! pins racing vacuum.
//!
//! The engine's contract (DESIGN.md §10): one `Database` handle is
//! `Send + Sync`; readers run in parallel and see immutable committed
//! versions, so a query anchored `.at(ts)` returns byte-identical results
//! no matter how many threads ask concurrently; committers serialize on
//! the store's writer lock but share fsyncs through the WAL group commit;
//! and a snapshot pin fences vacuum's purge horizon below the pinned
//! timestamp for as long as it lives.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use temporal_xml::core::ops::lifetime::LifetimeStrategy::{Index, Traverse};
use temporal_xml::index::OccKind;
use temporal_xml::storage::repo::VersionKind;
use temporal_xml::storage::{DocumentStore, SnapshotPin, SnapshotRegistry};
use temporal_xml::xml::serialize::to_string;
use temporal_xml::{Database, DbOptions, Eid, QueryExt, QueryRequest, Timestamp, VersionId};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(1_000_000 + n)
}

/// The whole read/query surface must be shareable across threads — a
/// compile-time fact, asserted here so a regression (an `Rc`, a non-`Sync`
/// cell) fails the build, not a deployment.
#[test]
fn database_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<DocumentStore>();
    assert_send_sync::<temporal_xml::base::obs::Registry>();
    assert_send_sync::<SnapshotRegistry>();
    assert_send_sync::<SnapshotPin>();
    // The stream-producing handle is shareable; the `RowStream` cursor it
    // opens is deliberately single-threaded (operator trees use `Rc`),
    // which is fine: each thread opens its own cursor from the shared db.
    assert_send_sync::<QueryRequest<'static>>();
}

/// N threads querying random historical timestamps must each see exactly
/// what a serial replay sees — byte-identical result documents.
#[test]
fn concurrent_readers_match_serial_replay() {
    let db = Database::in_memory();
    for i in 0..40u64 {
        db.put("d", &format!("<log><n>{i}</n><w>alpha{i}</w></log>"), ts(i * 10)).unwrap();
    }
    // Snapshot queries (`doc("d")[t]`) at probe times straddling every
    // version boundary (just before, at, and between commits).
    let query_at = |p: u64| format!(r#"SELECT R/n FROM doc("d")[{}]//log R"#, ts(p).micros());
    let probes: Vec<u64> = (0..=80).map(|k| k * 5 + 3).collect();
    let expected: Vec<String> =
        probes.iter().map(|&p| db.query(query_at(p)).run().unwrap().to_xml()).collect();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let db = &db;
            let probes = &probes;
            let expected = &expected;
            let query_at = &query_at;
            s.spawn(move || {
                // Each thread walks the probes in a different order, so
                // at any instant the 8 threads hit 8 different snapshots.
                for k in 0..probes.len() {
                    let i = (k * 7 + t * 13) % probes.len();
                    let got = db.query(query_at(probes[i])).run().unwrap().to_xml();
                    assert_eq!(got, expected[i], "thread {t} diverged at probe {}", probes[i]);
                }
            });
        }
    });
}

/// The pin contract, deterministically: a live pin clamps vacuum's
/// horizon to the pinned timestamp (the stats report the clamp), the
/// pinned version stays reconstructible, and dropping the pin releases
/// the fence.
#[test]
fn pinned_snapshot_fences_vacuum() {
    let db = Database::in_memory();
    for i in 0..10u64 {
        db.put("d", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
    }
    let doc = db.store().doc_id("d").unwrap().unwrap();
    let pinned_at = ts(2);
    let pin = db.pin_snapshot(pinned_at);
    assert_eq!(db.store().snapshots().active(), 1);
    assert_eq!(db.metrics().snapshot().gauge("db.active_snapshots"), Some(1));

    let stats = db.vacuum("d", Timestamp::FOREVER).unwrap().unwrap();
    assert_eq!(stats.horizon, pinned_at, "horizon must clamp to the oldest pin");
    // v2 is valid over [ts(2), ts(3)) — at the pinned time — and survives,
    // as does everything the pinned reader can reach. (v1 survives too:
    // purge is strict, `end < horizon`, so a version ending exactly at
    // the pin is conservatively kept.)
    for v in 1..10u32 {
        let tree = db.store().version_tree(doc, VersionId(v)).unwrap();
        assert_eq!(to_string(&tree), format!("<a><v>{v}</v></a>"));
    }
    // Only history invisible from the pin onward was purged.
    let entries = db.store().versions(doc).unwrap();
    assert_eq!(entries[0].kind, VersionKind::Purged);
    assert!(entries[1..].iter().all(|e| e.kind == VersionKind::Content));

    drop(pin);
    assert_eq!(db.store().snapshots().active(), 0);
    let stats = db.vacuum("d", Timestamp::FOREVER).unwrap().unwrap();
    assert_eq!(stats.horizon, Timestamp::FOREVER, "no pins left: nothing clamps");
    let entries = db.store().versions(doc).unwrap();
    assert!(entries[..9].iter().all(|e| e.kind == VersionKind::Purged));
    assert_eq!(entries[9].kind, VersionKind::Content, "current always survives");
}

/// A held query stream keeps its pin alive: rows pulled *after* a vacuum
/// that would have purged the queried snapshot still come back correct.
#[test]
fn open_stream_fences_vacuum_until_dropped() {
    let db = Database::in_memory();
    for i in 0..6u64 {
        db.put("d", &format!("<log><n>{i}</n></log>"), ts(i)).unwrap();
    }
    let query = format!(r#"SELECT R/n FROM doc("d")[{}]//log R"#, ts(1).micros());
    let mut stream = db.query(&query).at(ts(5)).stream().unwrap();
    assert_eq!(db.store().snapshots().active(), 1, "open cursor holds a pin");
    // The pin sits at the plan's *oldest* touchable time — the snapshot
    // qualifier ts(1), not the NOW anchor ts(5).
    let stats = db.vacuum("d", Timestamp::FOREVER).unwrap().unwrap();
    assert_eq!(stats.horizon, ts(1), "cursor's pin clamps the purge");
    let row = stream.next().unwrap().unwrap();
    assert_eq!(row[0].as_text(), "<n>1</n>", "snapshot at ts(1) still intact");
    drop(stream);
    assert_eq!(db.store().snapshots().active(), 0, "drop releases the pin");
}

/// An `[EVERY]` stream walks one working tree forward per document; a put
/// and a vacuum landing between two pulls must not disturb the walk. The
/// stream's pin sits at the start of history, so the vacuum purges
/// nothing it can still reach, and the rows match a run of the same query
/// before either write.
#[test]
fn every_stream_walks_on_across_a_put_and_a_vacuum() {
    let db = Database::in_memory();
    for i in 0..6u64 {
        db.put("d", &format!("<log><n>{i}</n><m>{}</m></log>", i / 2), ts(i)).unwrap();
    }
    let query = r#"SELECT TIME(R), R/n, PREVIOUS(R)/n FROM doc("d")[EVERY]//log R"#;
    let want = db.query(query).at(ts(5)).run().unwrap().rows;
    let mut stream = db.query(query).at(ts(5)).stream().unwrap();
    let mut got: Vec<_> = stream.by_ref().take(2).map(|r| r.unwrap()).collect();
    db.put("d", "<log><n>6</n><m>9</m></log>", ts(6)).unwrap();
    let stats = db.vacuum("d", Timestamp::FOREVER).unwrap().unwrap();
    assert_eq!(stats.purged_versions, 0, "the stream's pin fences the whole history");
    got.extend(stream.by_ref().map(|r| r.unwrap()));
    assert_eq!(got, want);
    assert_eq!(
        stream.stats().reseeds,
        2,
        "one seed, one restart for PREVIOUS: {:?}",
        stream.stats()
    );
}

/// Stress: one writer, one vacuum loop and four pinned readers race on a
/// single hot document. Readers pin a timestamp and reconstruct; a
/// reconstruction may lose the pin-vs-purge race (the vacuum clamped
/// before the pin existed) and find the version gone — that surfaces as a
/// structured error, never a wrong tree. Every successful read must be
/// byte-exact.
#[test]
fn writers_readers_and_vacuum_race_safely() {
    const VERSIONS: u64 = 150;
    let db = Arc::new(DbOptions::new().snapshot_every(4).open().unwrap());
    db.put("hot", "<a><v>0</v></a>", ts(0)).unwrap();
    let stop = AtomicBool::new(false);
    let good_reads = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let db_w = db.clone();
        let stop_ref = &stop;
        s.spawn(move || {
            for i in 1..=VERSIONS {
                db_w.put("hot", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
            }
            stop_ref.store(true, Ordering::Release);
        });
        let db_v = db.clone();
        s.spawn(move || {
            while !stop_ref.load(Ordering::Acquire) {
                // Unbounded horizon: only reader pins (and the always-
                // surviving current version) hold history back.
                db_v.vacuum("hot", Timestamp::FOREVER).unwrap();
                std::thread::yield_now();
            }
        });
        for r in 0..4usize {
            let db = db.clone();
            let good = &good_reads;
            s.spawn(move || {
                let doc = db.store().doc_id("hot").unwrap().unwrap();
                let mut k = r;
                while !stop_ref.load(Ordering::Acquire) {
                    let entries = db.store().versions(doc).unwrap();
                    let live: Vec<_> =
                        entries.iter().filter(|e| e.kind == VersionKind::Content).collect();
                    let e = live[k % live.len()];
                    k = k.wrapping_add(7);
                    let _pin = db.pin_snapshot(e.ts);
                    match db.store().version_tree(doc, e.version) {
                        // Under the pin the reconstruction is atomic (one
                        // reader-lock section): success must be exact.
                        Ok(tree) => {
                            assert_eq!(to_string(&tree), format!("<a><v>{}</v></a>", e.version.0));
                            // A vacuum re-indexing the document never
                            // loses a surviving element's lifetime, and
                            // the pinned version survives every vacuum,
                            // so the root was created by its time.
                            let root = Eid::new(doc, tree.node(tree.root().unwrap()).xid);
                            let created = db.cre_time(root.at(e.ts), Index).unwrap();
                            assert!(created <= e.ts, "root created {created} after {}", e.ts);
                            good.fetch_add(1, Ordering::Relaxed);
                        }
                        // The vacuum clamped its horizon before this pin
                        // existed and purged the version first: a clean,
                        // detectable miss.
                        Err(temporal_xml::base::Error::NoSuchVersion(..)) => {}
                        Err(e) => panic!("reader hit unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert!(
        good_reads.load(Ordering::Relaxed) > 0,
        "stress must complete at least one pinned read"
    );
    // Quiesced: every surviving version reconstructs, and both §7.3.6
    // strategies agree on the root.
    let doc = db.store().doc_id("hot").unwrap().unwrap();
    for e in db.store().versions(doc).unwrap() {
        if e.kind == VersionKind::Content {
            let tree = db.store().version_tree(doc, e.version).unwrap();
            assert_eq!(to_string(&tree), format!("<a><v>{}</v></a>", e.version.0));
        }
    }
    let cur = db.store().current_tree(doc).unwrap();
    let root = Eid::new(doc, cur.node(cur.root().unwrap()).xid).at(ts(VERSIONS));
    assert_eq!(db.cre_time(root, Index).unwrap(), db.cre_time(root, Traverse).unwrap());
}

/// The put-vs-vacuum race, made deterministic: the store takes a put, a
/// vacuum re-indexes the document from a chain that already holds it, and
/// only then does the put's own index step land. That step must change
/// nothing — for an update and for a resurrection alike.
#[test]
fn a_put_indexed_after_a_vacuum_reindex_changes_nothing() {
    let answers = |db: &Database, doc| {
        let fti = db.indexes().fti();
        let mut postings: Vec<String> = ["log", "n", "m", "x", "0", "1", "2", "5", "6", "9"]
            .iter()
            .flat_map(|w| [OccKind::Name, OccKind::Word].map(|k| (w, k)))
            .flat_map(|(w, k)| fti.lookup_h(w, k).into_iter().map(|p| format!("{p:?}")))
            .collect();
        postings.sort();
        (postings, db.indexes().eid_index().doc_lifetimes(doc).unwrap())
    };
    for resurrect in [false, true] {
        let db = Database::in_memory();
        for i in 0..6u64 {
            let x = if i % 2 == 0 { "<x/>" } else { "" };
            db.put("d", &format!("<log><n>{i}</n><m>{}</m>{x}</log>", i / 2), ts(i)).unwrap();
        }
        if resurrect {
            db.delete("d", ts(6)).unwrap();
        }
        let r = db.store().put("d", "<log><n>6</n><m>9</m></log>", ts(7)).unwrap();
        assert_eq!(r.resurrected, resurrect);
        let stats = db.vacuum("d", ts(3)).unwrap().unwrap();
        assert!(stats.purged_versions > 0);
        let covered = answers(&db, r.doc);
        db.indexes()
            .on_put(r.doc, r.version, r.ts, &r.new_tree, r.delta.as_ref(), r.resurrected)
            .unwrap();
        assert_eq!(answers(&db, r.doc), covered, "resurrect = {resurrect}");
        db.reindex(r.doc).unwrap();
        assert_eq!(answers(&db, r.doc), covered, "resurrect = {resurrect}");
    }
}

/// Concurrent committers on a durable (wal_sync) store: all commits land,
/// recovery agrees, and the group-commit histogram proves fsyncs were
/// shared (durable-advance per fsync sums to the commit count).
#[test]
fn concurrent_committers_share_fsyncs_durably() {
    const THREADS: u64 = 8;
    const PUTS: u64 = 10;
    let dir = std::env::temp_dir().join(format!("txdb-conc-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DbOptions::at(&dir).wal_sync(true);
    {
        let db = opts.clone().open().unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..PUTS {
                        db.put(&format!("doc-{t}"), &format!("<a><v>{i}</v></a>"), ts(i + 1))
                            .unwrap();
                    }
                });
            }
        });
        let snap = db.metrics().snapshot();
        let batches = snap.histogram("wal.group_commit.batch_size").expect("histogram registered");
        assert_eq!(batches.sum, THREADS * PUTS, "every commit observed exactly one fsync barrier");
        assert!(batches.count >= 1);
        // No close(): recovery must replay the durable WAL.
    }
    let db = opts.open().unwrap();
    assert!(db.recovery_report().salvage.is_none());
    for t in 0..THREADS {
        let doc = db.store().doc_id(&format!("doc-{t}")).unwrap().unwrap();
        assert_eq!(db.store().versions(doc).unwrap().len(), PUTS as usize);
        let tree = db.store().current_tree(doc).unwrap();
        assert_eq!(to_string(&tree), format!("<a><v>{}</v></a>", PUTS - 1));
    }
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Eight versions of `a` and a one-version `b` holding `items` elements.
fn two_documents(items: usize) -> Database {
    let db = Database::in_memory();
    for i in 0..8u64 {
        db.put("a", &format!("<log><n>{i}</n><w>alpha{i}</w></log>"), ts(i)).unwrap();
    }
    let body: String = (0..items).map(|i| format!("<item><v>{i}</v></item>")).collect();
    db.put("b", &format!("<list>{body}</list>"), ts(10)).unwrap();
    db
}

/// A query's `ExecStats` count its own work only. A `Current` query on
/// `b` reports the same stats alone and in each of 2,000 runs beside a
/// thread that runs `[EVERY]` on `a` and drops `a`'s cached versions
/// every other run (so that thread hits and misses the version cache
/// all along). Under `EXPLAIN ANALYZE` every counter of the operator
/// tree sums to the run's stats.
#[test]
fn exec_stats_are_the_querys_own_beside_a_busy_reader() {
    let db = two_documents(40);
    let q = r#"SELECT R/v FROM doc("b")//item R"#;
    let run = || db.query(q).explain().run().unwrap();
    let solo = run().stats;
    assert_eq!((solo.reconstructions, solo.cache_hits, solo.cache_misses), (1, 0, 1));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let busy = s.spawn(|| {
            let a = db.store().doc_id("a").unwrap().unwrap();
            let mut runs = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let r = db.query(r#"SELECT R/n FROM doc("a")[EVERY]//log R"#).run().unwrap();
                assert_eq!(r.len(), 8);
                if runs % 2 == 1 {
                    db.store().vcache().invalidate_doc(a);
                }
                runs += 1;
            }
            runs
        });
        // The first run whose counts differ; asserted once the busy
        // reader has stopped, so a failure cannot leave it spinning.
        let differing = (0..2_000).map(|i| (i, run())).find(|(_, r)| {
            let tree = r.explain.as_ref().expect("explain tree");
            r.stats != solo
                || [
                    ("reconstructions", r.stats.reconstructions),
                    ("deltas_applied", r.stats.deltas_applied),
                    ("reseeds", r.stats.reseeds),
                    ("cache_hits", r.stats.cache_hits),
                    ("cache_misses", r.stats.cache_misses),
                ]
                .iter()
                .any(|&(name, v)| tree.counter_total(name) != v as u64)
        });
        stop.store(true, Ordering::Relaxed);
        if let Some((i, r)) = differing {
            panic!("run {i}: {:?} and tree {:?}, alone {solo:?}", r.stats, r.explain);
        }
        assert!(busy.join().unwrap() > 0, "the busy reader ran");
    });
}

/// With nothing else running, the store-wide `vcache.hits`/`vcache.misses`
/// move by exactly the query's own `cache_hits`/`cache_misses`: the two
/// ledgers agree. The queries cover a cold and a warm `[EVERY]` walk, a
/// read behind the walk (`PREVIOUS`), a snapshot and a current scan.
#[test]
fn store_cache_counters_move_by_the_querys_own_when_alone() {
    let db = two_documents(5);
    let at = ts(4).micros();
    let queries = [
        r#"SELECT R/n FROM doc("a")[EVERY]//log R"#.to_string(),
        r#"SELECT R/n FROM doc("a")[EVERY]//log R"#.to_string(),
        r#"SELECT PREVIOUS(R) FROM doc("a")[EVERY]//log R"#.to_string(),
        format!(r#"SELECT R/n FROM doc("a")[{at}]//log R"#),
        r#"SELECT R/v FROM doc("b")//item R"#.to_string(),
    ];
    let (mut hits, mut misses) = (0, 0);
    for q in &queries {
        let before = db.store().vcache_stats().snapshot();
        let r = db.query(q).run().unwrap();
        let after = db.store().vcache_stats().snapshot();
        let own = (r.stats.cache_hits as u64, r.stats.cache_misses as u64);
        assert_eq!((after.0 - before.0, after.1 - before.1), own, "{q}: {:?}", r.stats);
        hits += own.0;
        misses += own.1;
    }
    assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
}
