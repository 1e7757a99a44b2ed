//! Robustness: no panics on hostile input, and safe concurrent use.

use proptest::prelude::*;
use std::sync::Arc;
use temporal_xml::xml::pattern::{PatternNode, PatternTree};
use temporal_xml::{Database, QueryExt, Timestamp};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The XML parser never panics, whatever the input; it either returns
    /// a tree or a structured error.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = temporal_xml::xml::parse_document(&input);
    }

    /// Same for input biased toward XML-ish shapes.
    #[test]
    fn xml_parser_never_panics_xmlish(input in "[<>/a-z \"=&;!\\[\\]-]{0,120}") {
        let _ = temporal_xml::xml::parse_document(&input);
    }

    /// The query parser never panics.
    #[test]
    fn query_parser_never_panics(input in ".{0,200}") {
        let _ = temporal_xml::parse_query(&input);
    }

    /// Query-ish input: keywords, paths, brackets.
    #[test]
    fn query_parser_never_panics_queryish(
        input in "(SELECT|FROM|WHERE|doc|EVERY|NOW|R|//|/|\\[|\\]|\\(|\\)|\"x\"|=|~|==|,| |[0-9]){0,60}"
    ) {
        let _ = temporal_xml::parse_query(&input);
    }

    /// The full pipeline on arbitrary well-formed-ish queries against a
    /// populated database: errors allowed, panics not.
    #[test]
    fn execute_never_panics(tail in "[a-z/\\*\\[\\]0-9 =\"<>]{0,40}") {
        let db = Database::in_memory();
        db.put("d", "<a><b>x</b></a>", Timestamp::from_secs(1)).unwrap();
        let q = format!(r#"SELECT R FROM doc("d")//b R WHERE {tail}"#);
        let _ = db.query(&q).at(Timestamp::from_secs(2)).run();
    }

    /// Binary codec decode never panics on corrupted bytes.
    #[test]
    fn codec_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = temporal_xml::xml::codec::decode_tree(&bytes);
    }
}

#[test]
fn concurrent_readers_during_writes() {
    let db = Arc::new(Database::in_memory());
    let ts = |n: u64| Timestamp::from_secs(1_000 + n);
    db.put("shared", "<g><item><v>0</v></item></g>", ts(0)).unwrap();

    let pattern = PatternTree::new(PatternNode::tag("item").project());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    // Readers: snapshot scans, history scans, reconstruction, queries.
    let mut readers = Vec::new();
    for r in 0..4 {
        let db = db.clone();
        let stop = stop.clone();
        let progress = progress.clone();
        let pattern = pattern.clone();
        readers.push(std::thread::spawn(move || {
            let mut iters = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = db.pattern_scan(None, &pattern).unwrap();
                let _ = db.tpattern_scan(None, &pattern, ts(r * 7)).unwrap();
                let _ = db.tpattern_scan_all(None, &pattern).unwrap();
                let doc = db.store().doc_id("shared").unwrap().unwrap();
                let _ = db.store().current_tree(doc).unwrap();
                let _ = db
                    .query(r#"SELECT COUNT(R) FROM doc("shared")[EVERY]//item R"#)
                    .at(ts(1_000))
                    .run()
                    .unwrap();
                iters += 1;
                progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            iters
        }));
    }

    // Writer: 40 versions while readers hammer.
    for i in 1..=40u64 {
        let items: String = (0..=(i % 5)).map(|k| format!("<item><v>{i}.{k}</v></item>")).collect();
        db.put("shared", &format!("<g>{items}</g>"), ts(i)).unwrap();
    }
    // A fast writer can finish before the reader threads are even
    // scheduled; hold the stop flag until the readers have completed
    // a few iterations against the post-write state.
    while progress.load(std::sync::atomic::Ordering::Relaxed) < 4 {
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0;
    for r in readers {
        total += r.join().expect("reader panicked");
    }
    assert!(total > 0, "readers made progress");

    // Post-condition: consistent final state.
    let doc = db.store().doc_id("shared").unwrap().unwrap();
    assert_eq!(db.store().versions(doc).unwrap().len(), 41);
    let m = db.pattern_scan(None, &pattern).unwrap();
    assert_eq!(m.len(), 1, "40 % 5 == 0 → one item in the last version");
}

/// A read error inside a `TPatternScan` fails the scan; it never reads as
/// "no version at t", which would silently drop that document's matches.
/// A reopened store with the version cache off and a small buffer pool
/// runs a snapshot scan and a snapshot query under two fault schedules:
/// every `k`-th file operation fails once (the pager retries such
/// transient faults), or every operation from the `n`-th on fails. Each
/// run either errs or returns exactly the fault-free answer.
///
/// `Database::open` caches every document's metadata, so snapshot
/// resolution (`version_at`) reads no file here; the failing reads are
/// the query's reconstructions.
#[test]
fn snapshot_scans_fail_or_answer_exactly_under_read_faults() {
    use temporal_xml::storage::FaultyVfs;
    use temporal_xml::{DbOptions, StoreOptions};

    let ts = |n: u64| Timestamp::from_secs(2_000 + n);
    let dir = std::env::temp_dir().join(format!("txdb-scanfault-{}", std::process::id()));
    let vfs = FaultyVfs::new(11);
    let opts = DbOptions {
        store: StoreOptions {
            path: Some(dir.clone()),
            vfs: Some(Arc::new(vfs.clone())),
            buffer_pages: 8,
            cache_bytes: 0,
            ..Default::default()
        },
    };
    {
        let db = opts.clone().open().unwrap();
        // Each version spans pages, so eight buffer pages hold few of them.
        let pad = "p".repeat(6000);
        for d in 0..12u64 {
            for v in 0..3u64 {
                let n = d % 3;
                let xml = format!("<g><r><n>d{d}v{v}</n><w>{pad}</w></r><r><n>k{n}</n></r></g>");
                db.put(&format!("d{d}"), &xml, ts(d * 10 + v)).unwrap();
            }
        }
        db.close().unwrap();
    }
    let pattern = PatternTree::new(PatternNode::tag("r").project());
    let at = ts(65);
    let q = format!(r#"SELECT R/n FROM doc("*")[{}]//r R"#, at.micros());
    let run = |db: &Database| {
        let scan = db
            .tpattern_scan(None, &pattern, at)
            .map(|ms| ms.into_iter().map(|m| (m.doc, m.version, m.nodes)).collect::<Vec<_>>());
        (scan, db.query(&q).run().map(|r| r.to_xml()))
    };
    let (clean_scan, clean_query) = match run(&opts.clone().open().unwrap()) {
        (Ok(scan), Ok(query)) => (scan, query),
        other => panic!("fault-free run failed: {other:?}"),
    };
    assert_eq!(clean_scan.len(), 14, "docs 0–5 at v2 and 6 at v0, two r each");
    let mut failed = 0;
    let schedules = (2..24u64).map(|k| (k, true)).chain((1..12u64).map(|n| (n, false)));
    for (k, transient) in schedules {
        let db = opts.clone().open().unwrap();
        if transient {
            vfs.fail_io_every(k);
        } else {
            vfs.crash_after_ops(k);
        }
        let (scan, query) = run(&db);
        vfs.clear_faults();
        match scan {
            Ok(got) => assert_eq!(got, clean_scan, "k={k}: scan lost or changed matches"),
            Err(_) => failed += 1,
        }
        match query {
            Ok(got) => assert_eq!(got, clean_query, "k={k}: query answer changed"),
            Err(_) => failed += 1,
        }
    }
    assert!(failed > 0, "no schedule reached a read");
    let _ = std::fs::remove_dir_all(&dir);
}
