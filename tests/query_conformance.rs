//! Query-language conformance: cross-feature coverage beyond the paper's
//! example queries, plus planner-strategy equivalence — the index-backed
//! path and the reconstruct-and-scan fallback must return identical rows.

use temporal_xml::{Database, QueryExt, Timestamp};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(1_000_000 + n * 3600)
}

/// A small library catalogue with enough structure for every feature.
fn library() -> Database {
    let db = Database::in_memory();
    db.put(
        "lib/catalog",
        r#"<catalog>
             <book lang="en"><title>Dune</title><price>12</price><author>Herbert</author></book>
             <book lang="no"><title>Sult</title><price>9</price><author>Hamsun</author></book>
           </catalog>"#,
        ts(1),
    )
    .unwrap();
    db.put(
        "lib/catalog",
        r#"<catalog>
             <book lang="en"><title>Dune</title><price>15</price><author>Herbert</author></book>
             <book lang="no"><title>Sult</title><price>9</price><author>Hamsun</author></book>
             <book lang="en"><title>Neuromancer</title><price>11</price><author>Gibson</author></book>
           </catalog>"#,
        ts(10),
    )
    .unwrap();
    db.put(
        "lib/journal",
        r#"<journal><issue n="1"><article>On Dune and deserts</article></issue></journal>"#,
        ts(5),
    )
    .unwrap();
    db
}

fn run(db: &Database, q: &str) -> temporal_xml::QueryResult {
    db.query(q).at(ts(100)).run().unwrap()
}

#[test]
fn index_and_tree_scan_strategies_agree() {
    let db = library();
    // Same logical query; the first compiles to an index pattern, the
    // second's wildcard step forces the tree-scan fallback.
    let a = run(&db, r#"SELECT R/title FROM doc("lib/catalog")//book R"#);
    let b = run(&db, r#"SELECT R/title FROM doc("lib/catalog")/catalog/* R"#);
    assert_eq!(a.to_xml(), b.to_xml());
    assert_eq!(a.len(), 3);
    // And with a snapshot.
    let a =
        run(&db, &format!(r#"SELECT R/title FROM doc("lib/catalog")[{}]//book R"#, ts(2).micros()));
    let b = run(
        &db,
        &format!(r#"SELECT R/title FROM doc("lib/catalog")[{}]/catalog/* R"#, ts(2).micros()),
    );
    assert_eq!(a.to_xml(), b.to_xml());
    assert_eq!(a.len(), 2);
    // And over EVERY.
    let a = run(&db, r#"SELECT R/title FROM doc("lib/catalog")[EVERY]//book R"#);
    let b = run(&db, r#"SELECT R/title FROM doc("lib/catalog")[EVERY]/catalog/* R"#);
    assert_eq!(a.to_xml(), b.to_xml());
    assert_eq!(a.len(), 5, "2 books in v0 + 3 in v1");
}

#[test]
fn collection_queries_cross_documents() {
    let db = library();
    let r = run(&db, r#"SELECT COUNT(*) FROM doc("*")//title R"#);
    assert_eq!(r.rows[0][0].as_text(), "3");
    // Words hit both docs.
    let r = run(&db, r#"SELECT R FROM doc("*")//article R WHERE R CONTAINS "dune""#);
    assert_eq!(r.len(), 1);
}

#[test]
fn boolean_connectives() {
    let db = library();
    let r = run(
        &db,
        r#"SELECT R/title FROM doc("lib/catalog")//book R
           WHERE R/price > 10 AND NOT R/title = "Dune""#,
    );
    assert_eq!(r.to_xml(), "<results><result><title>Neuromancer</title></result></results>");
    let r = run(
        &db,
        r#"SELECT R/title FROM doc("lib/catalog")//book R
           WHERE R/title = "Sult" OR R/title = "Dune""#,
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn value_predicates_on_subelements() {
    let db = library();
    let r = run(&db, r#"SELECT R/price FROM doc("lib/catalog")//book R WHERE R/author = "Gibson""#);
    assert_eq!(r.to_xml(), "<results><result><price>11</price></result></results>");
}

#[test]
fn document_time_queries_via_content() {
    // §3.1's third case: "many documents include a timestamp in the
    // document itself … documents can also be indexed and queried based on
    // this document time." Document time is ordinary content here, and
    // date-valued text compares against date literals.
    let db = Database::in_memory();
    db.put(
        "news",
        r#"<feed>
             <story><published>2001-09-08</published><h>Early story</h></story>
             <story><published>2001-09-10</published><h>Later story</h></story>
           </feed>"#,
        ts(1),
    )
    .unwrap();
    let r = run(&db, r#"SELECT R/h FROM doc("news")//story R WHERE R/published >= 10/09/2001"#);
    assert_eq!(r.to_xml(), "<results><result><h>Later story</h></result></results>");
    let r = run(&db, r#"SELECT COUNT(R) FROM doc("news")//story R WHERE R/published < 10/09/2001"#);
    assert_eq!(r.rows[0][0].as_text(), "1");
}

#[test]
fn distinct_deduplicates() {
    let db = library();
    let r = run(&db, r#"SELECT DISTINCT R/author FROM doc("lib/catalog")[EVERY]//book R"#);
    assert_eq!(r.len(), 3, "Herbert, Hamsun, Gibson — once each: {}", r.to_xml());
}

#[test]
fn sum_and_count_aggregates() {
    let db = library();
    let r = run(&db, r#"SELECT SUM(R/price), COUNT(R) FROM doc("lib/catalog")//book R"#);
    assert_eq!(r.rows[0][0].as_text(), "35");
    assert_eq!(r.rows[0][1].as_text(), "3");
}

#[test]
fn text_step_in_select_path() {
    let db = library();
    let r = run(&db, r#"SELECT R/title/text() FROM doc("lib/catalog")//book R WHERE R/price < 10"#);
    assert_eq!(r.to_xml(), "<results><result>Sult</result></results>");
}

#[test]
fn numeric_vs_string_comparison() {
    let db = Database::in_memory();
    db.put("d", "<l><v>9</v><v>11</v><v>abc</v></l>", ts(1)).unwrap();
    // Numeric comparison: 9 < 11 (string compare would say "11" < "9").
    let r = run(&db, r#"SELECT R FROM doc("d")//v R WHERE R < 10"#);
    assert_eq!(r.to_xml(), "<results><result><v>9</v></result></results>");
    // String comparison when not numeric.
    let r = run(&db, r#"SELECT R FROM doc("d")//v R WHERE R = "abc""#);
    assert_eq!(r.len(), 1);
}

#[test]
fn null_semantics_of_version_functions() {
    let db = library();
    // PREVIOUS of first version is Null → empty cell, row survives.
    let r = run(
        &db,
        &format!(
            r#"SELECT PREVIOUS(R) FROM doc("lib/catalog")[{}]//book R WHERE R/title = "Dune""#,
            ts(2).micros()
        ),
    );
    assert_eq!(r.to_xml(), "<results><result></result></results>");
    // NEXT of the same binding is the v1 book.
    let r = run(
        &db,
        &format!(
            r#"SELECT NEXT(R)/price FROM doc("lib/catalog")[{}]//book R WHERE R/title = "Dune""#,
            ts(2).micros()
        ),
    );
    assert_eq!(r.to_xml(), "<results><result><price>15</price></result></results>");
}

#[test]
fn similarity_function_and_operator() {
    let db = library();
    // SIMILARITY as a numeric function.
    let r = run(
        &db,
        r#"SELECT SIMILARITY(R1, R2) FROM doc("lib/catalog")//book R1,
           doc("lib/catalog")//book R2 WHERE R1/title = "Dune" AND R2/title = "Dune""#,
    );
    assert_eq!(r.rows[0][0].as_text(), "1");
    // `~` self-join finds at least the identical pairs.
    let r = run(
        &db,
        r#"SELECT R1/title FROM doc("lib/catalog")//book R1,
           doc("lib/catalog")//book R2 WHERE R1 ~ R2 AND R1 == R2"#,
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn three_way_join() {
    let db = library();
    let r = run(
        &db,
        r#"SELECT R1/title FROM doc("lib/catalog")//book R1,
              doc("lib/catalog")//book R2, doc("lib/journal")//article A
           WHERE R1 == R2 AND A CONTAINS R1/title"#,
    );
    assert_eq!(r.to_xml(), "<results><result><title>Dune</title></result></results>");
}

#[test]
fn deep_descendant_paths() {
    let db = Database::in_memory();
    db.put("d", "<a><b><c><d>deep</d></c></b><c><d>shallow</d></c></a>", ts(1)).unwrap();
    let r = run(&db, r#"SELECT R FROM doc("d")/a/b//d R"#);
    assert_eq!(r.to_xml(), "<results><result><d>deep</d></result></results>");
    let r = run(&db, r#"SELECT R FROM doc("d")//c/d R"#);
    assert_eq!(r.len(), 2);
}

#[test]
fn error_paths_surface_cleanly() {
    let db = library();
    let cases = [
        r#"SELECT R FROM doc("lib/catalog")//book R WHERE BOGUS(R) = 1"#,
        r#"SELECT R FROM"#,
        r#"SELECT X FROM doc("lib/catalog")//book R"#,
        r#"SELECT COUNT(R), R/title FROM doc("lib/catalog")//book R"#,
    ];
    for q in cases {
        assert!(db.query(q).at(ts(100)).run().is_err(), "{q}");
    }
}

#[test]
fn create_and_delete_time_in_where_and_select() {
    let db = library();
    db.delete("lib/journal", ts(50)).unwrap();
    let r = run(
        &db,
        &format!(r#"SELECT DELETETIME(R) FROM doc("lib/journal")[{}]//article R"#, ts(6).micros()),
    );
    assert_eq!(r.rows[0][0].as_text(), ts(50).to_string());
    // Books created in v1 only.
    let r = run(
        &db,
        &format!(
            r#"SELECT R/title FROM doc("lib/catalog")[EVERY]//book R
               WHERE CREATETIME(R) >= {}"#,
            ts(10).micros()
        ),
    );
    assert_eq!(r.to_xml(), "<results><result><title>Neuromancer</title></result></results>");
}

#[test]
fn explain_rows_match_streamed_operator_counts() {
    // The EXPLAIN ANALYZE tree is read off the live operator tree, so
    // each node's `rows` must equal the number of rows that operator
    // actually emitted — which the streaming cursor lets us observe
    // directly: the root's count is the rows the stream yields, the join
    // node's count is `rows_scanned` of the same run.
    let db = library();
    let q = r#"SELECT R/title FROM doc("lib/catalog")[EVERY]//book R WHERE R/price < 12"#;
    let explained = db.query(q).at(ts(100)).explain().run().unwrap();
    let tree = explained.explain.as_ref().unwrap();

    let mut stream = db.query(q).at(ts(100)).stream().unwrap();
    let streamed: Vec<_> = (&mut stream).collect::<Result<Vec<_>, _>>().unwrap();
    let streamed_stats = stream.stats();

    assert_eq!(tree.rows, streamed.len(), "root rows == rows the stream yields");
    assert_eq!(tree.rows, explained.stats.rows_output);
    let filter = &tree.children[0];
    assert_eq!(filter.label, "filter");
    let join = &filter.children[0];
    assert!(join.label.starts_with("nested-loop join"), "{}", join.label);
    assert_eq!(join.rows, streamed_stats.rows_scanned, "join rows == streamed rows_scanned");
    assert_eq!(join.rows, explained.stats.rows_scanned);
    // The scan leaf feeds the join one row per binding: with a single
    // source the counts are identical.
    let scan = &join.children[0];
    assert_eq!(scan.rows, join.rows, "single-source join passes scan rows through");
    // And the two executions agree on the §6 cost counters.
    assert_eq!(streamed_stats.rows_output, streamed.len());
}

#[test]
fn streaming_limit_early_exits_and_bounds_memory() {
    // A many-version document: LIMIT 1 must stop the scan after the
    // first match, and the stream's buffered-row high-water mark must
    // not grow with the result size.
    let db = Database::in_memory();
    for v in 0..40u64 {
        let xml = format!(
            "<log>{}</log>",
            (0..5).map(|k| format!("<e><n>v{v}e{k}</n></e>")).collect::<String>()
        );
        db.put("big/log", &xml, ts(v)).unwrap();
    }
    let q = r#"SELECT R/n FROM doc("big/log")[EVERY]//e R"#;

    // Full streamed drain: 40 versions × 5 elements.
    let mut full = db.query(q).at(ts(1000)).stream().unwrap();
    let all: Vec<_> = (&mut full).collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(all.len(), 200);
    let full_peak = full.peak_rows_buffered();
    // The exhausted stream published its peak to the registry.
    let gauge = db.metrics().snapshot().gauge("exec.peak_rows_buffered");
    assert_eq!(gauge, Some(full_peak as u64), "gauge must report the stream's peak");

    // LIMIT 1: one row out, scan work cut short.
    let mut one = db.query(q).at(ts(1000)).limit(1).stream().unwrap();
    let first: Vec<_> = (&mut one).collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0], all[0], "limit yields the same first row");
    let one_stats = one.stats();
    assert!(
        one_stats.rows_scanned < 200,
        "LIMIT 1 must not scan the full expansion: {one_stats:?}"
    );
    assert!(
        one_stats.reconstructions <= 1,
        "LIMIT 1 reconstructs at most the version it returns: {one_stats:?}"
    );
    // The bounded-memory claim: the peak is dominated by per-document
    // candidate state, not by the 200-row result.
    assert!(full_peak < all.len(), "peak {full_peak} must stay below the result size");
    assert!(one.peak_rows_buffered() <= full_peak);
}
