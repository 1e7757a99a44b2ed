//! Differential testing: the temporal engine against the stratum oracle.
//!
//! The stratum baseline stores every version complete and evaluates
//! pattern queries by scanning and tree-matching — no deltas, no FTI, no
//! version ranges. On any workload, both systems must agree on snapshot
//! counts, all-version counts and history selections. Randomized (seeded)
//! workloads drive both systems through the same update stream and compare
//! at many probe times.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temporal_xml::stratum::StratumDb;
use temporal_xml::wgen::restaurant::RestaurantGuide;
use temporal_xml::wgen::tdocgen::{DocGen, DocGenConfig};
use temporal_xml::xml::pattern::{PatternNode, PatternTree};
use temporal_xml::{Database, Interval, Timestamp};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(1_000_000 + n * 60)
}

/// Counts matches of the temporal engine at time t (index path).
fn temporal_count_at(db: &Database, pattern: &PatternTree, t: Timestamp) -> usize {
    db.tpattern_scan(None, pattern, t).unwrap().len()
}

/// Counts matches across all versions (index path).
fn temporal_count_all(db: &Database, pattern: &PatternTree) -> usize {
    db.tpattern_scan_all(None, pattern).unwrap().len()
}

/// Counts matches of the stratum at time t.
fn stratum_count_at(s: &StratumDb, pattern: &PatternTree, t: Timestamp) -> usize {
    s.count_at(pattern, t).0
}

fn stratum_count_all(s: &StratumDb, pattern: &PatternTree) -> usize {
    s.pattern_all(pattern).0.iter().map(|m| m.subtrees.len()).sum()
}

/// Projected nodes per (document name, version time) across all versions
/// (index path): which document and version each match belongs to.
fn temporal_all_by_version(
    db: &Database,
    pattern: &PatternTree,
) -> BTreeMap<(String, Timestamp), usize> {
    let projected = pattern.projected().len();
    let mut out = BTreeMap::new();
    for m in db.tpattern_scan_all(None, pattern).unwrap() {
        *out.entry((db.store().doc_name(m.doc).unwrap(), m.ts)).or_default() += projected;
    }
    out
}

fn stratum_all_by_version(
    s: &StratumDb,
    pattern: &PatternTree,
) -> BTreeMap<(String, Timestamp), usize> {
    let mut out = BTreeMap::new();
    for m in s.pattern_all(pattern).0 {
        *out.entry((m.url, m.ts)).or_default() += m.subtrees.len();
    }
    out
}

#[test]
fn restaurant_guide_agreement() {
    let db = Database::in_memory();
    let mut strat = StratumDb::new();
    let mut guide = RestaurantGuide::new(25, 42);

    let mut step = 0u64;
    let mut put_both = |xml: &str, step: u64| {
        db.put("guide", xml, ts(step)).unwrap();
        strat.put("guide", xml, ts(step)).unwrap();
    };
    put_both(&guide.xml(), step);
    for _ in 0..30 {
        step += 1;
        let xml = guide.step(3);
        put_both(&xml, step);
    }

    let patterns: Vec<PatternTree> = vec![
        PatternTree::new(PatternNode::tag("restaurant").project()),
        PatternTree::new(
            PatternNode::tag("restaurant").project().child(PatternNode::tag("name").word("napoli")),
        ),
        PatternTree::new(PatternNode::tag("guide").descendant(PatternNode::tag("price").project())),
        PatternTree::new(PatternNode::tag("restaurant").word("italian").project()),
    ];

    for p in &patterns {
        // Probe many instants, including between versions and out of range.
        for probe in 0..=32 {
            let t = ts(probe) + temporal_xml::Duration::from_secs(30);
            assert_eq!(
                temporal_count_at(&db, p, t),
                stratum_count_at(&strat, p, t),
                "snapshot mismatch at probe {probe}"
            );
        }
        assert_eq!(
            temporal_count_all(&db, p),
            stratum_count_all(&strat, p),
            "all-versions mismatch"
        );
    }
}

#[test]
fn tdocgen_agreement_with_churn() {
    let db = Database::in_memory();
    let mut strat = StratumDb::new();
    let cfg = DocGenConfig {
        items: 15,
        changes_per_version: 6,
        w_update: 4,
        w_insert: 3,
        w_delete: 3,
        vocabulary: 40,
        ..Default::default()
    };
    let mut gens: Vec<DocGen> = (0..4).map(|i| DocGen::new(cfg.clone(), 100 + i)).collect();

    let mut step = 0u64;
    for round in 0..12 {
        for (i, g) in gens.iter_mut().enumerate() {
            step += 1;
            let xml = if round == 0 { g.xml() } else { g.step() };
            let url = format!("doc{i}");
            db.put(&url, &xml, ts(step)).unwrap();
            strat.put(&url, &xml, ts(step)).unwrap();
        }
    }

    // Patterns over zipf words: common head word, mid word, structural.
    let patterns: Vec<PatternTree> = vec![
        PatternTree::new(
            PatternNode::tag("item")
                .project()
                .child(PatternNode::tag("text").word(DocGen::word_at_rank(0))),
        ),
        PatternTree::new(
            PatternNode::tag("item")
                .project()
                .child(PatternNode::tag("text").word(DocGen::word_at_rank(10))),
        ),
        PatternTree::new(PatternNode::tag("doc").child(PatternNode::tag("item").project())),
        PatternTree::new(PatternNode::tag("kind").word("review").project()),
    ];

    for p in &patterns {
        for probe in [1u64, 5, 13, 25, 37, 48, 60] {
            let t = ts(probe) + temporal_xml::Duration::from_secs(10);
            assert_eq!(
                temporal_count_at(&db, p, t),
                stratum_count_at(&strat, p, t),
                "snapshot mismatch at probe {probe} for {p:?}"
            );
        }
        assert_eq!(
            temporal_count_all(&db, p),
            stratum_count_all(&strat, p),
            "all-versions mismatch for {p:?}"
        );
        assert_eq!(
            temporal_all_by_version(&db, p),
            stratum_all_by_version(&strat, p),
            "per-version mismatch for {p:?}"
        );
    }
}

#[test]
fn deletions_and_resurrections_agree() {
    let db = Database::in_memory();
    let mut strat = StratumDb::new();
    let mut rng = StdRng::seed_from_u64(77);

    let p = PatternTree::new(PatternNode::tag("entry").project());
    let mut step = 0u64;
    let mut alive = [false; 3];
    for round in 0..25 {
        let i = rng.gen_range(0..3usize);
        step += 1;
        let url = format!("page{i}");
        if alive[i] && rng.gen_bool(0.3) {
            db.delete(&url, ts(step)).unwrap();
            strat.delete(&url, ts(step)).unwrap();
            alive[i] = false;
        } else {
            let n = rng.gen_range(1..5);
            let xml = format!(
                "<page>{}</page>",
                (0..n).map(|k| format!("<entry><v>r{round}k{k}</v></entry>")).collect::<String>()
            );
            db.put(&url, &xml, ts(step)).unwrap();
            strat.put(&url, &xml, ts(step)).unwrap();
            alive[i] = true;
        }
    }

    for probe in 0..=26u64 {
        let t = ts(probe) + temporal_xml::Duration::from_secs(10);
        assert_eq!(temporal_count_at(&db, &p, t), stratum_count_at(&strat, &p, t), "probe {probe}");
    }
    assert_eq!(temporal_all_by_version(&db, &p), stratum_all_by_version(&strat, &p));
}

#[test]
fn doc_history_selection_agrees() {
    let db = Database::in_memory();
    let mut strat = StratumDb::new();
    for i in 0..10u64 {
        let xml = format!("<a><v>{i}</v></a>");
        db.put("d", &xml, ts(i * 10)).unwrap();
        strat.put("d", &xml, ts(i * 10)).unwrap();
    }
    let doc = db.store().doc_id("d").unwrap().unwrap();
    for (a, b) in [(0u64, 100u64), (5, 25), (10, 11), (95, 200), (200, 300), (0, 1)] {
        let iv = Interval::new(ts(a), ts(b));
        let th = db.doc_history(doc, iv).unwrap();
        let sh = strat.doc_history("d", iv);
        assert_eq!(th.len(), sh.len(), "interval [{a},{b})");
        for (x, y) in th.iter().zip(&sh) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(
                temporal_xml::xml::to_string(&x.tree),
                temporal_xml::xml::to_string(&y.tree)
            );
        }
    }
}

/// The streaming cursor against the materialising executor: for any
/// (seeded random) workload and query, `stream()` must yield exactly the
/// rows `run()` materialises, in the same order — and a `.limit(n)`
/// stream must yield exactly the first `n` of them.
#[test]
fn stream_equals_run_on_random_workloads() {
    use temporal_xml::QueryExt;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for trial in 0..8u64 {
        let db = Database::in_memory();
        let docs = 1 + rng.gen_range(0..3) as usize;
        let mut step = 0u64;
        for d in 0..docs {
            let versions = 1 + rng.gen_range(0..5) as usize;
            for _ in 0..versions {
                step += 1;
                let n = 1 + rng.gen_range(0..6) as usize;
                let xml = format!(
                    "<shop>{}</shop>",
                    (0..n)
                        .map(|k| format!(
                            "<item><name>n{}</name><price>{}</price></item>",
                            rng.gen_range(0..4),
                            10 + k
                        ))
                        .collect::<String>()
                );
                db.put(&format!("doc{d}"), &xml, ts(step)).unwrap();
            }
        }
        let probe = ts(step + 1);
        let queries = [
            r#"SELECT R/name FROM doc("*")//item R"#.to_string(),
            r#"SELECT R/name, R/price FROM doc("*")[EVERY]//item R"#.to_string(),
            format!(r#"SELECT R/price FROM doc("*")[{}]//item R"#, ts(step).micros()),
            r#"SELECT TIME(R) FROM doc("*")[EVERY]//item R WHERE R/name = "n1""#.to_string(),
            r#"SELECT COUNT(*) FROM doc("*")[EVERY]//item R"#.to_string(),
            r#"SELECT DISTINCT R/name FROM doc("*")//item R"#.to_string(),
            r#"SELECT R1/name FROM doc("doc0")//item R1, doc("*")//item R2
               WHERE R1/price < R2/price"#
                .to_string(),
            r#"SELECT R/name FROM doc("*")[EVERY]//item R LIMIT 3"#.to_string(),
        ];
        for q in &queries {
            let ran = db.query(q).at(probe).run().unwrap();
            let streamed: Vec<_> =
                db.query(q).at(probe).stream().unwrap().collect::<Result<Vec<_>, _>>().unwrap();
            assert_eq!(ran.rows, streamed, "trial {trial}: {q}");
            // A limit-k stream is a strict prefix of the full result.
            let k = 1 + (trial as usize % 2);
            let limited: Vec<_> = db
                .query(q)
                .at(probe)
                .limit(k)
                .stream()
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let expect: Vec<_> = ran.rows.iter().take(k).cloned().collect();
            assert_eq!(limited, expect, "trial {trial} limit {k}: {q}");
        }
    }
}
