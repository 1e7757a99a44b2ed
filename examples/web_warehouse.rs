//! An XML web warehouse (the paper's Xyleme setting, §3.1 case 2).
//!
//! A simulated crawler feeds the database: pages change on their own
//! schedule, the crawler observes them with jitter, misses versions and
//! notices deletions late. The warehouse then answers temporal queries —
//! including change-oriented ones via the delta-content index — over the
//! *crawl-time* history, which is all it has.
//!
//! ```sh
//! cargo run --example web_warehouse
//! ```

use temporal_xml::core::DbOptions;
use temporal_xml::index::deltaindex::{ChangeOp, DeltaContentIndex};
use temporal_xml::wgen::crawler::{simulate, CrawlConfig, CrawlKind};
use temporal_xml::wgen::tdocgen::DocGen;
use temporal_xml::{Duration, Interval, QueryExt, Timestamp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = DbOptions::new().open()?;

    // Crawl 8 sites for ~3 weeks.
    let start = Timestamp::from_date(2001, 3, 1);
    let cfg = CrawlConfig {
        pages: 8,
        page_change_every: Duration::from_hours(8),
        crawl_every: Duration::from_days(1),
        death_prob: 0.02,
        horizon: Duration::from_days(21),
        ..Default::default()
    };
    let (events, true_versions) = simulate(&cfg, start, 2001);

    println!("== feeding {} crawl events into the warehouse ==", events.len());
    let mut stored = 0usize;
    let mut removed = 0usize;
    for e in &events {
        match &e.kind {
            CrawlKind::Content(xml) => {
                let r = db.put(&e.url, xml, e.crawled_at)?;
                if r.changed {
                    stored += 1;
                }
            }
            CrawlKind::Gone => {
                db.delete(&e.url, e.crawled_at)?;
                removed += 1;
            }
        }
    }
    let observed: usize = stored;
    let truth: usize = true_versions.iter().sum();
    println!(
        "  stored {observed} versions ({removed} deletions observed); \
         sites actually produced {truth} versions — the crawler missed {}",
        truth - observed
    );

    // Snapshot of the whole collection one week in.
    let now = start + Duration::from_days(30);
    let probe = start + Duration::from_days(7);
    let r = db
        .query(format!(r#"SELECT COUNT(R) FROM doc("*")[{}]//item R"#, probe.micros()))
        .at(now)
        .run()?;
    println!(
        "\n== warehouse-wide snapshot, day 7 ==\n  items visible: {}  (reconstructions: {})",
        r.rows[0][0].as_text(),
        r.stats.reconstructions
    );

    // Track one popular word across the whole history.
    let word = DocGen::word_at_rank(0);
    let r = db
        .query(format!(r#"SELECT COUNT(R) FROM doc("*")[EVERY]//text R WHERE R CONTAINS "{word}""#))
        .at(now)
        .run()?;
    println!(
        "\n== occurrences of the most common word `{word}` over all versions ==\n  rows: {}",
        r.rows[0][0].as_text()
    );

    // Change-oriented query via the delta-content index (§7.2, second
    // alternative), built from the stored deltas: in which versions was an
    // <item> deleted?
    let di = DeltaContentIndex::build(db.store())?;
    let deletions = di.find("item", Some(ChangeOp::Delete));
    println!(
        "\n== delta-content index: versions that deleted an <item> ==\n  {} delete events",
        deletions.len()
    );

    // Per-document history inspection for the busiest page.
    let (busiest, _) = db
        .store()
        .list()?
        .into_iter()
        .map(|(d, n)| (d, n.clone()))
        .max_by_key(|(d, _)| db.store().versions(*d).map(|v| v.len()).unwrap_or(0))
        .expect("some documents");
    let name = db.store().doc_name(busiest)?;
    let versions = db.store().versions(busiest)?;
    println!("\n== busiest page: {name} with {} versions ==", versions.len());
    let history = db.doc_history(busiest, Interval::ALL)?;
    for dv in history.iter().take(3) {
        println!("  v{} @ {}: {} nodes", dv.version.0, dv.ts, dv.tree.len());
    }

    // Index footprints (the E7 trade-off, §7.2).
    let fti = db.indexes().fti();
    println!(
        "\n== index sizes ==\n  temporal FTI: {} postings (~{} KiB)\n  delta index:  {} entries (~{} KiB)",
        fti.posting_count(),
        fti.approx_bytes() / 1024,
        di.entry_count(),
        di.approx_bytes() / 1024,
    );

    Ok(())
}
