//! The benchmark must be repeatable before it can gate anything: the
//! same seed gives the same operation lists and the same exact counts,
//! another seed gives other lists, and `BENCHMARK.json` describes exactly
//! the metrics and workloads the harness reports.

use std::path::PathBuf;

use txbench::harness::report::{MetricDef, END_TO_END, PER_LAYER};
use txbench::harness::workload::{self, Feed, Plan, WORKLOADS};
use txbench::harness::{self, traced};
use txdb_client::json::Json;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

#[test]
fn same_seed_same_lists_other_seed_other_lists() {
    for name in WORKLOADS {
        let spec = workload::spec(name).expect("known workload").quick();
        let (a, b) = (Plan::new(spec.clone(), 7, 3), Plan::new(spec.clone(), 7, 3));
        assert_eq!(a.queries, b.queries, "{name}: query list repeats");
        assert_eq!(a.put_docs, b.put_docs, "{name}: put order repeats");
        assert_eq!(a.mixed_docs, b.mixed_docs, "{name}: mixed order repeats");
        let c = Plan::new(spec.clone(), 8, 3);
        assert_ne!(a.queries, c.queries, "{name}: another seed asks other questions");
        assert_ne!(a.put_docs, c.put_docs, "{name}: another seed writes in another order");

        // The version stream repeats (and does not depend on the seed).
        let (mut f, mut g) = (Feed::new(&spec), Feed::new(&spec));
        assert_eq!(f.setup_puts(&spec), g.setup_puts(&spec), "{name}: corpus repeats");
        assert_eq!(f.next_put(1), g.next_put(1), "{name}: the stream continues identically");
    }
}

#[test]
fn every_seed_asks_for_the_same_histogram() {
    // Stratified draws: the seed permutes and pairs, it does not change
    // how often a document rank or a query shape is asked for.
    let spec = workload::spec("snap_hot").expect("known workload").quick();
    let shape_counts = |seed| {
        let p = Plan::new(spec.clone(), seed, 3);
        let mut per_rank = vec![0usize; spec.docs];
        for q in &p.queries {
            per_rank[q.doc] += 1;
        }
        per_rank
    };
    let (a, b) = (shape_counts(1), shape_counts(2));
    for (x, y) in a.iter().zip(&b) {
        assert!(x.abs_diff(*y) <= 4, "rank frequencies differ: {a:?} vs {b:?}");
    }
    assert!(a[0] > a[a.len() - 1], "Zipf: the top rank is asked for most");
}

#[test]
fn exact_counts_repeat_across_runs() {
    let spec = || workload::spec("snap_cold").expect("known workload").quick();
    let dir = scratch("e2e");
    let a = harness::end_to_end(spec(), 3, 4, &dir).expect("first run");
    let b = harness::end_to_end(spec(), 3, 4, &dir).expect("second run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((a.failed, b.failed), (0, 0), "no failed operations");
    assert_eq!(a.attempted, b.attempted);
    // User bytes are exact; the file is not: B-tree insertion order in
    // index maintenance follows `HashMap` iteration order, so the same
    // puts can take a few pages more or less from run to run.
    let (x, y) = (a.metrics["stored_bytes_per_user_byte"], b.metrics["stored_bytes_per_user_byte"]);
    assert!((x - y).abs() / x < 0.05, "stored bytes repeat within a few pages: {x} vs {y}");
    for (p, q) in a.phases.iter().zip(&b.phases) {
        assert_eq!(p.rows_per_round, q.rows_per_round, "{}: rows returned repeat", p.name);
        assert_eq!(p.tally, q.tally);
    }
    for d in &END_TO_END {
        assert!(a.metrics[d.name] > 0.0, "{} is never 0", d.name);
    }

    let (dir, out) = (scratch("traced"), scratch("traced-out"));
    let a = traced::per_layer(spec(), 3, 4, &dir, &out).expect("first traced run");
    let b = traced::per_layer(spec(), 3, 4, &dir, &out).expect("second traced run");
    let trace = std::fs::read_to_string(out.join("trace-snap_cold.json")).expect("trace file");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!((a.failed, b.failed), (0, 0), "no failed operations");
    for exact in [
        "storage.deltas_applied_per_reconstruct",
        "storage.buffer.gets_per_query",
        "storage.wal.bytes_per_user_byte",
        "index.fti.postings_per_lookup",
        "query.rows_scanned_per_row_output",
    ] {
        assert_eq!(a.metrics[exact], b.metrics[exact], "{exact} is an exact count");
    }
    // Byte counts that pass through the diff or the index blob follow
    // `HashMap` iteration order, like the file size above: the same two
    // trees can diff into edit scripts of different sizes (seen: 2.3%
    // apart on this small corpus).
    for nearly in ["index.checkpoint_bytes", "delta.encoded_bytes_per_user_byte"] {
        let (x, y) = (a.metrics[nearly], b.metrics[nearly]);
        assert!((x - y).abs() / x < 0.10, "{nearly} repeats within 10%: {x} vs {y}");
    }
    for d in &PER_LAYER {
        assert!(a.metrics.contains_key(d.name), "{} is reported", d.name);
    }
    // `per_layer` has already checked the span invariants (child inside
    // parent, self times summing to the root); the file must carry spans.
    let trace = Json::parse(&trace).expect("trace file is JSON");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("op.query")));
    assert!(spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("op.put")));
    assert!(spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("op.wire_query")));
}

fn listed(json: &Json, section: &str) -> Vec<(String, String, String, Option<f64>)> {
    let entries = json.get(section).and_then(Json::as_arr).expect("section");
    entries
        .iter()
        .map(|e| {
            let text = |k| e.get(k).and_then(Json::as_str).expect("string field").to_string();
            (text("name"), text("unit"), text("better"), e.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string(), d.bound))
        .collect()
}

#[test]
fn benchmark_json_describes_this_harness() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    assert_eq!(listed(&json, "end_to_end"), defined(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), defined(&PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(json.get("paths").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
}
