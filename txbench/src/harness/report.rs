//! Metric names, units and bounds — the single list `BENCHMARK.json`,
//! the README and the output are checked against — and the run envelope.

use std::collections::BTreeMap;

use txdb_client::json::Json;

use super::phases::{PhaseResult, Run};
use super::stats;
use super::workload::PAGE_BYTES;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics are never gated).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported on every workload by an untraced run.
///
/// Bounds are what the reference host supports, not what one would wish
/// for: it is a 2-vCPU microVM whose speed drifts by 10–30% for minutes
/// at a time (no steal time shows; see README, "Steadiness"), and over
/// ten runs the quartiles of a timing sit 2–10% of the median apart. A
/// bound is three times the largest such spread seen on any workload,
/// capped at the 25% the driver allows. Stored bytes repeat to within a
/// few pages.
pub const END_TO_END: [MetricDef; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p95_us", "us", Lower, 0.25),
    e2e("wire_query_per_s", "1/s", Higher, 0.25),
    e2e("wire_query_p95_us", "us", Lower, 0.25),
    e2e("put_per_s", "1/s", Higher, 0.25),
    e2e("put_p50_us", "us", Lower, 0.25),
    e2e("put_p95_us", "us", Lower, 0.25),
    e2e("mixed_ops_per_s", "1/s", Higher, 0.25),
    e2e("reopen_ms", "ms", Lower, 0.15),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.03),
];

/// The per-layer metrics, reported on every workload by a traced run.
pub const PER_LAYER: [MetricDef; 46] = [
    layer("xml.parse_us_per_kb", "us/KiB", Lower),
    layer("xml.serialize_us_per_kb", "us/KiB", Lower),
    layer("delta.diff_us_per_put", "us", Lower),
    layer("delta.apply_us_per_delta", "us", Lower),
    layer("delta.encoded_bytes_per_user_byte", "ratio", Lower),
    layer("storage.put_tree_us", "us", Lower),
    layer("storage.version_tree_us", "us", Lower),
    layer("storage.deltas_applied_per_reconstruct", "count", Lower),
    layer("storage.buffer.gets_per_query", "count", Lower),
    layer("storage.buffer.physical_reads_per_query", "count", Lower),
    layer("storage.buffer.hit_ratio", "ratio", Higher),
    layer("storage.vcache.hit_ratio", "ratio", Higher),
    layer("storage.wal.bytes_per_user_byte", "ratio", Lower),
    layer("storage.checkpoint_ms", "ms", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.wal.fsyncs_per_commit", "count", Lower),
    layer("storage.wal.fsync_us_p50", "us", Lower),
    layer("index.fti.lookup_us", "us", Lower),
    layer("index.fti.lookup_t_us", "us", Lower),
    layer("index.fti.lookup_h_us", "us", Lower),
    layer("index.fti.postings_per_lookup", "count", Lower),
    layer("index.on_put_us", "us", Lower),
    layer("index.checkpoint_bytes", "bytes", Lower),
    layer("index.checkpoint_load_ms", "ms", Lower),
    layer("core.tpattern_scan_us", "us", Lower),
    layer("core.reconstruct_us", "us", Lower),
    layer("core.tpattern_scan_all_us", "us", Lower),
    layer("core.doc_history_us", "us", Lower),
    layer("core.cre_time_us", "us", Lower),
    layer("core.read_scaling_2t", "ratio", Higher),
    layer("query.parse_us", "us", Lower),
    layer("query.plan_us", "us", Lower),
    layer("query.exec_us", "us", Lower),
    layer("query.rows_scanned_per_row_output", "ratio", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.cmd_query_us_mean", "us", Lower),
    layer("server.us_per_row", "us", Lower),
    layer("client.json_decode_us_per_row", "us", Lower),
    layer("server.traced_query_per_s", "1/s", Higher),
    layer("server.trace_overhead_ratio", "ratio", Lower),
    layer("process.peak_rss_mb", "MiB", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("trace.query.storage_delta_share", "ratio", Lower),
    layer("trace.wire.per_row_share", "ratio", Lower),
    layer("trace.put.writer_spans_over_put", "ratio", Lower),
    layer("trace.clamped_spans", "count", Lower),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The final line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every metric of `defs` present with its unit.
pub fn result_line(defs: &[MetricDef], values: &Metrics, attempted: u64, failed: u64) -> String {
    let metrics = defs
        .iter()
        .map(|d| {
            let v = *values.get(d.name).unwrap_or_else(|| panic!("metric {} not measured", d.name));
            assert!(v.is_finite(), "metric {} is not finite", d.name);
            let body = Json::obj([
                Json::field("value", Json::Num(v)),
                Json::field("unit", Json::str(d.unit)),
            ]);
            (d.name.to_string(), body)
        })
        .collect();
    Json::obj([
        Json::field("correct", Json::Bool(failed == 0)),
        Json::field("attempted", Json::u64(attempted.max(1))),
        Json::field("failed", Json::u64(failed)),
        Json::field("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// Prints every metric of `defs` by name with its unit (and bound).
pub fn print_metrics(defs: &[MetricDef], values: &Metrics) {
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(f64::NAN);
        match d.bound {
            Some(b) => println!(
                "  {:<42} {:>16.4} {:<7} ({} is better, bound {:.1}%)",
                d.name,
                v,
                d.unit,
                d.better.as_str(),
                b * 100.0
            ),
            None => println!("  {:<42} {:>16.4} {}", d.name, v, d.unit),
        }
    }
}

/// The commit of the checkout, read from `.git` without spawning a
/// process; "unknown" outside a git repository (the driver's checkouts).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|s| s.trim().to_string()).ok(),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn phase_json(p: &PhaseResult) -> Json {
    let (min, med, max) = stats::min_median_max(&p.round_secs);
    Json::obj([
        Json::field("attempted", Json::u64(p.tally.attempted)),
        Json::field("failed", Json::u64(p.tally.failed)),
        Json::field("ops_per_round", Json::u64(p.ops_per_round as u64)),
        Json::field("rows_per_round", Json::u64(p.rows_per_round)),
        Json::field(
            "latency_samples_per_round",
            Json::u64(p.lat_us.first().map_or(0, Vec::len) as u64),
        ),
        Json::field("rounds", Json::u64(p.round_secs.len() as u64)),
        Json::field("round_s", Json::Arr(p.round_secs.iter().map(|s| Json::Num(*s)).collect())),
        Json::field("round_s_min", Json::Num(min)),
        Json::field("round_s_median", Json::Num(med)),
        Json::field("round_s_max", Json::Num(max)),
    ])
}

/// The run envelope: what was run, on what, with which engine options,
/// and how long every round took.
pub fn envelope(run: &Run, seconds: u64, traced: bool, phases: &[&PhaseResult]) -> Json {
    let spec = &run.plan.spec;
    let (pool_bytes, vcache_bytes) = spec.cache_capacity_bytes();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        Json::field("workload", Json::str(spec.name)),
        Json::field("commit", Json::str(commit())),
        Json::field("seed", Json::u64(run.plan.seed)),
        Json::field("seconds", Json::u64(seconds)),
        Json::field("traced", Json::Bool(traced)),
        Json::field("available_parallelism", Json::u64(cores as u64)),
        Json::field(
            "load",
            Json::str(
                "closed loop, 1 generator thread (+1 server session thread in the wire phase)",
            ),
        ),
        Json::field("wire_affinity", Json::str(run.wire_affinity.as_str())),
        Json::field(
            "engine",
            Json::obj([
                Json::field("buffer_pages", Json::u64(spec.buffer_pages as u64)),
                Json::field("page_bytes", Json::u64(PAGE_BYTES as u64)),
                Json::field("cache_bytes", Json::u64(spec.cache_bytes as u64)),
                Json::field(
                    "snapshot_every",
                    spec.snapshot_every.map_or(Json::Null, |k| Json::u64(u64::from(k))),
                ),
                Json::field("wal_sync", Json::Bool(false)),
            ]),
        ),
        Json::field(
            "corpus",
            Json::obj([
                Json::field("documents", Json::u64(spec.docs as u64)),
                Json::field("versions_per_document", Json::u64(spec.versions as u64 + 1)),
                Json::field("user_bytes", Json::u64(run.setup_user_bytes)),
                Json::field("stored_bytes", Json::u64(run.stored_bytes)),
                Json::field("buffer_pool_bytes", Json::u64(pool_bytes as u64)),
                Json::field("vcache_bytes", Json::u64(vcache_bytes as u64)),
            ]),
        ),
        Json::field("rounds_per_phase", Json::u64(run.rounds as u64 - 1)),
        Json::field("setup_s", Json::Arr(run.setup_secs.iter().map(|s| Json::Num(*s)).collect())),
        Json::field(
            "phases",
            Json::Obj(phases.iter().map(|p| (p.name.to_string(), phase_json(p))).collect()),
        ),
    ])
}
