//! The benchmark harness: workloads, phases, answer checking, the
//! traced per-layer pass and reporting. `src/main.rs` is only the
//! command line around [`end_to_end`] and [`traced::per_layer`].

pub mod oracle;
pub mod phases;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workload;

use std::path::Path;

use txdb_client::json::Json;

use phases::{PhaseResult, Run};
use report::Metrics;
use workload::{Residency, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Close + open pairs per untraced run; `reopen_ms` is the fastest.
pub const REOPENS: usize = 15;

/// What one run produced.
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Operations failed over all phases.
    pub failed: u64,
    /// The run envelope.
    pub envelope: Json,
    /// Per-phase results, for tests and the human-readable report.
    pub phases: Vec<PhaseResult>,
}

/// Checks the residency a workload promises against the loaded store.
pub fn check_residency(spec: &Spec, stored_bytes: u64) -> Result<(), String> {
    let (pool, vcache) = spec.cache_capacity_bytes();
    let (pool, vcache) = (pool as u64, vcache as u64);
    match spec.residency {
        Residency::Hot if stored_bytes > pool.min(vcache) => Err(format!(
            "{}: {stored_bytes} stored bytes do not fit the buffer pool ({pool}) and the version cache ({vcache})",
            spec.name
        )),
        Residency::Cold if stored_bytes < 4 * (pool + vcache) => Err(format!(
            "{}: {stored_bytes} stored bytes are under 4 x (buffer pool {pool} + version cache {vcache})",
            spec.name
        )),
        _ => Ok(()),
    }
}

/// An untraced run: set-up, reopen, query, wire, put and mixed phases,
/// producing every end-to-end metric.
pub fn end_to_end(spec: Spec, seed: u64, seconds: u64, base: &Path) -> Result<Outcome, String> {
    let rounds = workload::rounds_for(seconds);
    let mut run = Run::start(spec, seed, rounds, base, SETUPS);
    check_residency(&run.plan.spec, run.stored_bytes)?;
    let reopen_ms = run.reopen(REOPENS);
    let (query, facts) = run.query_phase();
    let wire = run.wire_phase(&facts);
    let put = run.put_phase();
    let mixed = run.mixed_phase();

    let mut m = Metrics::new();
    m.insert("setup_s", stats::median(&run.setup_secs));
    m.insert("query_per_s", query.per_s());
    m.insert("query_p50_us", query.percentile_us(0.50));
    m.insert("query_p95_us", query.percentile_us(0.95));
    m.insert("wire_query_per_s", wire.per_s());
    m.insert("wire_query_p95_us", wire.percentile_us(0.95));
    m.insert("put_per_s", put.per_s());
    m.insert("put_p50_us", put.percentile_us(0.50));
    m.insert("put_p95_us", put.percentile_us(0.95));
    m.insert("mixed_ops_per_s", mixed.per_s());
    // Identical close + open pairs: the least disturbed one.
    m.insert("reopen_ms", reopen_ms.iter().copied().fold(f64::INFINITY, f64::min));
    m.insert("stored_bytes_per_user_byte", run.stored_bytes as f64 / run.setup_user_bytes as f64);

    let phases = vec![query, wire, put, mixed];
    let attempted = phases.iter().map(|p| p.tally.attempted).sum();
    let failed = phases.iter().map(|p| p.tally.failed).sum();
    let envelope = report::envelope(&run, seconds, false, &phases.iter().collect::<Vec<_>>());
    drop(run);
    Ok(Outcome { metrics: m, attempted, failed, envelope, phases })
}
