//! Shared infrastructure for the `experiments` binary: twin-database
//! builders (temporal engine + stratum baseline over the same update
//! stream), timing helpers and table formatting. End-to-end and
//! per-layer performance is measured by `txbench`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use txdb_base::Timestamp;
use txdb_core::{Database, DbOptions};
use txdb_stratum::StratumDb;
use txdb_wgen::restaurant::RestaurantGuide;
use txdb_wgen::tdocgen::{DocGen, DocGenConfig};

/// The temporal engine and the stratum baseline loaded with the *same*
/// version stream.
pub struct TwinDb {
    /// The paper's system.
    pub temporal: Database,
    /// The §1 baseline.
    pub stratum: StratumDb,
    /// Commit timestamps of every stored version round.
    pub times: Vec<Timestamp>,
}

/// Build parameters for the restaurant-guide workload.
#[derive(Clone, Copy, Debug)]
pub struct GuideParams {
    /// Number of guide documents.
    pub docs: usize,
    /// Restaurants per guide.
    pub restaurants: usize,
    /// Versions per document (beyond the initial one).
    pub versions: usize,
    /// Changes per version.
    pub changes: usize,
    /// Snapshot policy for the temporal store.
    pub snapshot_every: Option<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GuideParams {
    fn default() -> Self {
        GuideParams {
            docs: 10,
            restaurants: 25,
            versions: 16,
            changes: 3,
            snapshot_every: None,
            seed: 1,
        }
    }
}

/// The base timestamp all workloads start at.
pub fn t0() -> Timestamp {
    Timestamp::from_date(2001, 1, 1)
}

/// A timestamp `n` steps (hours) after [`t0`].
pub fn step_ts(n: u64) -> Timestamp {
    t0() + txdb_base::Duration::from_hours(n)
}

/// The [`DbOptions`] every twin builder opens the temporal side with.
fn twin_options(snapshot_every: Option<u32>) -> DbOptions {
    let mut opts = DbOptions::new();
    if let Some(k) = snapshot_every {
        opts = opts.snapshot_every(k);
    }
    opts
}

/// Builds the twin databases over the restaurant workload.
#[allow(clippy::explicit_counter_loop)]
pub fn build_guides(p: GuideParams) -> TwinDb {
    let temporal = twin_options(p.snapshot_every).open().expect("open");
    let mut stratum = StratumDb::new();
    let mut gens: Vec<RestaurantGuide> =
        (0..p.docs).map(|i| RestaurantGuide::new(p.restaurants, p.seed + i as u64)).collect();
    let mut times = Vec::new();
    let mut step = 0u64;
    for round in 0..=p.versions {
        let ts = step_ts(step);
        for (i, g) in gens.iter_mut().enumerate() {
            let xml = if round == 0 { g.xml() } else { g.step(p.changes) };
            let url = format!("guide{i}.example.org/restaurants");
            temporal.put(&url, &xml, ts).expect("put");
            stratum.put(&url, &xml, ts).expect("put");
        }
        times.push(ts);
        step += 1;
    }
    TwinDb { temporal, stratum, times }
}

/// Build parameters for the TDocGen workload.
#[derive(Clone, Debug)]
pub struct TdocParams {
    /// Number of documents.
    pub docs: usize,
    /// Versions per document (beyond the initial one).
    pub versions: usize,
    /// Generator shape.
    pub cfg: DocGenConfig,
    /// RNG seed.
    pub seed: u64,
    /// Snapshot policy.
    pub snapshot_every: Option<u32>,
}

impl Default for TdocParams {
    fn default() -> Self {
        TdocParams {
            docs: 5,
            versions: 20,
            cfg: DocGenConfig::default(),
            seed: 7,
            snapshot_every: None,
        }
    }
}

/// Builds the twin databases over the TDocGen workload.
#[allow(clippy::explicit_counter_loop)]
pub fn build_tdocs(p: &TdocParams) -> TwinDb {
    let temporal = twin_options(p.snapshot_every).open().expect("open");
    let mut stratum = StratumDb::new();
    let mut gens: Vec<DocGen> =
        (0..p.docs).map(|i| DocGen::new(p.cfg.clone(), p.seed + i as u64)).collect();
    let mut times = Vec::new();
    let mut step = 0u64;
    for round in 0..=p.versions {
        let ts = step_ts(step);
        for (i, g) in gens.iter_mut().enumerate() {
            let xml = if round == 0 { g.xml() } else { g.step() };
            let url = format!("tdoc{i}.example.org/doc");
            temporal.put(&url, &xml, ts).expect("put");
            stratum.put(&url, &xml, ts).expect("put");
        }
        times.push(ts);
        step += 1;
    }
    TwinDb { temporal, stratum, times }
}

/// Times `f` over `iters` runs, returning mean microseconds. A warm-up
/// run precedes measurement.
pub fn time_us<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64
}

/// Prints a table row with fixed column widths.
pub fn row(cols: &[String]) {
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<18}"));
        } else {
            line.push_str(&format!("{c:>14}"));
        }
    }
    println!("  {line}");
}

/// Prints a table header row plus a rule.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n{title}");
    row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("  {}", "-".repeat(18 + 14 * (cols.len().saturating_sub(1))));
}

/// Formats a float with 1 decimal.
pub fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats bytes as KiB with 1 decimal.
pub fn kib(v: u64) -> String {
    format!("{:.1}", v as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_builders_agree_on_version_counts() {
        let twin = build_guides(GuideParams {
            docs: 2,
            restaurants: 5,
            versions: 4,
            ..Default::default()
        });
        let t_docs = twin.temporal.store().list().unwrap();
        assert_eq!(t_docs.len(), 2);
        assert_eq!(twin.stratum.doc_count(), 2);
        // Same number of stored versions on both sides (unchanged puts are
        // skipped identically).
        let t_versions: usize =
            t_docs.iter().map(|(d, _)| twin.temporal.store().versions(*d).unwrap().len()).sum();
        assert_eq!(t_versions, twin.stratum.version_count());
        assert_eq!(twin.times.len(), 5);
    }

    #[test]
    fn tdoc_builder_works() {
        let twin = build_tdocs(&TdocParams {
            docs: 2,
            versions: 3,
            cfg: DocGenConfig { items: 5, ..Default::default() },
            ..Default::default()
        });
        assert_eq!(twin.temporal.store().list().unwrap().len(), 2);
    }

    #[test]
    fn timing_positive() {
        let us = time_us(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(us >= 0.0);
    }
}
