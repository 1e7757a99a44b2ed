//! The four workloads: corpus shape, engine options, and the seeded
//! operation lists every phase replays.
//!
//! Everything here is a pure function of `(workload, seed)`. Choices are
//! drawn by *stratified* sampling (draw `i` of `n` takes the quantile
//! `(i + jitter) / n` of the distribution, then the draws are shuffled):
//! the seed changes which document meets which timestamp and in what
//! order, but every seed asks for the same histogram of documents,
//! version depths and query shapes — so the work in a list, and with it
//! every throughput figure, moves very little from seed to seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use txdb_base::{Duration, Timestamp};
use txdb_wgen::restaurant::RestaurantGuide;
use txdb_wgen::tdocgen::{DocGen, DocGenConfig};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["snap_hot", "snap_cold", "history_scan", "ingest_churn"];

/// The timestamp of global put number `n`: one hour per put from
/// 2001-01-01, never the wall clock, so every count repeats exactly.
pub fn step_ts(n: u64) -> Timestamp {
    Timestamp::from_date(2001, 1, 1) + Duration::from_hours(n)
}

/// The `NOW` anchor of every query (all queries name their time
/// explicitly; this only keeps the planner off the wall clock). Its
/// microseconds stay below 2^53, so the wire's JSON numbers carry it.
pub fn far_future() -> Timestamp {
    step_ts(1 << 20)
}

/// What the documents look like.
#[derive(Clone, Copy, Debug)]
pub enum Corpus {
    /// RestaurantGuide documents (`wgen::restaurant`).
    Guides {
        /// Restaurants per guide.
        restaurants: usize,
        /// Changes per version.
        changes: usize,
    },
    /// TDocGen documents (`wgen::tdocgen`).
    Tdocs {
        /// Items per document.
        items: usize,
        /// Changes per version.
        changes: usize,
    },
}

/// How documents are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DocSkew {
    /// Every document equally often.
    Uniform,
    /// Zipf(1.0) over the documents, document 0 the most popular.
    Zipf,
}

/// How snapshot instants are chosen within a document's history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeSkew {
    /// Every stored version equally often.
    Uniform,
    /// Zipf(1.0) over this many fixed instants per document, spread
    /// evenly over its history ("popular as-of dates").
    HotSet(usize),
    /// Zipf(1.0) over recency: rank 1 is the latest version.
    Recent(usize),
}

/// Which query shapes a workload issues.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// Snapshot queries over guides.
    Snapshot,
    /// `[EVERY]` queries over one guide at a time.
    History,
    /// Snapshot and current-version queries over TDocGen documents.
    Tdoc,
}

/// The cache residency a workload promises; checked, not assumed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Residency {
    /// Stored bytes must fit in the buffer pool and in the version cache.
    Hot,
    /// Stored bytes must be at least 4 × (buffer pool + version cache).
    Cold,
    /// No promise.
    Any,
}

/// One workload's sizes and engine options.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Document shape.
    pub corpus: Corpus,
    /// Number of documents.
    pub docs: usize,
    /// Versions per document loaded by set-up, beyond the first.
    pub versions: usize,
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// Materialized-version cache budget in bytes.
    pub cache_bytes: usize,
    /// Snapshot policy (§7.3.3).
    pub snapshot_every: Option<u32>,
    /// Document choice.
    pub doc_skew: DocSkew,
    /// Snapshot-instant choice.
    pub time_skew: TimeSkew,
    /// Query shapes.
    pub family: Family,
    /// Promised cache residency.
    pub residency: Residency,
    /// Length of the query list (shared by the query and wire phases).
    pub queries: usize,
    /// Passes over the query list per in-process round.
    pub query_passes: usize,
    /// Puts per round of the put phase.
    pub puts: usize,
    /// Groups (one put, four queries) per round of the mixed phase.
    pub mixed: usize,
}

/// Page size of the storage engine, for the residency arithmetic.
pub const PAGE_BYTES: usize = 4096;

/// The specification of a workload by name.
pub fn spec(name: &str) -> Option<Spec> {
    let guides = |restaurants, changes| Corpus::Guides { restaurants, changes };
    Some(match name {
        "snap_hot" => Spec {
            name: "snap_hot",
            corpus: guides(12, 2),
            docs: 120,
            versions: 40,
            buffer_pages: 4096,
            cache_bytes: 8 << 20,
            snapshot_every: None,
            doc_skew: DocSkew::Zipf,
            time_skew: TimeSkew::HotSet(4),
            family: Family::Snapshot,
            residency: Residency::Hot,
            queries: 12000,
            query_passes: 2,
            puts: 2400,
            mixed: 1500,
        },
        "snap_cold" => Spec {
            name: "snap_cold",
            corpus: guides(25, 3),
            docs: 16,
            versions: 200,
            buffer_pages: 48,
            // No version cache at all: every rebuild starts from the
            // current version, so what a query costs follows from how far
            // back it reads and not from what the previous queries left
            // behind (with a small cache a quarter of the rebuilds found
            // a seed, a different quarter for every seed).
            cache_bytes: 0,
            snapshot_every: None,
            doc_skew: DocSkew::Uniform,
            time_skew: TimeSkew::Uniform,
            family: Family::Snapshot,
            residency: Residency::Cold,
            queries: 400,
            query_passes: 1,
            puts: 1600,
            mixed: 1100,
        },
        "history_scan" => Spec {
            name: "history_scan",
            corpus: guides(25, 3),
            docs: 44,
            versions: 56,
            buffer_pages: 4096,
            cache_bytes: 8 << 20,
            snapshot_every: None,
            doc_skew: DocSkew::Uniform,
            time_skew: TimeSkew::Uniform,
            family: Family::History,
            residency: Residency::Any,
            queries: 200,
            query_passes: 1,
            puts: 480,
            mixed: 20,
        },
        "ingest_churn" => Spec {
            name: "ingest_churn",
            corpus: Corpus::Tdocs { items: 150, changes: 5 },
            docs: 16,
            versions: 24,
            buffer_pages: 4096,
            cache_bytes: 8 << 20,
            snapshot_every: Some(16),
            doc_skew: DocSkew::Uniform,
            time_skew: TimeSkew::Recent(8),
            family: Family::Tdoc,
            residency: Residency::Any,
            queries: 2000,
            query_passes: 1,
            puts: 400,
            mixed: 140,
        },
        _ => return None,
    })
}

impl Spec {
    /// The `--quick` variant: the same shapes at a fraction of the size
    /// (seconds per run; its numbers are not comparable with a full run).
    pub fn quick(mut self) -> Spec {
        self.docs = (self.docs / 4).max(4);
        self.versions = (self.versions / 4).max(8);
        self.queries = (self.queries / 10).max(40);
        self.puts = (self.puts / 10).max(40);
        self.mixed = (self.mixed / 10).max(10);
        self.query_passes = 1;
        self.residency = Residency::Any;
        self
    }

    /// The tag of the elements queries range over.
    pub fn element_tag(&self) -> &'static str {
        match self.corpus {
            Corpus::Guides { .. } => "restaurant",
            Corpus::Tdocs { .. } => "item",
        }
    }

    /// Bytes the two caches may hold, as configured.
    pub fn cache_capacity_bytes(&self) -> (usize, usize) {
        (self.buffer_pages * PAGE_BYTES, self.cache_bytes)
    }
}

enum Gen {
    Guide(Box<RestaurantGuide>, usize),
    Tdoc(Box<DocGen>),
}

impl Gen {
    fn next(&mut self, first: bool) -> String {
        match (self, first) {
            (Gen::Guide(g, _), true) => g.xml(),
            (Gen::Guide(g, changes), false) => g.step(*changes),
            (Gen::Tdoc(g), true) => g.xml(),
            (Gen::Tdoc(g), false) => g.step(),
        }
    }
}

/// One `put` of the version stream.
#[derive(Clone, Debug, PartialEq)]
pub struct PutOp {
    /// Index of the document.
    pub doc: usize,
    /// Commit timestamp (`step_ts` of the global put number).
    pub ts: Timestamp,
    /// The new version.
    pub xml: String,
}

/// The version stream: hands out the next version of any document,
/// stamping puts with a global step counter.
pub struct Feed {
    gens: Vec<Gen>,
    started: Vec<bool>,
    next_step: u64,
    /// Document names, by index.
    pub names: Vec<String>,
    /// Commit timestamps of the versions handed out so far, per document.
    pub version_ts: Vec<Vec<Timestamp>>,
    /// Bytes of XML handed out so far.
    pub user_bytes: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ salt
}

/// Seeds the document generators. The corpus is the same for every
/// `--seed`: the seed decides which documents are popular, which document
/// meets which instant, and every order — the operation lists — while
/// the documents themselves stay put, so that byte counts (stored bytes,
/// WAL bytes, index checkpoint size) and the cost of a put do not move
/// with the seed.
const CORPUS_SEED: u64 = 0x7478_6462;

impl Feed {
    /// A fresh stream for `spec`.
    pub fn new(spec: &Spec) -> Feed {
        let gens = (0..spec.docs)
            .map(|i| {
                let s = mix(CORPUS_SEED, i as u64 + 1);
                match spec.corpus {
                    Corpus::Guides { restaurants, changes } => {
                        Gen::Guide(Box::new(RestaurantGuide::new(restaurants, s)), changes)
                    }
                    Corpus::Tdocs { items, changes } => Gen::Tdoc(Box::new(DocGen::new(
                        DocGenConfig {
                            items,
                            changes_per_version: changes,
                            ..DocGenConfig::default()
                        },
                        s,
                    ))),
                }
            })
            .collect();
        let names = (0..spec.docs).map(|i| doc_name(spec, i)).collect();
        Feed {
            gens,
            started: vec![false; spec.docs],
            next_step: 0,
            names,
            version_ts: vec![Vec::new(); spec.docs],
            user_bytes: 0,
        }
    }

    /// The next version of document `doc`.
    pub fn next_put(&mut self, doc: usize) -> PutOp {
        let xml = self.gens[doc].next(!self.started[doc]);
        self.started[doc] = true;
        let ts = step_ts(self.next_step);
        self.next_step += 1;
        self.version_ts[doc].push(ts);
        self.user_bytes += xml.len() as u64;
        PutOp { doc, ts, xml }
    }

    /// The set-up load: `versions + 1` rounds over all documents.
    pub fn setup_puts(&mut self, spec: &Spec) -> Vec<PutOp> {
        let mut out = Vec::with_capacity(spec.docs * (spec.versions + 1));
        for _ in 0..=spec.versions {
            for doc in 0..spec.docs {
                out.push(self.next_put(doc));
            }
        }
        out
    }
}

/// The shape of one query, with its parameters — what the oracle needs
/// to compute the expected rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Template {
    /// `SELECT R/name, R/price … [t]//restaurant R WHERE R/price < p`
    PriceBelow(u32),
    /// `SELECT R/name … [t]//restaurant R WHERE R CONTAINS "word"`
    Contains(String),
    /// `SELECT COUNT(R) … [t]//restaurant R`
    Count,
    /// `SELECT R/price … [t]//restaurant R WHERE R/name = "name"`
    NameEq(String),
    /// `SELECT TIME(R), R/price … [EVERY]//restaurant R WHERE R/price < p`
    TimePrice(u32),
    /// `SELECT CREATETIME(R), DELETETIME(R) … [EVERY] … WHERE R/name = "name"`
    Lifetime(String),
    /// `SELECT DISTINCT R/price … [EVERY] … WHERE R/name = "name"`
    DistinctPrice(String),
    /// `SELECT PREVIOUS(R)/price, NEXT(R)/price … [EVERY] … WHERE R/name = "name"`
    PrevNext(String),
    /// `SELECT R/kind … [t]//item R WHERE R/text CONTAINS "word"`
    TdocContains(String),
    /// `SELECT COUNT(R) … [t]//item R`
    TdocCount,
    /// `SELECT R/text … [t]//item R WHERE R/kind = "kind"`
    TdocKindEq(&'static str),
    /// `SELECT R/kind … //item R WHERE R/text CONTAINS "word"` (current version)
    TdocCurrent(String),
}

impl Template {
    /// True for `[EVERY]` shapes (their answer depends on the whole
    /// history stored when they run).
    pub fn is_history(&self) -> bool {
        matches!(
            self,
            Template::TimePrice(_)
                | Template::Lifetime(_)
                | Template::DistinctPrice(_)
                | Template::PrevNext(_)
        )
    }

    /// True for shapes that read the current version.
    pub fn is_current(&self) -> bool {
        matches!(self, Template::TdocCurrent(_))
    }
}

/// One query of an operation list.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOp {
    /// Query text.
    pub text: String,
    /// Index of the document it ranges over.
    pub doc: usize,
    /// Shape and parameters.
    pub template: Template,
    /// The snapshot instant for `[t]` shapes; for `[EVERY]` and
    /// current-version shapes, the commit time of the latest version
    /// stored when the query runs.
    pub probe: Timestamp,
}

const CONTAINS_WORDS: [&str; 10] =
    ["golden", "blue", "old", "royal", "little", "grand", "silver", "happy", "corner", "garden"];
const TDOC_KINDS: [&str; 5] = ["article", "notice", "report", "review", "summary"];
const PRICE_LIMITS: [u32; 3] = [15, 20, 25];
/// Tighter limits for `[EVERY]`: the filter runs over every version, and
/// the answer should stay in the hundreds of rows.
const HISTORY_PRICE_LIMITS: [u32; 2] = [12, 15];
const TDOC_WORD_RANKS: usize = 12;

/// Builds the text of a query shape over document `url` at `probe`.
fn query_text(url: &str, template: &Template, probe: Timestamp) -> String {
    let at = probe.micros();
    match template {
        Template::PriceBelow(p) => format!(
            r#"SELECT R/name, R/price FROM doc("{url}")[{at}]//restaurant R WHERE R/price < {p}"#
        ),
        Template::Contains(w) => {
            format!(r#"SELECT R/name FROM doc("{url}")[{at}]//restaurant R WHERE R CONTAINS "{w}""#)
        }
        Template::Count => format!(r#"SELECT COUNT(R) FROM doc("{url}")[{at}]//restaurant R"#),
        Template::NameEq(n) => {
            format!(r#"SELECT R/price FROM doc("{url}")[{at}]//restaurant R WHERE R/name = "{n}""#)
        }
        Template::TimePrice(p) => format!(
            r#"SELECT TIME(R), R/price FROM doc("{url}")[EVERY]//restaurant R WHERE R/price < {p}"#
        ),
        Template::Lifetime(n) => format!(
            r#"SELECT CREATETIME(R), DELETETIME(R) FROM doc("{url}")[EVERY]//restaurant R WHERE R/name = "{n}""#
        ),
        Template::DistinctPrice(n) => format!(
            r#"SELECT DISTINCT R/price FROM doc("{url}")[EVERY]//restaurant R WHERE R/name = "{n}""#
        ),
        Template::PrevNext(n) => format!(
            r#"SELECT PREVIOUS(R)/price, NEXT(R)/price FROM doc("{url}")[EVERY]//restaurant R WHERE R/name = "{n}""#
        ),
        Template::TdocContains(w) => {
            format!(r#"SELECT R/kind FROM doc("{url}")[{at}]//item R WHERE R/text CONTAINS "{w}""#)
        }
        Template::TdocCount => format!(r#"SELECT COUNT(R) FROM doc("{url}")[{at}]//item R"#),
        Template::TdocKindEq(k) => {
            format!(r#"SELECT R/text FROM doc("{url}")[{at}]//item R WHERE R/kind = "{k}""#)
        }
        Template::TdocCurrent(w) => {
            format!(r#"SELECT R/kind FROM doc("{url}")//item R WHERE R/text CONTAINS "{w}""#)
        }
    }
}

/// `n` stratified draws from the distribution with the given cumulative
/// weights, shuffled.
fn stratified(cdf: &[f64], n: usize, rng: &mut StdRng) -> Vec<usize> {
    let total = *cdf.last().expect("non-empty distribution");
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen::<f64>()) / n as f64 * total;
            cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
        })
        .collect();
    shuffle(&mut out, rng);
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn cdf(n: usize, zipf: bool) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += if zipf { 1.0 / k as f64 } else { 1.0 };
            acc
        })
        .collect()
}

/// Everything a run replays: the operation lists, all derived from
/// `(spec, seed)`.
pub struct Plan {
    /// The workload.
    pub spec: Spec,
    /// The seed.
    pub seed: u64,
    /// The query list of the query and wire phases.
    pub queries: Vec<QueryOp>,
    /// Document order of the put phase, all rounds concatenated.
    pub put_docs: Vec<usize>,
    /// Document order of the mixed phase, all rounds concatenated.
    pub mixed_docs: Vec<usize>,
    /// Document order of the traced pass's put round.
    pub traced_put_docs: Vec<usize>,
}

/// Rounds per timed phase: one discarded warm-up plus the measured ones.
pub fn rounds_for(seconds: u64) -> usize {
    1 + ((5 * seconds + 10) / 20).clamp(2, 15) as usize
}

/// The restaurant names a guide version lists, in document order.
fn listed_names(xml: &str) -> Vec<&str> {
    xml.split("<name>").skip(1).filter_map(|rest| rest.split("</name>").next()).collect()
}

impl Plan {
    /// Builds the lists. `rounds` counts the warm-up round too.
    ///
    /// Popularity follows the document index (document 0 is the hottest
    /// under Zipf) for every seed: which documents are hot decides how
    /// big the hot documents are, and that must not move with the seed.
    pub fn new(spec: Spec, seed: u64, rounds: usize) -> Plan {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x7478_6265_6e63_6800));
        // Writes go to every document equally often on every workload, so
        // that version chains grow evenly and one round of puts costs
        // about what the next one does (the engine rewrites a document's
        // whole version list on every put to it).
        let every_doc = cdf(spec.docs, false);
        let put_docs = stratified(&every_doc, spec.puts * rounds, &mut rng);
        let mixed_docs = stratified(&every_doc, spec.mixed * rounds, &mut rng);
        let traced_put_docs = stratified(&every_doc, spec.puts, &mut rng);
        let mut plan =
            Plan { spec, seed, queries: Vec::new(), put_docs, mixed_docs, traced_put_docs };
        plan.queries = plan.build_queries(&mut rng);
        plan
    }

    /// Query shape `slot` of the workload's family, with parameter `k`.
    /// Shapes that follow a restaurant by name pick one that `xml` (the
    /// version the query reads) lists, so that how many queries find
    /// their restaurant does not depend on the seed.
    fn template(&self, slot: usize, k: usize, xml: &str) -> Template {
        let pick = |n: usize| k % n;
        let name = || {
            let names = listed_names(xml);
            names.get(k % names.len().max(1)).copied().unwrap_or_default().to_string()
        };
        match (self.spec.family, slot) {
            (Family::Snapshot, 0) => Template::PriceBelow(PRICE_LIMITS[pick(PRICE_LIMITS.len())]),
            (Family::Snapshot, 1) => {
                Template::Contains(CONTAINS_WORDS[pick(CONTAINS_WORDS.len())].to_string())
            }
            (Family::Snapshot, 2) => Template::Count,
            (Family::Snapshot, _) => Template::NameEq(name()),
            (Family::History, 0) => Template::TimePrice(HISTORY_PRICE_LIMITS[pick(2)]),
            (Family::History, 1) => Template::Lifetime(name()),
            (Family::History, 2) => Template::DistinctPrice(name()),
            (Family::History, _) => Template::PrevNext(name()),
            (Family::Tdoc, 0) => {
                Template::TdocContains(DocGen::word_at_rank(pick(TDOC_WORD_RANKS)))
            }
            (Family::Tdoc, 1) => Template::TdocCount,
            (Family::Tdoc, 2) => Template::TdocKindEq(TDOC_KINDS[pick(TDOC_KINDS.len())]),
            (Family::Tdoc, _) => Template::TdocCurrent(DocGen::word_at_rank(pick(TDOC_WORD_RANKS))),
        }
    }

    fn build_queries(&self, rng: &mut StdRng) -> Vec<QueryOp> {
        let spec = &self.spec;
        // The set-up versions, by document: `corpus[doc][v]`.
        let mut feed = Feed::new(spec);
        let mut corpus: Vec<Vec<PutOp>> = vec![Vec::new(); spec.docs];
        for p in feed.setup_puts(spec) {
            corpus[p.doc].push(p);
        }
        let per_slot = spec.queries / 4;
        let doc_cdf = cdf(spec.docs, spec.doc_skew == DocSkew::Zipf);
        let (time_cdf, instants): (Vec<f64>, Vec<usize>) = match spec.time_skew {
            TimeSkew::Uniform => (cdf(spec.versions + 1, false), (0..=spec.versions).collect()),
            // Below the latest version, so the engine has to rebuild (or
            // find cached) a past state rather than read the current one.
            TimeSkew::HotSet(k) => {
                (cdf(k, true), (0..k).map(|j| (j + 1) * spec.versions / (k + 1)).collect())
            }
            TimeSkew::Recent(k) => {
                let k = k.min(spec.versions + 1);
                (cdf(k, true), (0..k).map(|r| spec.versions - r).collect())
            }
        };
        let mut out = Vec::with_capacity(per_slot * 4);
        for slot in 0..4 {
            let docs = stratified(&doc_cdf, per_slot, rng);
            let times = stratified(&time_cdf, per_slot, rng);
            let mut params: Vec<usize> = (0..per_slot).collect();
            shuffle(&mut params, rng);
            for i in 0..per_slot {
                let doc = docs[i];
                let latest = &corpus[doc][spec.versions];
                let read = &corpus[doc][instants[times[i]]];
                let template = match spec.family {
                    Family::History => self.template(slot, params[i], &latest.xml),
                    _ => self.template(slot, params[i], &read.xml),
                };
                let probe = if template.is_history() || template.is_current() {
                    latest.ts
                } else {
                    read.ts + Duration::from_minutes(30)
                };
                out.push(self.query_op(doc, template, probe));
            }
        }
        shuffle(&mut out, rng);
        out
    }

    fn query_op(&self, doc: usize, template: Template, probe: Timestamp) -> QueryOp {
        let url = doc_name(&self.spec, doc);
        QueryOp { text: query_text(&url, &template, probe), doc, template, probe }
    }

    /// The four queries that follow the put `put` in the mixed phase:
    /// one of each shape of the family, aimed at the version just written.
    pub fn mixed_queries(&self, put: &PutOp, k: usize) -> [QueryOp; 4] {
        std::array::from_fn(|slot| {
            let template = self.template(slot, k.wrapping_mul(7) + slot, &put.xml);
            let probe = if template.is_history() || template.is_current() {
                put.ts
            } else {
                put.ts + Duration::from_minutes(30)
            };
            self.query_op(put.doc, template, probe)
        })
    }

    /// The documents whose whole version stream the oracle follows: the
    /// most popular ones.
    pub fn oracle_docs(&self) -> Vec<usize> {
        (0..self.spec.docs.min(ORACLE_DOCS)).collect()
    }
}

/// How many documents the stratum oracle follows.
const ORACLE_DOCS: usize = 4;

/// The name of document `doc` of a workload.
fn doc_name(spec: &Spec, doc: usize) -> String {
    match spec.corpus {
        Corpus::Guides { .. } => format!("guide{doc}.example.org/restaurants"),
        Corpus::Tdocs { .. } => format!("tdoc{doc}.example.org/doc"),
    }
}
