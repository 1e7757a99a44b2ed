//! The untraced phases: set-up, reopen, query, wire, put and mixed.
//!
//! Load is a closed loop from one generator thread: the next operation
//! is issued when the previous one has returned. Every timed phase runs
//! one discarded warm-up round — which also checks the answers — and
//! then the measured rounds over fixed, seeded lists; nothing is
//! time-boxed, so the same seed does the same work on every run.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use txdb_base::obs::MetricsDelta;
use txdb_client::Client;
use txdb_core::{Database, DbOptions};
use txdb_query::QueryExt;
use txdb_server::{Server, ServerConfig};

use super::oracle::{digest, render, Oracle, Rows};
use super::stats;
use super::workload::{far_future, Feed, Plan, PutOp, QueryOp, Spec};

/// Operations attempted and failed. A wrong answer is a failed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Reports a wrong answer on standard error (the first few of a run).
fn complain(op: &QueryOp, why: &str) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("txbench: wrong answer for {}\n  {why}", op.text);
    }
}

/// What one timed phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Phase name.
    pub name: &'static str,
    /// Operations attempted and failed, warm-up included.
    pub tally: Tally,
    /// Operations per measured round.
    pub ops_per_round: usize,
    /// Duration of each measured round, seconds.
    pub round_secs: Vec<f64>,
    /// Latency of every operation, µs, per measured round, sorted.
    pub lat_us: Vec<Vec<f64>>,
    /// Rows returned by one round (0 for write phases).
    pub rows_per_round: u64,
    /// Latency of every operation of the first measured round, µs, in
    /// list order (query and wire phases).
    pub first_round_lat_us: Vec<f64>,
    /// Bytes of XML put by the measured rounds (write phases).
    pub user_bytes: u64,
    /// Change of the engine's public counters over the measured rounds.
    pub engine: MetricsDelta,
}

/// Sorts each round's latencies.
fn sorted_rounds(mut per_round: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    per_round.iter_mut().for_each(|r| stats::sort(r));
    per_round
}

// On a shared 2-core host interference is one-sided — a neighbour can
// only slow a round down — so every figure comes from the least
// disturbed repetition of the same fixed work: throughput from the
// fastest round, a percentile from the round where it is lowest.
impl PhaseResult {
    /// Operations per second of the fastest measured round.
    pub fn per_s(&self) -> f64 {
        let fastest = self.round_secs.iter().copied().fold(f64::INFINITY, f64::min);
        self.ops_per_round as f64 / fastest
    }

    /// A latency percentile: taken per measured round, the lowest.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let per_round = self.lat_us.iter().map(|r| stats::quantile_sorted(r, p));
        per_round.fold(f64::INFINITY, f64::min)
    }

    /// The increase of the engine counter `name` over the measured rounds.
    pub fn counter(&self, name: &str) -> u64 {
        self.engine.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }
}

/// Keeps every thread of this process on one core while it lives.
///
/// The wire phase is a ping-pong between the generator thread and one
/// server session thread: each blocks while the other works. Left to
/// the scheduler on the 2-vCPU reference host, the pair flips — for
/// minutes at a time — between waking each other on the same core
/// (about 65 µs per round trip on `snap_hot`) and across cores (about
/// 120 µs: an inter-processor interrupt and a halted vCPU's wake-up,
/// properties of the hypervisor, not of the code under test). On one
/// core a blocked thread hands over to the other without a halt, so
/// the phase measures the software path, repeatably. Affinity is set
/// through the `taskset` program (std has no call for it); when that is
/// missing the phase runs unpinned and the envelope says so.
pub struct CpuPin {
    restore_to: Option<String>,
    /// What was done, for the envelope.
    pub how: String,
}

impl CpuPin {
    fn taskset(cpus: &str) -> bool {
        let pid = std::process::id().to_string();
        let done = std::process::Command::new("taskset")
            .args(["-a", "-cp", cpus, &pid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        done.is_ok_and(|s| s.success())
    }

    /// Pins the process to the first core it is allowed on.
    pub fn one_core() -> CpuPin {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|l| l.trim().to_string());
        let first = allowed.as_deref().and_then(|l| l.split([',', '-']).next().map(str::to_string));
        match (allowed, first) {
            (Some(allowed), Some(first)) if CpuPin::taskset(&first) => {
                CpuPin { restore_to: Some(allowed), how: format!("cpu {first}") }
            }
            _ => CpuPin { restore_to: None, how: "unpinned (taskset unavailable)".to_string() },
        }
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        if let Some(allowed) = &self.restore_to {
            CpuPin::taskset(allowed);
        }
    }
}

/// The engine options of a workload. Flush policy is `wal_sync(false)`
/// in every timed phase.
pub fn db_options(spec: &Spec, dir: &Path) -> DbOptions {
    let opts = DbOptions::at(dir)
        .buffer_pages(spec.buffer_pages)
        .cache_bytes(spec.cache_bytes)
        .wal_sync(false);
    match spec.snapshot_every {
        Some(k) => opts.snapshot_every(k),
        None => opts,
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.filter_map(|e| e.ok()?.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
}

/// The state a run carries from phase to phase.
pub struct Run {
    /// Operation lists and workload sizes.
    pub plan: Plan,
    /// The version stream (continues after set-up).
    pub feed: Feed,
    /// The stratum oracle.
    pub oracle: Oracle,
    /// The engine under test (`None` only while it is being reopened).
    db: Option<Arc<Database>>,
    /// The store's directory.
    pub dir: PathBuf,
    /// Rounds per timed phase, warm-up included.
    pub rounds: usize,
    /// File bytes after the set-up checkpoint.
    pub stored_bytes: u64,
    /// Bytes of XML put by set-up.
    pub setup_user_bytes: u64,
    /// Duration of every set-up made, seconds.
    pub setup_secs: Vec<f64>,
    /// Where the wire phase's threads ran (see [`CpuPin`]).
    pub wire_affinity: String,
    /// Cursor into `plan.put_docs`.
    put_cursor: usize,
    /// Cursor into `plan.mixed_docs`.
    mixed_cursor: usize,
}

/// What a query phase learned about its list, for the phases that replay it.
pub struct ListFacts {
    /// Digest of every operation's in-process answer.
    pub digests: Vec<u64>,
    /// Row count of every operation's answer.
    pub row_counts: Vec<usize>,
}

/// Generates the corpus, loads it into a fresh on-disk store and
/// checkpoints — the whole of what `setup_s` times.
fn setup_once(spec: &Spec, dir: &Path) -> (Database, Feed) {
    let _ = std::fs::remove_dir_all(dir);
    let mut feed = Feed::new(spec);
    let puts = feed.setup_puts(spec);
    let db = db_options(spec, dir).open().expect("open a fresh store");
    for p in &puts {
        db.put(&feed.names[p.doc], &p.xml, p.ts).expect("set-up put");
    }
    db.checkpoint().expect("set-up checkpoint");
    (db, feed)
}

impl Run {
    /// Sets the store up `setups` times (timing each) and keeps the last.
    pub fn start(spec: Spec, seed: u64, rounds: usize, base: &Path, setups: usize) -> Run {
        let plan = Plan::new(spec, seed, rounds);
        let mut oracle = Oracle::new(plan.oracle_docs(), plan.spec.element_tag());
        let dir = base.join("db");
        let mut setup_secs = Vec::with_capacity(setups);
        let mut kept = None;
        for _ in 0..setups {
            drop(kept.take()); // close the previous store before its files go
            let started = Instant::now();
            kept = Some(setup_once(&plan.spec, &dir));
            setup_secs.push(started.elapsed().as_secs_f64());
        }
        let (db, feed) = kept.expect("at least one set-up");
        // The oracle load is not part of the system's set-up: it gets the
        // same stream from a second generator pass, outside the timing.
        let mut replay = Feed::new(&plan.spec);
        for p in replay.setup_puts(&plan.spec) {
            oracle.observe(&feed.names[p.doc], &p);
        }
        let stored_bytes = dir_bytes(&dir);
        let setup_user_bytes = feed.user_bytes;
        Run {
            plan,
            feed,
            oracle,
            db: Some(Arc::new(db)),
            dir,
            rounds,
            stored_bytes,
            setup_user_bytes,
            setup_secs,
            wire_affinity: "wire phase not run".to_string(),
            put_cursor: 0,
            mixed_cursor: 0,
        }
    }

    /// Closes (checkpoints) and reopens the store `n` times; returns the
    /// duration of each close + open pair in milliseconds.
    pub fn reopen(&mut self, n: usize) -> Vec<f64> {
        let mut ms = Vec::with_capacity(n);
        for _ in 0..n {
            let db = self.take_db();
            let started = Instant::now();
            db.close().expect("close");
            let db = db_options(&self.plan.spec, &self.dir).open().expect("reopen");
            ms.push(started.elapsed().as_secs_f64() * 1e3);
            self.db = Some(Arc::new(db));
        }
        ms
    }

    /// The engine under test.
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(self.db.as_ref().expect("database is open between phases"))
    }

    /// Takes the database out of the run (to close it); the caller puts
    /// one back with [`Run::put_db`].
    pub fn take_db(&mut self) -> Database {
        let db = self.db.take().expect("database is open between phases");
        Arc::try_unwrap(db).ok().expect("no other owner of the database between phases")
    }

    /// Hands the run a (re)opened database.
    pub fn put_db(&mut self, db: Database) {
        self.db = Some(Arc::new(db));
    }

    /// Runs one query in process and, while `checks_left` lasts and the
    /// oracle follows its document, checks the answer. `Err` is a failed
    /// operation.
    fn checked_query(
        &self,
        db: &Database,
        op: &QueryOp,
        checks_left: &mut usize,
    ) -> Result<Rows, ()> {
        let rows = match db.query(&op.text).at(far_future()).run() {
            Ok(r) => render(&r.rows),
            Err(e) => {
                complain(op, &format!("error: {e}"));
                return Err(());
            }
        };
        if *checks_left > 0 && self.oracle.follows(op.doc) {
            *checks_left -= 1;
            if let Err(why) = self.oracle.check(&self.feed.names[op.doc], op, &rows) {
                complain(op, &why);
                return Err(());
            }
        }
        Ok(rows)
    }

    /// In-process queries: `db.query(q).at(ts).run()` over the list.
    pub fn query_phase(&mut self) -> (PhaseResult, ListFacts) {
        let ops = std::mem::take(&mut self.plan.queries);
        let db = self.db();
        let mut tally = Tally::default();
        let mut facts =
            ListFacts { digests: Vec::with_capacity(ops.len()), row_counts: Vec::new() };
        // Warm-up round: fills the caches and checks the answers.
        let mut checks_left = CHECK_CAP;
        for op in &ops {
            let got = self.checked_query(&db, op, &mut checks_left);
            tally.note(got.is_ok());
            let rows = got.unwrap_or_default();
            facts.digests.push(digest(&rows));
            facts.row_counts.push(rows.len());
        }
        let passes = self.plan.spec.query_passes;
        let mut round_secs = Vec::new();
        let mut per_round = Vec::new();
        let counters_before = db.metrics().snapshot();
        for _ in 1..self.rounds {
            let mut lat_us = Vec::with_capacity(ops.len() * passes);
            let round = Instant::now();
            for _ in 0..passes {
                for (i, op) in ops.iter().enumerate() {
                    let t = Instant::now();
                    let r = db.query(&op.text).at(far_future()).run();
                    lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    tally.note(matches!(&r, Ok(r) if r.len() == facts.row_counts[i]));
                    black_box(&r);
                }
            }
            round_secs.push(round.elapsed().as_secs_f64());
            per_round.push(lat_us);
        }
        let engine = db.metrics().snapshot().delta_since(&counters_before);
        let first_round_lat_us = per_round[0][..ops.len()].to_vec();
        let lat_us = sorted_rounds(per_round);
        let rows_per_round = (facts.row_counts.iter().sum::<usize>() * passes) as u64;
        self.plan.queries = ops;
        let result = PhaseResult {
            name: "query",
            tally,
            ops_per_round: self.plan.queries.len() * passes,
            round_secs,
            lat_us,
            rows_per_round,
            first_round_lat_us,
            engine,
            ..PhaseResult::default()
        };
        (result, facts)
    }

    /// The same list through `txdb_server::Server` and
    /// `txdb_client::Client` on loopback: one connection, hence exactly
    /// one server session thread beside the generator thread, both kept
    /// on one core (see [`CpuPin`]). Every wire answer must be
    /// byte-identical to its in-process twin.
    pub fn wire_phase(&mut self, facts: &ListFacts) -> PhaseResult {
        let pin = CpuPin::one_core();
        self.wire_affinity = pin.how.clone();
        let server = Server::start(self.db(), ServerConfig::default()).expect("start the server");
        let mut client = Client::connect(server.addr()).expect("connect");
        let ops = &self.plan.queries;
        let at = Some(far_future().micros());
        let mut tally = Tally::default();
        for (i, op) in ops.iter().enumerate() {
            let got = client.query(&op.text, at);
            tally.note(matches!(&got, Ok(r) if digest(&r.rows) == facts.digests[i]));
        }
        let mut round_secs = Vec::new();
        let mut per_round = Vec::new();
        for _ in 1..self.rounds {
            let mut lat_us = Vec::with_capacity(ops.len());
            let round = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let t = Instant::now();
                let r = client.query(&op.text, at);
                lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tally.note(matches!(&r, Ok(r) if r.rows.len() == facts.row_counts[i]));
                black_box(&r);
            }
            round_secs.push(round.elapsed().as_secs_f64());
            per_round.push(lat_us);
        }
        drop(client);
        server.shutdown().expect("drain the server");
        drop(pin);
        let first_round_lat_us = per_round[0].clone();
        let lat_us = sorted_rounds(per_round);
        PhaseResult {
            name: "wire",
            tally,
            ops_per_round: ops.len(),
            round_secs,
            lat_us,
            rows_per_round: facts.row_counts.iter().sum::<usize>() as u64,
            first_round_lat_us,
            ..PhaseResult::default()
        }
    }

    /// The next version of each of `docs`, in order, oracle informed.
    fn hand_out(&mut self, docs: &[usize]) -> Vec<PutOp> {
        let puts: Vec<PutOp> = docs.iter().map(|&d| self.feed.next_put(d)).collect();
        for p in &puts {
            self.oracle.observe(&self.feed.names[p.doc], p);
        }
        puts
    }

    /// The next `n` puts of the put phase.
    pub fn next_puts(&mut self, n: usize) -> Vec<PutOp> {
        let docs = self.plan.put_docs[self.put_cursor..self.put_cursor + n].to_vec();
        self.put_cursor += n;
        self.hand_out(&docs)
    }

    /// The puts of the traced pass's put round.
    pub fn traced_puts(&mut self) -> Vec<PutOp> {
        let docs = self.plan.traced_put_docs.clone();
        self.hand_out(&docs)
    }

    /// New versions of existing documents, `db.put` one at a time. The
    /// store is checkpointed between rounds, outside the timing.
    pub fn put_phase(&mut self) -> PhaseResult {
        let per_round = self.plan.spec.puts;
        let mut tally = Tally::default();
        let mut round_secs = Vec::new();
        let mut lat_per_round = Vec::new();
        let mut user_bytes = 0;
        let mut counters_before = None;
        for round_no in 0..self.rounds {
            let puts = self.next_puts(per_round);
            let db = self.db();
            if round_no == 1 {
                counters_before = Some(db.metrics().snapshot());
            }
            let names = &self.feed.names;
            let mut lat_us = Vec::with_capacity(per_round);
            let round = Instant::now();
            for p in &puts {
                let t = Instant::now();
                let r = db.put(&names[p.doc], &p.xml, p.ts);
                lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                tally.note(matches!(&r, Ok(r) if r.ts == p.ts));
            }
            if round_no > 0 {
                round_secs.push(round.elapsed().as_secs_f64());
                lat_per_round.push(lat_us);
                user_bytes += puts.iter().map(|p| p.xml.len() as u64).sum::<u64>();
            }
            db.checkpoint().expect("checkpoint between put rounds");
        }
        let engine = counters_before
            .map(|before| self.db().metrics().snapshot().delta_since(&before))
            .unwrap_or_default();
        tally.failed += self.stale_oracle_docs();
        let lat_us = sorted_rounds(lat_per_round);
        PhaseResult {
            name: "put",
            tally,
            ops_per_round: per_round,
            round_secs,
            lat_us,
            user_bytes,
            engine,
            ..PhaseResult::default()
        }
    }

    /// Followed documents whose current version in the engine differs
    /// from the last version the stream handed out.
    fn stale_oracle_docs(&self) -> u64 {
        let db = self.db();
        let stale = |doc: &usize| {
            let name = &self.feed.names[*doc];
            let have = db.store().doc_id(name).ok().flatten();
            let have = have.and_then(|d| db.store().current_tree(d).ok());
            have.map(|t| txdb_xml::serialize::to_string(&t)) != self.oracle.latest(name)
        };
        self.plan.oracle_docs().iter().filter(|d| stale(d)).count() as u64
    }

    /// One thread, one put then four queries on the document just
    /// written; five operations per group.
    pub fn mixed_phase(&mut self) -> PhaseResult {
        let groups = self.plan.spec.mixed;
        let mut tally = Tally::default();
        let mut round_secs = Vec::new();
        for round_no in 0..self.rounds {
            let docs = self.plan.mixed_docs[self.mixed_cursor..self.mixed_cursor + groups].to_vec();
            self.mixed_cursor += groups;
            let work: Vec<(PutOp, [QueryOp; 4])> = (self.hand_out(&docs).into_iter().enumerate())
                .map(|(k, put)| {
                    let queries = self.plan.mixed_queries(&put, k + round_no * groups);
                    (put, queries)
                })
                .collect();
            let db = self.db();
            let names = &self.feed.names;
            if round_no == 0 {
                // Warm-up round, answers checked. A history answer
                // depends on the versions stored when the query runs, so
                // expectations are computed group by group, as of the put.
                let mut checks_left = CHECK_CAP;
                for (put, queries) in &work {
                    let r = db.put(&names[put.doc], &put.xml, put.ts);
                    tally.note(r.is_ok());
                    for q in queries {
                        tally.note(self.checked_query(&db, q, &mut checks_left).is_ok());
                    }
                }
            } else {
                let round = Instant::now();
                for (put, queries) in &work {
                    let r = db.put(&names[put.doc], &put.xml, put.ts);
                    tally.note(r.is_ok());
                    for q in queries {
                        let r = db.query(&q.text).at(far_future()).run();
                        tally.note(r.is_ok());
                        black_box(&r);
                    }
                }
                round_secs.push(round.elapsed().as_secs_f64());
            }
            db.checkpoint().expect("checkpoint between mixed rounds");
        }
        PhaseResult {
            name: "mixed",
            tally,
            ops_per_round: groups * 5,
            round_secs,
            ..PhaseResult::default()
        }
    }
}

/// At most this many answers per list are compared with the oracle.
pub const CHECK_CAP: usize = 96;
