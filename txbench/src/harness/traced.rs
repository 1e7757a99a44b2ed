//! The traced pass: every per-layer metric, and the span trees behind
//! the "where an operation's microseconds go" tables.
//!
//! Nothing inside the engine is instrumented by this benchmark. A layer
//! is measured from outside, by timing calls into the public functions
//! of its crate on a 1-in-k sample of the same operation lists, and by
//! differencing the public `db.metrics().snapshot()` counters around an
//! untraced round. A sampled query is first run whole (a real span) and
//! then re-issued layer by layer; see [`super::spans`] for how the
//! re-issued durations nest. A re-issue must pay what the query paid,
//! whatever the query left in the version cache: a rebuilt version is
//! re-issued as exactly the chain the query reported (`deltas_applied`
//! delta loads and applications on top of the seed version), and a
//! history walk the query did cold is re-issued cold.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use txdb_base::obs::Registry;
use txdb_base::{DocId, Interval, VersionId};
use txdb_client::json::{escape_into, Json};
use txdb_client::Client;
use txdb_core::ops::lifetime::LifetimeStrategy;
use txdb_core::Database;
use txdb_index::fti::OccKind;
use txdb_query::plan::{plan_query, DocSel, ScanMode, Strategy};
use txdb_query::{parse_query, OutValue, QueryExt, QueryResult};
use txdb_server::{Server, ServerConfig};
use txdb_storage::repo::DocumentStore;
use txdb_storage::wal::{Wal, WalMetrics};
use txdb_xml::parse::parse_document;
use txdb_xml::pattern::{PatternNode, PatternTree};

use super::phases::{db_options, CpuPin, ListFacts, PhaseResult, Run, Tally};
use super::report::{self, Metrics};
use super::spans::SpanLog;
use super::workload::{far_future, PutOp, QueryOp, Spec, Template};
use super::{check_residency, stats, Outcome};

/// Sampled operations per list (the `k` of 1-in-k follows from it).
const SAMPLES: usize = 64;
/// Puts composed under spans in the traced put round.
const PUT_SAMPLES: usize = 96;
/// Every this many sampled operations also run the whole-history probes.
const HEAVY_EVERY: usize = 8;
/// Commits of the `wal_sync(true)` probe.
const FSYNC_PROBE_COMMITS: usize = 40;

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_us(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    stats::median(&samples_ns.iter().map(|&n| us(n)).collect::<Vec<_>>())
}

/// Per-layer timing samples collected by the probes.
#[derive(Default)]
struct Samples {
    lookup: Vec<u64>,
    lookup_t: Vec<u64>,
    lookup_h: Vec<u64>,
    scan: Vec<u64>,
    scan_all: Vec<u64>,
    version_tree: Vec<u64>,
    reconstruct: Vec<u64>,
    doc_history: Vec<u64>,
    cre_time: Vec<u64>,
    apply: Vec<u64>,
    parse: Vec<u64>,
    plan: Vec<u64>,
    exec: Vec<u64>,
    postings: u64,
    lookups: u64,
}

/// Re-issues a reconstruction of `v` from the version `k` deltas above
/// it: time spent fetching that seed version and loading the `k` deltas
/// (both storage), and applying them (delta).
fn reissue_chain(db: &Database, doc: DocId, v: VersionId, k: usize) -> (u64, u64) {
    let top = VersionId(v.0 + k as u32);
    let (seed, mut load_ns) = timed(|| db.store().version_tree(doc, top));
    let Ok(mut tree) = seed else { return (0, 0) };
    let mut apply_ns = 0;
    for u in ((v.0 + 1)..=top.0).rev() {
        let (delta, ns) = timed(|| db.store().delta(doc, VersionId(u)));
        load_ns += ns;
        if let Ok(Some(delta)) = delta {
            apply_ns += timed(|| delta.apply_backward(&mut tree)).1;
        }
    }
    (load_ns, apply_ns)
}

/// The FTI lookups a pattern needs, in the mode of the scan: time spent.
fn reissue_lookups(db: &Database, pattern: &PatternTree, doc: DocId, mode: ScanMode) -> u64 {
    let docs: HashSet<DocId> = HashSet::from([doc]);
    let fti = db.indexes().fti();
    let mut ns = 0;
    for node in pattern.nodes() {
        let tag = node.tag.iter().map(|t| (t.to_lowercase(), OccKind::Name));
        let words = node.words.iter().map(|w| (w.clone(), OccKind::Word));
        for (token, kind) in tag.chain(words) {
            ns += match mode {
                ScanMode::Current => timed(|| fti.lookup_scoped(&token, kind, Some(&docs)).len()).1,
                ScanMode::At(t) => {
                    let at = |d| db.store().version_at(d, t).ok().flatten();
                    timed(|| fti.lookup_t_scoped(&token, kind, Some(&docs), at).len()).1
                }
                ScanMode::Every(_) => {
                    timed(|| fti.lookup_h_scoped(&token, kind, Some(&docs)).len()).1
                }
            };
        }
    }
    ns
}

/// Serializes again the XML cells of a result: time spent.
fn reissue_serialize(rows: &[Vec<OutValue>]) -> u64 {
    let trees: Vec<_> = rows
        .iter()
        .flatten()
        .filter_map(|v| match v {
            OutValue::Xml(x) => parse_document(x).ok(),
            _ => None,
        })
        .collect();
    timed(|| trees.iter().map(|t| txdb_xml::serialize::to_string(t).len()).sum::<usize>()).1
}

/// Encodes rows the way the server session does; returns the lines.
fn encode_rows(rows: &[Vec<OutValue>]) -> Vec<String> {
    rows.iter()
        .map(|row| {
            let mut line = String::from(r#"{"row":["#);
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                escape_into(&v.as_text(), &mut line);
                line.push('"');
            }
            line.push_str("]}");
            line
        })
        .collect()
}

/// Decodes row lines the way the client does.
fn decode_rows(lines: &[String]) -> usize {
    lines
        .iter()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| {
            let cells = j.get("row")?.as_arr()?;
            Some(cells.iter().filter_map(|c| c.as_str().map(str::to_string)).count())
        })
        .sum()
}

/// What a traced run accumulates: the span list, the layer samples, and
/// the operations it issued itself.
struct Tracer {
    db: Arc<Database>,
    log: SpanLog,
    samples: Samples,
    tally: Tally,
}

impl Tracer {
    fn doc_id(&self, run: &Run, op: &QueryOp) -> Option<DocId> {
        self.db.store().doc_id(&run.feed.names[op.doc]).ok().flatten()
    }

    /// One sampled query: the whole run as a real span, then its layers
    /// re-issued beneath it. Returns the duration of the whole run.
    fn trace_query(&mut self, run: &Run, op: &QueryOp) -> Option<u64> {
        let db = Arc::clone(&self.db);
        let doc = self.doc_id(run, op)?;
        let root = self.log.begin(None, "op.query");
        let result = db.query(&op.text).at(far_future()).run();
        self.log.end(root);
        self.tally.attempted += 1;
        let Ok(result) = result else {
            self.tally.failed += 1;
            return None;
        };
        let run_ns = self.log.spans()[root].dur_ns();
        self.reissue_query_layers(root, op, doc, &result);
        Some(run_ns)
    }

    /// Re-issues, under `parent`, the layers of a query that just ran.
    fn reissue_query_layers(
        &mut self,
        parent: usize,
        op: &QueryOp,
        doc: DocId,
        result: &QueryResult,
    ) {
        let db = Arc::clone(&self.db);
        let now = far_future();
        let (parsed, parse_ns) = timed(|| parse_query(&op.text));
        self.log.reissued(parent, "query.parse", parse_ns);
        self.samples.parse.push(parse_ns);
        let Ok(parsed) = parsed else { return };
        let (plan, plan_ns) = timed(|| plan_query(&db, &parsed, now));
        self.log.reissued(parent, "query.plan", plan_ns);
        self.samples.plan.push(plan_ns);
        // query.exec_us: the run minus its parse and its plan.
        let run_ns = self.log.spans()[parent].dur_ns();
        self.samples.exec.push(run_ns.saturating_sub(parse_ns + plan_ns));
        let Ok(plan) = plan else { return };
        let Some(src) = plan.sources.first() else { return };
        let Strategy::Index(pattern) = &src.strategy else { return };
        let docsel = match src.docs {
            DocSel::One(d) => Some(d),
            _ => None,
        };
        let rebuilt = result.stats.reconstructions > 0;
        // Small children first: if the re-issued pieces overrun the
        // query, the clamp cuts the largest one, not these.
        self.log.reissued(parent, "xml.serialize", reissue_serialize(&result.rows));
        match src.mode {
            ScanMode::Current | ScanMode::At(_) => {
                let (matches, scan_ns) = timed(|| match src.mode {
                    ScanMode::At(t) => db.tpattern_scan(docsel, pattern, t),
                    _ => db.pattern_scan(docsel, pattern),
                });
                let scan = self.log.reissued(parent, "core.tpattern_scan", scan_ns);
                let look_ns = reissue_lookups(&db, pattern, doc, src.mode);
                self.log.reissued(scan, "index.fti.lookup_t", look_ns);
                let version = matches.ok().and_then(|m| m.first().map(|m| m.version));
                if let (true, Some(v)) = (rebuilt, version) {
                    let (load_ns, apply_ns) =
                        reissue_chain(&db, doc, v, result.stats.deltas_applied);
                    let vt = self.log.reissued(parent, "storage.version_tree", load_ns + apply_ns);
                    self.log.reissued(vt, "delta.apply", apply_ns);
                }
            }
            ScanMode::Every(interval) => {
                let (matches, scan_ns) =
                    timed(|| db.tpattern_scan_all_between(docsel, pattern, interval));
                let scan = self.log.reissued(parent, "core.tpattern_scan_all", scan_ns);
                let look_ns = reissue_lookups(&db, pattern, doc, src.mode);
                self.log.reissued(scan, "index.fti.lookup_h", look_ns);
                let matches = matches.unwrap_or_default();
                if rebuilt {
                    // The executor walks the document's history once
                    // (§7.3.4) when a query touches several versions;
                    // a walk it did cold is re-issued cold.
                    if result.stats.cache_misses > result.stats.cache_hits {
                        db.store().vcache().invalidate_doc(doc);
                    }
                    let (history, dh_ns) = timed(|| db.doc_history(doc, Interval::ALL));
                    let dh = self.log.reissued(parent, "core.doc_history", dh_ns);
                    let versions = history.map_or(0, |h| h.len());
                    let (load_ns, apply_ns) =
                        reissue_chain(&db, doc, VersionId(0), versions.saturating_sub(1));
                    self.log.reissued(dh, "storage.delta_load", load_ns);
                    self.log.reissued(dh, "delta.apply", apply_ns);
                }
                let var = pattern.nodes().iter().position(|n| n.var.is_some()).unwrap_or(0);
                let teids: Vec<_> = matches.iter().map(|m| m.nodes[var].at(m.ts)).collect();
                match op.template {
                    Template::Lifetime(_) => {
                        let (_, ns) = timed(|| {
                            for t in &teids {
                                let _ = db.cre_time(*t, LifetimeStrategy::Index);
                                let _ = db.del_time(*t, LifetimeStrategy::Index);
                            }
                        });
                        self.log.reissued(parent, "core.cre_del_time", ns);
                    }
                    Template::PrevNext(_) => {
                        let (_, ns) = timed(|| {
                            for t in &teids {
                                for near in [db.previous_ts(*t), db.next_ts(*t)] {
                                    if let Ok(Some(ts)) = near {
                                        let _ = db.reconstruct(t.eid.at(ts));
                                    }
                                }
                            }
                        });
                        self.log.reissued(parent, "core.reconstruct", ns);
                    }
                    _ => {}
                }
            }
        }
    }

    /// The layer probes on one sampled operation: public calls into
    /// `index`, `core`, `storage` and `delta`, timed one by one.
    fn probe_layers(&mut self, run: &Run, op: &QueryOp, core_turn: bool, heavy: bool) {
        let db = Arc::clone(&self.db);
        let Some(doc) = self.doc_id(run, op) else { return };
        let tag = run.plan.spec.element_tag();
        let at = if op.template.is_history() || op.template.is_current() {
            // A stored instant of the document's past.
            run.feed.version_ts[op.doc][run.plan.spec.versions / 2]
        } else {
            op.probe
        };
        let Ok(Some(v)) = db.store().version_at(doc, at) else { return };
        let docs: HashSet<DocId> = HashSet::from([doc]);
        {
            let fti = db.indexes().fti();
            let s = &mut self.samples;
            s.lookup.push(timed(|| fti.lookup_scoped(tag, OccKind::Name, Some(&docs)).len()).1);
            s.lookup_t.push(
                timed(|| fti.lookup_t_scoped(tag, OccKind::Name, Some(&docs), |_| Some(v)).len()).1,
            );
            s.lookup_h.push(timed(|| fti.lookup_h_scoped(tag, OccKind::Name, Some(&docs)).len()).1);
        }
        let pattern = PatternTree::new(PatternNode::tag(tag).project());
        let (scan, ns) = timed(|| db.tpattern_scan_counted(Some(doc), &pattern, at));
        self.samples.scan.push(ns);
        let Ok((matches, scan_stats)) = scan else { return };
        self.samples.postings += scan_stats.postings as u64;
        self.samples.lookups += scan_stats.fti_lookups as u64;
        // Both rebuild version `v`, so each sampled operation times one
        // of them, in the cache state the list left behind.
        let teid = matches.first().map(|m| m.nodes[0].at(m.ts));
        match teid {
            Some(teid) if core_turn => {
                self.samples.reconstruct.push(timed(|| db.reconstruct(teid)).1);
            }
            _ => {
                let (_, ns) = timed(|| db.store().version_tree_counted(doc, v));
                self.samples.version_tree.push(ns);
            }
        }
        if let Some(teid) = teid {
            self.samples.cre_time.push(timed(|| db.cre_time(teid, LifetimeStrategy::Index)).1);
        }
        if v.0 > 0 {
            if let (Ok(Some(delta)), Ok(mut tree)) =
                (db.store().delta(doc, v), db.store().version_tree(doc, v))
            {
                self.samples.apply.push(timed(|| delta.apply_backward(&mut tree)).1);
            }
        }
        if heavy {
            self.samples.scan_all.push(timed(|| db.tpattern_scan_all(Some(doc), &pattern)).1);
            let versions = &run.feed.version_ts[op.doc];
            let from = versions[(v.0 as usize).saturating_sub(8)];
            let window = Interval::new(from, at + txdb_base::Duration::from_micros(1));
            self.samples.doc_history.push(timed(|| db.doc_history(doc, window)).1);
        }
    }
}

/// Storage and index open probes on the closed store: `storage.open_ms`
/// is `DocumentStore::open` alone, `index.checkpoint_load_ms` is reading
/// and decoding the index blob.
fn open_probes(run: &mut Run, m: &mut Metrics) {
    let db = run.take_db();
    db.close().expect("close");
    let opts = db_options(&run.plan.spec, &run.dir);
    let (mut open_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (store, ns) = timed(|| DocumentStore::open(opts.store.clone()));
        let (store, _) = store.expect("open the store alone");
        open_ms.push(ns as f64 / 1e6);
        let (_, ns) = timed(|| {
            let blob = store.read_index_checkpoint().ok().flatten().unwrap_or_default();
            txdb_index::persist::decode(&blob).map(|c| c.covers.len()).unwrap_or(0)
        });
        load_ms.push(ns as f64 / 1e6);
    }
    m.insert("storage.open_ms", stats::median(&open_ms));
    m.insert("index.checkpoint_load_ms", stats::median(&load_ms));
    run.put_db(opts.open().expect("reopen"));
}

/// The `wal_sync(true)` probe: appends small records to a log of its own
/// and times each durability barrier. This sandbox's, never gated.
fn fsync_probe(scratch: &Path, m: &mut Metrics) {
    let reg = Registry::new();
    let path = scratch.join("fsync-probe.log");
    let (mut fsyncs_per_commit, mut p50) = (0.0, 0.0);
    if let Ok(mut wal) = Wal::open(&path, true) {
        wal.set_metrics(WalMetrics::registered(&reg));
        let payload = [0x5au8; 256];
        let mut commit_us = Vec::new();
        for _ in 0..FSYNC_PROBE_COMMITS {
            let Ok(seq) = wal.append(&payload) else { break };
            let (r, ns) = timed(|| wal.commit(seq));
            if r.is_ok() {
                commit_us.push(us(ns));
            }
        }
        if !commit_us.is_empty() {
            fsyncs_per_commit = reg.counter("wal.fsyncs").get() as f64 / commit_us.len() as f64;
            p50 = stats::median(&commit_us);
        }
    }
    let _ = std::fs::remove_file(&path);
    m.insert("storage.wal.fsyncs_per_commit", fsyncs_per_commit);
    m.insert("storage.wal.fsync_us_p50", p50);
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 when unreadable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The wire pass of a traced run: one untraced pass for the transport
/// figures, one pass with `"trace":true` on the wire, then the sampled
/// span trees. One connection, one session thread.
fn wire_pass(
    tracer: &mut Tracer,
    run: &mut Run,
    m: &mut Metrics,
    query: &PhaseResult,
    facts: &ListFacts,
    sample: &[usize],
) -> PhaseResult {
    let db = Arc::clone(&tracer.db);
    let pin = CpuPin::one_core();
    run.wire_affinity = pin.how.clone();
    let ops = &run.plan.queries;
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("start the server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let at = Some(far_future().micros());
    let mut tally = Tally::default();
    let mut note = |ok: bool| {
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    };
    for (i, op) in ops.iter().enumerate() {
        let r = client.query(&op.text, at);
        note(matches!(&r, Ok(r) if super::oracle::digest(&r.rows) == facts.digests[i]));
    }
    let server_hist = |j: &Json| {
        let h = j.get("metrics")?.get("histograms")?.get("server.cmd.query_us")?;
        Some((h.get("count")?.as_u64()?, h.get("sum")?.as_u64()?))
    };
    let before = client.metrics().ok().as_ref().and_then(server_hist).unwrap_or((0, 0));
    let mut lat_us = Vec::with_capacity(ops.len());
    let round = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let (r, ns) = timed(|| client.query(&op.text, at));
        lat_us.push(us(ns));
        note(matches!(&r, Ok(r) if r.rows.len() == facts.row_counts[i]));
    }
    let untraced_s = round.elapsed().as_secs_f64();
    let after = client.metrics().ok().as_ref().and_then(server_hist).unwrap_or((0, 0));
    m.insert("server.cmd_query_us_mean", ratio(after.1 - before.1, after.0 - before.0));
    let rows: usize = facts.row_counts.iter().sum();
    let overhead: f64 = lat_us.iter().zip(&query.first_round_lat_us).map(|(w, q)| w - q).sum();
    m.insert("server.wire_overhead_us", overhead / ops.len() as f64);
    m.insert("server.us_per_row", overhead / rows.max(1) as f64);

    let round = Instant::now();
    for op in ops {
        let r = client.query_stream_traced(&op.text, at, true, |_| {});
        note(matches!(&r, Ok((_, Some(_), _))));
    }
    let traced_s = round.elapsed().as_secs_f64();
    m.insert("server.traced_query_per_s", ops.len() as f64 / traced_s);
    // Base: the untraced pass over the same list on the same connection.
    m.insert("server.trace_overhead_ratio", traced_s / untraced_s);

    let (mut decode_ns, mut decoded_rows) = (0u64, 0usize);
    for &i in sample {
        let op = &ops[i];
        let root = tracer.log.begin(None, "op.wire_query");
        let reply = client.query(&op.text, at);
        tracer.log.end(root);
        note(reply.is_ok());
        let Ok(reply) = reply else { continue };
        // The server's own measurement of the command, from its reply.
        let cmd = tracer.log.reissued(root, "server.cmd_query", reply.done.elapsed_us * 1000);
        let Ok(result) = db.query(&op.text).at(far_future()).run() else { continue };
        let (lines, encode_ns) = timed(|| encode_rows(&result.rows));
        tracer.log.reissued(cmd, "server.row_encode", encode_ns);
        // The same operation's in-process latency in the untraced query
        // round: the same steady cache state the wire round runs in.
        let run_ns = (query.first_round_lat_us[i] * 1e3) as u64;
        let whole = tracer.log.reissued(cmd, "query.run", run_ns);
        tracer.log.reissued(whole, "xml.serialize", reissue_serialize(&result.rows));
        let (cells, ns) = timed(|| decode_rows(&lines));
        std::hint::black_box(cells);
        tracer.log.reissued(root, "client.json_decode", ns);
        decode_ns += ns;
        decoded_rows += lines.len();
    }
    m.insert("client.json_decode_us_per_row", us(decode_ns) / decoded_rows.max(1) as f64);
    drop(client);
    server.shutdown().expect("drain the server");
    drop(pin);
    let mut sorted = lat_us.clone();
    stats::sort(&mut sorted);
    let sorted = vec![sorted];
    PhaseResult {
        name: "wire",
        tally,
        ops_per_round: ops.len(),
        round_secs: vec![untraced_s],
        lat_us: sorted,
        rows_per_round: rows as u64,
        first_round_lat_us: lat_us,
        ..PhaseResult::default()
    }
}

/// The traced put round: one more round of the put list in which a
/// 1-in-k sample of the puts is composed from outside exactly as
/// `Database::put` composes it — parse, `store.put_tree`,
/// `indexes.on_put` — under real spans, with the diff re-issued inside
/// `storage.put_tree`; the other puts are plain `db.put` calls, timed,
/// and give the put time the spans are held against.
fn traced_puts(tracer: &mut Tracer, names: &[String], puts: &[PutOp], m: &mut Metrics) {
    let db = Arc::clone(&tracer.db);
    let (mut parse_ns, mut xml_bytes, mut ser_ns, mut ser_bytes) = (0u64, 0usize, 0u64, 0usize);
    let (mut diff, mut put_tree, mut on_put) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain, mut writers) = (Vec::new(), Vec::new());
    let k = (puts.len() / PUT_SAMPLES).max(1);
    for (i, p) in puts.iter().enumerate() {
        let name = &names[p.doc];
        if i % k != 0 {
            let (r, ns) = timed(|| db.put(name, &p.xml, p.ts));
            plain.push(ns);
            tracer.tally.attempted += 1;
            tracer.tally.failed += u64::from(r.is_err());
            continue;
        }
        let log = &mut tracer.log;
        let root = log.begin(None, "op.put");
        let parse = log.begin(Some(root), "xml.parse");
        let tree = parse_document(&p.xml);
        log.end(parse);
        parse_ns += log.spans()[parse].dur_ns();
        xml_bytes += p.xml.len();
        tracer.tally.attempted += 1;
        let Ok(tree) = tree else {
            log.end(root);
            tracer.tally.failed += 1;
            continue;
        };
        let resurrected = db
            .store()
            .doc_id(name)
            .ok()
            .flatten()
            .is_some_and(|d| db.store().is_deleted(d).unwrap_or(false));
        let store = log.begin(Some(root), "storage.put_tree");
        let r = db.store().put_tree(name, tree, p.ts);
        log.end(store);
        put_tree.push(log.spans()[store].dur_ns());
        let Ok(r) = r else {
            log.end(root);
            tracer.tally.failed += 1;
            continue;
        };
        if r.changed {
            let index = log.begin(Some(root), "index.on_put");
            let indexed = db.indexes().on_put(
                r.doc,
                r.version,
                r.ts,
                &r.new_tree,
                r.delta.as_ref(),
                resurrected,
            );
            log.end(index);
            on_put.push(log.spans()[index].dur_ns());
            tracer.tally.failed += u64::from(indexed.is_err());
        }
        log.end(root);
        if let (Some(old), Some(d)) = (&r.old_tree, &r.delta) {
            if let (Ok(mut fresh), Ok(mut next)) =
                (parse_document(&p.xml), db.store().next_xid(r.doc))
            {
                let (_, ns) = timed(|| {
                    txdb_delta::diff::diff_trees(
                        old,
                        &mut fresh,
                        &mut next,
                        d.from_version,
                        d.from_ts,
                        p.ts,
                    )
                });
                log.reissued(store, "delta.diff", ns);
                diff.push(ns);
            }
        }
        let spent = |id: usize| log.spans()[id].dur_ns();
        writers.push(spent(parse) + spent(store) + on_put.last().copied().unwrap_or(0));
        let (text, ns) = timed(|| txdb_xml::serialize::to_string(&r.new_tree));
        ser_ns += ns;
        ser_bytes += text.len();
    }
    // Base: the median latency of the plain puts of the same round.
    m.insert("trace.put.writer_spans_over_put", median_us(&writers) / median_us(&plain).max(1e-9));
    let per_kib = |ns: u64, bytes: usize| us(ns) / (bytes.max(1) as f64 / 1024.0);
    m.insert("xml.parse_us_per_kb", per_kib(parse_ns, xml_bytes));
    m.insert("xml.serialize_us_per_kb", per_kib(ser_ns, ser_bytes));
    m.insert("delta.diff_us_per_put", median_us(&diff));
    m.insert("storage.put_tree_us", median_us(&put_tree));
    m.insert("index.on_put_us", median_us(&on_put));
}

/// Two reader threads over the head of the query list against one:
/// the ratio of their throughputs.
fn read_scaling(db: &Database, ops: &[QueryOp]) -> f64 {
    let head = &ops[..ops.len().min(2000)];
    let pass = || {
        for op in head {
            std::hint::black_box(db.query(&op.text).at(far_future()).run().is_ok());
        }
    };
    pass();
    let (_, one_ns) = timed(pass);
    let (_, two_ns) = timed(|| {
        std::thread::scope(|s| {
            s.spawn(pass);
            s.spawn(pass);
        })
    });
    2.0 * one_ns as f64 / two_ns.max(1) as f64
}

/// A traced run: every per-layer metric of `BENCHMARK.json`, the span
/// trees written to `out_dir/trace-<workload>.json`, and the tables.
pub fn per_layer(
    spec: Spec,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    out_dir: &Path,
) -> Result<Outcome, String> {
    // One warm-up and one measured round per reference phase: the traced
    // run needs the counters and latencies of a round, not its spread.
    let mut run = Run::start(spec, seed, 2, scratch, 1);
    check_residency(&run.plan.spec, run.stored_bytes)?;
    let mut m = Metrics::new();
    {
        let db = run.db();
        let blob = db.store().index_checkpoint_info().ok().flatten();
        m.insert("index.checkpoint_bytes", blob.map_or(0.0, |c| c.bytes as f64));
        let space = db.store().space_stats().map_err(|e| e.to_string())?;
        m.insert(
            "delta.encoded_bytes_per_user_byte",
            space.delta_bytes as f64 / run.setup_user_bytes as f64,
        );
    }
    open_probes(&mut run, &mut m);

    // The untraced reference round and the engine's own counters around it.
    let (query, facts) = run.query_phase();
    let n = query.ops_per_round as u64;
    m.insert(
        "storage.deltas_applied_per_reconstruct",
        ratio(query.counter("reconstruct.deltas_applied"), query.counter("reconstruct.calls")),
    );
    m.insert("storage.buffer.gets_per_query", ratio(query.counter("buffer.gets"), n));
    m.insert(
        "storage.buffer.physical_reads_per_query",
        ratio(query.counter("buffer.physical_reads"), n),
    );
    m.insert(
        "storage.buffer.hit_ratio",
        ratio(query.counter("buffer.hits"), query.counter("buffer.gets")),
    );
    let (hits, misses) = (query.counter("vcache.hits"), query.counter("vcache.misses"));
    m.insert("storage.vcache.hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "query.rows_scanned_per_row_output",
        ratio(query.counter("query.rows_scanned"), query.counter("query.rows_output")),
    );

    // The 1-in-k sample of the query list.
    let k = (run.plan.queries.len() / SAMPLES).max(1);
    let sample: Vec<usize> = (0..run.plan.queries.len()).step_by(k).collect();
    let ops = run.plan.queries.clone();
    let mut tracer = Tracer {
        db: run.db(),
        log: SpanLog::new(),
        samples: Samples::default(),
        tally: Tally::default(),
    };
    let mut traced_ns = 0u64;
    for (j, &i) in sample.iter().enumerate() {
        traced_ns += tracer.trace_query(&run, &ops[i]).unwrap_or(0);
        // The probes take the operation half a stride further on: a
        // (document, version) pair the traced query has not just rebuilt.
        let probed = &ops[(i + k / 2) % ops.len()];
        tracer.probe_layers(&run, probed, j % 2 == 1, j % HEAVY_EVERY == 0);
    }
    let untraced_us: f64 = sample.iter().map(|&i| query.first_round_lat_us[i]).sum();
    // Base: the untraced latency of the same operations in the query phase.
    m.insert("bench.trace_overhead_ratio", us(traced_ns) / untraced_us.max(1e-9));
    let wire = wire_pass(&mut tracer, &mut run, &mut m, &query, &facts, &sample);
    m.insert("core.read_scaling_2t", read_scaling(&tracer.db, &ops));

    let s = &tracer.samples;
    m.insert("index.fti.lookup_us", median_us(&s.lookup));
    m.insert("index.fti.lookup_t_us", median_us(&s.lookup_t));
    m.insert("index.fti.lookup_h_us", median_us(&s.lookup_h));
    m.insert("index.fti.postings_per_lookup", ratio(s.postings, s.lookups));
    m.insert("core.tpattern_scan_us", median_us(&s.scan));
    m.insert("core.tpattern_scan_all_us", median_us(&s.scan_all));
    m.insert("core.reconstruct_us", median_us(&s.reconstruct));
    m.insert("core.doc_history_us", median_us(&s.doc_history));
    m.insert("core.cre_time_us", median_us(&s.cre_time));
    m.insert("storage.version_tree_us", median_us(&s.version_tree));
    m.insert("delta.apply_us_per_delta", median_us(&s.apply));
    m.insert("query.parse_us", median_us(&s.parse));
    m.insert("query.plan_us", median_us(&s.plan));
    m.insert("query.exec_us", median_us(&s.exec));

    // Writers: an untraced put round for the counters, then traced puts.
    let put = run.put_phase();
    m.insert(
        "storage.wal.bytes_per_user_byte",
        ratio(put.counter("wal.appended_bytes"), put.user_bytes),
    );
    let puts = run.traced_puts();
    traced_puts(&mut tracer, &run.feed.names, &puts, &mut m);
    let (store_ckpt, ns) = timed(|| tracer.db.store().checkpoint());
    store_ckpt.map_err(|e| e.to_string())?;
    m.insert("storage.checkpoint_ms", ns as f64 / 1e6);
    tracer.db.checkpoint().map_err(|e| e.to_string())?;
    let Tracer { log, tally, .. } = tracer;

    fsync_probe(scratch, &mut m);
    m.insert("process.peak_rss_mb", peak_rss_mb());

    log.check()?;
    let breakdown = log.breakdown();
    let of = |root: &str| breakdown.iter().find(|b| b.root == root);
    m.insert(
        "trace.query.storage_delta_share",
        of("op.query").map_or(0.0, |b| b.layer_share(&["storage", "delta"])),
    );
    m.insert(
        "trace.wire.per_row_share",
        of("op.wire_query").map_or(0.0, |b| {
            b.span_share(&["xml.serialize", "server.row_encode", "client.json_decode"])
        }),
    );
    m.insert("trace.clamped_spans", log.clamped as f64);

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let trace_path = out_dir.join(format!("trace-{}.json", run.plan.spec.name));
    std::fs::write(&trace_path, log.to_json(run.plan.spec.name, seed).to_string())
        .map_err(|e| e.to_string())?;
    for b in &breakdown {
        print!("{}", b.render());
    }
    println!("trace written to {}", trace_path.display());

    let phases = vec![query, wire, put];
    let attempted = phases.iter().map(|p| p.tally.attempted).sum::<u64>() + tally.attempted;
    let failed = phases.iter().map(|p| p.tally.failed).sum::<u64>() + tally.failed;
    let envelope = report::envelope(&run, seconds, true, &phases.iter().collect::<Vec<_>>());
    Ok(Outcome { metrics: m, attempted, failed, envelope, phases })
}
