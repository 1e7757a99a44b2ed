//! The network front end, end to end: concurrent wire clients against a
//! serial in-process replay, session lifecycle (pins released on
//! disconnect, accept loop survives killed connections), malformed-input
//! hardening, the busy gate and graceful drain.
//!
//! The server's contract: a wire client is just another engine thread.
//! Whatever a query returns in-process it must return byte-identically
//! over the wire, concurrency included; and whatever a session holds
//! (snapshot pins, a half-read cursor) dies with its connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use temporal_xml::client::{read_frame, Client, Frame, Json};
use temporal_xml::server::proto::decode;
use temporal_xml::{Database, DbOptions, QueryExt, Server, ServerConfig, Timestamp};

fn ts(n: u64) -> Timestamp {
    Timestamp::from_secs(1_000_000 + n)
}

fn start(db: Arc<Database>) -> Server {
    Server::start(db, ServerConfig::default()).unwrap()
}

/// Polls `cond` for up to two seconds; panics with `what` on timeout.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A raw wire connection, for driving the protocol below the `Client`
/// abstraction (partial lines, invalid bytes, hand-built frames).
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        Raw { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
    }

    /// Sends `bytes` as one newline-terminated request line.
    fn send_line(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).unwrap()
    }

    fn error_code(&mut self) -> String {
        let resp = self.recv();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error.code")
            .to_string()
    }
}

// ------------------------------------------------------- differential

/// Eight concurrent wire clients, each replaying historical probes, must
/// see exactly what a serial in-process replay sees — byte-identical
/// rendered results. This is the acceptance bar for the whole front end:
/// the wire adds transport, never semantics.
#[test]
fn eight_wire_clients_match_serial_replay() {
    let db = Arc::new(Database::in_memory());
    for i in 0..25u64 {
        db.put("d", &format!("<log><n>{i}</n><w>alpha{i}</w></log>"), ts(i * 10)).unwrap();
    }
    let queries = [
        r#"SELECT R/n FROM doc("d")[EVERY]//log R"#,
        r#"SELECT TIME(R), R/w FROM doc("d")[EVERY]//log R"#,
        r#"SELECT R FROM doc("d")//log R"#,
    ];
    // Probe times straddle every version boundary.
    let probes: Vec<Timestamp> = (0..=50).map(|k| ts(k * 5 + 3)).collect();
    let expected: Vec<String> = probes
        .iter()
        .flat_map(|&p| {
            queries
                .iter()
                .map(move |q| (p, q))
                .map(|(p, q)| db.query(q).at(p).run().unwrap().to_xml())
        })
        .collect();
    let server = start(Arc::clone(&db));
    let addr = server.addr();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let probes = &probes;
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Each thread starts at a different offset so the eight
                // sessions are always querying different timestamps.
                for k in 0..probes.len() {
                    let p = probes[(k + t * 7) % probes.len()];
                    for (qi, q) in queries.iter().enumerate() {
                        let got = client.query(q, Some(p.micros())).unwrap().to_xml();
                        let want = &expected[((k + t * 7) % probes.len()) * queries.len() + qi];
                        assert_eq!(&got, want, "thread {t} probe {p} query {qi} diverged");
                    }
                }
            });
        }
    });
    server.shutdown().unwrap();
}

// -------------------------------------------------- session lifecycle

/// A dropped connection releases everything the session held: explicit
/// `PIN`s and the snapshot pin inside a half-read query cursor. Vacuum's
/// horizon, fenced while the pins lived, advances once they are gone.
#[test]
fn disconnect_mid_stream_releases_pins() {
    let db = Arc::new(Database::in_memory());
    for i in 1..=5u64 {
        db.put("d", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
    }
    let server = start(Arc::clone(&db));
    let baseline = db.store().snapshots().active();

    let mut raw = Raw::connect(server.addr());
    raw.send_line(format!(r#"{{"cmd":"PIN","at":{}}}"#, ts(1).micros()).as_bytes());
    assert_eq!(raw.recv().get("pin").and_then(Json::as_u64), Some(1));
    // While the pin lives, vacuum is fenced at ts(1): nothing to purge.
    let fenced = db.vacuum("d", ts(5)).unwrap().unwrap();
    assert_eq!(fenced.purged_versions, 0, "pin failed to fence vacuum");
    // Start a query and walk away after the first row: the cursor (and
    // its own pin) is abandoned mid-stream.
    raw.send_line(br#"{"cmd":"QUERY","q":"SELECT R FROM doc(\"d\")[EVERY]//a R"}"#);
    let first = raw.recv();
    assert!(first.get("row").is_some(), "{first}");
    drop(raw); // no UNPIN, no drain of the stream — just gone

    wait_until("session teardown to release pins", || db.store().snapshots().active() == baseline);
    wait_until("active_sessions gauge to return to 0", || {
        db.metrics().snapshot().gauge("server.active_sessions") == Some(0)
    });
    // The fence is gone: everything before the version valid at ts(5)
    // (v1..v3; v4 is the one valid at the horizon) is now purgeable.
    let purged = db.vacuum("d", ts(5)).unwrap().unwrap();
    assert_eq!(purged.purged_versions, 3, "vacuum horizon failed to advance");
    server.shutdown().unwrap();
}

/// A connection that dies mid-line (no terminator, no clean close) must
/// not wedge the accept loop or leak a session.
#[test]
fn killed_connection_never_wedges_the_accept_loop() {
    let db = Arc::new(Database::in_memory());
    db.put("d", "<a>x</a>", ts(1)).unwrap();
    let server = start(Arc::clone(&db));

    for _ in 0..3 {
        let mut raw = Raw::connect(server.addr());
        raw.send(br#"{"cmd":"QUERY","q":"SELECT"#); // half a request
        drop(raw); // RST/EOF with the line unterminated
    }
    // The server must still accept and serve promptly.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.query(r#"SELECT R FROM doc("d")//a R"#, None).unwrap().rows.len(), 1);
    wait_until("dead sessions to be reaped", || {
        db.metrics().snapshot().gauge("server.active_sessions") == Some(1)
    });
    server.shutdown().unwrap();
}

/// Beyond `max_conns` live sessions, a new connection gets one structured
/// `busy` error — and a slot freeing up readmits new clients.
#[test]
fn busy_gate_refuses_and_recovers() {
    let db = Arc::new(Database::in_memory());
    let cfg = ServerConfig { max_conns: 1, ..Default::default() };
    let server = Server::start(Arc::clone(&db), cfg).unwrap();

    let mut first = Client::connect(server.addr()).unwrap();
    first.ping().unwrap(); // session is live, the one slot is taken
    let mut refused = Raw::connect(server.addr());
    assert_eq!(refused.error_code(), "busy");
    drop(first);
    wait_until("the slot to free", || server.active_sessions() == 0);
    // The accept loop re-checks occupancy per connection: readmitted.
    wait_until("readmission after the slot freed", || {
        Client::connect(server.addr())
            .and_then(|mut c| {
                c.ping().map_err(|e| match e {
                    temporal_xml::client::ClientError::Io(io) => io,
                    other => std::io::Error::other(other.to_string()),
                })
            })
            .is_ok()
    });
    server.shutdown().unwrap();
}

// ------------------------------------------------ malformed input

/// Every malformed request gets a structured, code-bearing error response
/// on the same connection — which stays usable. Nothing drops the session
/// but EOF and `SHUTDOWN`.
#[test]
fn malformed_input_gets_structured_errors_not_disconnects() {
    let db = Arc::new(Database::in_memory());
    db.put("d", "<a>x</a>", ts(1)).unwrap();
    let cfg = ServerConfig { max_request_bytes: 256, ..Default::default() };
    let server = Server::start(Arc::clone(&db), cfg).unwrap();
    let mut raw = Raw::connect(server.addr());

    // Not JSON at all.
    raw.send(b"hello there\n");
    assert_eq!(raw.error_code(), "parse");
    // Truncated mid-value: distinguished from garbage.
    raw.send(b"{\"cmd\":\"PING\"\n");
    assert_eq!(raw.error_code(), "truncated");
    // Invalid UTF-8.
    raw.send(b"\xff\xfe{\"cmd\":\"PING\"}\n");
    assert_eq!(raw.error_code(), "utf8");
    // Oversized line: refused without buffering, connection stays in sync.
    let mut big = vec![b'x'; 4096];
    big.push(b'\n');
    raw.send(&big);
    assert_eq!(raw.error_code(), "too_large");
    // Wrong shapes and types.
    raw.send(b"[1,2,3]\n");
    assert_eq!(raw.error_code(), "bad_request");
    raw.send(b"{\"cmd\":5}\n");
    assert_eq!(raw.error_code(), "bad_request");
    raw.send(b"{\"cmd\":\"PUT\",\"doc\":\"d\"}\n");
    assert_eq!(raw.error_code(), "bad_request"); // missing xml
    raw.send(b"{\"cmd\":\"QUERY\",\"q\":\"SELECT nonsense !!\"}\n");
    assert_eq!(raw.error_code(), "query");
    raw.send_line(br#"{"cmd":"PUT","doc":"d","xml":"<unclosed>"}"#);
    assert_eq!(raw.error_code(), "query"); // XML parse failure
    raw.send(b"{\"cmd\":\"UNPIN\",\"pin\":99}\n");
    assert_eq!(raw.error_code(), "bad_request");

    // After all that abuse, the session still answers.
    raw.send(b"{\"cmd\":\"PING\"}\n");
    assert_eq!(raw.recv().get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown().unwrap();
}

// ------------------------------------------------- graceful drain

/// `shutdown` stops accepting, finishes the in-flight work, releases all
/// session pins and checkpoints the WAL closed: a reopen replays nothing
/// and fsck comes back clean with zero leaked pins.
#[test]
fn graceful_shutdown_leaves_store_clean_with_zero_pins() {
    let dir = std::env::temp_dir().join(format!("txdb-server-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(DbOptions::at(&dir).open().unwrap());
    let server = start(Arc::clone(&db));

    let mut client = Client::connect(server.addr()).unwrap();
    for i in 1..=4u64 {
        let r = client.put("d", &format!("<a><v>{i}</v></a>"), Some(ts(i).micros())).unwrap();
        assert!(r.changed);
    }
    client.pin(ts(2).micros()).unwrap(); // deliberately never unpinned
    assert_eq!(db.store().snapshots().active(), 1);

    let report = server.shutdown().unwrap();
    assert_eq!(report.sessions_drained, 1, "the pinned session was live at drain");
    assert_eq!(db.store().snapshots().active(), 0, "drain leaked a snapshot pin");
    let fsck = db.store().fsck();
    assert!(fsck.is_clean(), "{fsck}");
    assert_eq!(fsck.wal_records, 0, "drain checkpoint failed to close the WAL: {fsck}");
    drop(client);
    drop(db);
    // Reopen: nothing to recover.
    let db = DbOptions::at(&dir).open().unwrap();
    assert_eq!(db.recovery_report().replayed, 0);
    assert_eq!(db.query(r#"SELECT R FROM doc("d")//a R"#).at(ts(10)).run().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Durable wire PUTs from concurrent clients funnel into the WAL group
/// commit like in-process writers: every commit crosses exactly one fsync
/// barrier, the drain leaves no pin behind, and a crash image of the
/// store taken after the last acknowledged PUT — before any checkpoint —
/// recovers every version from the WAL alone.
#[test]
fn durable_wire_commits_share_fsyncs_and_survive_a_crash() {
    const CLIENTS: u64 = 4;
    const PUTS: u64 = 8;
    let dir = std::env::temp_dir().join(format!("txdb-server-durable-{}", std::process::id()));
    let crash = dir.with_extension("crash");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
    let db = Arc::new(DbOptions::at(&dir).wal_sync(true).open().unwrap());
    let server = start(Arc::clone(&db));
    let addr = server.addr();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..PUTS {
                    let xml = format!("<a><v>{i}</v></a>");
                    let r =
                        client.put(&format!("doc-{c}"), &xml, Some(ts(i + 1).micros())).unwrap();
                    assert!(r.changed);
                }
            });
        }
    });
    let batches = db.metrics().snapshot().histogram("wal.group_commit.batch_size").unwrap();
    assert_eq!(batches.sum, CLIENTS * PUTS, "every wire commit crosses exactly one fsync barrier");
    // The pool is no-steal and nothing has checkpointed: the store files
    // as they stand are what a crash right now would leave behind.
    std::fs::create_dir_all(&crash).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, crash.join(path.file_name().unwrap())).unwrap();
    }
    server.shutdown().unwrap();
    assert_eq!(
        db.metrics().snapshot().gauge("db.active_snapshots"),
        Some(0),
        "drain leaked a session or cursor pin"
    );
    drop(db);

    let db = DbOptions::at(&crash).open().unwrap();
    assert!(db.recovery_report().salvage.is_none());
    assert_eq!(db.recovery_report().replayed as u64, CLIENTS * PUTS);
    for c in 0..CLIENTS {
        let q = format!(r#"SELECT R/v FROM doc("doc-{c}")[EVERY]//a R"#);
        assert_eq!(db.query(&q).at(ts(PUTS + 1)).run().unwrap().len() as u64, PUTS, "doc-{c}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crash).unwrap();
}

/// An answer many times the session's write buffer streams without
/// stalling. With Nagle's algorithm left on for accepted sockets four in
/// five such answers waited ~40 ms for the client's delayed ACK before
/// their last partial segment left; the median of several runs must stay
/// under the stall alone, several times what the answer itself takes.
#[test]
fn large_answer_streams_without_nagle_stall() {
    let db = Arc::new(Database::in_memory());
    let items: String =
        (0..300).map(|i| format!("<item><n>{i}</n><w>{}</w></item>", "x".repeat(200))).collect();
    db.put("big", &format!("<list>{items}</list>"), ts(0)).unwrap();
    let server = start(Arc::clone(&db));
    let mut client = Client::connect(server.addr()).unwrap();
    let mut took: Vec<Duration> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let reply = client.query(r#"SELECT R FROM doc("big")//item R"#, None).unwrap();
            let bytes: usize = reply.rows.iter().flatten().map(String::len).sum();
            assert!(reply.rows.len() == 300 && bytes > 64 * 1024, "{bytes} bytes");
            t0.elapsed()
        })
        .collect();
    took.sort();
    assert!(took[7] < Duration::from_millis(35), "large answers took {took:?}");
    drop(client);
    server.shutdown().unwrap();
}

// --------------------------------------------------- observability

/// Two sessions at once: one runs `[EVERY]` on `a` while the test drops
/// `a`'s cached versions every other run, the other repeats a `Current`
/// query on `b`. Every `b` done frame reports that query's solo
/// `cache_hits` and `reconstructions`: a session's counters never include
/// another session's work.
#[test]
fn concurrent_sessions_report_only_their_own_cache_traffic() {
    let db = Arc::new(Database::in_memory());
    for i in 0..8u64 {
        db.put("a", &format!("<log><n>{i}</n></log>"), ts(i)).unwrap();
    }
    let items: String = (0..100).map(|i| format!("<item><v>{i}</v></item>")).collect();
    db.put("b", &format!("<list>{items}</list>"), ts(10)).unwrap();
    let server = start(Arc::clone(&db));
    let addr = server.addr();
    let q = r#"SELECT R/v FROM doc("b")//item R"#;
    let mut client = Client::connect(addr).unwrap();
    let solo = client.query(q, None).unwrap().done;
    assert_eq!((solo.reconstructions, solo.cache_hits), (1, 0));
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let busy = s.spawn(|| {
            let mut other = Client::connect(addr).unwrap();
            let a = db.store().doc_id("a").unwrap().unwrap();
            let mut runs = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let reply = other.query(r#"SELECT R/n FROM doc("a")[EVERY]//log R"#, None);
                assert_eq!(reply.unwrap().rows.len(), 8);
                if runs % 2 == 1 {
                    db.store().vcache().invalidate_doc(a);
                }
                runs += 1;
            }
            runs
        });
        // Asserted once the other session has stopped, so a failure
        // cannot leave it spinning.
        let differing =
            (0..500).map(|i| (i, client.query(q, None).unwrap().done)).find(|(_, d)| {
                (d.reconstructions, d.cache_hits) != (solo.reconstructions, solo.cache_hits)
            });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(
            differing.is_none(),
            "counted another session's work: {differing:?}, alone {solo:?}"
        );
        assert!(busy.join().unwrap() > 0, "the other session ran");
    });
    drop(client);
    server.shutdown().unwrap();
}

/// A traced wire QUERY returns a span tree whose root duration equals —
/// to the microsecond — the `server.cmd.query_us` histogram observation
/// for that request, and every child span fits inside its parent.
#[test]
fn traced_query_span_tree_matches_the_metrics_observation() {
    let db = Arc::new(Database::in_memory());
    for i in 1..=8u64 {
        db.put("d", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
    }
    let server = start(Arc::clone(&db));
    let mut client = Client::connect(server.addr()).unwrap();
    let mut rows = 0u64;
    let (_explain, trace, _done) = client
        .query_stream_traced(r#"SELECT R FROM doc("d")[EVERY]//a R"#, None, true, |_| rows += 1)
        .unwrap();
    assert_eq!(rows, 8);
    let trace = trace.expect("traced request must carry a trace in its done frame");
    let fields = trace.get("fields").expect("trace-level fields");
    assert_eq!(fields.get("cmd").and_then(Json::as_str), Some("query"));
    assert!(fields.get("session").and_then(Json::as_u64).is_some());
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert_eq!(spans.len(), 1, "one root span per request: {trace}");
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("server.cmd.query_us"));
    let root_us = root.get("us").and_then(Json::as_u64).unwrap();
    // Exactly one query ran, and histogram sums are exact (only the
    // percentiles are bucketed): the root span and the observation the
    // request recorded must agree exactly.
    let h = db.metrics().snapshot().histogram("server.cmd.query_us").unwrap();
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, root_us, "trace root disagrees with server.cmd.query_us");
    // Children nest: no span outlasts its parent, anywhere in the tree.
    fn check(span: &Json) -> usize {
        let us = span.get("us").and_then(Json::as_u64).unwrap();
        let mut n = 1;
        for c in span.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            assert!(c.get("us").and_then(Json::as_u64).unwrap() <= us, "child outlasts parent");
            n += check(c);
        }
        n
    }
    let text = trace.to_string();
    assert!(check(root) >= 3, "expected plan/run/operator children: {trace}");
    assert!(text.contains("query.run_us"), "executor span missing: {trace}");
    assert!(text.contains("query.plan_us"), "planner span missing: {trace}");
    // The request landed in the trace ring too.
    let ring = client.traces(None).unwrap();
    let entries = ring.get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].get("cmd").and_then(Json::as_str), Some("query"));
    assert_eq!(entries[0].get("us").and_then(Json::as_u64), Some(root_us));
    server.shutdown().unwrap();
}

/// With the threshold at zero every query is slow: the log captures the
/// query text, session context, row/scan counts and the full
/// `EXPLAIN ANALYZE` tree, newest first.
#[test]
fn slow_query_log_captures_plan_and_context() {
    let db = Arc::new(Database::in_memory());
    for i in 1..=4u64 {
        db.put("d", &format!("<a><v>{i}</v></a>"), ts(i)).unwrap();
    }
    let cfg = ServerConfig { slow_us: Some(0), ..Default::default() };
    let server = Server::start(Arc::clone(&db), cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.query(r#"SELECT R FROM doc("d")[EVERY]//a R"#, None).unwrap();
    assert_eq!(reply.rows.len(), 4);
    let log = client.slowlog(None).unwrap();
    assert_eq!(log.get("slow_us").and_then(Json::as_u64), Some(0));
    let entries = log.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), 1);
    let e = &entries[0];
    assert!(e.get("q").and_then(Json::as_str).unwrap().contains("SELECT"), "{e}");
    assert_eq!(e.get("rows").and_then(Json::as_u64), Some(4));
    assert!(e.get("rows_scanned").and_then(Json::as_u64).unwrap() >= 4);
    assert!(e.get("us").and_then(Json::as_u64).is_some());
    let explain = e.get("explain").and_then(Json::as_str).unwrap();
    assert!(explain.contains("scan"), "plan missing from the slow log: {explain:?}");
    // The query was not traced, so the entry carries no trace id.
    assert!(e.get("trace_id").is_none(), "{e}");
    server.shutdown().unwrap();
}

/// `METRICS` with the previous call's cursor reports the window between
/// the two calls as deltas; a stale or foreign cursor is refused.
#[test]
fn metrics_since_cursor_reports_window_deltas() {
    let db = Arc::new(Database::in_memory());
    db.put("d", "<a>x</a>", ts(1)).unwrap();
    let server = start(Arc::clone(&db));
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client.metrics_since(None).unwrap();
    let cursor = first.get("cursor").and_then(Json::as_u64).expect("cursor");
    assert!(first.get("delta").is_none(), "no window without a cursor: {first}");
    assert!(first.get("metrics").is_some());

    client.query(r#"SELECT R FROM doc("d")//a R"#, None).unwrap();
    let second = client.metrics_since(Some(cursor)).unwrap();
    assert!(second.get("window_us").and_then(Json::as_u64).unwrap() > 0);
    let delta = second.get("delta").expect("delta with a cursor");
    let dh = delta
        .get("histograms")
        .and_then(|h| h.get("server.cmd.query_us"))
        .expect("query histogram moved this window");
    assert_eq!(dh.get("count").and_then(Json::as_u64), Some(1));
    // Cursors are single-use: replaying the consumed one is refused.
    assert!(client.metrics_since(Some(cursor)).is_err(), "stale cursor must be refused");
    server.shutdown().unwrap();
}

/// An idle session is timed out: it receives one structured
/// `idle_timeout` error, and its pins release like any disconnect.
#[test]
fn idle_session_times_out_and_releases_pins() {
    let db = Arc::new(Database::in_memory());
    db.put("d", "<a>x</a>", ts(1)).unwrap();
    let cfg = ServerConfig { idle_timeout: Some(Duration::from_millis(80)), ..Default::default() };
    let server = Server::start(Arc::clone(&db), cfg).unwrap();
    let baseline = db.store().snapshots().active();

    let mut raw = Raw::connect(server.addr());
    raw.send_line(format!(r#"{{"cmd":"PIN","at":{}}}"#, ts(1).micros()).as_bytes());
    assert_eq!(raw.recv().get("pin").and_then(Json::as_u64), Some(1));
    assert_eq!(db.store().snapshots().active(), baseline + 1);
    // Send nothing more: the server's read times out and closes us.
    assert_eq!(raw.error_code(), "idle_timeout");
    wait_until("idle teardown to release pins", || db.store().snapshots().active() == baseline);
    wait_until("active_sessions gauge to return to 0", || {
        db.metrics().snapshot().gauge("server.active_sessions") == Some(0)
    });
    assert!(db.metrics().snapshot().counter("server.idle_timeouts").unwrap() >= 1);
    server.shutdown().unwrap();
}

// ---------------------------------------------------- decoder fuzz

proptest! {
    /// The request decoder never panics, whatever line arrives.
    #[test]
    fn decode_never_panics(line in ".{0,120}") {
        let _ = decode(&line);
    }

    /// Neither does the frame reader, on arbitrary bytes with a tiny
    /// budget — every frame is one of the four variants, never a panic
    /// or a stuck loop.
    #[test]
    fn frame_reader_never_panics(bytes in prop::collection::vec(0u8..=255u8, 0..256)) {
        let mut r = std::io::BufReader::new(&bytes[..]);
        for _ in 0..64 {
            match read_frame(&mut r, 16) {
                Ok(Frame::Eof) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Round-trip: a well-formed PUT built with the client's own encoder
    /// always decodes into the same fields.
    #[test]
    fn put_requests_round_trip(doc in "[a-z]{1,12}", xml in "<a>[ -~]{0,40}</a>", at in 0u64..1u64 << 50) {
        let line = Json::obj([
            Json::field("cmd", Json::str("PUT")),
            Json::field("doc", Json::str(&doc)),
            Json::field("xml", Json::str(&xml)),
            Json::field("at", Json::u64(at)),
        ]).to_string();
        match decode(&line).expect("well-formed PUT must decode") {
            (temporal_xml::server::proto::Request::Put { doc: d, xml: x, at: t }, false) => {
                prop_assert_eq!(d, doc);
                prop_assert_eq!(x, xml);
                prop_assert_eq!(t.map(|t| t.micros()), Some(at));
            }
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }
}
