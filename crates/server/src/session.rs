//! One connected client: the per-session command loop.
//!
//! A session owns one TCP connection, a private map of snapshot pins and
//! nothing else — all state worth sharing lives in the [`Database`]
//! handle. Commands execute strictly in arrival order; `QUERY` streams
//! its rows through the PR 7 cursor, so a result larger than memory never
//! materializes on the server (and an abandoned connection drops the
//! cursor, releasing its snapshot pin). Every command runs under a
//! request-level span feeding the shared metrics registry; a request sent
//! with `"trace":true` additionally gets a [`TraceContext`] installed for
//! its duration, so that span — and every span beneath it, down to WAL
//! commits and version reconstructions — assembles into the span tree
//! returned in the response's `trace` field and kept in the server's
//! trace ring.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use txdb_base::obs::{EventValue, MetricsSnapshot, TraceContext};
use txdb_client::frame::{read_frame, Frame};
use txdb_client::json::{escape_into, Json};
use txdb_core::Database;
use txdb_query::{strip_explain_prefix, QueryExt};
use txdb_storage::SnapshotPin;

use crate::proto::{decode, engine_error, ErrorCode, Request, WireError};
use crate::server::ServerConfig;
use crate::traces::{SlowEntry, TraceStore};

/// Why the session loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client disconnected (EOF), idled out, or the transport failed.
    Disconnected,
    /// The session asked the server to drain (`SHUTDOWN`).
    DrainRequested,
}

/// Per-session state and its command loop.
pub struct Session {
    db: Arc<Database>,
    id: u64,
    max_request_bytes: usize,
    slow_us: Option<u64>,
    idle_timeout: Option<Duration>,
    traces: Arc<TraceStore>,
    pins: HashMap<u64, SnapshotPin>,
    next_pin: u64,
    requests: u64,
    /// The live `METRICS` cursor: id, when it was cut, and the snapshot
    /// it saw — what a `since` request diffs against.
    metrics_cursor: Option<(u64, Instant, MetricsSnapshot)>,
    cursor_seq: u64,
}

impl Session {
    /// Creates the state for session `id`.
    pub fn new(db: Arc<Database>, id: u64, cfg: &ServerConfig, traces: Arc<TraceStore>) -> Session {
        Session {
            db,
            id,
            max_request_bytes: cfg.max_request_bytes,
            slow_us: cfg.slow_us,
            idle_timeout: cfg.idle_timeout,
            traces,
            pins: HashMap::new(),
            next_pin: 1,
            requests: 0,
            metrics_cursor: None,
            cursor_seq: 0,
        }
    }

    /// Runs the command loop until the client disconnects, idles out or
    /// requests a drain. Always leaves the session's pins released (they
    /// drop with `self`); transport errors end the loop instead of
    /// propagating.
    pub fn run(mut self, stream: TcpStream) -> SessionEnd {
        let reg = Arc::clone(self.db.metrics());
        reg.counter("server.sessions_opened").inc();
        reg.emit("server.session_open", &[("session", EventValue::U64(self.id))]);
        // The idle timeout is a plain read timeout on the socket: a
        // blocked `read_frame` wakes with `WouldBlock`/`TimedOut` and the
        // loop closes the session like any disconnect.
        let _ = stream.set_read_timeout(self.idle_timeout);
        // Responses leave in buffer-sized writes plus one flush per
        // request; with Nagle on, the last partial segment of an answer
        // larger than the write buffer waits for the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let end = self.command_loop(&stream).unwrap_or(SessionEnd::Disconnected);
        reg.emit(
            "server.session_close",
            &[("session", EventValue::U64(self.id)), ("requests", EventValue::U64(self.requests))],
        );
        end
    }

    fn command_loop(&mut self, stream: &TcpStream) -> std::io::Result<SessionEnd> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream.try_clone()?);
        loop {
            let frame = match read_frame(&mut reader, self.max_request_bytes) {
                Ok(f) => f,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Idle past the read timeout: one structured goodbye,
                    // then end the session — dropping `self` releases its
                    // pins exactly like a client disconnect.
                    self.db.metrics().counter("server.idle_timeouts").inc();
                    let ms = self.idle_timeout.map_or(0, |d| d.as_millis() as u64);
                    let _ = self.refuse(
                        &mut writer,
                        WireError::new(
                            ErrorCode::IdleTimeout,
                            format!("session idle for more than {ms}ms"),
                        ),
                    );
                    return Ok(SessionEnd::Disconnected);
                }
                Err(e) => return Err(e),
            };
            let line = match frame {
                Frame::Eof => return Ok(SessionEnd::Disconnected),
                Frame::TooLarge => {
                    self.refuse(
                        &mut writer,
                        WireError::new(
                            ErrorCode::TooLarge,
                            format!("request exceeds {} bytes", self.max_request_bytes),
                        ),
                    )?;
                    continue;
                }
                Frame::BadUtf8 => {
                    self.refuse(
                        &mut writer,
                        WireError::new(ErrorCode::Utf8, "request is not valid UTF-8"),
                    )?;
                    continue;
                }
                Frame::Line(l) => l,
            };
            if line.trim().is_empty() {
                continue;
            }
            let (req, traced) = match decode(&line) {
                Ok(r) => r,
                Err(e) => {
                    self.refuse(&mut writer, e)?;
                    continue;
                }
            };
            self.requests += 1;
            let reg = Arc::clone(self.db.metrics());
            reg.counter("server.requests").inc();
            let tag = req.tag();
            let trace = traced.then(|| {
                let ctx = TraceContext::root(self.traces.next_trace_id());
                ctx.set_field("session", self.id);
                ctx.set_field("cmd", tag);
                ctx
            });
            let guard = trace.as_ref().map(TraceContext::install);
            let span = reg.span(req.span_name());
            let drain = matches!(req, Request::Shutdown);
            let outcome = self.execute(req, traced, &mut writer);
            // The request span must close before the tree is assembled:
            // it *is* the trace's root, and its recorded duration is the
            // same observation the `server.cmd.*_us` histogram got.
            drop(span);
            drop(guard);
            match outcome {
                Ok(mut final_line) => {
                    if let Some(ctx) = trace {
                        let tree = ctx.finish();
                        self.traces.record_trace(self.id, tag, &tree);
                        if final_line.ends_with('}') {
                            final_line.pop();
                            final_line.push_str(",\"trace\":");
                            final_line.push_str(&tree.to_json());
                            final_line.push('}');
                        }
                    }
                    if write_line_str(&mut writer, &final_line).is_err() {
                        return Ok(SessionEnd::Disconnected);
                    }
                    writer.flush()?;
                    if drain {
                        return Ok(SessionEnd::DrainRequested);
                    }
                }
                Err(e) => {
                    reg.counter("server.requests.failed").inc();
                    self.refuse(&mut writer, e)?;
                }
            }
        }
    }

    /// Writes one structured error response (and counts it).
    fn refuse(&self, w: &mut impl Write, e: WireError) -> std::io::Result<()> {
        self.db.metrics().counter("server.errors").inc();
        writeln!(w, "{}", e.render())?;
        w.flush()
    }

    /// Executes one decoded command. Streams intermediate lines (`QUERY`
    /// rows, the explain line) straight to `w` but *returns* the final
    /// `{"ok":…}` line, so the caller can close the request span first
    /// and splice the finished trace into it. Engine failures come back
    /// as `Err` and are rendered by the caller.
    fn execute(
        &mut self,
        req: Request,
        traced: bool,
        w: &mut impl Write,
    ) -> Result<String, WireError> {
        match req {
            Request::Ping => Ok(ok([Json::field("pong", Json::Bool(true))]).to_string()),
            Request::Put { doc, xml, at } => {
                let at = at.unwrap_or_else(wall_clock);
                let r = self.db.put(&doc, &xml, at).map_err(|e| engine_error(&e))?;
                Ok(ok([
                    Json::field("changed", Json::Bool(r.changed)),
                    r.changed.then(|| ("version", Json::u64(r.version.0 as u64))),
                    Json::field("ts", Json::u64(r.ts.micros())),
                ])
                .to_string())
            }
            Request::Delete { doc, at } => {
                let at = at.unwrap_or_else(wall_clock);
                let r = self.db.delete(&doc, at).map_err(|e| engine_error(&e))?;
                Ok(ok([
                    Json::field("deleted", Json::Bool(r.is_some())),
                    r.map(|d| ("ts", Json::u64(d.ts.micros()))),
                ])
                .to_string())
            }
            Request::Query { q, at, limit } => self.execute_query(&q, at, limit, traced, w),
            Request::Pin { at } => {
                let pin = self.db.pin_snapshot(at);
                let id = self.next_pin;
                self.next_pin += 1;
                self.pins.insert(id, pin);
                Ok(ok([
                    Json::field("pin", Json::u64(id)),
                    Json::field("at", Json::u64(at.micros())),
                ])
                .to_string())
            }
            Request::Unpin { pin } => match self.pins.remove(&pin) {
                Some(_) => Ok(ok([Json::field("released", Json::Bool(true))]).to_string()),
                None => Err(WireError::new(
                    ErrorCode::BadRequest,
                    format!("no pin {pin} in this session"),
                )),
            },
            Request::Stats => {
                let s = self.db.store().space_stats().map_err(|e| engine_error(&e))?;
                let docs = self.db.store().list().map_err(|e| engine_error(&e))?.len();
                let fti = self.db.indexes().fti();
                Ok(ok([
                    Json::field("documents", Json::u64(docs as u64)),
                    Json::field("pages", Json::u64(s.pages)),
                    Json::field("current_bytes", Json::u64(s.current_bytes)),
                    Json::field("delta_bytes", Json::u64(s.delta_bytes)),
                    Json::field("snapshot_bytes", Json::u64(s.snapshot_bytes)),
                    Json::field("meta_bytes", Json::u64(s.meta_bytes)),
                    Json::field("fti_postings", Json::u64(fti.posting_count() as u64)),
                    Json::field("fti_tokens", Json::u64(fti.token_count() as u64)),
                    Json::field(
                        "active_snapshots",
                        Json::u64(self.db.store().snapshots().active() as u64),
                    ),
                    Json::field("session_pins", Json::u64(self.pins.len() as u64)),
                ])
                .to_string())
            }
            Request::Metrics { since } => self.execute_metrics(since),
            Request::Traces { limit } => Ok(self.traces.render_traces(limit)),
            Request::Slowlog { limit } => Ok(self.traces.render_slowlog(limit, self.slow_us)),
            Request::Shutdown => Ok(ok([Json::field("draining", Json::Bool(true))]).to_string()),
        }
    }

    /// `METRICS`: a cumulative snapshot, plus — when `since` names the
    /// cursor returned by this session's previous call — the counter and
    /// histogram deltas over that window, so pollers get rates without
    /// re-diffing snapshots client-side.
    fn execute_metrics(&mut self, since: Option<u64>) -> Result<String, WireError> {
        self.db.store().update_derived_metrics();
        let snap = self.db.metrics().snapshot();
        // `to_json` is pretty-printed; the wire wants one line.
        // Round-tripping through the parser also guarantees the embedded
        // object really is well-formed JSON.
        let compact = Json::parse(&snap.to_json())
            .map_err(|e| WireError::new(ErrorCode::Engine, format!("metrics snapshot: {e}")))?
            .to_string();
        let window = match since {
            None => None,
            Some(n) => match &self.metrics_cursor {
                Some((id, t0, prev)) if *id == n => {
                    Some((t0.elapsed().as_micros() as u64, snap.delta_since(prev).to_json()))
                }
                _ => {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        format!(
                            "unknown metrics cursor {n} (cursors are per-session and single-use)"
                        ),
                    ))
                }
            },
        };
        self.cursor_seq += 1;
        let cursor = self.cursor_seq;
        self.metrics_cursor = Some((cursor, Instant::now(), snap));
        Ok(match window {
            None => format!(r#"{{"ok":true,"cursor":{cursor},"metrics":{compact}}}"#),
            Some((window_us, delta)) => format!(
                r#"{{"ok":true,"cursor":{cursor},"window_us":{window_us},"delta":{delta},"metrics":{compact}}}"#
            ),
        })
    }

    /// `QUERY`: open the streaming cursor, write one `{"row":[…]}` line
    /// per row, then (under `EXPLAIN ANALYZE`) the rendered plan tree,
    /// and return the `{"ok":true,…}` trailer. An engine error before the
    /// first row is a plain error response; after rows have flowed the
    /// error becomes the terminating line instead of the trailer, so the
    /// client always sees a structured end-of-response. Queries crossing
    /// the `--slow-ms` threshold are recorded into the slow-query log
    /// with their plan tree and session context.
    fn execute_query(
        &mut self,
        raw_q: &str,
        at: Option<txdb_base::Timestamp>,
        limit: Option<usize>,
        traced: bool,
        w: &mut impl Write,
    ) -> Result<String, WireError> {
        let started = std::time::Instant::now();
        let (q, explain) = match strip_explain_prefix(raw_q) {
            Some(rest) => (rest, true),
            None => (raw_q, false),
        };
        let at = at.unwrap_or_else(wall_clock);
        let mut req = self.db.query(q).at(at);
        // Operator metering powers three consumers: the explain line the
        // client asked for, per-operator trace spans, and the slow log's
        // plan capture. Only the first is echoed to the client.
        if explain || traced || self.slow_us.is_some() {
            req = req.explain();
        }
        if let Some(n) = limit {
            req = req.limit(n);
        }
        let mut stream = req.stream().map_err(|e| engine_error(&e))?;
        let mut rows = 0u64;
        let mut line = String::new();
        for row in &mut stream {
            let row = match row {
                Ok(r) => r,
                Err(e) => {
                    // Mid-stream failure: terminate the response in-band.
                    return Ok(engine_error(&e).render());
                }
            };
            line.clear();
            line.push_str(r#"{"row":["#);
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                escape_into(&v.as_text(), &mut line);
                line.push('"');
            }
            line.push_str("]}");
            write_line_str(w, &line)?;
            rows += 1;
        }
        if explain {
            if let Some(tree) = stream.explain() {
                let mut text = String::new();
                escape_into(&tree.render(), &mut text);
                write_line_str(w, &format!(r#"{{"explain":"{text}"}}"#))?;
            }
        }
        let elapsed_us = started.elapsed().as_micros() as u64;
        let stats = stream.stats();
        if let Some(slow_us) = self.slow_us {
            if elapsed_us >= slow_us {
                self.db.metrics().counter("server.slow_queries").inc();
                self.traces.record_slow(SlowEntry {
                    trace_id: TraceContext::current().map(|c| c.trace_id()),
                    session: self.id,
                    q: raw_q.to_string(),
                    at: at.micros(),
                    us: elapsed_us,
                    rows,
                    rows_scanned: stats.rows_scanned as u64,
                    reconstructions: stats.reconstructions as u64,
                    explain: stream.explain().map(|t| t.render()).unwrap_or_default(),
                });
            }
        }
        Ok(ok([
            Json::field("rows", Json::u64(rows)),
            Json::field("elapsed_us", Json::u64(elapsed_us)),
            Json::field("rows_scanned", Json::u64(stats.rows_scanned as u64)),
            Json::field("reconstructions", Json::u64(stats.reconstructions as u64)),
            Json::field("cache_hits", Json::u64(stats.cache_hits as u64)),
        ])
        .to_string())
    }
}

/// Builds an `{"ok":true,…}` response object.
fn ok<const N: usize>(fields: [Option<(&str, Json)>; N]) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields.into_iter().flatten().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all)
}

fn write_line_str(w: &mut impl Write, line: &str) -> Result<(), WireError> {
    writeln!(w, "{line}").map_err(|e| WireError::new(ErrorCode::Engine, format!("write: {e}")))
}

/// The server wall clock (default commit/`NOW` timestamp).
pub(crate) fn wall_clock() -> txdb_base::Timestamp {
    txdb_base::Timestamp::from_micros(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
    )
}
