//! The typed session API over one `txdb serve` connection.
//!
//! A [`Client`] owns one TCP connection and drives the newline-delimited
//! JSON protocol documented in `docs/protocol.md`. Commands are
//! synchronous request/response; `QUERY` responses stream row lines which
//! [`Client::query_stream`] surfaces one at a time (bounded memory on
//! both ends of the wire) and [`Client::query`] collects.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{read_frame, Frame};
use crate::json::Json;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with something the protocol does not allow.
    Protocol(String),
    /// A structured error response from the server.
    Server {
        /// Machine-readable error code (see `docs/protocol.md`).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Shorthand result.
pub type ClientResult<T> = Result<T, ClientError>;

/// What a `PUT` did.
#[derive(Debug, Clone, PartialEq)]
pub struct PutReply {
    /// False when the new content equals the current version (no version
    /// stored).
    pub changed: bool,
    /// The stored version number (when changed).
    pub version: Option<u64>,
    /// The commit timestamp in microseconds.
    pub ts: u64,
}

/// The trailer of a `QUERY` response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryDone {
    /// Rows streamed.
    pub rows: u64,
    /// Server-side wall-clock for the whole query, microseconds.
    pub elapsed_us: u64,
    /// Version reconstructions performed.
    pub reconstructions: u64,
    /// Materialized-version cache hits.
    pub cache_hits: u64,
}

/// A collected `QUERY` response.
#[derive(Debug, Clone, Default)]
pub struct QueryReply {
    /// Rows, each a vector of rendered values (one per select item).
    pub rows: Vec<Vec<String>>,
    /// The rendered `EXPLAIN ANALYZE` tree, when requested.
    pub explain: Option<String>,
    /// Execution summary.
    pub done: QueryDone,
}

impl QueryReply {
    /// Reassembles the §5 result document exactly as the in-process
    /// `QueryResult::to_xml` renders it — the differential-test anchor.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<results>");
        for row in &self.rows {
            out.push_str("<result>");
            for v in row {
                out.push_str(v);
            }
            out.push_str("</result>");
        }
        out.push_str("</results>");
        out
    }
}

/// One `txdb serve` connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Response lines larger than this are a protocol violation (metrics
    /// dumps are the biggest legitimate payload; 16 MiB is far above).
    max_response_bytes: usize,
}

impl Client {
    /// Connects to a `txdb serve` endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream, max_response_bytes: 16 << 20 })
    }

    fn send_line(&mut self, line: &str) -> ClientResult<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> ClientResult<String> {
        match read_frame(&mut self.reader, self.max_response_bytes)? {
            Frame::Line(l) => Ok(l),
            Frame::Eof => Err(ClientError::Protocol("server closed the connection".into())),
            Frame::TooLarge => Err(ClientError::Protocol("oversized response line".into())),
            Frame::BadUtf8 => Err(ClientError::Protocol("response not UTF-8".into())),
        }
    }

    fn read_json(&mut self) -> ClientResult<Json> {
        let line = self.read_line()?;
        Json::parse(&line).map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))
    }

    /// Sends `req` and reads exactly one response object, mapping
    /// `{"ok":false,...}` to [`ClientError::Server`].
    fn call(&mut self, req: &Json) -> ClientResult<Json> {
        self.send_line(&req.to_string())?;
        let resp = self.read_json()?;
        check_ok(resp)
    }

    /// `PING` → server liveness.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.call(&Json::obj([Json::field("cmd", Json::str("PING"))]))?;
        Ok(())
    }

    /// `PUT doc xml [at]`: stores a new version; `at` is microseconds
    /// since the epoch (server wall clock when `None`).
    pub fn put(&mut self, doc: &str, xml: &str, at: Option<u64>) -> ClientResult<PutReply> {
        let resp = self.call(&Json::obj([
            Json::field("cmd", Json::str("PUT")),
            Json::field("doc", Json::str(doc)),
            Json::field("xml", Json::str(xml)),
            at.map(|t| ("at", Json::u64(t))),
        ]))?;
        Ok(PutReply {
            changed: resp.get("changed").and_then(Json::as_bool).unwrap_or(false),
            version: resp.get("version").and_then(Json::as_u64),
            ts: resp.get("ts").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// `DELETE doc [at]` → whether a tombstone was written.
    pub fn delete(&mut self, doc: &str, at: Option<u64>) -> ClientResult<bool> {
        let resp = self.call(&Json::obj([
            Json::field("cmd", Json::str("DELETE")),
            Json::field("doc", Json::str(doc)),
            at.map(|t| ("at", Json::u64(t))),
        ]))?;
        Ok(resp.get("deleted").and_then(Json::as_bool).unwrap_or(false))
    }

    /// `QUERY`, streaming: `on_row` sees each row (rendered values) as it
    /// crosses the wire; returns the explain tree (if any) and the
    /// trailer. Neither side materializes the result.
    pub fn query_stream(
        &mut self,
        q: &str,
        at: Option<u64>,
        on_row: impl FnMut(Vec<String>),
    ) -> ClientResult<(Option<String>, QueryDone)> {
        let (explain, _trace, done) = self.query_stream_traced(q, at, false, on_row)?;
        Ok((explain, done))
    }

    /// [`Client::query_stream`] with the request's `trace` flag: when
    /// `trace` is true the server records a span tree for the request and
    /// returns it (as parsed JSON) alongside the trailer.
    pub fn query_stream_traced(
        &mut self,
        q: &str,
        at: Option<u64>,
        trace: bool,
        mut on_row: impl FnMut(Vec<String>),
    ) -> ClientResult<(Option<String>, Option<Json>, QueryDone)> {
        let req = Json::obj([
            Json::field("cmd", Json::str("QUERY")),
            Json::field("q", Json::str(q)),
            at.map(|t| ("at", Json::u64(t))),
            trace.then_some(("trace", Json::Bool(true))),
        ]);
        self.send_line(&req.to_string())?;
        let mut explain = None;
        loop {
            let msg = self.read_json()?;
            if let Some(row) = msg.get("row").and_then(Json::as_arr) {
                let vals = row
                    .iter()
                    .map(|v| match v {
                        Json::Str(s) => Ok(s.clone()),
                        other => Err(ClientError::Protocol(format!("non-string cell {other}"))),
                    })
                    .collect::<ClientResult<Vec<String>>>()?;
                on_row(vals);
                continue;
            }
            if let Some(text) = msg.get("explain").and_then(Json::as_str) {
                explain = Some(text.to_string());
                continue;
            }
            let done = check_ok(msg)?;
            let get = |k: &str| done.get(k).and_then(Json::as_u64).unwrap_or(0);
            let reply = QueryDone {
                rows: get("rows"),
                elapsed_us: get("elapsed_us"),
                reconstructions: get("reconstructions"),
                cache_hits: get("cache_hits"),
            };
            let trace = done.get("trace").cloned();
            return Ok((explain, trace, reply));
        }
    }

    /// `QUERY`, collected into a [`QueryReply`].
    pub fn query(&mut self, q: &str, at: Option<u64>) -> ClientResult<QueryReply> {
        let mut rows = Vec::new();
        let (explain, done) = self.query_stream(q, at, |row| rows.push(row))?;
        Ok(QueryReply { rows, explain, done })
    }

    /// `PIN at` → a session-scoped snapshot pin id. The server holds the
    /// engine pin until `UNPIN` or disconnect.
    pub fn pin(&mut self, at: u64) -> ClientResult<u64> {
        let resp = self.call(&Json::obj([
            Json::field("cmd", Json::str("PIN")),
            Json::field("at", Json::u64(at)),
        ]))?;
        resp.get("pin")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("PIN response without id".into()))
    }

    /// `UNPIN id`: releases a pin taken by this session.
    pub fn unpin(&mut self, pin: u64) -> ClientResult<()> {
        self.call(&Json::obj([
            Json::field("cmd", Json::str("UNPIN")),
            Json::field("pin", Json::u64(pin)),
        ]))?;
        Ok(())
    }

    /// `STATS` → space/index statistics object.
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.call(&Json::obj([Json::field("cmd", Json::str("STATS"))]))
    }

    /// `METRICS` → the engine + server metrics snapshot (the same shape
    /// as `txdb metrics --json`, under the `"metrics"` key).
    pub fn metrics(&mut self) -> ClientResult<Json> {
        self.metrics_since(None)
    }

    /// `METRICS [since]`: every response carries a `"cursor"`; passing it
    /// back as `since` on the next call adds `"window_us"` and `"delta"`
    /// (counter/histogram changes over the window) — the windowed-rate
    /// feed `txdb top` polls.
    pub fn metrics_since(&mut self, since: Option<u64>) -> ClientResult<Json> {
        self.call(&Json::obj([
            Json::field("cmd", Json::str("METRICS")),
            since.map(|c| ("since", Json::u64(c))),
        ]))
    }

    /// `TRACES [limit]` → recently recorded request traces, newest first.
    pub fn traces(&mut self, limit: Option<u64>) -> ClientResult<Json> {
        self.call(&Json::obj([
            Json::field("cmd", Json::str("TRACES")),
            limit.map(|n| ("limit", Json::u64(n))),
        ]))
    }

    /// `SLOWLOG [limit]` → the slow-query log, newest first.
    pub fn slowlog(&mut self, limit: Option<u64>) -> ClientResult<Json> {
        self.call(&Json::obj([
            Json::field("cmd", Json::str("SLOWLOG")),
            limit.map(|n| ("limit", Json::u64(n))),
        ]))
    }

    /// `SHUTDOWN`: asks the server to drain gracefully. The acknowledgment
    /// arrives before the drain starts; the connection closes shortly
    /// after.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.call(&Json::obj([Json::field("cmd", Json::str("SHUTDOWN"))]))?;
        Ok(())
    }
}

/// Splits `{"ok":true,...}` from `{"ok":false,"error":{...}}`.
fn check_ok(resp: Json) -> ClientResult<Json> {
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(resp),
        Some(false) => {
            let (code, message) = match resp.get("error") {
                Some(e) => (
                    e.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                    e.get("msg").and_then(Json::as_str).unwrap_or("").to_string(),
                ),
                None => ("unknown".to_string(), String::new()),
            };
            Err(ClientError::Server { code, message })
        }
        None => Err(ClientError::Protocol(format!("response without ok field: {resp}"))),
    }
}
