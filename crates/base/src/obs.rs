//! Observability: a lock-free metrics registry, latency histograms and
//! lightweight span tracing.
//!
//! The paper evaluates its operators by *counting* — page reads (§7.2),
//! delta applications per reconstruction (§7.3.3, E4), `FTI_lookup` /
//! `FTI_lookup_T` / `FTI_lookup_H` calls (§6). This module is the
//! measurement substrate those numbers flow through: every component
//! registers named [`Counter`]s, [`Gauge`]s and log-bucketed
//! [`Histogram`]s in a shared [`Registry`], and the CLI, the server and
//! txbench render one snapshot from one source of truth.
//!
//! Design constraints:
//!
//! * **Hot paths are plain atomic increments.** A [`Counter`] is an
//!   `Arc<AtomicU64>`; components look their handles up *once* (at open)
//!   and cache the clone, so steady-state cost is a single relaxed
//!   `fetch_add` — no locks, no hashing, no allocation. The registry's
//!   maps are only locked at registration and snapshot time.
//! * **Histograms are fixed-size and wait-free.** 64 power-of-two buckets
//!   (bucket *b* holds values with bit-length *b*) give ≤ 2× relative
//!   error on p50/p95/p99 with zero allocation per record.
//! * **Tracing is optional.** A [`Span`] always records its duration into
//!   a histogram; only when an [`EventSink`] is attached does it also
//!   emit a JSON line. With no sink the extra cost is one `Option` check.
//! * **Traces are hierarchical and request-scoped.** A [`TraceContext`]
//!   installed on the current thread turns every [`Span`] (and every
//!   explicit [`trace_op`]) into a node of a span *tree*: trace id, span
//!   id, parent id, start offset, duration and key/value fields. The tree
//!   is assembled by [`TraceContext::finish`] with the invariant that a
//!   child's duration never exceeds its parent's, so exclusive times sum
//!   to the root's wall clock the same way EXPLAIN ANALYZE nodes sum to
//!   `ExecStats`. With no context installed the cost is one thread-local
//!   read per span.
//! * **Zero dependencies.** `txdb-base` depends on nothing, so this
//!   module uses only `std` (`AtomicU64`, `std::sync::RwLock` on the
//!   cold registration path).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Number of histogram buckets: one per possible bit-length of a `u64`.
const BUCKETS: usize = 64;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so a component can cache a handle while the registry renders
/// the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (used between experiment phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge (e.g. resident bytes, hit ratio in basis
/// points). Same sharing semantics as [`Counter`].
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    /// `buckets[b]` counts recorded values whose bit-length is `b`
    /// (bucket 0 holds only the value 0; bucket `b ≥ 1` holds
    /// `[2^(b-1), 2^b - 1]`).
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log₂-bucketed latency/size histogram with percentile estimation.
///
/// Recording is wait-free (three relaxed atomic ops plus a `fetch_max`);
/// percentiles are read back as the upper bound of the bucket containing
/// the requested rank, clamped to the observed maximum — an estimate
/// within a factor of two, which is enough to tell a 50 µs fsync from a
/// 5 ms one.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        self.0.buckets[b.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding the `p`-quantile observation
    /// (`p` in `[0, 1]`), clamped to the observed maximum. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (b, bucket) in self.0.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= rank {
                // Bucket 0 holds only 0; the last bucket saturates, so
                // its only honest upper bound is the observed maximum.
                let ub = match b {
                    0 => 0,
                    b if b >= BUCKETS - 1 => self.max(),
                    b => (1u64 << b) - 1,
                };
                return ub.min(self.max());
            }
        }
        self.max()
    }

    /// A consistent-enough copy of the summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Receiver for trace events (one JSON object per call). Implementations
/// must tolerate concurrent calls and must never panic — a broken sink
/// silently drops events rather than failing the operation being traced.
pub trait EventSink: Send + Sync {
    /// Delivers one serialized JSON object (no trailing newline).
    fn event(&self, json: &str);
}

/// An [`EventSink`] appending JSON lines to a writer (typically a file
/// opened in append mode). Write errors are swallowed: tracing must
/// never fail the traced operation.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonLinesSink {
    /// Opens (or creates) `path` in append mode.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonLinesSink> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonLinesSink::writer(Box::new(f)))
    }

    /// Wraps an arbitrary writer (tests).
    pub fn writer(out: Box<dyn std::io::Write + Send>) -> JsonLinesSink {
        JsonLinesSink { out: Mutex::new(out) }
    }
}

impl EventSink for JsonLinesSink {
    fn event(&self, json: &str) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(json.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }
}

/// An [`EventSink`] collecting events in memory (tests).
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// All events received so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().map(|l| l.clone()).unwrap_or_default()
    }
}

impl EventSink for MemorySink {
    fn event(&self, json: &str) {
        if let Ok(mut lines) = self.lines.lock() {
            lines.push(json.to_string());
        }
    }
}

/// A value attached to a trace event.
#[derive(Clone, Copy, Debug)]
pub enum EventValue<'a> {
    /// An unsigned integer.
    U64(u64),
    /// A string (JSON-escaped on emission).
    Str(&'a str),
}

/// The metrics registry: named counters, gauges and histograms, plus an
/// optional event sink.
///
/// Registration is idempotent — asking for an existing name returns a
/// handle to the *same* underlying atomic — so every component can
/// `registry.counter("buffer.gets")` at construction and cache the
/// result. Names are dot-separated, lower-case, with duration histograms
/// suffixed `_us` (microseconds).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    sink: RwLock<Option<Arc<dyn EventSink>>>,
}

/// Recover from a poisoned `std` lock: the data is plain atomics /
/// strings, always valid, so we just take the guard.
macro_rules! lock {
    ($e:expr) => {
        match $e {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    };
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = lock!(self.counters.read()).get(name) {
            return c.clone();
        }
        lock!(self.counters.write()).entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = lock!(self.gauges.read()).get(name) {
            return g.clone();
        }
        lock!(self.gauges.write()).entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = lock!(self.histograms.read()).get(name) {
            return h.clone();
        }
        lock!(self.histograms.write()).entry(name.to_string()).or_default().clone()
    }

    /// Attaches the event sink (replacing any previous one).
    pub fn set_sink(&self, sink: Arc<dyn EventSink>) {
        *lock!(self.sink.write()) = Some(sink);
    }

    /// True when an event sink is attached.
    pub fn has_sink(&self) -> bool {
        lock!(self.sink.read()).is_some()
    }

    /// Emits a trace event `{"event": name, key: value, …}` if a sink is
    /// attached; otherwise a no-op after one lock-free-ish check.
    pub fn emit(&self, name: &str, fields: &[(&str, EventValue<'_>)]) {
        let sink = match lock!(self.sink.read()).clone() {
            Some(s) => s,
            None => return,
        };
        let mut json = String::with_capacity(48 + fields.len() * 24);
        json.push_str("{\"event\":\"");
        json.push_str(&json_escape(name));
        json.push('"');
        for (k, v) in fields {
            json.push_str(",\"");
            json.push_str(&json_escape(k));
            json.push_str("\":");
            match v {
                EventValue::U64(n) => json.push_str(&n.to_string()),
                EventValue::Str(s) => {
                    json.push('"');
                    json.push_str(&json_escape(s));
                    json.push('"');
                }
            }
        }
        json.push('}');
        sink.event(&json);
    }

    /// Starts a span: on drop, the elapsed time in microseconds is
    /// recorded into the histogram named `name` and, when a sink is
    /// attached, emitted as a trace event. When a [`TraceContext`] is
    /// installed on the current thread the span additionally becomes a
    /// node of that trace's span tree (child of whatever span is open),
    /// with exactly the duration recorded into the histogram.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            reg: self,
            hist: self.histogram(name),
            name,
            start: Instant::now(),
            op: trace_op(name),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock!(self.counters.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock!(self.gauges.read()).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: lock!(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A timing guard created by [`Registry::span`]. Dropping it records the
/// elapsed microseconds.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span<'r> {
    reg: &'r Registry,
    hist: Histogram,
    name: &'static str,
    start: Instant,
    op: Option<TraceOp>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.hist.record(us);
        // The trace node gets *exactly* the histogram's observation, so a
        // trace root provably matches its `server.cmd.*_us` record.
        let ids = self.op.take().map(|op| {
            let ids = (op.trace_id(), op.span_id());
            op.complete(us);
            ids
        });
        match ids {
            Some((trace, span)) => self.reg.emit(
                self.name,
                &[
                    ("us", EventValue::U64(us)),
                    ("trace", EventValue::U64(trace)),
                    ("span", EventValue::U64(span)),
                ],
            ),
            None => self.reg.emit(self.name, &[("us", EventValue::U64(us))]),
        }
    }
}

// ---------------------------------------------------------------------------
// Hierarchical traces
// ---------------------------------------------------------------------------

/// Spans recorded per trace beyond which further records are dropped
/// (counted in [`TraceTree::dropped`]). Bounds memory for queries that
/// touch thousands of reconstructions.
const MAX_TRACE_SPANS: usize = 256;

thread_local! {
    /// The trace context installed on this thread, if any. `span_id`
    /// names the innermost open span, so new spans know their parent.
    static ACTIVE: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// A field value attached to a trace span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceValue {
    /// An unsigned integer.
    U64(u64),
    /// A string (JSON-escaped on rendering).
    Str(String),
}

impl TraceValue {
    fn render_json(&self, out: &mut String) {
        match self {
            TraceValue::U64(n) => out.push_str(&n.to_string()),
            TraceValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for TraceValue {
    fn from(n: u64) -> TraceValue {
        TraceValue::U64(n)
    }
}

impl From<&str> for TraceValue {
    fn from(s: &str) -> TraceValue {
        TraceValue::Str(s.to_string())
    }
}

/// One finished span, as stored inside a trace before tree assembly.
#[derive(Clone, Debug)]
struct SpanRecord {
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    duration_us: u64,
    fields: Vec<(String, TraceValue)>,
}

struct TraceShared {
    trace_id: u64,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    fields: Mutex<Vec<(String, TraceValue)>>,
    dropped: AtomicU64,
}

impl TraceShared {
    fn offset_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, rec: SpanRecord) {
        let mut spans = lock!(self.spans.lock());
        if spans.len() >= MAX_TRACE_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(rec);
        }
    }
}

/// A handle on one request's trace: a cheap-to-clone (trace id, current
/// span id) pair over shared span storage.
///
/// The intended life cycle: the server creates a root context per traced
/// request, [`install`](TraceContext::install)s it on the session thread
/// for the request's duration, and every [`Registry::span`] and
/// [`trace_op`] on that thread silently becomes a tree node. When the
/// request's own span has closed, [`finish`](TraceContext::finish)
/// assembles the [`TraceTree`].
#[derive(Clone)]
pub struct TraceContext {
    shared: Arc<TraceShared>,
    span_id: u64,
}

impl TraceContext {
    /// Creates the root context of a new trace.
    pub fn root(trace_id: u64) -> TraceContext {
        TraceContext {
            shared: Arc::new(TraceShared {
                trace_id,
                t0: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                fields: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
            span_id: 0,
        }
    }

    /// The trace's id.
    pub fn trace_id(&self) -> u64 {
        self.shared.trace_id
    }

    /// The id of the span this context points at (0 at root level).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// Attaches a trace-level field (session id, command tag, …).
    pub fn set_field(&self, key: &str, value: impl Into<TraceValue>) {
        lock!(self.shared.fields.lock()).push((key.to_string(), value.into()));
    }

    /// Installs this context on the current thread until the guard drops
    /// (restoring whatever was installed before).
    pub fn install(&self) -> TraceGuard {
        let prev = ACTIVE.with(|a| a.replace(Some(self.clone())));
        TraceGuard { prev }
    }

    /// The context installed on the current thread, if any. The clone
    /// points at the innermost open span — children recorded through it
    /// attach there.
    pub fn current() -> Option<TraceContext> {
        ACTIVE.with(|a| a.borrow().clone())
    }

    /// Records an already-measured span (e.g. an operator's accumulated
    /// self-metering) as a child of this context's span, returning a
    /// context pointing at the new span so its own children can attach.
    /// The start offset is back-dated so `start + duration ≤ now`.
    pub fn record_complete(
        &self,
        name: &str,
        duration_us: u64,
        fields: Vec<(String, TraceValue)>,
    ) -> TraceContext {
        let id = self.shared.alloc_id();
        let start_us = self.shared.offset_us().saturating_sub(duration_us);
        self.shared.push(SpanRecord {
            id,
            parent: self.span_id,
            name: name.to_string(),
            start_us,
            duration_us,
            fields,
        });
        TraceContext { shared: Arc::clone(&self.shared), span_id: id }
    }

    /// Assembles the span tree from everything recorded so far. Spans
    /// whose parent is missing (root-level, or dropped past the span cap)
    /// become top-level nodes; children are clamped to their parent's
    /// duration so `child ≤ parent` holds structurally.
    pub fn finish(&self) -> TraceTree {
        let records = std::mem::take(&mut *lock!(self.shared.spans.lock()));
        let fields = lock!(self.shared.fields.lock()).clone();
        let dropped = self.shared.dropped.load(Ordering::Relaxed);
        TraceTree { trace_id: self.shared.trace_id, fields, roots: assemble(records), dropped }
    }
}

/// Restores the previously installed context when dropped.
#[must_use = "dropping the guard immediately uninstalls the trace"]
pub struct TraceGuard {
    prev: Option<TraceContext>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Opens a trace span named `name` under the context installed on this
/// thread, or returns `None` (for the price of one thread-local read)
/// when no trace is active. While the returned guard lives, spans opened
/// on this thread attach beneath it; dropping it records the span.
pub fn trace_op(name: &str) -> Option<TraceOp> {
    let ctx = TraceContext::current()?;
    let id = ctx.shared.alloc_id();
    let child = TraceContext { shared: Arc::clone(&ctx.shared), span_id: id };
    let prev = ACTIVE.with(|a| a.replace(Some(child.clone())));
    Some(TraceOp {
        ctx: child,
        parent: ctx.span_id,
        name: name.to_string(),
        start: Instant::now(),
        start_us: ctx.shared.offset_us(),
        fields: Vec::new(),
        duration_override: None,
        prev,
    })
}

/// An open trace span (guard). Records itself — and restores the
/// thread's previous context — on drop.
#[must_use = "a trace op measures the scope it is alive in"]
pub struct TraceOp {
    ctx: TraceContext,
    parent: u64,
    name: String,
    start: Instant,
    start_us: u64,
    fields: Vec<(String, TraceValue)>,
    duration_override: Option<u64>,
    prev: Option<TraceContext>,
}

impl TraceOp {
    /// The owning trace's id.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id()
    }

    /// This span's id.
    pub fn span_id(&self) -> u64 {
        self.ctx.span_id
    }

    /// Attaches a key/value field to this span.
    pub fn add_field(&mut self, key: &str, value: impl Into<TraceValue>) {
        self.fields.push((key.to_string(), value.into()));
    }

    /// Closes the span with an externally measured duration instead of
    /// the guard's own clock (used by [`Span`] so trace and histogram
    /// agree to the microsecond).
    pub fn complete(mut self, duration_us: u64) {
        self.duration_override = Some(duration_us);
    }
}

impl Drop for TraceOp {
    fn drop(&mut self) {
        let us = self.duration_override.unwrap_or_else(|| self.start.elapsed().as_micros() as u64);
        self.ctx.shared.push(SpanRecord {
            id: self.ctx.span_id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            duration_us: us,
            fields: std::mem::take(&mut self.fields),
        });
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// One node of an assembled trace: a named span with its start offset
/// (µs since the trace began), duration, fields and children.
#[derive(Clone, Debug)]
pub struct TraceNode {
    /// Span name (histogram name for [`Registry::span`] spans).
    pub name: String,
    /// Start offset in microseconds since the trace root was created.
    pub start_us: u64,
    /// Inclusive duration in microseconds (children included).
    pub duration_us: u64,
    /// Key/value fields attached to the span.
    pub fields: Vec<(String, TraceValue)>,
    /// Child spans, sorted by start offset.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Time spent in this span *excluding* its children — the quantity
    /// that sums to the root's duration across a whole tree.
    pub fn exclusive_us(&self) -> u64 {
        self.duration_us.saturating_sub(self.children.iter().map(|c| c.duration_us).sum())
    }

    /// Appends this node (and its subtree) as a JSON object.
    pub fn to_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str(&format!("\",\"start_us\":{},\"us\":{}", self.start_us, self.duration_us));
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(k));
                out.push_str("\":");
                v.render_json(out);
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.to_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{}  {}µs", self.name, self.duration_us));
        if !self.children.is_empty() {
            out.push_str(&format!(" (self {}µs)", self.exclusive_us()));
        }
        for (k, v) in &self.fields {
            match v {
                TraceValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                TraceValue::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// A fully assembled trace: the span tree plus trace-level fields.
#[derive(Clone, Debug)]
pub struct TraceTree {
    /// The trace's id.
    pub trace_id: u64,
    /// Trace-level fields (session, command, …).
    pub fields: Vec<(String, TraceValue)>,
    /// Top-level spans (normally exactly one: the request span).
    pub roots: Vec<TraceNode>,
    /// Spans dropped past the per-trace cap.
    pub dropped: u64,
}

impl TraceTree {
    /// The single root span, when the tree has exactly one.
    pub fn root(&self) -> Option<&TraceNode> {
        if self.roots.len() == 1 {
            self.roots.first()
        } else {
            None
        }
    }

    /// Renders the trace as a compact single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"trace_id\":{}", self.trace_id));
        if self.dropped > 0 {
            out.push_str(&format!(",\"dropped\":{}", self.dropped));
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(k));
                out.push_str("\":");
                v.render_json(&mut out);
            }
            out.push('}');
        }
        out.push_str(",\"spans\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.to_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace as an indented text tree (the `txdb traces`
    /// default).
    pub fn render(&self) -> String {
        let mut out = format!("trace {}", self.trace_id);
        for (k, v) in &self.fields {
            match v {
                TraceValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                TraceValue::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(" dropped={}", self.dropped));
        }
        out.push('\n');
        for r in &self.roots {
            r.render_into(1, &mut out);
        }
        out
    }
}

/// Builds the tree: records arrive in *finish* order (children before
/// parents); index them by id, attach to parents, orphans become roots.
fn assemble(records: Vec<SpanRecord>) -> Vec<TraceNode> {
    let known: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
    let mut children: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    let mut top: Vec<SpanRecord> = Vec::new();
    for r in records {
        if r.parent != 0 && known.contains(&r.parent) {
            children.entry(r.parent).or_default().push(r);
        } else {
            top.push(r);
        }
    }
    fn build(
        rec: SpanRecord,
        children: &mut BTreeMap<u64, Vec<SpanRecord>>,
        parent_duration: Option<u64>,
    ) -> TraceNode {
        // Instant is monotonic so a child can only outlast its parent by
        // rounding; clamp defensively so `child ≤ parent` always holds.
        let duration_us = match parent_duration {
            Some(p) => rec.duration_us.min(p),
            None => rec.duration_us,
        };
        let mut kids: Vec<TraceNode> = children
            .remove(&rec.id)
            .unwrap_or_default()
            .into_iter()
            .map(|c| build(c, children, Some(duration_us)))
            .collect();
        kids.sort_by_key(|c| c.start_us);
        TraceNode {
            name: rec.name,
            start_us: rec.start_us,
            duration_us,
            fields: rec.fields,
            children: kids,
        }
    }
    let mut roots: Vec<TraceNode> =
        top.into_iter().map(|r| build(r, &mut children, None)).collect();
    roots.sort_by_key(|r| r.start_us);
    roots
}

/// A rendered copy of a [`Registry`], sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → summary.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Plain-text rendering, one metric per line (the `txdb metrics`
    /// default).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<36} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<36} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<36} count={} mean={:.1} p50={} p95={} p99={} max={}\n",
                h.count,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.max
            ));
        }
        out
    }

    /// JSON rendering (the `txdb metrics --json` output and the bench
    /// `engine_metrics` block).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        out.push_str("\n  }\n}");
        out
    }
}

/// The change between two [`MetricsSnapshot`]s — what a windowed poller
/// (`txdb top`, the `METRICS` `since` mode) needs to compute rates.
#[derive(Clone, Debug, Default)]
pub struct MetricsDelta {
    /// Counters that changed: name → increase (reset-safe: a counter
    /// that went backwards reports 0).
    pub counters: Vec<(String, u64)>,
    /// Every gauge's *current* value (gauges are levels, not rates).
    pub gauges: Vec<(String, u64)>,
    /// Histograms that changed: name → (Δcount, Δsum).
    pub histograms: Vec<(String, u64, u64)>,
}

impl MetricsDelta {
    /// Compact single-line JSON rendering (embedded in the `METRICS`
    /// delta response).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, dc, ds)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{\"count\":{},\"sum\":{}}}", json_escape(k), dc, ds));
        }
        out.push_str("}}");
        out
    }
}

impl MetricsSnapshot {
    /// The change from `earlier` to `self`. Counters and histograms that
    /// did not move are omitted; metrics that appeared since `earlier`
    /// count from zero.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsDelta {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(earlier.counter(k).unwrap_or(0));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let gauges = self.gauges.clone();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(k, h)| {
                let old = earlier.histogram(k).unwrap_or_default();
                let dc = h.count.saturating_sub(old.count);
                let ds = h.sum.saturating_sub(old.sum);
                (dc > 0).then(|| (k.clone(), dc, ds))
            })
            .collect();
        MetricsDelta { counters, gauges, histograms }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        // A second lookup shares the same atomic.
        assert_eq!(reg.counter("a.b").get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = reg.gauge("g");
        g.set(42);
        g.set(7);
        assert_eq!(reg.gauge("g").get(), 7);
    }

    #[test]
    fn histogram_bucketing_boundaries() {
        let h = Histogram::default();
        // 0 lands in bucket 0; powers of two straddle bucket edges:
        // bucket b (b ≥ 1) holds [2^(b-1), 2^b - 1].
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 2072);
        assert_eq!(h.max(), 1024);
        // All mass at one value → every percentile is (clamped to) it.
        let one = Histogram::default();
        for _ in 0..100 {
            one.record(5);
        }
        assert_eq!(one.percentile(0.5), 5); // upper bound 7 clamped to max 5
        assert_eq!(one.percentile(0.99), 5);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        // 90 fast observations (~10 µs) and 10 slow ones (~1000 µs).
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        // p50 is in the fast bucket [8, 15]; p95/p99 in the slow bucket
        // [512, 1023], clamped to the observed max 1000.
        assert_eq!(h.percentile(0.50), 15);
        assert_eq!(h.percentile(0.95), 1000);
        assert_eq!(h.percentile(0.99), 1000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean() - 109.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_and_extreme() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.99), u64::MAX); // clamped to max
    }

    #[test]
    fn concurrent_counter_stress() {
        // The acceptance bar: hot-path increments are plain atomics and
        // concurrent snapshotting never poisons a lock or loses a count.
        let reg = Arc::new(Registry::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("stress.count");
                let h = reg.histogram("stress.lat_us");
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(t * PER_THREAD + i);
                    if i % 1000 == 0 {
                        // Concurrent reads must not disturb writers.
                        let _ = reg.snapshot();
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no thread panicked");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("stress.count"), Some(THREADS * PER_THREAD));
        let hist = snap.histogram("stress.lat_us").expect("registered");
        assert_eq!(hist.count, THREADS * PER_THREAD);
    }

    #[test]
    fn span_records_and_emits() {
        let reg = Registry::new();
        let sink = Arc::new(MemorySink::default());
        reg.set_sink(sink.clone());
        {
            let _s = reg.span("unit.test_us");
        }
        assert_eq!(reg.histogram("unit.test_us").count(), 1);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"event\":\"unit.test_us\""), "{}", lines[0]);
        assert!(lines[0].contains("\"us\":"));
        // Events with string fields are escaped.
        reg.emit("note", &[("msg", EventValue::Str("a \"quoted\"\nline"))]);
        let lines = sink.lines();
        assert!(lines[1].contains("a \\\"quoted\\\"\\nline"), "{}", lines[1]);
    }

    #[test]
    fn no_sink_means_no_emission_cost_path() {
        let reg = Registry::new();
        assert!(!reg.has_sink());
        reg.emit("ignored", &[("k", EventValue::U64(1))]); // must be a no-op
        {
            let _s = reg.span("still.records_us");
        }
        assert_eq!(reg.histogram("still.records_us").count(), 1);
    }

    #[test]
    fn snapshot_render_text_and_json() {
        let reg = Registry::new();
        reg.counter("x.count").add(3);
        reg.gauge("x.gauge").set(9);
        reg.histogram("x.lat_us").record(100);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.contains("x.count"));
        assert!(text.contains("p95="));
        let json = snap.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"x.count\": 3"));
        assert!(json.contains("\"x.gauge\": 9"));
        assert!(json.contains("\"p95\""));
        // Balanced braces — cheap structural sanity (the CI smoke parses
        // the real output with python).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn assert_child_not_longer(node: &TraceNode) {
        for c in &node.children {
            assert!(
                c.duration_us <= node.duration_us,
                "child {} ({}µs) outlives parent {} ({}µs)",
                c.name,
                c.duration_us,
                node.name,
                node.duration_us
            );
            assert_child_not_longer(c);
        }
    }

    #[test]
    fn trace_builds_a_nested_span_tree() {
        let reg = Registry::new();
        let ctx = TraceContext::root(7);
        ctx.set_field("session", 3u64);
        let _g = ctx.install();
        {
            let _outer = reg.span("outer_us");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = reg.span("inner_us");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let mut op = trace_op("custom.op_us").expect("trace installed");
                op.add_field("rows", 4u64);
            }
        }
        let tree = ctx.finish();
        assert_eq!(tree.trace_id, 7);
        assert_eq!(tree.fields, vec![("session".to_string(), TraceValue::U64(3))]);
        let root = tree.root().expect("one root");
        assert_eq!(root.name, "outer_us");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "inner_us");
        assert_eq!(root.children[1].name, "custom.op_us");
        assert_eq!(root.children[1].fields, vec![("rows".to_string(), TraceValue::U64(4))]);
        assert_child_not_longer(root);
        // Exclusive times over the tree sum exactly to the root's clock.
        let sum: u64 =
            root.exclusive_us() + root.children.iter().map(|c| c.exclusive_us()).sum::<u64>();
        assert_eq!(sum, root.duration_us);
        // The root's duration is the same observation the histogram got.
        assert_eq!(reg.histogram("outer_us").sum(), root.duration_us);
        // Rendered forms hold together.
        let json = tree.to_json();
        assert!(json.starts_with("{\"trace_id\":7"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(tree.render().contains("outer_us"));
    }

    #[test]
    fn trace_install_nests_and_restores() {
        assert!(TraceContext::current().is_none());
        let a = TraceContext::root(1);
        {
            let _ga = a.install();
            assert_eq!(TraceContext::current().unwrap().trace_id(), 1);
            let b = TraceContext::root(2);
            {
                let _gb = b.install();
                assert_eq!(TraceContext::current().unwrap().trace_id(), 2);
            }
            assert_eq!(TraceContext::current().unwrap().trace_id(), 1);
        }
        assert!(TraceContext::current().is_none());
        assert!(trace_op("nothing").is_none());
    }

    #[test]
    fn trace_record_complete_backdates_and_caps() {
        let ctx = TraceContext::root(9);
        let parent = ctx.record_complete("parent_us", 100, Vec::new());
        parent.record_complete("child_us", 40, vec![("rows".into(), TraceValue::U64(2))]);
        // Overflow the span cap; the surplus is counted, not stored.
        for i in 0..(MAX_TRACE_SPANS + 10) {
            ctx.record_complete("noise_us", i as u64, Vec::new());
        }
        let tree = ctx.finish();
        assert_eq!(tree.dropped, 12); // 2 real spans + 254 noise fit
        let parent = tree.roots.iter().find(|r| r.name == "parent_us").expect("kept");
        assert_eq!(parent.duration_us, 100);
        assert_eq!(parent.children.len(), 1);
        assert_eq!(parent.children[0].duration_us, 40);
        assert_child_not_longer(parent);
    }

    #[test]
    fn trace_clamps_children_to_parent() {
        let ctx = TraceContext::root(3);
        let parent = ctx.record_complete("p_us", 50, Vec::new());
        parent.record_complete("c_us", 80, Vec::new()); // lies about its size
        let tree = ctx.finish();
        let p = tree.root().expect("one root");
        assert_eq!(p.children[0].duration_us, 50); // clamped
        assert_child_not_longer(p);
    }

    #[test]
    fn snapshot_delta_reports_changes_only() {
        let reg = Registry::new();
        let c = reg.counter("x.count");
        let h = reg.histogram("x.lat_us");
        let g = reg.gauge("x.level");
        c.add(5);
        h.record(10);
        g.set(1);
        let before = reg.snapshot();
        c.add(3);
        h.record(90);
        h.record(10);
        g.set(7);
        reg.counter("x.idle"); // registered but never incremented
        let after = reg.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counters, vec![("x.count".to_string(), 3)]);
        assert_eq!(d.histograms, vec![("x.lat_us".to_string(), 2, 100)]);
        assert!(d.gauges.contains(&("x.level".to_string(), 7)));
        let json = d.to_json();
        assert!(json.contains("\"x.count\":3"), "{json}");
        assert!(json.contains("\"x.lat_us\":{\"count\":2,\"sum\":100}"), "{json}");
        // Same-snapshot delta is empty.
        let none = after.delta_since(&after);
        assert!(none.counters.is_empty() && none.histograms.is_empty());
    }

    /// A writer that hands each chunk to the shared buffer as-is, so any
    /// interleaving between `write_all` calls would be visible.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_jsonlines_sink_emits_whole_lines() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let buf = Arc::new(Mutex::new(Vec::new()));
        let reg = Arc::new(Registry::new());
        reg.set_sink(Arc::new(JsonLinesSink::writer(Box::new(SharedBuf(Arc::clone(&buf))))));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    reg.emit(
                        "sink.stress",
                        &[
                            ("thread", EventValue::U64(t as u64)),
                            ("seq", EventValue::U64(i as u64)),
                            ("payload", EventValue::Str("a \"tricky\"\nstring")),
                        ],
                    );
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * PER_THREAD);
        for line in lines {
            // Well-formed and non-interleaved: each line is one complete
            // object with balanced quotes and braces.
            assert!(line.starts_with("{\"event\":\"sink.stress\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert_eq!(line.matches("\"thread\":").count(), 1, "{line}");
            assert_eq!(line.matches("\"seq\":").count(), 1, "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count(), "{line}");
        }
    }

    #[test]
    fn concurrent_memory_sink_is_per_thread_monotonic() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let reg = Arc::new(Registry::new());
        let sink = Arc::new(MemorySink::default());
        reg.set_sink(sink.clone());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    reg.emit(
                        "mem.stress",
                        &[("thread", EventValue::U64(t)), ("seq", EventValue::U64(i))],
                    );
                }
            }));
        }
        for h in handles {
            h.join().expect("no panic");
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), (THREADS * PER_THREAD) as usize);
        // Each thread's events appear in the order that thread emitted
        // them, even though threads interleave freely.
        let mut last_seq = vec![None::<u64>; THREADS as usize];
        for line in &lines {
            let grab = |key: &str| -> u64 {
                let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
                line[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            let (t, seq) = (grab("\"thread\":") as usize, grab("\"seq\":"));
            if let Some(prev) = last_seq[t] {
                assert!(seq > prev, "thread {t} went {prev} -> {seq}");
            }
            last_seq[t] = Some(seq);
        }
        for (t, last) in last_seq.iter().enumerate() {
            assert_eq!(*last, Some(PER_THREAD - 1), "thread {t} incomplete");
        }
    }
}
