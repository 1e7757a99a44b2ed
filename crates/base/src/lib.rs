//! # txdb-base — foundation types for the temporal XML database
//!
//! This crate defines the vocabulary shared by every layer of the system:
//!
//! * [`Timestamp`] — transaction time, microseconds since the Unix epoch
//!   (the paper, §3.1, scopes the system to transaction-time support).
//! * [`Interval`] — the half-open time interval `[t1, t2)` used by
//!   `DocHistory` and `ElementHistory` (the paper's `[t1, t2⟩`).
//! * [`DocId`], [`Xid`], [`VersionId`] — identifiers of documents,
//!   persistent elements and numbered versions.
//! * [`Eid`] — *element identifier*: the concatenation of document id and
//!   XID, identifying an element in a time-independent manner (§3.2).
//! * [`Teid`] — *temporal element identifier*: an [`Eid`] plus a timestamp,
//!   uniquely identifying one *version* of an element (§3.2).
//! * [`Error`] / [`Result`] — the error type used across the workspace.
//! * [`obs`] — the observability substrate: a lock-free metrics registry
//!   (counters, gauges, log-bucketed latency histograms) and lightweight
//!   span tracing with a pluggable JSON-lines sink. Every layer registers
//!   its counters here so `txdb metrics`, `txdb stats`, the server's
//!   `METRICS` and txbench all report from one source of truth.
//!
//! Nothing here depends on XML or storage; higher crates build on these
//! types without cyclic dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ids;
pub mod interval;
pub mod obs;
pub mod time;

pub use error::{Error, Result};
pub use ids::{DocId, Eid, Teid, VersionId, Xid};
pub use interval::Interval;
pub use time::{Duration, Timestamp};
