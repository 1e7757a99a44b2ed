//! # txdb-index — temporal indexing for the XML database
//!
//! §7.2 of the paper: "all documents are indexed by an inverted-list-based
//! free-text index (FTI). This index indexes all words in the documents,
//! including element names. The postings (one for each word occurrence)
//! include document identifier as well as information that can be used to
//! determine hierarchical relationships between elements from the same
//! document." The temporal extension adds the three lookup modes
//! `FTI_lookup`, `FTI_lookup_T` and `FTI_lookup_H`, and the paper weighs
//! three *indexing alternatives*: index version contents (its choice),
//! index delta operations, or both. This crate maintains the paper's
//! choice and builds the delta-operation index on demand, so all three can
//! be measured:
//!
//! * [`fti`] — the temporal full-text index. Postings carry `(doc, xid,
//!   xid-path, [from_version, to_version))`; because XIDs are persistent,
//!   the xid-path decides `isParentOf`/`isAscendantOf` between postings,
//!   and version ranges realise the paper's "index the contents of the
//!   versions" alternative with version *numbers*, not timestamps (§7.1).
//! * [`eidindex`] — the §7.3.6 auxiliary index mapping EIDs to create/
//!   delete timestamps, persisted in a B+-tree; the alternative to delta
//!   traversal for `CreTime`/`DelTime` (benchmarked against it in E5).
//! * [`deltaindex`] — the §7.2 second alternative: indexing the delta
//!   *operations* ("facilitates search for the path
//!   delete/restaurant/name/napoli"), built from the stored delta chain
//!   when asked for; part of the E7 ablation.
//! * [`maint`] — index maintenance driven by completed deltas: one
//!   [`maint::IndexSet`] keeps the FTI and the EID-time index consistent
//!   on each document put/delete, touching only changed elements, and a
//!   chain replay rebuilds a document through the same steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltaindex;
pub mod eidindex;
pub mod fti;
pub mod maint;
pub mod persist;

pub use fti::{FullTextIndex, HistoryCursor, OccKind, OpenCursor, Posting, SnapshotCursor};
pub use maint::{IndexSet, IndexWriter};
pub use persist::{DocCover, IndexCheckpoint};
