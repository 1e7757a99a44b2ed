//! # txdb-delta — change detection and completed deltas
//!
//! The paper's physical storage model (§7.1) keeps one complete current
//! version per document and represents all previous versions as a chain of
//! **completed deltas**: edit scripts that carry enough information to be
//! applied both *forward* (old → new) and *backward* (new → old). This
//! crate provides the three pieces of that machinery, implemented from
//! scratch in the style of XyDiff (Cobéna, Abiteboul & Marian — the paper's
//! reference \[7\] and the diff used by Xyleme):
//!
//! * [`ops`] — the edit operations ([`EditOp`]), the [`Delta`] container,
//!   forward/backward application with full invertibility
//!   (`apply_forward ∘ apply_backward = id`), and the [`Walk`] that steps
//!   one tree along a delta chain with a single XID map;
//! * [`diff`] — the tree-diff algorithm: bottom-up subtree hashing, greedy
//!   matching of heaviest identical subtrees, upward label propagation and
//!   LCS-based child alignment, emitting a minimal-ish edit script while
//!   preserving XIDs across versions (§3.2);
//! * [`xmlenc`] — deltas *are* XML documents (§6: "as long as an edit
//!   script is represented in XML this operator does not break closure
//!   properties of queries", and §7.1: "each delta will in fact be stored
//!   as a separate XML document"): lossless encoding of a [`Delta`] to a
//!   [`txdb_xml::Tree`] and back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod ops;
pub mod xmlenc;

pub use diff::{diff_trees, DiffResult};
pub use ops::{Delta, EditOp, Walk};
pub use xmlenc::{delta_from_xml, delta_to_xml};
