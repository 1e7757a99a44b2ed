//! `txbench` — the repeatable end-to-end and per-layer benchmark of the
//! temporal XML database. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
