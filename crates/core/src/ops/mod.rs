//! The §6 operator implementations, grouped by the §7.3 algorithm that
//! executes them. Every operator is a method on [`crate::Database`].

pub mod diffop;
pub mod history;
pub mod lifetime;
pub mod pattern;
pub mod versions;
