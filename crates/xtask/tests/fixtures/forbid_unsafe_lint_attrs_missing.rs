//! lint-path: crates/atoms/src/lib.rs //~ ERROR forbid-unsafe //~ ERROR forbid-unsafe
//!
//! A library root with its `unsafe_code` level but neither clippy lint
//! attribute: each missing one fires on line 1, so a new crate cannot
//! opt out of the no-panic and float-compare rules clippy enforces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub fn first(v: &[f64]) -> Option<f64> {
    v.first().copied()
}
