//! lint-path: shims/rayon/src/lib.rs
//!
//! A designated unsafe-surface crate root carrying
//! `#![deny(unsafe_code)]` and the two clippy lint attributes: clean.
//! Per-site `#[allow]` + SAFETY comments are the pool's business, not
//! the root's.

#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod pool_stub {}
