//! lint-path: crates/fft/src/lib.rs
//!
//! A physics crate root carrying `#![forbid(unsafe_code)]` and the two
//! clippy lint attributes: clean, including its (sequential,
//! fixed-order) reduction.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
