//! lint-path: crates/fft/src/lib.rs
//!
//! A physics crate root carrying `#![forbid(unsafe_code)]`: clean,
//! including its (sequential, fixed-order) reduction.

#![forbid(unsafe_code)]

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
