//! lint-path: crates/math/src/lib.rs
//!
//! The math crate root must carry `#![deny(unsafe_code)]` (it is on the
//! audited surface), and that does not open the rest of the crate: an
//! `unsafe` outside `microkernel.rs` fires.

#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

#[allow(unsafe_code)]
pub fn first(v: &[f64]) -> f64 {
    // SAFETY: satisfies unsafe-comment, not forbid-unsafe.
    unsafe { *v.get_unchecked(0) } //~ ERROR forbid-unsafe
}
