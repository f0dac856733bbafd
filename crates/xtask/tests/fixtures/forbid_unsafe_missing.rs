//! lint-path: crates/grid/src/lib.rs //~ ERROR forbid-unsafe
//!
//! A non-designated crate root with no `#![forbid(unsafe_code)]`: the
//! missing attribute fires on line 1, and the unsafe token fires on its
//! own — a SAFETY comment cannot move a file onto the unsafe surface.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

fn sneaky(p: *const f64) -> f64 {
    // SAFETY: satisfies unsafe-comment, not forbid-unsafe.
    unsafe { *p } //~ ERROR forbid-unsafe
}
