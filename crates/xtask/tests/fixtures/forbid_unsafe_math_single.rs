//! lint-path: crates/math/src/microkernel.rs
//!
//! `ls3df-math` is on the unsafe surface for exactly one item: the call
//! into the AVX2 instantiation of the packed GEMM kernel. The first
//! `unsafe` of this file is that item and is clean; a second one fires
//! even with its `#[allow]` and SAFETY comment in place — the allowance
//! is a count, not a licence for the file.

#[allow(unsafe_code)]
pub fn run(avx2: bool) {
    if avx2 {
        // SAFETY: only reached after is_x86_feature_detected!("avx2").
        unsafe { packed_avx2() }
    }
}

#[allow(unsafe_code)]
pub fn peek(p: *const f64) -> f64 {
    // SAFETY: satisfies unsafe-comment, not forbid-unsafe.
    unsafe { *p } //~ ERROR forbid-unsafe
}
