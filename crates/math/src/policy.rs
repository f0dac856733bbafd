//! Which arithmetic a kernel runs: the production kernels, or the
//! original scalar arithmetic kept as a test oracle.
//!
//! The optimized kernels — mixed-radix Stockham butterflies, the packed
//! r2c/c2r transform path, lane-split dot products, the packed GEMM
//! microkernel — re-associate floating-point sums, so their results differ
//! from the original scalar code at the last-bit level. Every one of them
//! is deterministic (bit-identical across `LS3DF_THREADS` and
//! `LS3DF_SCHEDULE`).
//!
//! There is one production arithmetic: every plain constructor and entry
//! point (`Fft1d::new`, `GemmScratch::new`, `gemm`, `dotc`, …) runs
//! [`KernelPolicy::Fast`]. [`KernelPolicy::Reference`] is reached only
//! through the explicit `*_with`/`with` constructors, which the per-kernel
//! tolerance suite (`tests/kernel_tol.rs`) and the kernels' own unit tests
//! use to compare both variants inside one process.

/// Which arithmetic variant the FFT/GEMM/BLAS-1 hot kernels use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Optimized kernels: mixed-radix FFT butterflies, packed r2c/c2r path,
    /// lane-split accumulators, packed GEMM microkernel. Deterministic
    /// across thread counts, but *not* bit-identical to the reference
    /// arithmetic — gated by per-kernel tolerance tests.
    Fast,
    /// The original scalar kernels, bit-for-bit: radix-2 and Bluestein
    /// only, complex 3-D transforms on real fields, sequential dot
    /// products, scalar GEMM loops. A test oracle, never run in
    /// production.
    Reference,
}
