//! # ls3df-math
//!
//! Dense linear-algebra substrate for the LS3DF reproduction.
//!
//! The original LS3DF code (Wang et al., SC 2008) leaned on vendor BLAS —
//! its headline single-node optimization was moving the planewave solver
//! from BLAS-2 band-by-band operations to BLAS-3 DGEMM on whole
//! wavefunction blocks. This crate provides the pure-Rust equivalents:
//!
//! * [`c64`] — complex double scalar;
//! * [`Matrix`] — dense row-major container over [`Scalar`] (`f64`/`c64`);
//! * [`mod@gemm`] — block products `C ← α·op(A)·op(B) + β·C`: a packed
//!   register-tile kernel compiled per CPU tier for block-sized shapes,
//!   scalar loops below, allocation-free through a [`GemmScratch`];
//! * [`cholesky`], [`mod@eigh`], [`lu`] — the factorizations the solver needs
//!   (overlap orthogonalization, subspace diagonalization, mixing solves);
//! * [`ortho`] — band-by-band Gram–Schmidt *and* all-band overlap-matrix
//!   orthonormalization (the paper's optimization #1, ablatable);
//! * [`vec_ops`] — BLAS-1 kernels for the band-by-band code path.
//!
//! ```
//! use ls3df_math::{c64, Matrix, eigh, gemm::matmul_nh};
//!
//! // Build a small Hermitian matrix A = B·Bᴴ and diagonalize it.
//! let b = Matrix::from_fn(3, 3, |i, j| c64::new((i + j) as f64, i as f64 - j as f64));
//! let a = matmul_nh(&b, &b);
//! let eig = eigh(&a);
//! assert!(eig.values.windows(2).all(|w| w[0] <= w[1])); // ascending
//! assert!(eig.values.iter().all(|&v| v >= -1e-10));     // PSD spectrum
//! ```

// One audited `unsafe`: the call into the feature-gated (AVX2 + FMA,
// AVX-512) instantiations of the packed kernel (`microkernel::run`). The `forbid-unsafe` lint allows no second.
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]
#![allow(non_camel_case_types)]

mod complex;
mod matrix;
mod microkernel;
mod scalar;

pub mod cholesky;
pub mod eigh;
pub mod gemm;
pub mod lu;
pub mod ortho;
pub mod policy;
pub mod tridiag;
pub mod vec_ops;

pub use complex::c64;
#[doc(hidden)]
pub use gemm::gemm_packed_into;
pub use gemm::{
    gemm, gemm_into, gemm_with, overlap_hermitian, overlap_hermitian_with, GemmScratch, Op, Tier,
};
pub use matrix::Matrix;
#[doc(hidden)]
pub use microkernel::force_baseline_tier;
pub use policy::KernelPolicy;
pub use scalar::Scalar;

pub use cholesky::Cholesky;
pub use eigh::{eigh, Eig};
pub use lu::{solve, Lu};
pub use tridiag::eigh_tridiagonal;

/// Hermitian (`c64`) or real-symmetric (`f64`) eigendecomposition with
/// automatic algorithm choice: cyclic Jacobi for small matrices
/// (unbeatable constants, bulletproof), the Householder-tridiagonal + QL
/// pipeline above ~32 rows (the all-band subspace problems of large
/// fragments reach a few hundred bands).
pub fn eigh_fast<S: Scalar>(a: &Matrix<S>) -> Eig<S> {
    if a.rows() <= 32 {
        eigh(a)
    } else {
        eigh_tridiagonal(a)
    }
}
