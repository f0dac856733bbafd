//! Wavefunction-block orthonormalization.
//!
//! Two algorithms, mirroring the paper's optimization #1:
//!
//! * [`gram_schmidt`] — the original band-by-band scheme (BLAS-2 shaped,
//!   sequential over bands);
//! * [`cholesky_orthonormalize`] — the overlap-matrix scheme introduced in
//!   the optimized code: form `S = w·Ψ·Ψᴴ` with one GEMM, factor
//!   `S = L·Lᴴ`, and apply `Ψ ← L⁻¹·Ψ` (all BLAS-3 shaped), imposing the
//!   orthonormality only every few conjugate-gradient steps.
//!
//! Both take a real `metric` weight `w` so that inner products approximate
//! the continuum integral `∫ψ*ψ d³r = w·Σᵢ ψ*ᵢψᵢ` (w = grid-cell volume).

use crate::cholesky::{Cholesky, FactorError};
use crate::gemm::{matmul_nh, overlap_hermitian_into, GemmScratch};
use crate::vec_ops::{axpy, dotc, dscal, nrm2_sqr};
use crate::{Matrix, Scalar};

/// Modified Gram–Schmidt on the rows of `psi` (each row = one band).
///
/// Returns an error if a band is linearly dependent on its predecessors
/// (norm collapses below `1e-14` of its original value).
pub fn gram_schmidt<S: Scalar>(psi: &mut Matrix<S>, metric: f64) -> Result<(), FactorError> {
    let nb = psi.rows();
    for i in 0..nb {
        for j in 0..i {
            let (row_i, row_j) = {
                let (a, b) = psi.rows_mut2(i, j);
                (a, b)
            };
            let overlap = dotc(row_j, row_i).scale(metric);
            axpy(-overlap, row_j, row_i);
        }
        let norm_sq = nrm2_sqr(psi.row(i)) * metric;
        if norm_sq < 1e-28 {
            return Err(FactorError::NotPositiveDefinite {
                pivot: i,
                value: norm_sq,
            });
        }
        dscal(1.0 / norm_sq.sqrt(), psi.row_mut(i));
    }
    Ok(())
}

/// Overlap-matrix (Cholesky) orthonormalization: `Ψ ← L⁻¹·Ψ` where
/// `L·Lᴴ = w·Ψ·Ψᴴ`. One GEMM plus one triangular block-solve.
/// Allocating shim over [`cholesky_orthonormalize_into`].
pub fn cholesky_orthonormalize<S: Scalar>(
    psi: &mut Matrix<S>,
    metric: f64,
) -> Result<(), FactorError> {
    cholesky_orthonormalize_into(psi, None, metric, &mut GemmScratch::new())
}

/// [`cholesky_orthonormalize`] through caller-owned scratch. `also`, if
/// given, receives the same `L⁻¹` — the all-band solver passes `H·Ψ`,
/// which stays in sync with `Ψ` by linearity. On error nothing is
/// modified.
pub fn cholesky_orthonormalize_into<S: Scalar>(
    psi: &mut Matrix<S>,
    also: Option<&mut Matrix<S>>,
    metric: f64,
    scratch: &mut GemmScratch<S>,
) -> Result<(), FactorError> {
    // Specialized half-flop Hermitian Gram kernel (paper §IV future-work
    // item: custom routines for the PEtot_F shapes).
    let mut s = Matrix::zeros(psi.rows(), psi.rows());
    overlap_hermitian_into(scratch, psi, metric, &mut s);
    let ch = Cholesky::new(&s)?;
    ch.solve_l_block_with(psi, scratch);
    if let Some(other) = also {
        ch.solve_l_block_with(other, scratch);
    }
    Ok(())
}

/// Orthonormality residual `max |w·⟨ψᵢ|ψⱼ⟩ − δᵢⱼ|`.
pub fn orthonormality_residual<S: Scalar>(psi: &Matrix<S>, metric: f64) -> f64 {
    let s = matmul_nh(psi, psi);
    let mut err = 0.0_f64;
    for i in 0..s.rows() {
        for j in 0..s.cols() {
            let target = if i == j { 1.0 } else { 0.0 };
            err = err.max((s[(i, j)].scale(metric) - S::from_re(target)).abs());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn rand_block(nb: usize, n: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Matrix::from_fn(nb, n, |_, _| c64::new(next(), next()))
    }

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let mut psi = rand_block(6, 50, 1);
        gram_schmidt(&mut psi, 1.0).unwrap();
        assert!(orthonormality_residual(&psi, 1.0) < 1e-12);
    }

    #[test]
    fn cholesky_orthonormalizes() {
        let mut psi = rand_block(6, 50, 2);
        cholesky_orthonormalize(&mut psi, 1.0).unwrap();
        assert!(orthonormality_residual(&psi, 1.0) < 1e-12);
    }

    #[test]
    fn both_respect_nonunit_metric() {
        let w = 0.037;
        let mut a = rand_block(4, 40, 3);
        let mut b = a.clone();
        gram_schmidt(&mut a, w).unwrap();
        cholesky_orthonormalize(&mut b, w).unwrap();
        assert!(orthonormality_residual(&a, w) < 1e-12);
        assert!(orthonormality_residual(&b, w) < 1e-12);
    }

    #[test]
    fn methods_span_same_subspace() {
        // Both orthonormalizations must preserve the row span: the projector
        // ΨᴴΨ (with metric) must agree.
        let w = 0.5;
        let mut a = rand_block(3, 20, 4);
        let mut b = a.clone();
        gram_schmidt(&mut a, w).unwrap();
        cholesky_orthonormalize(&mut b, w).unwrap();
        let pa = crate::gemm::matmul_hn(&a, &a);
        let pb = crate::gemm::matmul_hn(&b, &b);
        for i in 0..20 {
            for j in 0..20 {
                assert!((pa[(i, j)] - pb[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dependent_rows_detected() {
        let mut psi = rand_block(2, 10, 5);
        let row0 = psi.row(0).to_vec();
        psi.row_mut(1).copy_from_slice(&row0);
        assert!(gram_schmidt(&mut psi, 1.0).is_err());
    }
}
