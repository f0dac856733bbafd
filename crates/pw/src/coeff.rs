//! The two coefficient representations of a wavefunction row.
//!
//! The eigensolver and the Hamiltonian are written once, generic over
//! [`Coeff`]: `c64` rows hold the full cutoff sphere (`n_pw` complex
//! coefficients), `f64` rows the Γ-point packed half sphere (`n_pw` reals,
//! see [`PwBasis::pack`]). The trait supplies the few places where the two
//! differ — how a row meets the FFT grid, which `|G|²` belongs to a slot,
//! which projector block it is multiplied against; everything else
//! (inner products, `axpy`s, block products, factorizations) is
//! [`Scalar`] arithmetic. Sealed: the representation is an implementation
//! choice of this crate, made at the two solve entries of
//! [`crate::solver`].

use crate::{NonlocalPotential, PwBasis};
use ls3df_math::{c64, Matrix, Scalar};

mod sealed {
    pub trait Sealed {}
    impl Sealed for ls3df_math::c64 {}
    impl Sealed for f64 {}
}

/// Element type of a wavefunction coefficient row: `c64` (full sphere) or
/// `f64` (Γ-point packed half sphere).
pub trait Coeff: Scalar + sealed::Sealed {
    /// `|G|²` per slot of a row in this representation.
    #[doc(hidden)]
    fn g2(basis: &PwBasis) -> &[f64];
    /// Zeroes `buf` and drops a row's coefficients onto their grid slots.
    #[doc(hidden)]
    fn scatter(basis: &PwBasis, row: &[Self], buf: &mut [c64]);
    /// Reads a row back off the grid slots, unscaled.
    #[doc(hidden)]
    fn gather(basis: &PwBasis, buf: &[c64], row: &mut [Self]);
    /// The Kleinman–Bylander projector block in this representation.
    #[doc(hidden)]
    fn projectors(nonlocal: &NonlocalPotential) -> &Matrix<Self>;
    /// The block as packed real rows, if that is what it holds — the rows
    /// two of which share one complex transform.
    #[doc(hidden)]
    fn as_real(block: &Matrix<Self>) -> Option<&Matrix<f64>>;
    /// [`Coeff::as_real`], mutably.
    #[doc(hidden)]
    fn as_real_mut(block: &mut Matrix<Self>) -> Option<&mut Matrix<f64>>;
}

impl Coeff for c64 {
    fn g2(basis: &PwBasis) -> &[f64] {
        basis.g2()
    }
    fn scatter(basis: &PwBasis, row: &[c64], buf: &mut [c64]) {
        basis.scatter(row, buf);
    }
    fn gather(basis: &PwBasis, buf: &[c64], row: &mut [c64]) {
        basis.gather(buf, row);
    }
    fn projectors(nonlocal: &NonlocalPotential) -> &Matrix<c64> {
        nonlocal.projectors()
    }
    fn as_real(_: &Matrix<c64>) -> Option<&Matrix<f64>> {
        None
    }
    fn as_real_mut(_: &mut Matrix<c64>) -> Option<&mut Matrix<f64>> {
        None
    }
}

impl Coeff for f64 {
    fn g2(basis: &PwBasis) -> &[f64] {
        basis.g2_packed()
    }
    fn scatter(basis: &PwBasis, row: &[f64], buf: &mut [c64]) {
        basis.scatter_packed(row, buf);
    }
    fn gather(basis: &PwBasis, buf: &[c64], row: &mut [f64]) {
        basis.gather_packed(buf, row);
    }
    fn projectors(nonlocal: &NonlocalPotential) -> &Matrix<f64> {
        nonlocal.packed_projectors()
    }
    fn as_real(block: &Matrix<f64>) -> Option<&Matrix<f64>> {
        Some(block)
    }
    fn as_real_mut(block: &mut Matrix<f64>) -> Option<&mut Matrix<f64>> {
        Some(block)
    }
}
