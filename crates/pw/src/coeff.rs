//! The two coefficient representations of a wavefunction row.
//!
//! The eigensolver, the Hamiltonian and the density are written once,
//! generic over [`Coeff`]: `f64` rows are the Γ-point packed half sphere
//! (`n_pw` reals, see [`PwBasis::pack`]) — the representation every
//! production block is kept in — and `c64` rows the full cutoff sphere
//! (`n_pw` complex coefficients), which the `Matrix<c64>` façades and the
//! complex test oracles use. The trait supplies the few places where the
//! two differ — how a row meets the FFT grid, which `|G|²` belongs to a
//! slot, which projector block it is multiplied against, whether two rows
//! may share a transform; everything else (inner products, `axpy`s, block
//! products, factorizations) is [`Scalar`] arithmetic. Sealed: the set of
//! representations is this crate's choice.

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
    /// Whether the row is a real orbital, so that it may share a
    /// synthesis with another one ([`Coeff::scatter_pair`]): always for a
    /// packed row, only when exactly conjugate-symmetric for a `c64` row.
    #[doc(hidden)]
    fn is_real_orbital(basis: &PwBasis, row: &[Self]) -> bool;
    /// Zeroes `buf` and drops two real-orbital rows on the grid so that
    /// one synthesis gives `ψ_a(r) + i·ψ_b(r)`.
    #[doc(hidden)]
    fn scatter_pair(basis: &PwBasis, a: &[Self], b: &[Self], buf: &mut [c64]);
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
    fn is_real_orbital(basis: &PwBasis, row: &[c64]) -> bool {
        basis.is_conjugate_symmetric(row)
    }
    fn scatter_pair(basis: &PwBasis, a: &[c64], b: &[c64], buf: &mut [c64]) {
        basis.scatter_pair(a, b, buf);
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
    fn is_real_orbital(_: &PwBasis, _: &[f64]) -> bool {
        true
    }
    fn scatter_pair(basis: &PwBasis, a: &[f64], b: &[f64], buf: &mut [c64]) {
        basis.scatter_packed_pair(a, b, buf);
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
