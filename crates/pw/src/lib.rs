//! # ls3df-pw
//!
//! A complete planewave Kohn–Sham LDA solver written from scratch — the
//! reproduction's stand-in for PEtot (and, as the direct O(N³) baseline,
//! for PARATEC/VASP in the paper's §VI comparisons).
//!
//! Pieces: planewave [`PwBasis`] with the Γ-point conventions, LDA-PZ81
//! exchange-correlation ([`xc`]), FFT Poisson ([`hartree`], the GENPOT
//! kernel), Ewald ion–ion energy ([`ewald`]), Kleinman–Bylander nonlocal
//! projectors and block Hamiltonian ([`hamiltonian`]), all-band and
//! band-by-band preconditioned CG eigensolvers ([`solver`] — the paper's
//! BLAS-3 vs BLAS-2 ablation), potential mixing ([`mixing`]) and the SCF
//! driver ([`mod@scf`]).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

mod basis;
mod coeff;
pub mod density;
pub mod dos;
pub mod ewald;
pub mod hamiltonian;
pub mod hartree;
pub mod mixing;
pub mod potential;
pub mod realspace_nl;
pub mod scf;
pub mod solver;
pub mod xc;

pub use basis::PwBasis;
pub use coeff::Coeff;
pub use dos::{dos, Dos};
pub use hamiltonian::{HamWorkspace, Hamiltonian, NonlocalPotential};
pub use hartree::HartreeSolver;
pub use mixing::{Mixer, MixerState};
pub use potential::{
    effective_potential, effective_potential_with, initial_density, ionic_potential,
    ionic_potential_with, PwAtom,
};
pub use realspace_nl::{apply_block_realspace, RealSpaceNonlocal};
pub use scf::{grid_for, scf, DftSystem, ScfOptions, ScfResult, ScfStep};
pub use solver::{
    cg_init, cg_residual, cg_step, solve_all_band, solve_all_band_packed_with, solve_all_band_with,
    try_solve_all_band, try_solve_all_band_packed, try_solve_all_band_with, try_solve_band_by_band,
    try_solve_band_by_band_packed, CgWorkspace, SolveStats, SolverError, SolverOptions,
};
