//! # ls3df-fft
//!
//! FFT substrate for the LS3DF reproduction (the role FFTW/vendor FFTs play
//! in the original Fortran code).
//!
//! * [`Fft1d`] — a mixed-radix Stockham kernel for every length whose
//!   prime factors are ≤ 13 (the fragment boxes' 12/14/18/22, the 16³
//!   global grid, the paper's 40 points per cell), Bluestein chirp-z for
//!   the rest;
//! * [`RealFft1d`]/[`Fft3r`] — packed r2c/c2r transforms for real fields
//!   (ρ, V): one half-length complex FFT per real line plus a Hermitian
//!   unpack, roughly halving the GENPOT/Kerker transform work;
//! * [`Fft3`] — sequential complex 3-D transforms used by the
//!   local-potential application in PEtot_F (parallelism lives one level
//!   up, over fragments and bands), with sphere-aware variants that skip
//!   the lines a planewave cutoff sphere ([`Occupancy`]) never touches;
//! * [`Fft1dWorkspace`]/[`Fft3Workspace`]/[`RealFftWorkspace`]/
//!   [`Fft3rWorkspace`] — reusable scratch so the `*_with`, `*_strided`,
//!   and real-transform entry points are allocation-free;
//! * [`dft`] — O(n²) reference transforms for testing.
//!
//! Plain constructors build the production plans (mixed-radix); the
//! `*_with` constructors take an explicit [`ls3df_math::KernelPolicy`],
//! whose `Reference` value selects the radix-2 + Bluestein oracle the
//! tolerance tests compare against.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod dft;
mod fft3;
mod mixed;
mod plan;
mod real;

pub use fft3::{Fft3, Fft3Workspace, Occupancy};
pub use plan::{Fft1d, Fft1dWorkspace};
pub use real::{Fft3r, Fft3rWorkspace, RealFft1d, RealFftWorkspace};
