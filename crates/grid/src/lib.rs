//! # ls3df-grid
//!
//! Periodic real-space grid substrate: the global supercell, the fragment
//! boxes, and the data motion between them (the serial kernels of the
//! paper's Gen_VF and Gen_dens steps).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

mod field;
mod grid3;
pub mod io;

pub use field::{ComplexField, Field, RealField};
pub use grid3::Grid3;
pub use io::{decode_field, encode_field};
