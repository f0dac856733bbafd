//! # ls3df-atoms
//!
//! Atomic-structure substrate for the LS3DF reproduction: species and
//! model parameters, periodic supercells, the zinc-blende / ZnTe₁₋ₓOₓ
//! alloy builders matching the paper's test systems, bonded-topology
//! detection, and the Keating valence-force-field relaxation the paper
//! uses for alloy geometries.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

mod species;
mod structure;
pub mod vff;
pub mod zincblende;

pub use species::{bond_params, BondParams, Species};
pub use structure::{Atom, Structure};
pub use vff::{relax, topology_cutoff, Vff, VffResult};
pub use zincblende::{atom_count, model_crystal, znte_supercell, znteo_alloy, ZNTE_LATTICE};
