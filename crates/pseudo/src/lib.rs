//! # ls3df-pseudo
//!
//! Model norm-conserving pseudopotentials for the LS3DF reproduction:
//! analytic q-space local parts, Kleinman–Bylander separable nonlocal
//! projectors (the paper's §V choice), and fractional-charge passivant
//! pseudo-hydrogens for fragment surface passivation (paper ref. \[18\]).
//!
//! **Substitution:** real Zn/Te/O norm-conserving pseudopotential tables
//! are replaced by two-term analytic models of the same shape; see
//! DESIGN.md for why this preserves the algorithmic behaviour under study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod kb;
mod local;

pub use db::{params_for, passivant_params, PseudoParams, PseudoTable};
pub use kb::KbProjector;
pub use local::{erf, LocalPotential};
