//! # ls3df-hpc
//!
//! Machine/performance model substrate: regenerates the paper's Table I
//! and Figures 3–5 (and the §VI crossover analysis) from an analytic cost
//! model of the LS3DF pipeline on the three machines the paper used
//! (Franklin, Jaguar, Intrepid). See DESIGN.md for the substitution
//! rationale — the petascale hardware is simulated, the model constants
//! are taken from the paper's own §IV/§VI measurements plus timings of
//! our real Rust implementation.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod amdahl;
pub mod cost;
pub mod crossover;
pub mod machine;
pub mod scaling;
pub mod table1;

pub use amdahl::{fit_amdahl, AmdahlFit};
pub use cost::{
    iteration_time, pct_peak, sustained_flops, DirectCodeModel, IterationTime, Problem,
};
pub use crossover::{crossover_atoms, crossover_sweep, speed_ratio, CrossoverPoint};
pub use machine::{CommAlgo, MachineSpec};
pub use scaling::{
    efficiency_scatter, fig3_core_counts, strong_scaling, weak_scaling, EfficiencyPoint,
    StrongScalingPoint, WeakScalingPoint,
};
pub use table1::{model_row, paper_table1, Machine, ModelRow, Table1Row};
