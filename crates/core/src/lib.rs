//! # ls3df-core
//!
//! The paper's primary contribution: the **linearly scaling
//! three-dimensional fragment (LS3DF) method** — a divide-and-conquer
//! Kohn–Sham DFT scheme whose sign-alternating fragment patching cancels
//! the artificial boundary effects of dividing the supercell.
//!
//! * [`FragmentGrid`]/[`Fragment`] — the eight `{1,2}³` fragments per
//!   piece corner with weights `α_F = ±1`, bound to concrete
//!   piece/buffer geometry (paper Fig. 1, extended to 3-D), whose
//!   partition of unity is exact;
//! * [`fragment_atoms`], [`boundary_wall`] — pseudo-hydrogen passivation
//!   of cut bonds and the ΔV_F boundary potential;
//! * [`Ls3df`] — the four-step SCF loop Gen_VF → PEtot_F → Gen_dens →
//!   GENPOT (paper Fig. 2): one stage sequence every processor group
//!   runs, each group's fragment solves fanned out over rayon;
//! * [`groups`] — fragment→processor-group assignment (space-filling
//!   curve + cost-model bin-packing) for the paper's two-level
//!   hierarchy, running over the `ls3df-dist` communicator; translation-
//!   equivalent fragments ([`Ls3df::representatives`]) form one class,
//!   solved once per PEtot_F round and planned as one unit;
//! * [`fsm`] — the folded spectrum method for band-edge states of the
//!   full system from the converged potential (paper §VII);
//! * [`analysis`] — localization metrics for the oxygen-induced states
//!   (paper Fig. 7).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod analysis;
pub mod check;
mod ckpt;
mod classes;
mod distrib;
mod energy;
mod fragment;
pub mod fsm;
pub mod groups;
pub mod observer;
mod passivate;
pub mod scf;
pub mod supervise;
mod trace_observer;

pub use energy::Ls3dfEnergy;
pub use fragment::{Fragment, FragmentError, FragmentGrid, FragmentId};
pub use fsm::{folded_spectrum, scan_band, FsmOptions, FsmState};
pub use groups::{fragment_costs, plan_class_groups, plan_groups, GroupPlan};
// Checkpoint configuration/error types are part of the driver's public
// surface (builder + observer signatures), so re-export them here.
pub use ls3df_ckpt::{CheckpointConfig, CheckpointPolicy, CkptError, CkptErrorKind};
pub use observer::{ScfObserver, ScfStage, SilentObserver};
pub use passivate::{boundary_wall, fragment_atoms, FragmentAtoms, Passivation};
pub use scf::{
    fragment_occupations, Effort, Ls3df, Ls3dfBuilder, Ls3dfError, Ls3dfOptions, Ls3dfResult,
    Ls3dfStep, Patch, RegionCharge, StepTimings,
};
pub use supervise::{FragmentFault, InjectedFault, QuarantineRecord, RetryAction, ATTEMPT_LADDER};
pub use trace_observer::TraceObserver;
