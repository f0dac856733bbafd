//! Facade crate for the LS3DF reproduction workspace.
//!
//! The per-layer crates stay importable under their module aliases
//! (`ls3df::core`, `ls3df::pw`, …), but the types a typical driver needs
//! are re-exported at the crate root so one `use ls3df::{…}` line builds
//! and runs a calculation:
//!
//! ```ignore
//! use ls3df::{Ls3df, Ls3dfOptions};
//!
//! let mut calc = Ls3df::builder(&structure)
//!     .fragments([2, 2, 2])
//!     .options(Ls3dfOptions::laptop())
//!     .build()?;
//! let result = calc.scf();
//! ```
// `alloc_count` is the facade's (audited, SAFETY-commented) unsafe site.
#![deny(unsafe_code)]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;

pub use ls3df_atoms as atoms;
pub use ls3df_ckpt as ckpt;
pub use ls3df_core as core;
pub use ls3df_dist as dist;
pub use ls3df_fft as fft;
pub use ls3df_grid as grid;
pub use ls3df_hpc as hpc;
pub use ls3df_math as math;
pub use ls3df_obs as obs;
pub use ls3df_pseudo as pseudo;
pub use ls3df_pw as pw;

pub use ls3df_atoms::Structure;
pub use ls3df_ckpt::{CheckpointConfig, CheckpointPolicy, CkptError, CkptErrorKind};
pub use ls3df_core::{
    fragment_costs, plan_groups, Effort, Fragment, FragmentError, FragmentFault, FragmentGrid,
    FragmentId, GroupPlan, InjectedFault, Ls3df, Ls3dfBuilder, Ls3dfError, Ls3dfOptions,
    Ls3dfResult, Ls3dfStep, Passivation, Patch, QuarantineRecord, RegionCharge, RetryAction,
    ScfObserver, ScfStage, SilentObserver, StepTimings, TraceObserver,
};
pub use ls3df_dist::{CommError, Communicator};
pub use ls3df_pseudo::PseudoTable;
pub use ls3df_pw::Mixer;
