//! The pinned reference workload shared by `tests/dist_digest.rs` and
//! `tests/scheme_digest.rs` (each pulls it in with `#[path]`): one
//! [`GOLDEN`] digest, one set of options.
//!
//! [`GOLDEN`] is the digest of `model_crystal([2,2,2], 6.5)` under
//! [`reference_opts`] (`max_scf = 2`), computed with the production
//! kernels. The digest covers every `rho` sample plus the per-step
//! `dv_integral`/`worst_residual` bit patterns, so any single-bit drift in
//! the fragment enumeration order, `α_F` arithmetic, wall geometry, kernel
//! arithmetic or the distributed merge fails both gates.
//!
//! The digest depends on the platform libm (`cos`/`exp`), so it is pinned
//! per build environment, not universally portable. To regenerate after
//! an *intentional* change of physics or arithmetic:
//!
//! ```text
//! LS3DF_DIST_DIGEST_CHILD=1 LS3DF_THREADS=1 \
//!   cargo test -q --test dist_digest -- --exact dist_digest_child --nocapture
//! ```
//!
//! and copy the printed `LS3DF_DIGEST=` value into [`GOLDEN`] — after
//! confirming the change is supposed to move the density.

use ls3df::core::{Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;
use ls3df_pseudo::PseudoTable;

/// SCF digest of the reference workload (see the module docs for the
/// capture procedure).
pub const GOLDEN: u64 = 0xf1d9_6157_e9c2_db7b;

/// The reference workload's options: `tests/ls3df_pipeline.rs::small_opts`
/// with `max_scf = 2`.
pub fn reference_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8, 8, 8],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 10,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 2,
        tol: 1e-4,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
    }
}
