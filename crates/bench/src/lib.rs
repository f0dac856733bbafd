//! # ls3df-bench
//!
//! Benchmark harness: one report binary per paper figure that this host
//! can measure (run with `cargo run -p ls3df-bench --bin <name>
//! --release`). Table I and Figs. 3–4 are Cray/BlueGene measurements
//! and have no bin. The §IV
//! optimization ablations are bins too: `ablation` and `fft_kernels`.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig5` | Measured processor-group runs on this host at 1 and `LS3DF_GROUPS` groups (`BENCH_fig5.json`) |
//! | `fig6` | Real LS3DF SCF convergence on a scaled ZnTeO alloy (`BENCH_fig6.json`, `TRACE_fig6.json`) |
//! | `fig7` | FSM band-edge states + O-localization analysis (resumes from fig6's snapshot) |
//! | `crossover` | LS3DF vs direct O(N³) seconds per iteration, measured on scaled-down crystals |
//! | `accuracy` | LS3DF vs direct DFT eigenvalue/density agreement (`znteo`: fig6's alloy, energy after 12 iterations) |
//! | `ablation` | Solver, orthogonalization, GEMM and projector ablations (measured) |
//! | `buffer_ablation` | Fragment buffer width vs patched-density error against direct DFT |
//! | `petot_scaling` | PEtot_F thread scaling of the work-stealing pool |
//! | `fft_kernels` | The `f64` GEMM's tier and block-size crossover tables (`BENCH_fft_kernels.json`) |

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

use ls3df_core::{Ls3dfOptions, Passivation};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::Mixer;

/// Exit status of a bin that prints accuracy numbers: failure, naming the
/// unconverged runs on stderr, unless every listed SCF converged — an
/// error measured from or against an unconverged SCF is not a result.
pub fn exit_unless_converged<S: AsRef<str>>(runs: &[(S, bool)]) -> std::process::ExitCode {
    let mut status = std::process::ExitCode::SUCCESS;
    for (name, _) in runs.iter().filter(|(_, converged)| !converged) {
        let name = name.as_ref();
        eprintln!("error: {name} did not converge; the numbers above are not results");
        status = std::process::ExitCode::FAILURE;
    }
    status
}

/// The LS3DF options of fig6's and fig7's ZnTeO alloy runs. One
/// definition, so fig7's resume fingerprint is fig6's: fig7 restarts from
/// fig6's snapshot only when every physics field agrees.
pub fn znteo_options(ecut: f64, piece_pts: usize, max_scf: usize) -> Ls3dfOptions {
    Ls3dfOptions {
        ecut,
        piece_pts: [piece_pts; 3],
        buffer_pts: [3; 3],
        passivation: Passivation::PseudoH,
        wall_height: 1.5,
        n_extra_bands: 4,
        cg_steps: 12,
        initial_cg_steps: 40,
        fragment_tol: 5e-2,
        mixer: Mixer::Kerker {
            alpha: 0.4,
            q0: 1.0,
        },
        max_scf,
        tol: 1e-3,
        pseudo: PseudoTable::default(),
    }
}

/// Parses a CLI argument by position with a default.
pub fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
