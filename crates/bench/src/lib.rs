//! # ls3df-bench
//!
//! Benchmark harness: one report binary per paper figure that this host
//! can measure (run with `cargo run -p ls3df-bench --bin <name>
//! --release`). Table I and Figs. 3–4 are Cray/BlueGene measurements
//! and have no bin. A bin stays only if it writes a committed artefact or
//! is a `cargo xtask ci` step (`fig7` waits on ROADMAP item 6(e));
//! `tests/obs_dist_report.rs` holds the rule.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig5` | Measured processor-group runs on this host at 1 and 2 groups (`BENCH_fig5.json`) |
//! | `fig6` | Real LS3DF SCF convergence on a scaled ZnTeO alloy (`BENCH_fig6.json`, `TRACE_fig6.json`) |
//! | `fig7` | FSM band-edge states + O-localization analysis (resumes from fig6's snapshot) |
//! | `accuracy` | LS3DF vs direct DFT eigenvalue/density agreement (`znteo`: fig6's alloy, energy after 12 iterations); `cargo xtask ci` step `accuracy` |
//! | `fft_kernels` | The `f64` GEMM's tier and block-size crossover tables (`BENCH_fft_kernels.json`) |
//!
//! A positional argument that does not parse ends a bin with `error:
//! argument N …`; only a missing one takes its default.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

use ls3df_core::{Ls3dfOptions, Passivation};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::Mixer;
use std::{fmt::Display, str::FromStr};

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

/// Parses positional argument `n` from its raw text: `None` when it is
/// absent, an error naming it when it is present but not a `T`.
pub fn parse_arg<T: FromStr<Err: Display>>(
    n: usize,
    raw: Option<&str>,
) -> Result<Option<T>, String> {
    raw.map(|v| v.parse().map_err(|e| format!("argument {n} `{v}`: {e}")))
        .transpose()
}

/// Positional argument `n` of this process, `None` when absent. One that
/// does not parse ends the process: a bin never runs a default in place
/// of bad input.
pub fn opt_arg<T: FromStr<Err: Display>>(n: usize) -> Option<T> {
    parse_arg(n, std::env::args().nth(n).as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Positional argument `n` of this process, `default` when absent.
pub fn arg<T: FromStr<Err: Display>>(n: usize, default: T) -> T {
    opt_arg(n).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn missing_argument_is_none_and_a_bad_one_an_error() {
        use super::parse_arg;
        assert_eq!(parse_arg::<usize>(1, None), Ok(None));
        assert_eq!(parse_arg::<f64>(3, Some("1.5")), Ok(Some(1.5)));
        let e = parse_arg::<f64>(3, Some("1,0")).unwrap_err();
        assert!(e.starts_with("argument 3 `1,0`: "), "{e}");
        assert!(parse_arg::<usize>(1, Some("-2")).is_err());
        assert!(parse_arg::<usize>(2, Some("")).is_err());
    }
}
