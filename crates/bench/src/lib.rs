//! # ls3df-bench
//!
//! Benchmark harness: one report binary per paper table/figure (run with
//! `cargo run -p ls3df-bench --bin <name> --release`). The §IV
//! optimization ablations are bins too: `ablation` and `fft_kernels`.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1` | Figure 1 (2-D fragment schematic + partition-of-unity check) as text |
//! | `table1` | Table I (Tflop/s + %peak, 28 rows, model vs paper) |
//! | `fig3` | Strong-scaling speedups + Amdahl fits |
//! | `fig4` | Efficiency vs concurrency scatter |
//! | `fig5` | Weak-scaling Tflop/s on the three machines |
//! | `fig6` | Real LS3DF SCF convergence on a scaled ZnTeO alloy |
//! | `fig7` | FSM band-edge states + O-localization analysis |
//! | `crossover` | LS3DF vs O(N³) model sweep + real scaled measurement |
//! | `accuracy` | LS3DF vs direct DFT eigenvalue/density agreement (`znteo`: fig6's alloy, energy after 12 iterations) |
//! | `ablation` | Comm-algorithm + solver-variant ablations |
//! | `buffer_ablation` | Fragment buffer width vs patched-density error against direct DFT |
//! | `petot_scaling` | PEtot_F thread scaling of the work-stealing pool |
//! | `fft_kernels` | FFT/GEMM kernel A/B table (`BENCH_fft_kernels.json`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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

/// Parses a CLI argument by position with a default.
pub fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
