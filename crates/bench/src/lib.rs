//! # ls3df-bench
//!
//! Benchmark harness: one report binary per paper table/figure (run with
//! `cargo run -p ls3df-bench --bin <name> --release`) plus criterion
//! microbenches for the §IV optimization ablations
//! (`cargo bench -p ls3df-bench`).
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

use ls3df_atoms::Structure;
use ls3df_pseudo::PseudoTable;
use ls3df_pw::PwAtom;

/// Converts a structure + pseudopotential table into planewave atoms.
pub fn to_pw_atoms(s: &Structure, table: &PseudoTable) -> Vec<PwAtom> {
    s.atoms
        .iter()
        .map(|a| {
            let p = table.get(a.species);
            PwAtom {
                pos: a.pos,
                local: p.local,
                kb_rb: p.kb.rb,
                kb_energy: p.kb.e_kb,
            }
        })
        .collect()
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_atoms::model_crystal;

    #[test]
    fn pw_atoms_inherit_table() {
        let s = model_crystal([2, 2, 2], 5.0);
        let t = PseudoTable::deep_well(2.0, 0.8);
        let atoms = to_pw_atoms(&s, &t);
        assert_eq!(atoms.len(), 8);
        assert!(atoms.iter().all(|a| a.local.z == 2.0 && a.kb_energy == 0.0));
    }
}
