//! DESIGN.md ablation 5: fragment buffer width vs patching accuracy.
//!
//! Paper §V: "The accuracy of LS3DF, as compared with the equivalent DFT
//! computation, increases exponentially with the fragment size." The
//! buffer width plays the same role at fixed piece size: it sets how far
//! the artificial boundary sits from the patched region. This binary
//! measures the patched-density error against a converged direct
//! calculation as the buffer grows, on the deep-well model crystal.
//!
//! Run: `cargo run -p ls3df-bench --bin buffer_ablation --release -- [max_buffer]`

use ls3df_atoms::model_crystal;
use ls3df_bench::{arg, exit_unless_converged};
use ls3df_core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{DftSystem, Mixer, PwAtom, ScfOptions};

fn main() -> std::process::ExitCode {
    let max_buffer: usize = arg(1, 4);
    let m = 2usize;
    let a = 6.5;
    let piece_pts = 8usize;
    let ecut = 1.5;
    let table = PseudoTable::deep_well(2.0, 0.8);
    let s = model_crystal([m, m, m], a);

    // Direct reference.
    let sys = DftSystem {
        grid: ls3df_grid::Grid3::new([m * piece_pts; 3], s.lengths),
        ecut,
        atoms: PwAtom::of_structure(&s, &table),
    };
    let direct = ls3df_pw::scf(
        &sys,
        &ScfOptions {
            max_scf: 80,
            tol: 1e-5,
            ..Default::default()
        },
    );
    println!(
        "reference: direct DFT on {} ({} iterations, converged = {})\n",
        s.formula(),
        direct.history.len(),
        direct.converged
    );
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>9}",
        "buffer", "box pts", "∫|Δρ|/N_e", "∫|ΔV| final", "time (s)"
    );

    let mut runs = vec![("direct DFT".to_string(), direct.converged)];
    for buffer in 1..=max_buffer {
        let opts = Ls3dfOptions {
            ecut,
            piece_pts: [piece_pts; 3],
            buffer_pts: [buffer; 3],
            passivation: Passivation::WallOnly,
            wall_height: 1.5,
            n_extra_bands: 2,
            cg_steps: 6,
            initial_cg_steps: 25,
            fragment_tol: 1e-7,
            mixer: Mixer::Kerker {
                alpha: 0.5,
                q0: 0.8,
            },
            max_scf: 60,
            tol: 3e-3,
            pseudo: table,
        };
        let t = std::time::Instant::now();
        let mut ls = Ls3df::builder(&s)
            .fragments([m, m, m])
            .options(opts)
            .build()
            .expect("valid buffer-ablation geometry");
        let res = ls.scf();
        runs.push((format!("LS3DF at buffer {buffer}"), res.converged));
        let err = res.rho.diff(&direct.rho).integrate_abs() / s.num_electrons();
        println!(
            "{:>8} {:>10} {:>16.4e} {:>16.4e} {:>9.1}",
            buffer,
            piece_pts + 2 * buffer,
            err,
            res.history
                .last()
                .map(|h| h.dv_integral)
                .unwrap_or(f64::NAN),
            t.elapsed().as_secs_f64()
        );
    }
    println!(
        "\nshape target: the density error falls as the buffer grows (the paper's\n\
         exponential-accuracy-in-fragment-size claim, at fixed piece size), while the\n\
         per-fragment cost grows with the box volume — the core LS3DF tradeoff."
    );
    exit_unless_converged(&runs)
}
