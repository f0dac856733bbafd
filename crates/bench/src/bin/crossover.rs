//! Regenerates the paper §VI **crossover analysis**: LS3DF O(N) vs
//! conventional O(N³) planewave codes.
//!
//! Part 1 is the calibrated model sweep at paper scale (crossover atom
//! count and the 13,824-atom speed ratio). Part 2 *measures* the same
//! crossover shape with this repository's real solvers on single-core
//! scaled-down model crystals: direct `pw::scf` vs one LS3DF outer
//! iteration cost extrapolated over the same iteration count.
//!
//! Run: `cargo run -p ls3df-bench --bin crossover --release -- [measure] [max_m]`

use ls3df_atoms::model_crystal;
use ls3df_bench::{arg, to_pw_atoms};
use ls3df_core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df_hpc::{
    crossover_atoms, crossover_sweep, speed_ratio, DirectCodeModel, MachineSpec, Problem,
};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{DftSystem, Mixer, ScfOptions};
use std::time::Instant;

fn main() {
    // ---- Part 1: paper-scale model --------------------------------------
    let machine = MachineSpec::franklin();
    let direct = DirectCodeModel::paratec();
    let sweep = crossover_sweep(
        &machine,
        &direct,
        17280,
        40,
        &[2, 3, 4, 5, 6, 8, 10, 12, 16],
    );
    println!("crossover (model, Franklin, 17,280 cores): t per SCF iteration");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "atoms", "LS3DF (s)", "direct (s)", "ratio"
    );
    for p in &sweep {
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>10.2}",
            p.atoms,
            p.t_ls3df,
            p.t_direct,
            p.t_direct / p.t_ls3df
        );
    }
    match crossover_atoms(&sweep) {
        Some(x) => println!(
            "model crossover at ≈{x:.0} atoms (paper text: ~600; but see EXPERIMENTS.md — \
             the paper's own PARATEC measurement implies an earlier crossover)"
        ),
        None => println!("no crossover in the sweep range"),
    }
    let r = speed_ratio(&machine, &direct, &Problem::new(12, 12, 12), 17280, 10);
    println!("model speed ratio at 13,824 atoms: {r:.0}× (paper: ~400×)\n");

    // ---- Part 2: real measured scaled-down crossover ---------------------
    let measure: usize = arg(1, 1);
    if measure == 0 {
        println!("(measured part skipped; pass 1 as the first argument to enable)");
        return;
    }
    let max_m: usize = arg(2, 3);
    println!("measured single-core crossover on deep-well model crystals (a = 6.5 Bohr, E_cut = 1.5 Ha):");
    println!(
        "{:>8} {:>8} {:>16} {:>16} {:>10}",
        "m", "atoms", "direct s/iter", "LS3DF s/iter", "ratio"
    );
    let a = 6.5;
    let piece_pts = 8;
    let ecut = 1.5;
    let table = PseudoTable::deep_well(2.0, 0.8);
    for m in 2..=max_m {
        let s = model_crystal([m, m, m], a);
        // Direct: time a fixed number of SCF iterations.
        let sys = DftSystem {
            grid: ls3df_grid::Grid3::new([m * piece_pts; 3], s.lengths),
            ecut,
            atoms: to_pw_atoms(&s, &table),
        };
        let n_iter = 3;
        let t = Instant::now();
        let _ = ls3df_pw::scf(
            &sys,
            &ScfOptions {
                max_scf: n_iter,
                tol: 1e-30,
                ..Default::default()
            },
        );
        let t_direct = t.elapsed().as_secs_f64() / n_iter as f64;

        // LS3DF: time outer iterations (same count).
        let opts = Ls3dfOptions {
            ecut,
            piece_pts: [piece_pts; 3],
            buffer_pts: [3; 3],
            passivation: Passivation::WallOnly,
            wall_height: 1.5,
            n_extra_bands: 2,
            cg_steps: 5,
            // Uniform iterations for a fair per-iteration timing.
            initial_cg_steps: 5,
            fragment_tol: 1e-12,
            mixer: Mixer::Kerker {
                alpha: 0.6,
                q0: 0.8,
            },
            max_scf: n_iter,
            tol: 1e-30,
            pseudo: table,
        };
        let mut ls = Ls3df::builder(&s)
            .fragments([m, m, m])
            .options(opts)
            .build()
            .expect("valid crossover geometry");
        let t = Instant::now();
        let _ = ls.scf();
        let t_ls3df = t.elapsed().as_secs_f64() / n_iter as f64;
        println!(
            "{:>8} {:>8} {:>16.2} {:>16.2} {:>10.3}",
            m,
            s.len(),
            t_direct,
            t_ls3df,
            t_direct / t_ls3df
        );
    }
    println!(
        "\nshape target: the direct-code column grows superlinearly per atom while the LS3DF \
         column grows linearly, so the ratio rises with system size (the LS3DF prefactor — \
         each corner recomputes ~27 pieces of volume — means small systems favor the direct \
         code, exactly the paper's crossover story)."
    );
}
