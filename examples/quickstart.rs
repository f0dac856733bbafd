//! Quickstart: the smallest end-to-end LS3DF calculation.
//!
//! Builds a ZnTe supercell, divides it into fragments, runs a few outer
//! SCF iterations of the four-step LS3DF loop (Gen_VF → PEtot_F →
//! Gen_dens → GENPOT), and prints the convergence trace — the minimal
//! "hello world" of the fragment method.
//!
//! Run: `cargo run --example quickstart --release`

use ls3df::{Ls3df, Ls3dfOptions, Mixer, Passivation, PseudoTable};
use ls3df_atoms::{znte_supercell, ZNTE_LATTICE};

fn main() {
    // A 2×2×2-cell ZnTe supercell: 64 atoms, 256 valence electrons.
    let structure = znte_supercell([2, 2, 2], ZNTE_LATTICE);
    println!(
        "structure: {} — {} atoms, {} electrons, box {:.2} Bohr",
        structure.formula(),
        structure.len(),
        structure.num_electrons(),
        structure.lengths[0]
    );

    // LS3DF with one eight-atom cell per piece (the paper's granularity),
    // scaled-down planewave settings for a laptop-class machine.
    let opts = Ls3dfOptions {
        ecut: 2.0,            // Hartree (paper: 50 Ryd = 25 Ha)
        piece_pts: [8, 8, 8], // grid per piece (paper: 40³)
        buffer_pts: [3, 3, 3],
        passivation: Passivation::PseudoH,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 5,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 8,
        tol: 1e-3,
        pseudo: PseudoTable::default(),
        ..Default::default()
    };

    let t = std::time::Instant::now();
    let mut calc = Ls3df::builder(&structure)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid quickstart geometry");
    println!(
        "fragments: {} (8 per piece corner: sizes 1×1×1 … 2×2×2 with ± weights)",
        calc.n_fragments()
    );

    let result = calc.scf();
    println!("\n iter    ∫|ΔV| (a.u.)   worst residual   PEtot_F time");
    for step in &result.history {
        println!(
            "{:>5}    {:>12.5e}   {:>14.2e}   {:>9.2}s",
            step.iteration, step.dv_integral, step.worst_residual, step.timings.petot_f
        );
    }
    println!(
        "\ntotal {:.0}s; patched density integrates to {:.4} electrons (expect {})",
        t.elapsed().as_secs_f64(),
        result.rho.integrate(),
        structure.num_electrons()
    );
    print!("\n{}", calc.memory_footprint().table());
    println!("next steps: examples/accuracy.rs (LS3DF vs direct DFT) and the fig6/fig7 bench binaries\n(science runs).");
}
