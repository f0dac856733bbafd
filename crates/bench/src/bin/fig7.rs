//! Regenerates paper **Figure 7** (as data, not a 3-D render): the
//! conduction-band-minimum and oxygen-induced band-edge states of a
//! ZnTe₁₋ₓOₓ alloy from the converged LS3DF potential via the folded
//! spectrum method, with localization metrics replacing the paper's
//! isosurface plots:
//!
//! * the paper's visual claim "oxygen induced states can cluster among a
//!   few oxygen atoms" becomes: O-weight of the state ≫ O volume fraction;
//! * "more localized in the high energy states" becomes: IPR increasing
//!   with energy within the oxygen band.
//!
//! Run: `cargo run -p ls3df-bench --bin fig7 --release -- [m] [iters] [n_states]`
//!
//! Exits non-zero (after printing the analysis) when the SCF it ran did
//! not converge: the states are then those of an unconverged potential.

use ls3df_bench::{arg, exit_unless_converged};
use ls3df_core::{analysis, folded_spectrum, FsmOptions, Ls3df, Ls3dfOptions, Passivation};

use ls3df_pseudo::PseudoTable;
use ls3df_pw::{Mixer, NonlocalPotential, PwAtom};

fn main() -> std::process::ExitCode {
    let m: usize = arg(1, 2);
    let iters: usize = arg(2, 15);
    let n_states: usize = arg(3, 6);
    let ecut = 2.0;
    let piece_pts = 8;

    let mut s = ls3df_atoms::znteo_alloy([m, m, m], ls3df_atoms::ZNTE_LATTICE, 0.03125, 42);
    ls3df_atoms::relax(&mut s, 1e-4, 3000);
    println!("system: {} ({} atoms)", s.formula(), s.len());

    let opts = Ls3dfOptions {
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
        max_scf: iters,
        tol: 1e-3,
        pseudo: PseudoTable::default(),
    };
    let mut ls = Ls3df::builder(&s)
        .fragments([m, m, m])
        .options(opts)
        .build()
        .expect("valid fig7 geometry");
    // Resume from fig6's newest full snapshot if one exists (same options
    // -> same fingerprint); a snapshot written at convergence makes the
    // scf() below a no-op replay, otherwise it finishes the remaining
    // iterations. Any resume failure (stale format, different physics,
    // damaged file) falls through to the legacy potential cache or a
    // fresh SCF — never aborts the figure.
    let snap_dir = format!("target/checkpoints/fig6_m{m}");
    let mut resumed = false;
    if let Ok(Some(snap)) = ls3df_ckpt::latest_snapshot(std::path::Path::new(&snap_dir)) {
        match ls.restore_from(&snap) {
            Ok(iteration) => {
                println!("resumed from {} (iteration {iteration})", snap.display());
                resumed = true;
            }
            Err(e) => println!("snapshot {} not usable: {e}", snap.display()),
        }
    }
    // Potential-only cache, written only by a converged SCF (read alone
    // does not allow resuming the SCF — it skips it when the converged
    // potential is already on disk).
    let ck = std::path::Path::new("target/checkpoints").join(format!("znteo_m{m}_veff.ck"));
    let (v_eff, converged) = match (resumed, ls3df_grid::load_field(&ck)) {
        (false, Ok(v)) if v.grid() == &ls.global_grid => {
            println!("loaded converged potential from {}", ck.display());
            (v, true)
        }
        _ => {
            let res = ls.scf();
            println!(
                "LS3DF: {} iterations, converged = {}",
                res.history.len(),
                res.converged
            );
            // Save for reruns (the FSM stage may be iterated on separately).
            if res.converged {
                std::fs::create_dir_all("target/checkpoints").ok();
                if ls3df_grid::save_field(&res.v_eff, &ck).is_ok() {
                    println!("checkpoint written to {}", ck.display());
                }
            }
            (res.v_eff, res.converged)
        }
    };

    // Full-system Hamiltonian in the converged potential.
    let basis = ls.global_basis();
    let atoms = PwAtom::of_structure(&s, &PseudoTable::default());
    let nl = NonlocalPotential::of_atoms(basis, &atoms);
    let h = ls3df_pw::Hamiltonian::new(basis, v_eff.clone(), &nl);

    // FSM around the gap. With an explicit 4th argument a single reference
    // is used; otherwise a small scan brackets the gap region (the model
    // CBM moves with the cutoff, so a scan is the robust default).
    let t0 = std::time::Instant::now();
    let states = if let Some(e_ref) = std::env::args().nth(4).and_then(|v| v.parse::<f64>().ok()) {
        println!("\nFolded spectrum method at ε_ref = {e_ref} Ha:");
        folded_spectrum(
            &h,
            e_ref,
            &FsmOptions {
                n_states,
                max_iter: 250,
                tol: 1e-5,
            },
            17,
        )
    } else {
        let refs = [0.18, 0.28, 0.38];
        println!("\nFolded spectrum scan at ε_ref ∈ {refs:?} Ha (band-edge states):");
        ls3df_core::scan_band(
            &h,
            &refs,
            &FsmOptions {
                n_states: n_states.max(3),
                max_iter: 250,
                tol: 1e-5,
            },
            17,
        )
    };
    println!(
        "  {} states in {:.0}s",
        states.len(),
        t0.elapsed().as_secs_f64()
    );

    let o_radius = 4.0; // Bohr sphere around each O site
    let vol_frac =
        analysis::species_volume_fraction(basis.grid(), &s, ls3df_atoms::Species::O, o_radius);
    println!(
        "\nFigure 7 analysis (O volume fraction baseline = {:.3}):",
        vol_frac
    );
    println!("{}", "-".repeat(74));
    println!(
        "{:>3} {:>11} {:>11} {:>8} {:>10} {:>12}",
        "#", "E (Ha)", "E (eV)", "IPR", "O-weight", "O-enrichment"
    );
    for (i, st) in states.iter().enumerate() {
        let d = analysis::state_density(basis, &st.coefficients);
        let ipr = analysis::inverse_participation_ratio(&d);
        let ow = analysis::species_weight(&d, &s, ls3df_atoms::Species::O, o_radius);
        println!(
            "{:>3} {:>11.4} {:>11.2} {:>8.2} {:>10.3} {:>11.1}x",
            i,
            st.energy,
            st.energy * 27.2114,
            ipr,
            ow,
            ow / vol_frac.max(1e-12)
        );
    }
    println!("{}", "-".repeat(74));
    // Gaussian-broadened DOS of the band-edge states: band width readout.
    if states.len() >= 2 {
        let levels: Vec<(f64, f64)> = states.iter().map(|s| (s.energy, 1.0)).collect();
        let lo = states[0].energy - 0.05;
        let hi = states.last().unwrap().energy + 0.05;
        let d = ls3df_pw::dos(&levels, lo, hi, 501, 0.004);
        println!(
            "band-edge DOS: peak at {:.4} Ha, width(10% of peak) = {:.3} eV",
            d.peak(),
            d.band_width(0.1) * 27.2114
        );
    }
    if states.len() >= 2 {
        let spread = (states.last().unwrap().energy - states[0].energy) * 27.2114;
        println!(
            "band-edge spread across the computed states: {:.2} eV \
             (paper: O-induced band width ≈ 0.7 eV; O-band→CBM gap ≈ 0.2 eV)",
            spread
        );
    }
    println!(
        "paper shape targets: lowest empty states O-enriched (clustered on O atoms) and more \
         localized (higher IPR) at higher energy within the O band."
    );
    exit_unless_converged(&[("LS3DF", converged)])
}
