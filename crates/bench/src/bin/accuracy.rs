//! Regenerates the paper §V **accuracy comparison**: LS3DF vs direct LDA
//! on the same system, measured with this repository's real solvers.
//!
//! The paper's metrics: total energy "a few meV per atom", eigenenergies
//! from the converged LS3DF potential "about 2 meV", band gap agreement.
//! We run both methods on a deep-well model crystal (cheap and gapped;
//! pass `znte` as the first argument for an 8-atom-cell ZnTe run, or
//! `znteo` for fig6's VFF-relaxed 3.125 % O alloy built from `seed`).
//!
//! The alloy runs at fig6's reduced fidelity (`ecut` 1.2, 6 points per
//! piece) for at most 12 iterations with 12 CG steps each: it measures
//! the LS3DF energy after those iterations against the converged direct
//! energy. It does not converge yet (ROADMAP item 1), so the bin prints
//! the numbers and then exits non-zero, like every accuracy bin.
//!
//! Run: `cargo run -p ls3df-bench --bin accuracy --release -- [model|znte|znteo] [m] [seed]`

use ls3df_atoms::{model_crystal, relax, znteo_alloy, ZNTE_LATTICE};
use ls3df_bench::{exit_unless_converged, to_pw_atoms};
use ls3df_core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{
    solve_all_band, DftSystem, Hamiltonian, Mixer, NonlocalPotential, ScfOptions, SolverOptions,
};

fn main() -> std::process::ExitCode {
    let kind = std::env::args().nth(1).unwrap_or_else(|| "model".into());
    let m: usize = ls3df_bench::arg(2, 2);
    let seed: u64 = ls3df_bench::arg(3, 42);
    let alloy = kind == "znteo";
    let (s, table, ecut, piece_pts, passivation) = match kind.as_str() {
        "znte" => (
            ls3df_atoms::znte_supercell([m, m, m], ZNTE_LATTICE),
            PseudoTable::default(),
            2.0,
            8usize,
            Passivation::PseudoH,
        ),
        "znteo" => {
            let mut s = znteo_alloy([m, m, m], ZNTE_LATTICE, 0.03125, seed);
            relax(&mut s, 1e-4, 3000);
            (s, PseudoTable::default(), 1.2, 6, Passivation::PseudoH)
        }
        _ => (
            model_crystal([m, m, m], 6.5),
            PseudoTable::deep_well(2.0, 0.8),
            1.5,
            8,
            Passivation::WallOnly,
        ),
    };
    println!(
        "system: {} ({} atoms, {} electrons)",
        s.formula(),
        s.len(),
        s.num_electrons()
    );

    // Direct reference.
    let grid = ls3df_grid::Grid3::new([m * piece_pts; 3], s.lengths);
    let sys = DftSystem {
        grid,
        ecut,
        atoms: to_pw_atoms(&s, &table),
    };
    let t = std::time::Instant::now();
    let direct = ls3df_pw::scf(
        &sys,
        &ScfOptions {
            max_scf: 200,
            tol: 1e-5,
            n_extra_bands: 4,
            ..Default::default()
        },
    );
    println!(
        "direct DFT: converged={} ({} iters, {:.0}s), E = {:.6} Ha",
        direct.converged,
        direct.history.len(),
        t.elapsed().as_secs_f64(),
        direct.total_energy
    );

    // LS3DF. The alloy keeps fig6's solver schedule and a capped
    // iteration count.
    let opts = Ls3dfOptions {
        ecut,
        piece_pts: [piece_pts; 3],
        buffer_pts: [3; 3],
        passivation,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 8,
        fragment_tol: 1e-8,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 40,
        tol: 3e-3,
        pseudo: table,
        ..Default::default()
    };
    let opts = if alloy {
        Ls3dfOptions {
            n_extra_bands: 4,
            cg_steps: 12,
            initial_cg_steps: 40,
            mixer: Mixer::Kerker {
                alpha: 0.4,
                q0: 1.0,
            },
            max_scf: 12,
            tol: 1e-3,
            ..opts
        }
    } else {
        opts
    };
    let t = std::time::Instant::now();
    let mut ls = Ls3df::builder(&s)
        .fragments([m, m, m])
        .options(opts)
        .build()
        .expect("valid accuracy-bench geometry");
    let res = ls.scf();
    println!(
        "LS3DF: converged={} ({} iters, {:.0}s), {} fragments",
        res.converged,
        res.history.len(),
        t.elapsed().as_secs_f64(),
        ls.n_fragments()
    );
    let ratios: Vec<String> = res
        .history
        .iter()
        .map(|step| format!("{:.3}", step.charge_ratio))
        .collect();
    println!("  q/N_e per iteration: {}", ratios.join(", "));
    // The fragment-assembled energy (α-weighted fragment kinetic +
    // nonlocal terms plus the global electrostatics and XC).
    let e_frag = ls.total_energy().total();
    println!(
        "  LS3DF energy after {} iters: {:.6} Ha vs direct {:.6} Ha → Δ = {:.2} meV/atom",
        res.history.len(),
        e_frag,
        direct.total_energy,
        (e_frag - direct.total_energy) / s.len() as f64 * 27211.4
    );

    // §V methodology: take the converged LS3DF potential, solve the full
    // system's eigenvalues in it, compare with the direct SCF eigenvalues.
    let basis = ls.global_basis();
    let positions: Vec<[f64; 3]> = sys.atoms.iter().map(|a| a.pos).collect();
    let widths: Vec<f64> = sys.atoms.iter().map(|a| a.kb_rb).collect();
    let e_kb: Vec<f64> = sys.atoms.iter().map(|a| a.kb_energy).collect();
    let nl = NonlocalPotential::new(
        basis,
        &positions,
        |a, q| (-q * q * widths[a] * widths[a] / 2.0).exp(),
        &e_kb,
    );
    let h = Hamiltonian::new(basis, res.v_eff.clone(), &nl);
    let n_bands = direct.eigenvalues.len();
    let mut psi = ls3df_pw::scf::random_start(n_bands, basis, 5);
    let stats = solve_all_band(
        &h,
        &mut psi,
        &SolverOptions {
            max_iter: 250,
            tol: 1e-7,
            ..Default::default()
        },
    );

    let n_occ = sys.n_occupied();
    println!("\naccuracy vs direct LDA (paper §V targets in parentheses):");
    let drho = res.rho.diff(&direct.rho);
    println!(
        "  ∫|Δρ|/N_e                = {:.3e}",
        drho.integrate_abs() / s.num_electrons()
    );
    let mut max_occ = 0.0_f64;
    let mut mean_occ = 0.0;
    for b in 0..n_occ {
        let e = (stats.eigenvalues[b] - direct.eigenvalues[b]).abs();
        max_occ = max_occ.max(e);
        mean_occ += e;
    }
    mean_occ /= n_occ as f64;
    println!(
        "  occupied eigenvalues: mean {:.2} meV, max {:.2} meV   (paper: ≈2 meV)",
        mean_occ * 27211.4,
        max_occ * 27211.4
    );
    let gap_ls = stats.eigenvalues[n_occ] - stats.eigenvalues[n_occ - 1];
    let gap_d = direct.eigenvalues[n_occ] - direct.eigenvalues[n_occ - 1];
    println!(
        "  band gap: LS3DF {:.4} Ha vs direct {:.4} Ha, Δ = {:.2} meV   (paper: ≈2 meV)",
        gap_ls,
        gap_d,
        (gap_ls - gap_d).abs() * 27211.4
    );
    // Harris-style total energy from the LS3DF density/potential.
    let (_, energies) = ls3df_pw::effective_potential(basis, ls.v_ion(), &res.rho);
    let band: f64 = stats.eigenvalues[..n_occ].iter().map(|e| 2.0 * e).sum();
    let vin_rho: f64 = res
        .v_eff
        .as_slice()
        .iter()
        .zip(res.rho.as_slice())
        .map(|(&v, &r)| v * r)
        .sum::<f64>()
        * basis.grid().dv();
    let e_ls3df =
        band - vin_rho + energies.ion_rho + energies.hartree + energies.xc + sys.ewald_energy();
    let de = (e_ls3df - direct.total_energy) / s.len() as f64 * 27211.4;
    println!(
        "  total energy: LS3DF {:.6} vs direct {:.6} Ha → Δ = {:.1} meV/atom   (paper: 'a few meV per atom')",
        e_ls3df, direct.total_energy, de
    );
    exit_unless_converged(&[("direct DFT", direct.converged), ("LS3DF", res.converged)])
}
