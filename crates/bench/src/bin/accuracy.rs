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
//! Every run ends with the fixed-potential table: one [`Ls3df::respond`]
//! in the converged direct potential (30 CG steps × 6 rounds on the model
//! crystal, 12 × 4 on ZnTe), printing each fragment shape's charge
//! retention `r_F = q_region / z_region` (min / mean / max), the patched
//! charge against the electron count, and the density and potential
//! errors of the rescaled patch against direct.
//!
//! Run: `cargo run -p ls3df-bench --bin accuracy --release -- [model|znte|znteo] [m] [seed]`

use ls3df_atoms::{model_crystal, relax, znteo_alloy, ZNTE_LATTICE};
use ls3df_bench::{arg, exit_unless_converged};
use ls3df_core::{Effort, Ls3df, Ls3dfOptions, Passivation, Patch};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{
    solve_all_band, DftSystem, Hamiltonian, Mixer, NonlocalPotential, PwAtom, ScfOptions,
    SolverOptions,
};

fn main() -> std::process::ExitCode {
    let kind: String = arg(1, "model".into());
    if !["model", "znte", "znteo"].contains(&kind.as_str()) {
        eprintln!("error: argument 1 `{kind}`: expected model, znte or znteo");
        return std::process::ExitCode::from(2);
    }
    let m: usize = arg(2, 2);
    let seed: u64 = arg(3, 42);
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
    // The fixed-potential table's solver effort, per system.
    let znte = matches!(kind.as_str(), "znte" | "znteo");
    let (cg_steps, rounds) = if znte { (12, 4) } else { (30, 6) };
    let effort = Effort { cg_steps, rounds };
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
        atoms: PwAtom::of_structure(&s, &table),
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
        .options(opts.clone())
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
        .map(|step| format!("{:.3} ({:.3})", step.charge_ratio, step.retention_min))
        .collect();
    println!("  q/N_e (r_F min) per iteration: {}", ratios.join(", "));
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
    let nl = NonlocalPotential::of_atoms(basis, &sys.atoms);
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

    // The fixed-potential map at the direct answer.
    let t = std::time::Instant::now();
    let mut fixed = Ls3df::builder(&s)
        .fragments([m, m, m])
        .options(opts)
        .initial_potential(direct.v_eff.clone())
        .build()
        .expect("valid accuracy-bench geometry");
    let patch = fixed
        .respond(effort)
        .expect("a one-process world cannot fail to communicate")
        .expect("a one-process world is its own global rank");
    println!(
        "\nfixed-potential map at V_direct ({} rounds × {} CG steps at most, \
         worst residual {:.1e}, {:.1}s):",
        effort.rounds,
        effort.cg_steps,
        patch.worst_residual,
        t.elapsed().as_secs_f64()
    );
    print_retention(&fixed, &patch);
    let (n_e, q, mut rho) = (s.num_electrons(), patch.q, patch.rho);
    rho.scale(n_e / q);
    let d_rho = rho.diff(&direct.rho).integrate_abs() / n_e;
    let d_v = fixed.genpot(&rho).diff(&direct.v_eff).integrate_abs();
    println!("  Σα·q_region = {q:.3} (N_e = {n_e})");
    println!("  ∫|Δρ|/N_e after the N_e/q rescale = {d_rho:.3e}");
    println!("  ∫|V[ρ] − V_direct| = {d_v:.3e}");
    exit_unless_converged(&[("direct DFT", direct.converged), ("LS3DF", res.converged)])
}

/// Charge retention `r_F` (min / mean / max) per fragment shape, by the
/// number of pieces it spans; fragments with no atom in their region are
/// left out.
fn print_retention(calc: &Ls3df, patch: &Patch) {
    println!(
        "  {:>6} {:>9} {:>7} {:>7} {:>7}",
        "pieces", "fragments", "r_F min", "mean", "max"
    );
    for pieces in [1, 2, 4, 8] {
        let r: Vec<f64> = (calc.fg.fragments().iter().zip(&patch.fragments))
            .filter(|(f, c)| f.size.iter().product::<usize>() == pieces && c.z_region > 0.0)
            .map(|(_, c)| c.retention())
            .collect();
        let (lo, hi) = (r.iter()).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        if !r.is_empty() {
            let mean = r.iter().sum::<f64>() / r.len() as f64;
            println!(
                "  {pieces:>6} {:>9} {lo:>7.4} {mean:>7.4} {hi:>7.4}",
                r.len()
            );
        }
    }
}
