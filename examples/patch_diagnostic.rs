//! Diagnostic: isolates the fragment-patching accuracy from SCF dynamics.
//!
//! Runs the direct DFT to convergence, then performs ONE LS3DF cycle in
//! the *converged* direct potential (fragments solved to high accuracy)
//! and compares the patched density against the direct density. If the
//! boundary-effect cancellation works, the patched density should closely
//! match — this is the core claim of the LS3DF method, independent of
//! outer-loop stability.
//!
//! Run: `cargo run --example patch_diagnostic --release [a] [wall] [buffer] [cg]`

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::pw::{self, Mixer};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn main() {
    let a: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(6.5);
    let wall: f64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let buffer: usize = std::env::args()
        .nth(3)
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let cg: usize = std::env::args()
        .nth(4)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let m: [usize; 3] = std::env::args()
        .nth(5)
        .and_then(|v| v.parse().ok())
        .map(|n: usize| [n, n, n])
        .unwrap_or([2, 2, 2]);
    let ecut = 1.5;
    let piece_pts: usize = std::env::args()
        .nth(6)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let s = model_crystal(m, a);

    // Direct reference.
    let grid = ls3df_grid::Grid3::new(
        [m[0] * piece_pts, m[1] * piece_pts, m[2] * piece_pts],
        s.lengths,
    );
    let table = PseudoTable::deep_well(2.0, 0.8);
    let atoms: Vec<pw::PwAtom> = s
        .atoms
        .iter()
        .map(|at| {
            let p = table.get(at.species);
            pw::PwAtom {
                pos: at.pos,
                local: p.local,
                kb_rb: p.kb.rb,
                kb_energy: p.kb.e_kb,
            }
        })
        .collect();
    let sys = pw::DftSystem {
        grid: grid.clone(),
        ecut,
        atoms,
    };
    let direct = pw::scf(
        &sys,
        &pw::ScfOptions {
            max_scf: 80,
            tol: 1e-6,
            n_extra_bands: 4,
            ..Default::default()
        },
    );
    let n_occ = sys.n_occupied();
    let gap = direct.eigenvalues[n_occ] - direct.eigenvalues[n_occ - 1];
    println!(
        "direct: converged={} gap={:.4} Ha ({:.2} eV)  E={:.6}",
        direct.converged,
        gap,
        gap * 27.2114,
        direct.total_energy
    );

    // One high-accuracy LS3DF cycle in the converged potential.
    let opts = Ls3dfOptions {
        ecut,
        piece_pts: [piece_pts; 3],
        buffer_pts: [buffer; 3],
        passivation: Passivation::WallOnly,
        wall_height: wall,
        n_extra_bands: 2,
        cg_steps: cg,
        fragment_tol: 1e-8,
        mixer: Mixer::Linear { alpha: 0.5 },
        max_scf: 1,
        tol: 1e-12,
        pseudo: table,
        ..Default::default()
    };
    // Start LS3DF directly from the converged direct-DFT potential.
    let mut ls = Ls3df::builder(&s)
        .fragments(m)
        .options(opts)
        .initial_potential(direct.v_eff.clone())
        .build()
        .expect("valid patch-diagnostic geometry");
    let t = std::time::Instant::now();
    let vfs = ls.gen_vf();
    let mut worst = f64::INFINITY;
    for round in 0..12 {
        worst = ls.petot_f(&vfs);
        println!(
            "  round {round}: worst fragment residual {worst:.2e} ({:.0}s)",
            t.elapsed().as_secs_f64()
        );
        if worst < 1e-5 {
            break;
        }
    }
    let rho = ls.gen_dens();
    println!(
        "one LS3DF cycle: {:.1}s, worst fragment residual {:.2e}",
        t.elapsed().as_secs_f64(),
        worst
    );

    let d = rho.diff(&direct.rho);
    println!(
        "patched density: ∫ρ = {:.6} (want {})",
        rho.integrate(),
        s.num_electrons()
    );
    println!(
        "density error: ∫|Δρ|/N_e = {:.3e}   max|Δρ|/max(ρ) = {:.3e}",
        d.integrate_abs() / s.num_electrons(),
        d.max_abs() / direct.rho.max()
    );
    // Where is the error? Report per-octant error to see boundary vs core.
    let v_out = ls.genpot(&rho);
    let dv = v_out.diff(&direct.v_eff).integrate_abs();
    println!("∫|V[ρ_patched] − V_direct| = {:.3e}", dv);
}
