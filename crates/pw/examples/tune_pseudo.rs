//! Pseudopotential tuning driver: checks that the model Zn/Te/O potentials
//! produce the qualitative band structure the LS3DF science results need
//! (ZnTe gap; O-induced states inside the gap).
//!
//! Run: `cargo run -p ls3df-pw --example tune_pseudo --release [ecut_ha]`

use ls3df_atoms::{znte_supercell, Species, ZNTE_LATTICE};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{grid_for, scf, DftSystem, PwAtom, ScfOptions};

fn main() {
    let table = PseudoTable::default();
    let ecut: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.0);
    let opts = ScfOptions {
        n_extra_bands: 6,
        max_scf: 60,
        tol: 1e-3,
        ..Default::default()
    };

    // 1) Pristine ZnTe, one conventional cell (8 atoms, 32 electrons).
    let s = znte_supercell([1, 1, 1], ZNTE_LATTICE);
    let sys = DftSystem {
        grid: grid_for(s.lengths, ecut),
        ecut,
        atoms: PwAtom::of_structure(&s, &table),
    };
    println!(
        "ZnTe 1x1x1: {} atoms, {} electrons, grid {:?}, ecut {} Ha",
        s.len(),
        sys.n_electrons(),
        sys.grid.dims,
        ecut
    );
    let t0 = std::time::Instant::now();
    let res = scf(&sys, &opts);
    println!(
        "  SCF: converged={} iters={} E={:.6} Ha ({:.1}s)",
        res.converged,
        res.history.len(),
        res.total_energy,
        t0.elapsed().as_secs_f64()
    );
    let n_occ = sys.n_occupied();
    println!("  bands around gap (occ={n_occ}):");
    for b in n_occ.saturating_sub(3)..(n_occ + 3).min(res.eigenvalues.len()) {
        println!(
            "    band {b:3} ε = {:+.4} Ha {}",
            res.eigenvalues[b],
            if b < n_occ { "(occ)" } else { "(emp)" }
        );
    }
    let gap = res.band_gap().unwrap();
    println!("  ZnTe gap = {:.4} Ha = {:.2} eV", gap, gap * 27.2114);

    // 2) One O substitution in a 2×1×1 cell (16 atoms): where do the O
    //    states sit relative to the ZnTe band edges?
    let mut s2 = znte_supercell([2, 1, 1], ZNTE_LATTICE);
    let te_idx = s2
        .atoms
        .iter()
        .position(|a| a.species == Species::Te)
        .unwrap();
    s2.atoms[te_idx].species = Species::O;
    ls3df_atoms::relax(&mut s2, 1e-4, 2000);
    let sys2 = DftSystem {
        grid: grid_for(s2.lengths, ecut),
        ecut,
        atoms: PwAtom::of_structure(&s2, &table),
    };
    println!(
        "\nZnTe:O {} ({} electrons)",
        s2.formula(),
        sys2.n_electrons()
    );
    let t0 = std::time::Instant::now();
    let res2 = scf(&sys2, &opts);
    let n_occ2 = sys2.n_occupied();
    println!(
        "  SCF: converged={} iters={} ({:.1}s)",
        res2.converged,
        res2.history.len(),
        t0.elapsed().as_secs_f64()
    );
    for b in n_occ2.saturating_sub(4)..(n_occ2 + 4).min(res2.eigenvalues.len()) {
        println!(
            "    band {b:3} ε = {:+.4} Ha {}",
            res2.eigenvalues[b],
            if b < n_occ2 { "(occ)" } else { "(emp)" }
        );
    }
    let gap2 = res2.band_gap().unwrap();
    println!("  gap with O = {:.4} Ha = {:.2} eV", gap2, gap2 * 27.2114);
    println!(
        "  (want: O gap < ZnTe gap — O state split off below the CBM; got {} < {}: {})",
        gap2,
        gap,
        gap2 < gap
    );
}
