//! LS3DF against the direct planewave code, where the answer is known.
//!
//! Each test solves a system directly (`ls3df_pw::scf`), then runs the
//! fixed-potential map [`Ls3df::respond`] in the converged direct
//! potential and bounds what the fragments make of it.

use ls3df::core::{Effort, Ls3df, Ls3dfOptions, Passivation};
use ls3df::grid::{Grid3, RealField};
use ls3df::pw::{self, DftSystem, PwAtom, ScfOptions};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn bits(f: &RealField) -> Vec<u64> {
    f.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The benchmark's crystal8 physics: eight deep-well atoms, one per
/// piece, `WallOnly` boxes of 8-point pieces with a 3-point buffer (the
/// SCF's mixer and stop rule play no part at fixed potential).
fn crystal8_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8; 3],
        buffer_pts: [3; 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 8,
        initial_cg_steps: 30,
        fragment_tol: 1e-8,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    }
}

/// At the converged direct potential every crystal8 fragment keeps
/// 95–100 % of its region's valence charge inside the region (measured
/// 0.9706 / 0.9728 / 0.9768 / 0.9837 for 1-, 2-, 4- and 8-piece
/// fragments; 1 CG step × 8 would read 0.88–0.95, so the effort is
/// pinned), and the map leaves the calculation's input potential and
/// stored density as they were.
#[test]
fn crystal8_retention_at_the_direct_potential() {
    let s = model_crystal([2, 2, 2], 6.5);
    let opts = crystal8_opts();
    let direct = pw::scf(
        &DftSystem {
            grid: Grid3::new([16; 3], s.lengths),
            ecut: opts.ecut,
            atoms: PwAtom::of_structure(&s, &opts.pseudo),
        },
        &ScfOptions {
            max_scf: 200,
            tol: 1e-5,
            n_extra_bands: 4,
            ..Default::default()
        },
    );
    assert!(direct.converged, "the direct reference must converge");

    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .initial_potential(direct.v_eff.clone())
        .build()
        .expect("valid crystal8 geometry");
    let v_in = calc.v_in().clone();
    let rho = calc.rho_ref().clone();
    let patch = calc
        .respond(Effort {
            cg_steps: 30,
            rounds: 2,
        })
        .expect("one-process world")
        .expect("the only rank is the global rank");

    assert_eq!(bits(calc.v_in()), bits(&v_in), "respond moved V_in");
    assert_eq!(bits(calc.rho_ref()), bits(&rho), "respond moved ρ");

    assert_eq!(patch.fragments.len(), calc.n_fragments());
    for (i, (f, charge)) in calc.fg.fragments().iter().zip(&patch.fragments).enumerate() {
        let pieces: usize = f.size.iter().product();
        assert_eq!(charge.z_region, 2.0 * pieces as f64, "fragment {i}");
        let r = charge.retention();
        assert!(
            (0.95..=1.0).contains(&r),
            "fragment {i} ({pieces} pieces): r_F = {r}"
        );
    }
}
