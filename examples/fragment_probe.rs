//! Deep-dive probe of a single fragment: solve it to tight tolerance in
//! the converged direct potential and compare its region density with the
//! direct density point by point.
//!
//! Run: `cargo run --example fragment_probe --release`

use ls3df::core::{boundary_wall, fragment_atoms, Fragment, FragmentGrid, Passivation};
use ls3df::pw::{self, SolverOptions};
use ls3df_atoms::{model_crystal, topology_cutoff};
use ls3df_pseudo::PseudoTable;

fn main() {
    let a = 6.5;
    let m = [3usize, 3, 3];
    let _piece_pts = 10usize;
    let buffer = 5usize;
    let ecut = 1.5;
    let table = PseudoTable::deep_well(2.0, 0.8);

    let s = model_crystal(m, a);

    // Direct reference.
    let grid = ls3df_grid::Grid3::new([30, 30, 30], s.lengths);
    let pw_atoms: Vec<pw::PwAtom> = s
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
        atoms: pw_atoms,
    };
    let direct = pw::scf(
        &sys,
        &pw::ScfOptions {
            max_scf: 60,
            tol: 1e-5,
            ..Default::default()
        },
    );
    println!(
        "direct converged={} E={:.6}",
        direct.converged, direct.total_energy
    );

    // One fragment: the central 1×1×1 at corner (1,1,1).
    let fg = FragmentGrid::new(m, &grid, [buffer; 3]).expect("valid decomposition");
    let nbrs = s.neighbor_list_within(topology_cutoff(&s));
    for size in [[1usize, 1, 1], [2, 1, 1], [2, 2, 2]] {
        let f = Fragment::new([1, 1, 1], size);
        let fa = fragment_atoms(&s, &nbrs, &fg, &f, Passivation::WallOnly, &table);
        let box_grid = fg.box_grid(&f);
        let basis = pw::PwBasis::new(box_grid.clone(), ecut);
        let nl = pw::NonlocalPotential::none(&basis);
        let mut vf = direct.v_eff.extract_subbox(fg.box_origin(&f), &box_grid);
        vf.add_scaled(1.0, &boundary_wall(&fg, &f, 1.5));
        let h = pw::Hamiltonian::new(&basis, vf, &nl);
        let n_occ = (fa.n_electrons / 2.0).ceil() as usize;
        let nb = n_occ + 3;
        let mut psi = pw::scf::random_start(nb, &basis, 3);
        let stats = pw::solve_all_band(
            &h,
            &mut psi,
            &SolverOptions {
                max_iter: 400,
                tol: 1e-8,
                ..Default::default()
            },
        );
        println!(
            "\nfragment {:?}: atoms={} n_e={} bands={} converged={} residual={:.1e}",
            size, fa.n_real, fa.n_electrons, nb, stats.converged, stats.residual
        );
        println!("  eigenvalues: {:?}", &stats.eigenvalues[..nb.min(6)]);

        // Fragment density, region part, vs direct density.
        let mut occ = vec![0.0; nb];
        let mut rem = fa.n_electrons;
        for o in occ.iter_mut() {
            let f = rem.min(2.0);
            *o = f;
            rem -= f;
        }
        let rho_f = pw::density::compute_density(&basis, &psi, &occ);
        // Line through the first region atom along x, in box coords.
        let off = fg.region_offset_in_box();
        let spacing = box_grid.spacing();
        let atom_box = fa.atoms[0].pos;
        let iy = (atom_box[1] / spacing[1]).round() as usize;
        let iz = (atom_box[2] / spacing[2]).round() as usize;
        let origin = fg.box_origin(&f);
        println!("  line through atom (box iy={iy} iz={iz}):");
        println!(
            "  {:>5} {:>12} {:>12} {:>9}",
            "ix", "rho_frag", "rho_direct", "ratio"
        );
        for ix in (0..box_grid.dims[0]).step_by(2) {
            let rf = rho_f.at(ix, iy, iz);
            let gd = direct.rho.at_wrapped(
                origin[0] + ix as i64,
                origin[1] + iy as i64,
                origin[2] + iz as i64,
            );
            let in_region = ix >= off[0] && ix < off[0] + fg.region_dims(&f)[0];
            println!(
                "  {:>5} {:>12.5e} {:>12.5e} {:>9.4} {}",
                ix,
                rf,
                gd,
                rf / gd.max(1e-300),
                if in_region { "R" } else { "" }
            );
        }
    }
}
