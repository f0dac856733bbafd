//! Cross-crate integration tests of the fragment geometry against the
//! paper's combinatorial claims, at paper-like scales (pure geometry — no
//! solver, so these run everywhere).

use ls3df::atoms::{model_crystal, relax, topology_cutoff, znteo_alloy, ZNTE_LATTICE};
use ls3df::core::{fragment_atoms, Fragment, FragmentGrid, Passivation};
use ls3df::PseudoTable;
use ls3df_grid::Grid3;

#[test]
fn partition_of_unity_at_paper_scales() {
    // The paper's production decompositions (grid points reduced; the
    // partition is independent of the per-piece resolution).
    for m in [[3usize, 3, 3], [4, 4, 4], [8, 6, 9], [8, 8, 8]] {
        let grid = Grid3::new(
            [m[0] * 2, m[1] * 2, m[2] * 2],
            [m[0] as f64, m[1] as f64, m[2] as f64],
        );
        let fg = FragmentGrid::new(m, &grid, [1, 1, 1]).expect("valid decomposition");
        assert_eq!(
            fg.partition_of_unity(&grid),
            0.0,
            "partition of unity must be exact for m = {m:?}"
        );
        assert_eq!(fg.n_fragments(), 8 * m[0] * m[1] * m[2]);
    }
}

#[test]
fn fragment_census_matches_paper_counts() {
    // 12×12×12 → 13,824 fragments (one per atom in the paper's systems,
    // since pieces are 8-atom cells and there are 8 fragments per corner).
    let m = [12usize, 12, 12];
    let grid = Grid3::new([24, 24, 24], [12.0, 12.0, 12.0]);
    let fg = FragmentGrid::new(m, &grid, [1, 1, 1]).expect("valid decomposition");
    assert_eq!(fg.n_fragments(), 13_824);

    // Census by type: 1/8 of fragments for each of the 8 size signatures.
    let frags = fg.fragments();
    for size in [[1usize, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2]] {
        let count = frags.iter().filter(|f| f.size == size).count();
        assert_eq!(count, fg.n_corners(), "size {size:?}");
    }
}

#[test]
fn signed_volume_telescopes_to_supercell() {
    // Σ_F α_F · volume(F) = supercell volume, for any m.
    for m in [[2usize, 3, 4], [5, 5, 5]] {
        let grid = Grid3::new(
            [m[0] * 3, m[1] * 3, m[2] * 3],
            [m[0] as f64, m[1] as f64, m[2] as f64],
        );
        let fg = FragmentGrid::new(m, &grid, [1, 1, 1]).expect("valid decomposition");
        let signed: f64 = fg
            .fragments()
            .iter()
            .map(|f| f.alpha() * f.n_pieces() as f64)
            .sum();
        assert_eq!(signed, (m[0] * m[1] * m[2]) as f64);
    }
}

#[test]
fn two_dimensional_limit_matches_paper_figure_1() {
    // Paper Fig. 1 is the 2-D picture: α = +1 for 1×1 and 2×2, −1 for
    // 1×2 / 2×1. In our 3-D code the 2-D case is size_z = 2 fixed… check
    // that the sign pattern restricted to two varying dimensions matches
    // after factoring out the z contribution.
    let alpha = |s: [usize; 3]| Fragment::new([0, 0, 0], s).alpha();
    // With s_z = 2 (sign +1), the x-y pattern is the 2-D one inverted?
    // No: α₂D(s1,s2) = α₃D(s1,s2,2).
    assert_eq!(alpha([1, 1, 2]), 1.0); // 1×1 → +1 ✓
    assert_eq!(alpha([2, 2, 2]), 1.0); // 2×2 → +1 ✓
    assert_eq!(alpha([1, 2, 2]), -1.0); // 1×2 → −1 ✓
    assert_eq!(alpha([2, 1, 2]), -1.0); // 2×1 → −1 ✓
}

#[test]
fn buffers_do_not_change_region_bookkeeping() {
    let m = [3usize, 3, 3];
    let grid = Grid3::new([12, 12, 12], [6.0, 6.0, 6.0]);
    for buffer in [0usize, 1, 2] {
        let fg = FragmentGrid::new(m, &grid, [buffer; 3]).expect("valid decomposition");
        assert_eq!(fg.partition_of_unity(&grid), 0.0);
        let f = Fragment::new([2, 2, 2], [2, 2, 2]);
        // Region is buffer-independent; the box grows by 2·buffer.
        assert_eq!(fg.region_dims(&f), [8, 8, 8]);
        assert_eq!(fg.box_grid(&f).dims, [8 + 2 * buffer; 3]);
    }
}

/// `Σ_F α_F·n_e(F) − N_e` for `s` cut into `m` pieces,
/// counting the fragment atoms `Ls3df::assemble` solves (region atoms plus
/// passivants) at fig6's 8 points and 3 buffer points per piece.
fn patch_electron_excess(
    s: &ls3df::Structure,
    m: [usize; 3],
    passivation: Passivation,
    pseudo: &PseudoTable,
) -> f64 {
    let global = Grid3::new(m.map(|m| 8 * m), s.lengths);
    let fg = FragmentGrid::new(m, &global, [3; 3]).expect("valid decomposition");
    let neighbors = s.neighbor_list_within(topology_cutoff(s));
    let patched: f64 = fg
        .fragments()
        .iter()
        .map(|f| f.alpha() * fragment_atoms(s, &neighbors, &fg, f, passivation, pseudo).n_electrons)
        .sum();
    patched - s.num_electrons()
}

#[test]
fn patched_electron_count_equals_the_systems() {
    // Σ_F α_F·n_e(F) = N_e on fig6's relaxed alloy cut into m = 3
    // pieces per axis (the signs cancel the passivants' charge) and on the
    // crystal8 set (`WallOnly`). The alloy at m = 2 is not asserted: it
    // sums to 8 electrons, not 256 (ROADMAP item 1).
    let mut alloy = znteo_alloy([2; 3], ZNTE_LATTICE, 0.03125, 42);
    relax(&mut alloy, 1e-4, 3000);
    let alloy_m3 = patch_electron_excess(
        &alloy,
        [3; 3],
        Passivation::PseudoH,
        &PseudoTable::default(),
    );
    let crystal8 = patch_electron_excess(
        &model_crystal([2; 3], 6.5),
        [2; 3],
        Passivation::WallOnly,
        &PseudoTable::deep_well(2.0, 0.8),
    );
    assert!(alloy_m3.abs() <= 1e-12, "alloy, m = 3: {alloy_m3}");
    assert!(crystal8.abs() <= 1e-12, "crystal8: {crystal8}");
}
