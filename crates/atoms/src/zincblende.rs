//! Zinc-blende supercell and ZnTe₁₋ₓOₓ alloy builders, and the model
//! crystal the tests and measured experiments run on.
//!
//! The paper's test systems are supercells of `m1 × m2 × m3` conventional
//! cubic eight-atom zinc-blende cells (so `8·m1·m2·m3` atoms), with 3% of
//! the Te sites randomly substituted by oxygen.

use crate::{Atom, Species, Structure};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// ZnTe conventional cubic lattice constant in Bohr (6.104 Å).
pub const ZNTE_LATTICE: f64 = 11.535;

/// Fractional positions of the 8 atoms in the conventional zinc-blende
/// cell: 4 cations (fcc) + 4 anions (fcc shifted by ¼,¼,¼).
const CATION_SITES: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
];
const ANION_SITES: [[f64; 3]; 4] = [
    [0.25, 0.25, 0.25],
    [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75],
    [0.75, 0.75, 0.25],
];

/// Builds a pristine ZnTe supercell of `m = [m1, m2, m3]` conventional
/// cells with lattice constant `a` (Bohr). Atom count is `8·m1·m2·m3`.
pub fn znte_supercell(m: [usize; 3], a: f64) -> Structure {
    assert!(m.iter().all(|&v| v >= 1), "znte_supercell: m must be ≥ 1");
    let lengths = [m[0] as f64 * a, m[1] as f64 * a, m[2] as f64 * a];
    let mut atoms = Vec::with_capacity(8 * m[0] * m[1] * m[2]);
    for cz in 0..m[2] {
        for cy in 0..m[1] {
            for cx in 0..m[0] {
                let base = [cx as f64 * a, cy as f64 * a, cz as f64 * a];
                for site in CATION_SITES {
                    atoms.push(Atom {
                        species: Species::Zn,
                        pos: [
                            base[0] + site[0] * a,
                            base[1] + site[1] * a,
                            base[2] + site[2] * a,
                        ],
                    });
                }
                for site in ANION_SITES {
                    atoms.push(Atom {
                        species: Species::Te,
                        pos: [
                            base[0] + site[0] * a,
                            base[1] + site[1] * a,
                            base[2] + site[2] * a,
                        ],
                    });
                }
            }
        }
    }
    Structure::new(lengths, atoms)
}

/// Builds a ZnTe₁₋ₓOₓ alloy supercell: a ZnTe supercell with a fraction
/// `x_oxygen` of the Te sites substituted by O, chosen uniformly at random
/// with the given seed (deterministic for reproducibility).
///
/// The paper uses x ≈ 0.03 ("3% of Te atoms being replaced by oxygen").
pub fn znteo_alloy(m: [usize; 3], a: f64, x_oxygen: f64, seed: u64) -> Structure {
    assert!(
        (0.0..=1.0).contains(&x_oxygen),
        "znteo_alloy: x must be in [0,1]"
    );
    let mut s = znte_supercell(m, a);
    let te_sites: Vec<usize> = s
        .atoms
        .iter()
        .enumerate()
        .filter(|(_, at)| at.species == Species::Te)
        .map(|(i, _)| i)
        .collect();
    let n_sub = ((te_sites.len() as f64) * x_oxygen).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = te_sites;
    chosen.shuffle(&mut rng);
    for &idx in chosen.iter().take(n_sub) {
        s.atoms[idx].species = Species::O;
    }
    s
}

/// Simple-cubic model crystal: one Zn site at the centre of each of the
/// `m[0] × m[1] × m[2]` cells of edge `a` (Bohr). With a deep-well
/// pseudopotential table it is a gapped, closed-shell, chemistry-free
/// system — cheap enough for the test suite and for real (measured, not
/// modeled) LS3DF-vs-direct experiments, one atom per LS3DF piece.
pub fn model_crystal(m: [usize; 3], a: f64) -> Structure {
    let mut atoms = Vec::new();
    for k in 0..m[2] {
        for j in 0..m[1] {
            for i in 0..m[0] {
                atoms.push(Atom {
                    species: Species::Zn,
                    pos: [
                        (i as f64 + 0.5) * a,
                        (j as f64 + 0.5) * a,
                        (k as f64 + 0.5) * a,
                    ],
                });
            }
        }
    }
    Structure::new([m[0] as f64 * a, m[1] as f64 * a, m[2] as f64 * a], atoms)
}

/// The paper's standard test-system naming: `m1 × m2 × m3` cells →
/// `8·m1·m2·m3` atoms.
pub fn atom_count(m: [usize; 3]) -> usize {
    8 * m[0] * m[1] * m[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_crystal_geometry() {
        let s = model_crystal([2, 3, 4], 5.0);
        assert_eq!(s.len(), 24);
        assert_eq!(s.lengths, [10.0, 15.0, 20.0]);
    }

    #[test]
    fn cell_counts_match_paper_table() {
        // Paper §V: 3×3×3 → 216, …, 12×12×12 → 13824 atoms.
        for (m, n) in [
            ([3, 3, 3], 216),
            ([4, 4, 4], 512),
            ([5, 5, 5], 1000),
            ([6, 6, 6], 1728),
            ([8, 6, 9], 3456),
            ([8, 8, 8], 4096),
            ([10, 10, 8], 6400),
            ([12, 12, 12], 13824),
            ([16, 16, 8], 16384),
        ] {
            assert_eq!(atom_count(m), n);
            if n <= 1000 {
                assert_eq!(znte_supercell(m, ZNTE_LATTICE).len(), n);
            }
        }
    }

    #[test]
    fn every_atom_has_four_tetrahedral_neighbors() {
        let s = znte_supercell([2, 2, 2], ZNTE_LATTICE);
        let nbrs = s.neighbor_list(1.15);
        let d0 = 3.0_f64.sqrt() / 4.0 * ZNTE_LATTICE;
        for (i, nb) in nbrs.iter().enumerate() {
            assert_eq!(nb.len(), 4, "atom {i} has {} neighbors", nb.len());
            for &j in nb {
                assert_ne!(s.atoms[i].species, s.atoms[j].species, "homopolar bond");
                assert!((s.distance(i, j) - d0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn alloy_fraction_respected() {
        let s = znteo_alloy([3, 3, 3], ZNTE_LATTICE, 0.03, 42);
        let n_te_sites = 4 * 27;
        let n_o = s.count(Species::O);
        assert_eq!(n_o, ((n_te_sites as f64) * 0.03).round() as usize);
        assert_eq!(s.count(Species::Te) + n_o, n_te_sites);
        assert_eq!(s.count(Species::Zn), n_te_sites);
    }

    #[test]
    fn alloy_is_deterministic_per_seed() {
        let a = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 7);
        let b = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 7);
        let c = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_formula_reproduced() {
        // Paper Fig. 6 caption: Zn1728 Te1674 O54 for the 8×6×9 system at 3%.
        let s = znteo_alloy([8, 6, 9], ZNTE_LATTICE, 0.03, 1);
        assert_eq!(s.count(Species::Zn), 1728);
        assert_eq!(s.count(Species::O), (1728.0_f64 * 0.03).round() as usize);
        assert_eq!(s.count(Species::Te), 1728 - s.count(Species::O));
        assert_eq!(
            s.formula(),
            format!(
                "Zn1728Te{}O{}",
                1728 - s.count(Species::O),
                s.count(Species::O)
            )
        );
    }

    #[test]
    fn charge_neutral_average_four_electrons() {
        let s = znte_supercell([2, 2, 2], ZNTE_LATTICE);
        assert_eq!(s.num_electrons(), 4.0 * s.len() as f64);
    }
}
