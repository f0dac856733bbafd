//! Helpers shared by the integration tests (`mod common;`).

use ls3df_atoms::{Atom, Species, Structure};

/// Deep-well simple-cubic model crystal: one Zn site at the centre of
/// each of the `m[0] × m[1] × m[2]` cells of edge `a` (Bohr).
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
