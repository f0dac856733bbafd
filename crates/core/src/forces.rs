//! LS3DF atomic forces.
//!
//! Paper §V: "the LS3DF method can be used to calculate the force and
//! relax the atomic position" (validated there to 10⁻⁵ a.u. against
//! direct DFT). The decomposition mirrors the energy:
//!
//! * **local + Ewald** — exact functionals of the *patched global*
//!   density and the fixed ion geometry (reuse of `ls3df_pw::forces`);
//! * **nonlocal** — per-fragment Kleinman–Bylander forces from the
//!   fragment wavefunctions, accumulated with the `α_F` weights onto the
//!   real atoms each fragment contains (passivants feel forces too, but
//!   they are not real atoms and are discarded).

use crate::scf::Ls3df;
use ls3df_atoms::Structure;
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{ewald_forces, local_forces, nonlocal_forces, PwAtom};
use rayon::prelude::*;

impl Ls3df {
    /// Hellmann–Feynman forces on the real atoms of `structure` at the
    /// current LS3DF state (call after [`Ls3df::scf`]). `structure` and
    /// `pseudo` must be the ones the calculation was built with.
    pub fn forces(&self, structure: &Structure, pseudo: &PseudoTable) -> Vec<[f64; 3]> {
        let n = structure.len();
        // Global pieces from the patched density.
        let atoms: Vec<PwAtom> = structure
            .atoms
            .iter()
            .map(|a| {
                let p = pseudo.get(a.species);
                PwAtom {
                    pos: a.pos,
                    local: p.local,
                    kb_rb: p.kb.rb,
                    kb_energy: p.kb.e_kb,
                }
            })
            .collect();
        let mut forces = local_forces(self.global_basis(), &atoms, self.rho_ref());
        let pos: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
        let charges: Vec<f64> = atoms.iter().map(|a| a.local.z).collect();
        let f_ew = ewald_forces(&pos, &charges, structure.lengths);
        for i in 0..n {
            for c in 0..3 {
                forces[i][c] += f_ew[i][c];
            }
        }

        // Signed fragment nonlocal forces mapped back to global atoms.
        let per_fragment: Vec<Vec<(usize, [f64; 3])>> = self
            .fragment_states()
            .par_iter()
            .map(|fs| {
                let alpha = fs.fragment().alpha();
                let fa = fs.atoms();
                if fa.atoms[..fa.n_real].iter().all(|a| a.kb_energy == 0.0) {
                    return Vec::new();
                }
                let f_nl = nonlocal_forces(
                    fs.basis(),
                    &fa.atoms[..fa.n_real],
                    &fs.basis().unpack_block(fs.psi()),
                    fs.occupations(),
                );
                fa.global_indices
                    .iter()
                    .zip(f_nl)
                    .map(|(&g, f)| (g, [alpha * f[0], alpha * f[1], alpha * f[2]]))
                    .collect()
            })
            .collect();
        for contributions in per_fragment {
            for (g, f) in contributions {
                for c in 0..3 {
                    forces[g][c] += f[c];
                }
            }
        }
        forces
    }
}

#[cfg(test)]
mod tests {
    use crate::{Ls3df, Ls3dfOptions, Passivation};
    use ls3df_atoms::{Atom, Species, Structure};
    use ls3df_pseudo::PseudoTable;
    use ls3df_pw::Mixer;

    #[test]
    fn symmetric_crystal_forces_are_small_and_balanced() {
        // Ideal simple-cubic deep-well crystal: every atom sits on an
        // inversion-symmetric site → forces ≈ 0; and momentum conservation
        // must hold regardless.
        let a = 6.5;
        let mut atoms = Vec::new();
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..2 {
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
        let s = Structure::new([2.0 * a; 3], atoms);
        let table = PseudoTable::deep_well(2.0, 0.8);
        let opts = Ls3dfOptions {
            ecut: 1.5,
            piece_pts: [8; 3],
            buffer_pts: [3; 3],
            passivation: Passivation::WallOnly,
            wall_height: 1.5,
            n_extra_bands: 2,
            cg_steps: 6,
            initial_cg_steps: 10,
            fragment_tol: 1e-9,
            mixer: Mixer::Kerker {
                alpha: 0.6,
                q0: 0.8,
            },
            max_scf: 8,
            tol: 1e-4,
            pseudo: table,
        };
        let mut calc = Ls3df::builder(&s)
            .fragments([2, 2, 2])
            .options(opts)
            .build()
            .unwrap();
        let _ = calc.scf();
        let f = calc.forces(&s, &table);
        assert_eq!(f.len(), 8);
        // Near-conservation of momentum: exact only at perfect
        // self-consistency; at this truncated-SCF scale a small residual
        // set by the remaining ΔV survives.
        for c in 0..3 {
            let total: f64 = f.iter().map(|v| v[c]).sum();
            assert!(total.abs() < 0.02, "ΣF[{c}] = {total}");
        }
        // Symmetric sites: individual residual forces stay small (set by
        // the patched-density noise at this tiny scale).
        for (i, fi) in f.iter().enumerate() {
            for c in 0..3 {
                assert!(fi[c].abs() < 0.08, "atom {i} F[{c}] = {}", fi[c]);
            }
        }
    }
}
