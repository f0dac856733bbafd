//! LS3DF total energy assembly.
//!
//! The method's total energy combines signed fragment quantum energies
//! with global electrostatics (paper §III: "the total quantum energy of
//! the system can be calculated as E = Σ α_S·E_S", with the long-range
//! electrostatic part solved globally):
//!
//! ```text
//! E = Σ_F α_F·(T_F + E_NL,F)  +  ∫V_ion·ρ_tot  +  E_H[ρ_tot]
//!   + E_xc[ρ_tot]  +  E_Ewald
//! T_F + E_NL,F = Σ_b f_b·ε_b^F − ∫_ΩF V_F·ρ_F
//! ```
//!
//! The artificial boundary contributions to `T_F + E_NL,F` cancel between
//! the ± fragments exactly like the density patching does.

use crate::scf::Ls3df;
use ls3df_pw::{density, effective_potential, Hamiltonian};

/// Energy decomposition of an LS3DF state.
#[derive(Clone, Copy, Debug)]
pub struct Ls3dfEnergy {
    /// Signed fragment kinetic + nonlocal energy `Σ α_F (T_F + E_NL,F)`.
    pub quantum: f64,
    /// `∫V_ion·ρ_tot`.
    pub ion_electron: f64,
    /// Hartree energy of the patched density.
    pub hartree: f64,
    /// XC energy of the patched density.
    pub xc: f64,
    /// Ion–ion Ewald energy.
    pub ewald: f64,
}

impl Ls3dfEnergy {
    /// Total energy (Hartree).
    pub fn total(&self) -> f64 {
        self.quantum + self.ion_electron + self.hartree + self.xc + self.ewald
    }
}

impl Ls3df {
    /// Evaluates the LS3DF total energy at the current state (call after
    /// [`Ls3df::scf`]). One extra Hamiltonian application per fragment.
    pub fn total_energy(&self) -> Ls3dfEnergy {
        // Signed fragment quantum energies.
        let vfs = self.gen_vf();
        let quantum: f64 = self.fragment_quantum_energies(&vfs).iter().sum();

        // Global electrostatic + XC pieces from the patched density.
        let rho = self.rho_ref();
        let (_, energies) = effective_potential(self.global_basis(), self.v_ion(), rho);
        Ls3dfEnergy {
            quantum,
            ion_electron: energies.ion_rho,
            hartree: energies.hartree,
            xc: energies.xc,
            ewald: self.ewald_energy(),
        }
    }

    /// Per-fragment α-weighted quantum energies `α_F·(T_F + E_NL,F)`,
    /// with `α_F = ±1`.
    pub fn fragment_quantum_energies(&self, vfs: &[ls3df_grid::RealField]) -> Vec<f64> {
        use rayon::prelude::*;
        self.fragment_states()
            .par_iter()
            .zip(vfs.par_iter())
            .map(|(fs, vf)| {
                let h = Hamiltonian::new(fs.basis(), vf.clone(), fs.nonlocal());
                let hpsi = h.apply_block(fs.psi());
                // Band energies as Rayleigh quotients (robust even when the
                // block is not perfectly converged); on packed rows the
                // real dot is the complex inner product.
                let mut band_energy = 0.0;
                for (b, &f) in fs.occupations().iter().enumerate() {
                    if f == 0.0 {
                        continue;
                    }
                    let eps = ls3df_math::vec_ops::dotc(fs.psi().row(b), hpsi.row(b));
                    band_energy += f * eps;
                }
                // Remove the local-potential double count over ΩF.
                let rho_f = density::compute_density(fs.basis(), fs.psi(), fs.occupations());
                let v_rho: f64 = vf
                    .as_slice()
                    .iter()
                    .zip(rho_f.as_slice())
                    .map(|(&v, &r)| v * r)
                    .sum::<f64>()
                    * fs.basis().grid().dv();
                fs.fragment().alpha() * (band_energy - v_rho)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Ls3df, Ls3dfOptions, Passivation};
    use ls3df_atoms::model_crystal;
    use ls3df_pseudo::PseudoTable;
    use ls3df_pw::Mixer;

    #[test]
    fn energy_decomposition_is_finite_and_bound() {
        let s = model_crystal([2, 2, 2], 6.5);
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
        let e = calc.total_energy();
        assert!(e.total().is_finite());
        // Sanity on the pieces: Hartree > 0, XC < 0, bound total.
        assert!(e.hartree > 0.0, "E_H = {}", e.hartree);
        assert!(e.xc < 0.0, "E_xc = {}", e.xc);
        // 8 deep-well He-like atoms: direct result is ≈ −11.46 Ha; the
        // signed-fragment assembly at this tiny scale should land within
        // ~10% of it.
        assert!(
            (-14.0..-9.0).contains(&e.total()),
            "E_total = {} (decomposition {e:?})",
            e.total()
        );
    }
}
