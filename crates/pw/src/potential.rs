//! Assembly of the ionic local potential, initial density guesses, and the
//! self-consistent effective potential `V_eff = V_ion + V_H[ρ] + V_xc[ρ]`.

use crate::{hartree, xc, PwBasis};
use ls3df_fft::Fft3r;
use ls3df_grid::RealField;
use ls3df_math::{c64, KernelPolicy};
use ls3df_pseudo::LocalPotential;

/// One atom as the planewave engine sees it: position + pseudopotential
/// parameters (the chemistry lives in `ls3df-atoms`/`ls3df-pseudo`).
#[derive(Clone, Copy, Debug)]
pub struct PwAtom {
    /// Cartesian position (Bohr).
    pub pos: [f64; 3],
    /// Local pseudopotential.
    pub local: LocalPotential,
    /// KB projector radial width (Bohr).
    pub kb_rb: f64,
    /// KB projector strength (Hartree); 0 = no nonlocal part.
    pub kb_energy: f64,
}

/// Builds the total ionic local potential `V_ion(r)` on the basis grid by
/// reciprocal-space assembly (structure factor × form factor).
pub fn ionic_potential(basis: &PwBasis, atoms: &[PwAtom]) -> RealField {
    ionic_potential_with(basis, atoms, KernelPolicy::Fast)
}

/// [`ionic_potential`] under an explicit [`KernelPolicy`] — the in-process
/// A/B entry point for the fast-vs-reference tolerance gate
/// (`tests/kernel_tol.rs`); production callers use [`ionic_potential`].
pub fn ionic_potential_with(basis: &PwBasis, atoms: &[PwAtom], policy: KernelPolicy) -> RealField {
    synthesize_real_field_with(basis, atoms, |a, q| atoms[a].local.fourier(q), policy)
}

/// Synthesizes the real field `Σ_G F(G)e^{iG·r}` from a per-atom form
/// factor. Real form factors make the spectrum Hermitian, so the fast
/// path assembles only the packed x half and runs one c2r transform —
/// about half the structure-factor and transform work of the
/// complex-grid reference sweep.
fn synthesize_real_field<F: Fn(usize, f64) -> f64>(
    basis: &PwBasis,
    atoms: &[PwAtom],
    form: F,
) -> RealField {
    synthesize_real_field_with(basis, atoms, form, KernelPolicy::Fast)
}

fn synthesize_real_field_with<F: Fn(usize, f64) -> f64>(
    basis: &PwBasis,
    atoms: &[PwAtom],
    form: F,
    policy: KernelPolicy,
) -> RealField {
    let grid = basis.grid().clone();
    let positions: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
    let n = grid.len() as f64;
    let data: Vec<f64> = match policy {
        KernelPolicy::Fast => {
            let rfft = Fft3r::new_with(grid.dims, policy);
            let mut spec = vec![c64::ZERO; rfft.packed_len()];
            basis.lattice_sum_packed(&positions, form, &mut spec);
            let mut ws = rfft.workspace();
            let mut out = vec![0.0_f64; grid.len()];
            rfft.inverse(&mut spec, &mut out, &mut ws);
            // inverse carries 1/N; the plain sum needs the ×N back.
            for v in &mut out {
                *v *= n;
            }
            out
        }
        KernelPolicy::Reference => {
            let mut vg = vec![c64::ZERO; grid.len()];
            basis.lattice_sum(&positions, form, &mut vg);
            basis.fft().inverse(&mut vg);
            // inverse carries 1/N, but Σ_G F(G)e^{iGr} needs the plain sum.
            vg.iter().map(|v| v.re * n).collect()
        }
    };
    RealField::from_vec(grid, data)
}

/// Builds a superposition-of-atoms initial density: one normalized
/// Gaussian of `z` electrons and width `w` per atom, assembled in
/// reciprocal space (so the periodic images are exact), then clipped to be
/// non-negative and rescaled to the exact electron count.
pub fn initial_density(basis: &PwBasis, atoms: &[PwAtom], width: f64) -> RealField {
    let mut rho = synthesize_real_field(basis, atoms, |a, q| {
        atoms[a].local.z * (-q * q * width * width / 4.0).exp()
    });
    let grid = rho.grid().clone();
    let data = rho.as_mut_slice();
    for v in data.iter_mut() {
        *v = v.max(0.0);
    }
    // Rescale to the exact electron count after clipping.
    let n_elec: f64 = atoms.iter().map(|a| a.local.z).sum();
    let current: f64 = data.iter().sum::<f64>() * grid.dv();
    if current > 1e-12 {
        let s = n_elec / current;
        for v in data.iter_mut() {
            *v *= s;
        }
    }
    rho
}

/// Energy bookkeeping pieces of one effective-potential evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PotentialEnergies {
    /// Hartree energy `½∫ρV_H`.
    pub hartree: f64,
    /// XC energy `∫ρ·ε_xc`.
    pub xc: f64,
    /// `∫ρ·v_xc` (needed for the double-counting correction).
    pub vxc_rho: f64,
    /// `∫ρ·V_ion`.
    pub ion_rho: f64,
}

/// Evaluates `V_eff = V_ion + V_H[ρ] + V_xc[ρ]` and the associated energy
/// integrals, reusing the basis FFT plan.
pub fn effective_potential(
    basis: &PwBasis,
    v_ion: &RealField,
    rho: &RealField,
) -> (RealField, PotentialEnergies) {
    let grid = basis.grid();
    let v_h = hartree::hartree_potential_with(rho, basis.fft(), grid);
    assemble_effective(grid, v_ion, rho, v_h)
}

/// [`effective_potential`] through a cached [`hartree::HartreeSolver`], so
/// repeated SCF iterations reuse the Poisson plan, reciprocal kernel, and
/// FFT scratch instead of rebuilding them per call.
pub fn effective_potential_with(
    basis: &PwBasis,
    v_ion: &RealField,
    rho: &RealField,
    hartree: &hartree::HartreeSolver,
) -> (RealField, PotentialEnergies) {
    let grid = basis.grid();
    assert_eq!(hartree.grid(), grid, "effective_potential: solver grid");
    let mut v_h = RealField::zeros(grid.clone());
    hartree.solve_into(rho, &mut v_h);
    assemble_effective(grid, v_ion, rho, v_h)
}

fn assemble_effective(
    grid: &ls3df_grid::Grid3,
    v_ion: &RealField,
    rho: &RealField,
    v_h: RealField,
) -> (RealField, PotentialEnergies) {
    let mut v_eff = v_ion.clone();
    v_eff.add_scaled(1.0, &v_h);
    let dv = grid.dv();
    let mut vxc = vec![0.0_f64; grid.len()];
    xc::vxc_field(rho.as_slice(), &mut vxc);
    let mut energies = PotentialEnergies {
        hartree: hartree::hartree_energy(rho, &v_h),
        xc: xc::exc_energy(rho.as_slice(), dv),
        ..Default::default()
    };
    for ((v, &x), (&r, &vi)) in v_eff
        .as_mut_slice()
        .iter_mut()
        .zip(&vxc)
        .zip(rho.as_slice().iter().zip(v_ion.as_slice()))
    {
        *v += x;
        energies.vxc_rho += r * x;
        energies.ion_rho += r * vi;
    }
    energies.vxc_rho *= dv;
    energies.ion_rho *= dv;
    (v_eff, energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;

    fn test_atoms() -> Vec<PwAtom> {
        vec![
            PwAtom {
                pos: [2.0, 2.0, 2.0],
                local: LocalPotential {
                    z: 4.0,
                    rc: 1.0,
                    a: 2.0,
                    w: 0.9,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            },
            PwAtom {
                pos: [6.0, 6.0, 6.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 1.2,
                    a: 1.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            },
        ]
    }

    #[test]
    fn ionic_potential_real_and_attractive_at_nuclei() {
        let basis = PwBasis::new(Grid3::cubic(16, 8.0), 2.0);
        let v = ionic_potential(&basis, &test_atoms());
        // Attractive wells centred at the atoms: the grid point nearest an
        // atom should be well below the cell average.
        let near = v.at(4, 4, 4); // (2,2,2) at spacing 0.5
        assert!(near < v.mean() - 0.5, "near = {near}, mean = {}", v.mean());
    }

    #[test]
    fn initial_density_integrates_to_valence() {
        let basis = PwBasis::new(Grid3::cubic(16, 8.0), 2.0);
        let rho = initial_density(&basis, &test_atoms(), 1.2);
        assert!((rho.integrate() - 6.0).abs() < 1e-9);
        assert!(rho.min() >= 0.0);
        // Peaked at the atoms.
        assert!(rho.at(4, 4, 4) > 4.0 * rho.mean() / 3.0);
    }

    #[test]
    fn effective_potential_energy_bookkeeping() {
        let basis = PwBasis::new(Grid3::cubic(12, 8.0), 1.5);
        let atoms = test_atoms();
        let v_ion = ionic_potential(&basis, &atoms);
        let rho = initial_density(&basis, &atoms, 1.2);
        let (v_eff, en) = effective_potential(&basis, &v_ion, &rho);
        assert!(en.hartree > 0.0);
        assert!(en.xc < 0.0);
        assert!(en.vxc_rho < 0.0);
        // v_eff differs from v_ion by V_H + V_xc.
        let diff = v_eff.diff(&v_ion);
        assert!(diff.max_abs() > 1e-3);
        // ∫ρ·v_xc ≈ Σρ·v_xc·dv recomputed directly.
        let dv = basis.grid().dv();
        let manual: f64 = rho.as_slice().iter().map(|&r| r * xc::v_xc(r)).sum::<f64>() * dv;
        assert!((manual - en.vxc_rho).abs() < 1e-10);
    }

    #[test]
    fn packed_synthesis_matches_reference() {
        // Ionic-potential form factor, even and odd x extents: the packed
        // half-spectrum c2r assembly must agree with the complex-grid
        // reference to synthesis tolerance.
        for grid in [
            Grid3::cubic(12, 8.0),
            Grid3::new([9, 12, 10], [8.0, 8.0, 8.0]),
        ] {
            let basis = PwBasis::new(grid, 1.5);
            let atoms = test_atoms();
            let fast = synthesize_real_field_with(
                &basis,
                &atoms,
                |a, q| atoms[a].local.fourier(q),
                KernelPolicy::Fast,
            );
            let reference = synthesize_real_field_with(
                &basis,
                &atoms,
                |a, q| atoms[a].local.fourier(q),
                KernelPolicy::Reference,
            );
            let diff = fast.diff(&reference).max_abs();
            assert!(diff < 1e-10, "packed vs reference synthesis: {diff}");
        }
    }

    #[test]
    fn periodic_images_consistent() {
        // An atom at the corner (0,0,0) must produce the same potential
        // profile as one shifted by a full lattice vector.
        let basis = PwBasis::new(Grid3::cubic(12, 6.0), 1.5);
        let mk = |pos: [f64; 3]| {
            vec![PwAtom {
                pos,
                local: LocalPotential {
                    z: 3.0,
                    rc: 1.0,
                    a: 0.5,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            }]
        };
        let v1 = ionic_potential(&basis, &mk([0.0, 0.0, 0.0]));
        let v2 = ionic_potential(&basis, &mk([6.0, 6.0, 0.0]));
        let d = v1.diff(&v2);
        assert!(d.max_abs() < 1e-9);
    }
}
