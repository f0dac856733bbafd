//! Keating valence force field (VFF) relaxation.
//!
//! The paper relaxes the ZnTeO alloy geometries with a classical VFF
//! (ref. \[19\]) rather than ab initio forces: "we found that the atomic
//! relaxation can be described accurately by the classical valence force
//! field (VFF) method". We implement the standard Keating form
//!
//! ```text
//! E = Σ_bonds (3α/16·d₀²)·(r·r − d₀²)²
//!   + Σ_angles (3β/8·d₀ᵢⱼd₀ᵢₖ)·(rᵢⱼ·rᵢₖ + d₀ᵢⱼd₀ᵢₖ/3)²
//! ```
//!
//! and relax with damped steepest descent (adaptive step), which is robust
//! and plenty fast for the distortion scale of a 3% alloy.

use crate::{bond_params, Structure};

/// Result of a VFF relaxation.
#[derive(Clone, Debug)]
pub struct VffResult {
    /// Final Keating energy (model Hartree).
    pub energy: f64,
    /// Largest force component at the final geometry (Ha/Bohr).
    pub max_force: f64,
    /// Number of steepest-descent steps taken.
    pub steps: usize,
    /// Largest displacement of any atom from the ideal input geometry (Bohr).
    pub max_displacement: f64,
}

/// Keating VFF energy + analytic forces for a structure with the given
/// bonded neighbor list.
pub struct Vff<'a> {
    structure: &'a Structure,
    neighbors: &'a [Vec<usize>],
}

impl<'a> Vff<'a> {
    /// Creates the force field for a structure and its neighbor topology.
    pub fn new(structure: &'a Structure, neighbors: &'a [Vec<usize>]) -> Self {
        assert_eq!(
            structure.len(),
            neighbors.len(),
            "Vff: topology size mismatch"
        );
        Vff {
            structure,
            neighbors,
        }
    }

    /// Energy and forces at atom positions `pos` (flattened `3n`); the
    /// neighbor topology is fixed at construction.
    pub fn energy_forces(&self, pos: &[f64], forces: &mut [f64]) -> f64 {
        let n = self.structure.len();
        assert_eq!(pos.len(), 3 * n);
        assert_eq!(forces.len(), 3 * n);
        forces.fill(0.0);
        let lengths = self.structure.lengths;

        let disp = |i: usize, j: usize| -> [f64; 3] {
            let mut d = [0.0; 3];
            for k in 0..3 {
                let l = lengths[k];
                let mut x = pos[3 * j + k] - pos[3 * i + k];
                x -= (x / l).round() * l;
                d[k] = x;
            }
            d
        };

        let mut energy = 0.0;
        for i in 0..n {
            let si = self.structure.atoms[i].species;
            let nbrs = &self.neighbors[i];

            // Bond-stretch terms (count each bond once via i < j).
            for &j in nbrs {
                if j <= i {
                    continue;
                }
                let sj = self.structure.atoms[j].species;
                let Some(bp) = bond_params(si, sj) else {
                    continue;
                };
                let r = disp(i, j);
                let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
                let d2 = bp.d0 * bp.d0;
                let k = 3.0 * bp.alpha / (16.0 * d2);
                let q = r2 - d2;
                energy += k * q * q;
                // dE/dr_j = 4·k·q·r ; force = −grad.
                for c in 0..3 {
                    let f = 4.0 * k * q * r[c];
                    forces[3 * j + c] -= f;
                    forces[3 * i + c] += f;
                }
            }

            // Angle terms around atom i (pairs of distinct neighbors).
            for a in 0..nbrs.len() {
                for b in (a + 1)..nbrs.len() {
                    let (j, k_at) = (nbrs[a], nbrs[b]);
                    let sj = self.structure.atoms[j].species;
                    let sk = self.structure.atoms[k_at].species;
                    let (Some(bpj), Some(bpk)) = (bond_params(si, sj), bond_params(si, sk)) else {
                        continue;
                    };
                    let rij = disp(i, j);
                    let rik = disp(i, k_at);
                    let dot = rij[0] * rik[0] + rij[1] * rik[1] + rij[2] * rik[2];
                    let d0prod = bpj.d0 * bpk.d0;
                    let beta = 0.5 * (bpj.beta + bpk.beta);
                    let kc = 3.0 * beta / (8.0 * d0prod);
                    let q = dot + d0prod / 3.0;
                    energy += kc * q * q;
                    // dq/dr_j = r_ik, dq/dr_k = r_ij, dq/dr_i = −(r_ij + r_ik).
                    for c in 0..3 {
                        let g = 2.0 * kc * q;
                        forces[3 * j + c] -= g * rik[c];
                        forces[3 * k_at + c] -= g * rij[c];
                        forces[3 * i + c] += g * (rij[c] + rik[c]);
                    }
                }
            }
        }
        energy
    }
}

/// Bond-topology distance cutoff for these crystals: 1.15× the longest
/// equilibrium bond among species pairs present. Catches substitutional
/// O atoms still sitting on Te lattice sites before relaxation.
pub fn topology_cutoff(structure: &Structure) -> f64 {
    use crate::Species::*;
    let mut max_d0: f64 = 0.0;
    let present: Vec<_> = [Zn, Te, O, H]
        .into_iter()
        .filter(|&s| structure.count(s) > 0)
        .collect();
    for &a in &present {
        for &b in &present {
            if let Some(bp) = bond_params(a, b) {
                max_d0 = max_d0.max(bp.d0);
            }
        }
    }
    1.15 * max_d0
}

/// Relaxes the structure in place with damped steepest descent until the
/// maximum force component drops below `ftol` (Ha/Bohr) or `max_steps` is
/// reached. Returns relaxation statistics.
pub fn relax(structure: &mut Structure, ftol: f64, max_steps: usize) -> VffResult {
    let neighbors = structure.neighbor_list_within(topology_cutoff(structure));
    let n = structure.len();
    let mut pos: Vec<f64> = structure.atoms.iter().flat_map(|a| a.pos).collect();
    let pos0 = pos.clone();
    let mut forces = vec![0.0; 3 * n];
    let mut step = 1.0; // Bohr²/Ha units of displacement per unit force.
    let vff = Vff::new(structure, &neighbors);

    let mut energy = vff.energy_forces(&pos, &mut forces);
    let mut steps = 0;
    let mut max_f = max_component(&forces);
    while max_f > ftol && steps < max_steps {
        // Trial move.
        let trial: Vec<f64> = pos
            .iter()
            .zip(&forces)
            .map(|(&x, &f)| x + step * f)
            .collect();
        let mut trial_forces = vec![0.0; 3 * n];
        let trial_energy = vff.energy_forces(&trial, &mut trial_forces);
        if trial_energy < energy {
            pos = trial;
            forces = trial_forces;
            energy = trial_energy;
            step *= 1.1;
        } else {
            step *= 0.5;
            if step < 1e-12 {
                break;
            }
        }
        max_f = max_component(&forces);
        steps += 1;
    }

    let mut max_disp = 0.0_f64;
    for i in 0..n {
        let mut d2 = 0.0;
        for c in 0..3 {
            let l = structure.lengths[c];
            let mut dx = pos[3 * i + c] - pos0[3 * i + c];
            dx -= (dx / l).round() * l;
            d2 += dx * dx;
        }
        max_disp = max_disp.max(d2.sqrt());
    }

    for (i, atom) in structure.atoms.iter_mut().enumerate() {
        for c in 0..3 {
            atom.pos[c] = pos[3 * i + c].rem_euclid(structure.lengths[c]);
        }
    }
    VffResult {
        energy,
        max_force: max_f,
        steps,
        max_displacement: max_disp,
    }
}

fn max_component(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zincblende::{znte_supercell, znteo_alloy, ZNTE_LATTICE};

    #[test]
    fn ideal_znte_is_equilibrium() {
        // For pristine ZnTe at its own lattice constant, bond lengths equal
        // d₀ and tetrahedral angles satisfy cosθ = −1/3, so both Keating
        // terms vanish identically: zero energy, zero force.
        let s = znte_supercell([2, 2, 2], ZNTE_LATTICE);
        let nbrs = s.neighbor_list_within(topology_cutoff(&s));
        let vff = Vff::new(&s, &nbrs);
        let pos: Vec<f64> = s.atoms.iter().flat_map(|a| a.pos).collect();
        let mut f = vec![0.0; pos.len()];
        let e = vff.energy_forces(&pos, &mut f);
        assert!(e.abs() < 1e-12, "ideal ZnTe energy = {e}");
        assert!(max_component(&f) < 1e-8);
    }

    #[test]
    fn forces_match_finite_differences() {
        let s = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 3);
        let nbrs = s.neighbor_list_within(topology_cutoff(&s));
        let vff = Vff::new(&s, &nbrs);
        let mut pos: Vec<f64> = s.atoms.iter().flat_map(|a| a.pos).collect();
        let mut f = vec![0.0; pos.len()];
        let _ = vff.energy_forces(&pos, &mut f);
        let h = 1e-5;
        let mut scratch = vec![0.0; pos.len()];
        for &idx in &[0usize, 7, 20, 45] {
            let orig = pos[idx];
            pos[idx] = orig + h;
            let ep = vff.energy_forces(&pos, &mut scratch);
            pos[idx] = orig - h;
            let em = vff.energy_forces(&pos, &mut scratch);
            pos[idx] = orig;
            let fd = -(ep - em) / (2.0 * h);
            assert!(
                (fd - f[idx]).abs() < 1e-6 * (1.0 + fd.abs()),
                "force mismatch at dof {idx}: analytic {} vs fd {}",
                f[idx],
                fd
            );
        }
    }

    #[test]
    fn alloy_relaxation_contracts_zno_bonds() {
        let mut s = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 11);
        let nbrs = s.neighbor_list_within(topology_cutoff(&s));
        // Identify one Zn–O bond before relaxation.
        let (zn, o) = {
            let mut found = None;
            'outer: for (i, nb) in nbrs.iter().enumerate() {
                if s.atoms[i].species == crate::Species::O {
                    for &j in nb {
                        if s.atoms[j].species == crate::Species::Zn {
                            found = Some((j, i));
                            break 'outer;
                        }
                    }
                }
            }
            found.expect("alloy should contain a Zn–O bond")
        };
        let before = s.distance(zn, o);
        let res = relax(&mut s, 1e-4, 3000);
        let after = s.distance(zn, o);
        assert!(res.energy >= 0.0);
        assert!(
            after < before,
            "Zn–O bond should contract ({before} → {after})"
        );
        // It should move toward the ZnO equilibrium length but not all the
        // way (the lattice resists): strictly between d0(ZnO) and d0(ZnTe).
        assert!(after > 3.742 && after < 4.994);
        assert!(res.max_displacement > 0.01);
    }

    #[test]
    fn relaxation_reduces_energy_monotonically_to_tolerance() {
        let mut s = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.25, 5);
        let nbrs = s.neighbor_list_within(topology_cutoff(&s));
        let vff = Vff::new(&s, &nbrs);
        let pos: Vec<f64> = s.atoms.iter().flat_map(|a| a.pos).collect();
        let mut f = vec![0.0; pos.len()];
        let e0 = vff.energy_forces(&pos, &mut f);
        let res = relax(&mut s, 1e-5, 5000);
        assert!(res.energy < e0, "relaxation must lower the energy");
        assert!(res.max_force <= 1e-5 || res.steps == 5000);
    }
}
