//! Hellmann–Feynman forces.
//!
//! Paper §V: "the LS3DF method can be used to calculate the force and
//! relax the atomic position", and its accuracy validation includes
//! "the atomic forces differed by 10⁻⁵ a.u." against direct DFT. The
//! force on atom `a` has three pieces:
//!
//! * **local**: `F = i·Σ_G G·v_a(|G|)·e^{−iG·R_a}·conj(ρ̃(G))` — the
//!   electrostatic pull of the electron density on the local
//!   pseudopotential (assembled in reciprocal space like the potential);
//! * **nonlocal**: derivative of the Kleinman–Bylander projector phases,
//!   `∂β_a/∂R_a = −iG·β_a`;
//! * **ion–ion**: the Ewald force (real + reciprocal parts).

use crate::potential::PwAtom;
use crate::PwBasis;
use ls3df_grid::RealField;
use ls3df_math::vec_ops::dotc;
use ls3df_math::{c64, Matrix};
use ls3df_pseudo::erf;
use std::f64::consts::PI;

/// Local-pseudopotential force on every atom from the charge density.
pub fn local_forces(basis: &PwBasis, atoms: &[PwAtom], rho: &RealField) -> Vec<[f64; 3]> {
    let grid = basis.grid();
    assert_eq!(rho.grid(), grid, "local_forces: grid mismatch");
    // ρ̃(G) = (1/Ω)·∫ρ·e^{−iG·r}d³r = (dv/Ω)·FFT_forward(ρ) = FFT/N.
    let mut rho_g: Vec<c64> = rho.as_slice().iter().map(|&v| c64::real(v)).collect();
    basis.fft().forward(&mut rho_g);
    let inv_n = 1.0 / grid.len() as f64;

    let mut forces = vec![[0.0_f64; 3]; atoms.len()];
    for (idx, rg) in rho_g.iter().enumerate() {
        let (ix, iy, iz) = grid.coords(idx);
        let g = grid.g_vector(ix, iy, iz);
        let q2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
        if q2 == 0.0 {
            continue;
        }
        let q = q2.sqrt();
        let rho_conj = rg.scale(inv_n).conj();
        for (a, atom) in atoms.iter().enumerate() {
            let v = atom.local.fourier(q);
            if v == 0.0 {
                continue;
            }
            let phase = -(g[0] * atom.pos[0] + g[1] * atom.pos[1] + g[2] * atom.pos[2]);
            // i·G·v·e^{−iG·R}·conj(ρ̃): take the real part (±G pairing).
            let w = (c64::I * c64::cis(phase) * rho_conj).scale(v);
            forces[a][0] += w.re * g[0];
            forces[a][1] += w.re * g[1];
            forces[a][2] += w.re * g[2];
        }
    }
    forces
}

/// Nonlocal (Kleinman–Bylander) force on every atom from the occupied
/// wavefunctions: `F_a = −2·E_a·Σ_b f_b·Re[⟨ψ_b|β_a⟩·⟨∂_R β_a|ψ_b⟩]`.
pub fn nonlocal_forces(
    basis: &PwBasis,
    atoms: &[PwAtom],
    psi: &Matrix<c64>,
    occupations: &[f64],
) -> Vec<[f64; 3]> {
    let npw = basis.len();
    assert_eq!(psi.cols(), npw);
    let mut forces = vec![[0.0_f64; 3]; atoms.len()];
    // Per-atom projector row (normalized) and its gradient rows.
    let mut beta = vec![c64::ZERO; npw];
    let mut grad = [
        vec![c64::ZERO; npw],
        vec![c64::ZERO; npw],
        vec![c64::ZERO; npw],
    ];
    for (a, atom) in atoms.iter().enumerate() {
        if atom.kb_energy == 0.0 {
            continue;
        }
        let mut norm2 = 0.0;
        for (i, (g, &g2)) in basis.g_vectors().iter().zip(basis.g2()).enumerate() {
            let q = g2.sqrt();
            let radial = (-q * q * atom.kb_rb * atom.kb_rb / 2.0).exp();
            let phase = -(g[0] * atom.pos[0] + g[1] * atom.pos[1] + g[2] * atom.pos[2]);
            let b = c64::cis(phase).scale(radial);
            beta[i] = b;
            // ∂/∂R e^{−iG·R} = −iG e^{−iG·R}.
            for d in 0..3 {
                grad[d][i] = -(c64::I * b).scale(g[d]);
            }
            norm2 += radial * radial;
        }
        let inv = 1.0 / norm2.sqrt().max(1e-300);
        for i in 0..npw {
            beta[i] = beta[i].scale(inv);
            for d in 0..3 {
                grad[d][i] = grad[d][i].scale(inv);
            }
        }
        for b in 0..psi.rows() {
            let f = occupations[b];
            if f == 0.0 {
                continue;
            }
            let overlap = dotc(&beta, psi.row(b)); // ⟨β|ψ⟩
            for d in 0..3 {
                let dover = dotc(&grad[d], psi.row(b)); // ⟨∂β|ψ⟩
                                                        // F = −f·E·d/dR |⟨β|ψ⟩|² = −2·f·E·Re[conj(⟨β|ψ⟩)·⟨∂β|ψ⟩]
                forces[a][d] -= 2.0 * f * atom.kb_energy * (overlap.conj() * dover).re;
            }
        }
    }
    forces
}

/// Ewald (ion–ion) forces for point charges in the periodic cell.
pub fn ewald_forces(pos: &[[f64; 3]], q: &[f64], lengths: [f64; 3]) -> Vec<[f64; 3]> {
    assert_eq!(pos.len(), q.len());
    let n = pos.len();
    let mut forces = vec![[0.0_f64; 3]; n];
    if n == 0 {
        return forces;
    }
    let volume = lengths[0] * lengths[1] * lengths[2];
    let lmin = lengths.iter().cloned().fold(f64::INFINITY, f64::min);
    let eta = (2.6 / lmin * (n as f64).powf(1.0 / 6.0).max(1.0)).max(4.0 / lmin);
    let r_cut = 7.0 / eta;
    let images: [i64; 3] = std::array::from_fn(|k| (r_cut / lengths[k]).ceil() as i64);

    // Real-space part: F_i += q_i·q_j·[erfc(ηr)/r² + 2η/√π·e^{−η²r²}/r]·r̂.
    for i in 0..n {
        for j in 0..n {
            for lx in -images[0]..=images[0] {
                for ly in -images[1]..=images[1] {
                    for lz in -images[2]..=images[2] {
                        if i == j && lx == 0 && ly == 0 && lz == 0 {
                            continue;
                        }
                        let d = [
                            pos[i][0] - pos[j][0] + lx as f64 * lengths[0],
                            pos[i][1] - pos[j][1] + ly as f64 * lengths[1],
                            pos[i][2] - pos[j][2] + lz as f64 * lengths[2],
                        ];
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        let r = r2.sqrt();
                        if r > r_cut {
                            continue;
                        }
                        let erfc = 1.0 - erf(eta * r);
                        let coef = q[i]
                            * q[j]
                            * (erfc / r2 + 2.0 * eta / PI.sqrt() * (-eta * eta * r2).exp() / r)
                            / r;
                        for c in 0..3 {
                            forces[i][c] += coef * d[c];
                        }
                    }
                }
            }
        }
    }

    // Reciprocal part: F_i += (4π/Ω)·q_i·Σ_G (G/G²)·e^{−G²/4η²}·Im[e^{iG·r_i}·conj(S(G))].
    let g_cut = 2.0 * eta * (-(1e-12_f64).ln()).sqrt();
    let g_n: [i64; 3] = std::array::from_fn(|k| (g_cut * lengths[k] / (2.0 * PI)).ceil() as i64);
    for mx in -g_n[0]..=g_n[0] {
        for my in -g_n[1]..=g_n[1] {
            for mz in -g_n[2]..=g_n[2] {
                if mx == 0 && my == 0 && mz == 0 {
                    continue;
                }
                let g = [
                    2.0 * PI * mx as f64 / lengths[0],
                    2.0 * PI * my as f64 / lengths[1],
                    2.0 * PI * mz as f64 / lengths[2],
                ];
                let g2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
                if g2 > g_cut * g_cut {
                    continue;
                }
                let damp = (-g2 / (4.0 * eta * eta)).exp() / g2;
                let (mut s_re, mut s_im) = (0.0, 0.0);
                for (r, &qi) in pos.iter().zip(q) {
                    let phase = g[0] * r[0] + g[1] * r[1] + g[2] * r[2];
                    s_re += qi * phase.cos();
                    s_im += qi * phase.sin();
                }
                for i in 0..n {
                    let phase = g[0] * pos[i][0] + g[1] * pos[i][1] + g[2] * pos[i][2];
                    // Im[e^{iφ}·conj(S)] = sinφ·s_re − cosφ·s_im.
                    let im = phase.sin() * s_re - phase.cos() * s_im;
                    let coef = 4.0 * PI / volume * q[i] * damp * im;
                    for c in 0..3 {
                        forces[i][c] += coef * g[c];
                    }
                }
            }
        }
    }
    forces
}

/// Total Hellmann–Feynman forces (local + nonlocal + Ewald) for a
/// converged state.
pub fn total_forces(
    basis: &PwBasis,
    atoms: &[PwAtom],
    rho: &RealField,
    psi: &Matrix<c64>,
    occupations: &[f64],
) -> Vec<[f64; 3]> {
    let mut f = local_forces(basis, atoms, rho);
    let f_nl = nonlocal_forces(basis, atoms, psi, occupations);
    let pos: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
    let q: Vec<f64> = atoms.iter().map(|a| a.local.z).collect();
    let f_ew = ewald_forces(&pos, &q, basis.grid().lengths);
    for i in 0..f.len() {
        for c in 0..3 {
            f[i][c] += f_nl[i][c] + f_ew[i][c];
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{initial_density, ionic_potential};
    use ls3df_grid::Grid3;
    use ls3df_pseudo::LocalPotential;

    fn atoms2(shift: f64) -> Vec<PwAtom> {
        vec![
            PwAtom {
                pos: [2.0 + shift, 3.0, 3.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.5,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.8,
            },
            PwAtom {
                pos: [5.0, 3.5, 3.0],
                local: LocalPotential {
                    z: 4.0,
                    rc: 1.1,
                    a: 1.0,
                    w: 0.9,
                },
                kb_rb: 1.1,
                kb_energy: -0.4,
            },
        ]
    }

    #[test]
    fn local_force_matches_finite_difference_of_energy() {
        // E_loc(R) = ∫ρ·V_ion(R) with ρ fixed; F = −dE/dR.
        let grid = Grid3::cubic(14, 7.0);
        let basis = PwBasis::new(grid.clone(), 2.0);
        let rho = initial_density(&basis, &atoms2(0.3), 1.2);
        let e_at = |shift: f64| {
            let v = ionic_potential(&basis, &atoms2(shift));
            v.as_slice()
                .iter()
                .zip(rho.as_slice())
                .map(|(&a, &b)| a * b)
                .sum::<f64>()
                * grid.dv()
        };
        let f = local_forces(&basis, &atoms2(0.0), &rho);
        let h = 1e-4;
        let fd = -(e_at(h) - e_at(-h)) / (2.0 * h);
        assert!(
            (f[0][0] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
            "analytic {} vs finite-difference {}",
            f[0][0],
            fd
        );
    }

    #[test]
    fn ewald_forces_sum_to_zero_and_match_finite_difference() {
        let lengths = [6.0, 7.0, 8.0];
        let pos = [[1.0, 2.0, 3.0], [4.0, 5.0, 1.0], [2.5, 0.5, 6.0]];
        let q = [2.0, -3.0, 1.0];
        let f = ewald_forces(&pos, &q, lengths);
        // Momentum conservation.
        for c in 0..3 {
            let total: f64 = f.iter().map(|v| v[c]).sum();
            assert!(total.abs() < 1e-8, "ΣF[{c}] = {total}");
        }
        // Finite difference on atom 0, x direction.
        let h = 1e-5;
        let mut pp = pos;
        pp[0][0] += h;
        let ep = crate::ewald::ewald_energy(&pp, &q, lengths);
        pp[0][0] -= 2.0 * h;
        let em = crate::ewald::ewald_energy(&pp, &q, lengths);
        let fd = -(ep - em) / (2.0 * h);
        assert!(
            (f[0][0] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
            "Ewald force {} vs fd {}",
            f[0][0],
            fd
        );
    }

    #[test]
    fn symmetric_dimer_forces_are_opposite() {
        // Two identical atoms: forces equal and opposite along the bond.
        let grid = Grid3::cubic(14, 8.0);
        let basis = PwBasis::new(grid.clone(), 1.8);
        let atoms = vec![
            PwAtom {
                pos: [3.0, 4.0, 4.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            },
            PwAtom {
                pos: [5.0, 4.0, 4.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            },
        ];
        let rho = initial_density(&basis, &atoms, 1.3);
        let f = local_forces(&basis, &atoms, &rho);
        assert!(
            (f[0][0] + f[1][0]).abs() < 1e-9,
            "{} vs {}",
            f[0][0],
            f[1][0]
        );
        assert!(f[0][1].abs() < 1e-9 && f[0][2].abs() < 1e-9);
    }

    #[test]
    fn scf_forces_vanish_at_symmetric_site_and_balance() {
        // Full SCF on a dimer: total forces must be equal/opposite, and a
        // centred single atom must feel zero force.
        let grid = Grid3::cubic(12, 8.0);
        let sys = crate::DftSystem {
            grid: grid.clone(),
            ecut: 1.4,
            atoms: vec![PwAtom {
                pos: [4.0, 4.0, 4.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.5,
            }],
        };
        let res = crate::scf(
            &sys,
            &crate::ScfOptions {
                max_scf: 60,
                tol: 1e-4,
                n_extra_bands: 2,
                ..Default::default()
            },
        );
        assert!(
            res.converged,
            "last ΔV = {:?}",
            res.history.last().map(|h| h.dv_integral)
        );
        let basis = PwBasis::new(grid, sys.ecut);
        let psi = basis.unpack_block(&res.psi);
        let f = total_forces(&basis, &sys.atoms, &res.rho, &psi, &res.occupations);
        for c in 0..3 {
            assert!(
                f[0][c].abs() < 1e-3,
                "residual force component {c}: {}",
                f[0][c]
            );
        }
    }

    #[test]
    fn nonlocal_force_matches_finite_difference() {
        // E_NL(R) = Σ_b f_b·E·|⟨β(R)|ψ_b⟩|² with ψ fixed; F = −dE/dR.
        let grid = Grid3::cubic(12, 7.0);
        let basis = PwBasis::new(grid, 1.6);
        let mk = |shift: f64| {
            vec![PwAtom {
                pos: [3.0 + shift, 3.5, 3.5],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.9,
            }]
        };
        let mut psi = crate::scf::random_start(3, &basis, 4);
        ls3df_math::ortho::cholesky_orthonormalize(&mut psi, 1.0).unwrap();
        let occ = vec![2.0, 2.0, 0.0];
        let e_at = |shift: f64| {
            let atoms = mk(shift);
            let positions: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
            let nl = crate::NonlocalPotential::new(
                &basis,
                &positions,
                |_, q| (-q * q / 2.0).exp(),
                &[0.9],
            );
            nl.energy(&psi, &occ)
        };
        let f = nonlocal_forces(&basis, &mk(0.0), &psi, &occ);
        let h = 1e-5;
        let fd = -(e_at(h) - e_at(-h)) / (2.0 * h);
        assert!(
            (f[0][0] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
            "nonlocal force {} vs fd {}",
            f[0][0],
            fd
        );
    }
}
