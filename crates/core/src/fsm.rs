//! Folded spectrum method (FSM): band-edge states of the *full* system
//! from the converged LS3DF potential.
//!
//! The paper (§VII): "The converged potential V(r) is then used to solve
//! the Schrödinger equation for the whole system for only the band edge
//! states. This was done using our folded spectrum method \[22\]." FSM
//! minimizes `⟨ψ|(H − ε_ref)²|ψ⟩`: the spectrum of the folded operator has
//! its minimum at the eigenstate closest to the reference energy `ε_ref`,
//! so placing `ε_ref` inside the gap retrieves the band-edge states at
//! O(N) cost — no need to compute the N/2 occupied states below them.

use ls3df_math::gemm::{self, Op};
use ls3df_math::ortho;
use ls3df_math::vec_ops::{dotc, dscal, nrm2, scal};
use ls3df_math::{c64, eigh_fast as eigh, Matrix};
use ls3df_pw::{Hamiltonian, PwBasis};

/// Options for the folded-spectrum solve.
#[derive(Clone, Debug)]
pub struct FsmOptions {
    /// Number of states to converge around the reference energy.
    pub n_states: usize,
    /// Maximum iterations.
    pub max_iter: usize,
    /// Residual tolerance on the folded operator.
    pub tol: f64,
}

impl Default for FsmOptions {
    fn default() -> Self {
        FsmOptions {
            n_states: 4,
            max_iter: 200,
            tol: 1e-5,
        }
    }
}

/// One converged band-edge state.
pub struct FsmState {
    /// Energy `⟨ψ|H|ψ⟩` (Hartree).
    pub energy: f64,
    /// Folded eigenvalue `⟨ψ|(H−ε_ref)²|ψ⟩` (distance² to ε_ref).
    pub folded_value: f64,
    /// Planewave coefficients.
    pub coefficients: Vec<c64>,
}

/// Finds the `opts.n_states` eigenstates of `h` closest to `e_ref` by
/// minimizing the folded operator `(H − ε_ref)²` with a preconditioned
/// block steepest-descent + Rayleigh–Ritz scheme.
#[expect(
    clippy::expect_used,
    reason = "the seeded random start block is full-rank with probability 1, so its orthonormalization cannot fail"
)]
pub fn folded_spectrum(
    h: &Hamiltonian<'_>,
    e_ref: f64,
    opts: &FsmOptions,
    seed: u64,
) -> Vec<FsmState> {
    let basis: &PwBasis = h.basis();
    let npw = basis.len();
    let nb = opts.n_states;
    let mut psi = ls3df_pw::scf::random_start(nb, basis, seed);
    ortho::cholesky_orthonormalize(&mut psi, 1.0).expect("independent start");

    // Folded operator application: A·ψ = (H−ε)·(H−ε)·ψ.
    let apply = |block: &Matrix<c64>| -> Matrix<c64> {
        let mut first = h.apply_block(block);
        first.add_scaled(c64::real(-e_ref), block);
        let mut second = h.apply_block(&first);
        second.add_scaled(c64::real(-e_ref), &first);
        second
    };
    // Diagonal preconditioner for the folded operator: the kinetic part of
    // (H−ε)² is (½G²−ε)², regularized by the current smallest folded value.
    let g2 = basis.g2().to_vec();

    let mut apsi = apply(&psi);
    let mut lambdas = vec![0.0_f64; nb];
    for iter in 0..opts.max_iter {
        // Rayleigh–Ritz in the folded operator.
        let m = Hamiltonian::subspace_matrix(&psi, &apsi);
        let eig = eigh(&m);
        lambdas.copy_from_slice(&eig.values);
        let rotate = |block: &Matrix<c64>| -> Matrix<c64> {
            let mut out = Matrix::zeros(nb, npw);
            gemm::gemm(
                c64::ONE,
                &eig.vectors,
                Op::Trans,
                block,
                Op::None,
                c64::ZERO,
                &mut out,
            );
            out
        };
        psi = rotate(&psi);
        apsi = rotate(&apsi);

        // Residuals.
        let mut resid = apsi.clone();
        let mut worst = 0.0_f64;
        for b in 0..nb {
            let lam = lambdas[b];
            let (r, p) = (resid.row_mut(b), psi.row(b));
            for (x, &y) in r.iter_mut().zip(p) {
                *x -= y.scale(lam);
            }
            worst = worst.max(nrm2(resid.row(b)));
        }
        if worst <= opts.tol {
            break;
        }

        // Preconditioned descent block, projected out of span(ψ).
        let damp = lambdas[0].abs().max(1e-4);
        let mut d = Matrix::zeros(nb, npw);
        for b in 0..nb {
            let (dr, rr) = (d.row_mut(b), resid.row(b));
            for ((x, &r), &g2i) in dr.iter_mut().zip(rr).zip(&g2) {
                let t = 0.5 * g2i - e_ref;
                *x = r.scale(1.0 / (t * t + damp));
            }
        }
        let overlap = gemm::matmul_nh(&d, &psi);
        gemm::gemm(
            -c64::ONE,
            &overlap,
            Op::None,
            &psi,
            Op::None,
            c64::ONE,
            &mut d,
        );
        for b in 0..nb {
            let n = nrm2(d.row(b));
            if n > 1e-300 {
                dscal(1.0 / n, d.row_mut(b));
            }
        }

        // Per-band line minimization on the folded functional.
        let mut ad = apply(&d);
        for b in 0..nb {
            let a = lambdas[b];
            let c = dotc(d.row(b), ad.row(b)).re;
            let w = dotc(psi.row(b), ad.row(b));
            let wabs = w.abs();
            if wabs > 1e-300 {
                let u = -(w.conj()).scale(1.0 / wabs);
                scal(u, d.row_mut(b));
                scal(u, ad.row_mut(b));
            }
            let w_re = -wabs;
            let theta0 = 0.5 * (2.0 * w_re).atan2(a - c);
            let energy =
                |t: f64| 0.5 * (a + c) + 0.5 * (a - c) * (2.0 * t).cos() + w_re * (2.0 * t).sin();
            let t2 = theta0 + std::f64::consts::FRAC_PI_2;
            let theta = if energy(theta0) <= energy(t2) {
                theta0
            } else {
                t2
            };
            let (s, co) = theta.sin_cos();
            let (pr, dr) = (psi.row_mut(b), d.row(b));
            for (x, &y) in pr.iter_mut().zip(dr) {
                *x = x.scale(co) + y.scale(s);
            }
            let (ar, adr) = (apsi.row_mut(b), ad.row(b));
            for (x, &y) in ar.iter_mut().zip(adr) {
                *x = x.scale(co) + y.scale(s);
            }
        }

        // Keep the block orthonormal.
        if (iter + 1) % 3 == 0 {
            let s = gemm::matmul_nh(&psi, &psi);
            if let Ok(ch) = ls3df_math::Cholesky::new(&s) {
                ch.solve_l_block(&mut psi);
                ch.solve_l_block(&mut apsi);
            }
        }
    }

    // Final report: true energies via one H application.
    let hpsi = h.apply_block(&psi);
    let mut states: Vec<FsmState> = (0..nb)
        .map(|b| {
            let energy = dotc(psi.row(b), hpsi.row(b)).re;
            FsmState {
                energy,
                folded_value: lambdas[b],
                coefficients: psi.row(b).to_vec(),
            }
        })
        .collect();
    states.sort_by(|x, y| x.energy.total_cmp(&y.energy));
    states
}

/// Scans a set of reference energies and merges the resulting states into
/// a deduplicated, energy-sorted list — the way the paper maps out the
/// oxygen-induced band (its ≈0.7 eV width) without computing the occupied
/// manifold below it.
pub fn scan_band(
    h: &Hamiltonian<'_>,
    e_refs: &[f64],
    opts: &FsmOptions,
    seed: u64,
) -> Vec<FsmState> {
    let mut all: Vec<FsmState> = Vec::new();
    for (i, &e_ref) in e_refs.iter().enumerate() {
        let states = folded_spectrum(h, e_ref, opts, seed.wrapping_add(i as u64));
        for st in states {
            // Deduplicate by energy: two states within 1e-4 Ha whose
            // overlap is large are the same eigenstate.
            let dup = all.iter().any(|existing| {
                (existing.energy - st.energy).abs() < 1e-4
                    && dotc(&existing.coefficients, &st.coefficients).abs() > 0.5
            });
            if !dup {
                all.push(st);
            }
        }
    }
    all.sort_by(|a, b| a.energy.total_cmp(&b.energy));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::{Grid3, RealField};
    use ls3df_pw::{NonlocalPotential, SolverOptions};

    #[test]
    fn scan_band_deduplicates_and_sorts() {
        let grid = Grid3::cubic(8, 7.0);
        let basis = PwBasis::new(grid.clone(), 1.0);
        let v = RealField::zeros(grid);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let mut exact: Vec<f64> = basis.g2().iter().map(|&g| 0.5 * g).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Two overlapping windows around the same part of the spectrum.
        let e1 = 0.5 * (exact[4] + exact[5]);
        let states = scan_band(
            &h,
            &[e1, e1 + 0.01],
            &FsmOptions {
                n_states: 3,
                max_iter: 300,
                tol: 1e-7,
            },
            3,
        );
        // Sorted ascending…
        for w in states.windows(2) {
            assert!(w[0].energy <= w[1].energy + 1e-12);
        }
        // …and deduplicated: no two returned states share energy AND overlap.
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                let same_e = (states[i].energy - states[j].energy).abs() < 1e-4;
                let overlap = dotc(&states[i].coefficients, &states[j].coefficients).abs();
                assert!(
                    !(same_e && overlap > 0.5),
                    "states {i} and {j} are duplicates"
                );
            }
        }
    }

    #[test]
    fn fsm_finds_interior_eigenvalues_of_free_electrons() {
        let grid = Grid3::cubic(10, 9.0);
        let basis = PwBasis::new(grid.clone(), 1.2);
        let v = RealField::zeros(grid);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);

        let mut exact: Vec<f64> = basis.g2().iter().map(|&g| 0.5 * g).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Pick a reference in the middle of the spectrum.
        let e_ref = 0.5 * (exact[10] + exact[11]);
        let states = folded_spectrum(
            &h,
            e_ref,
            &FsmOptions {
                n_states: 4,
                max_iter: 400,
                tol: 1e-8,
            },
            7,
        );
        // Every returned energy must be an exact eigenvalue near e_ref.
        for st in &states {
            let nearest = exact
                .iter()
                .map(|&e| (e - st.energy).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 1e-4, "energy {} not in spectrum", st.energy);
            assert!((st.energy - e_ref).abs() < 0.6, "state far from reference");
        }
    }

    #[test]
    fn fsm_matches_full_diagonalization_around_gap() {
        // Small potential problem: compare FSM states near a reference with
        // the corresponding states from a full all-band solve.
        let grid = Grid3::cubic(8, 7.0);
        let basis = PwBasis::new(grid.clone(), 1.0);
        let v = RealField::from_fn(grid, |r| {
            -0.9 * (-((r[0] - 3.5).powi(2) + (r[1] - 3.5).powi(2) + (r[2] - 3.5).powi(2)) / 5.0)
                .exp()
        });
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);

        let nb = 8;
        let mut psi = ls3df_pw::scf::random_start(nb, &basis, 3);
        let stats = ls3df_pw::solve_all_band(
            &h,
            &mut psi,
            &SolverOptions {
                max_iter: 300,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(stats.converged);

        let e_ref = 0.5 * (stats.eigenvalues[2] + stats.eigenvalues[3]);
        let states = folded_spectrum(
            &h,
            e_ref,
            &FsmOptions {
                n_states: 2,
                max_iter: 400,
                tol: 1e-8,
            },
            11,
        );
        // The two FSM states bracket the reference: bands 2 and 3.
        let mut got: Vec<f64> = states.iter().map(|s| s.energy).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            (got[0] - stats.eigenvalues[2]).abs() < 1e-3,
            "{} vs {}",
            got[0],
            stats.eigenvalues[2]
        );
        assert!(
            (got[1] - stats.eigenvalues[3]).abs() < 1e-3,
            "{} vs {}",
            got[1],
            stats.eigenvalues[3]
        );
    }
}
