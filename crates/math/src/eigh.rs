//! Hermitian eigensolver (cyclic Jacobi with phase absorption).
//!
//! Used for the subspace diagonalization inside the all-band conjugate
//! gradient solver (`n_bands × n_bands` matrices, a few dozen to a few
//! hundred rows), where Jacobi's simplicity and unconditional stability
//! beat asymptotically faster algorithms.

use crate::{Matrix, Scalar};

/// Eigendecomposition `A = V·diag(λ)·Vᴴ` of a Hermitian matrix.
pub struct Eig<S: Scalar> {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose *columns* are the eigenvectors, ordered like
    /// `values`.
    pub vectors: Matrix<S>,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Computes all eigenvalues and eigenvectors of a Hermitian matrix.
///
/// The strict upper triangle is read; the lower triangle is assumed to be
/// its conjugate. Panics if the matrix is not square.
pub fn eigh<S: Scalar>(a: &Matrix<S>) -> Eig<S> {
    assert!(a.is_square(), "eigh: matrix must be square");
    let n = a.rows();
    let mut a = a.clone();
    let mut v = Matrix::<S>::identity(n);
    if n <= 1 {
        return finish(a, v);
    }

    let fro = a.fro_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * fro;

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a[(p, q)].norm_sqr();
            }
        }
        if off.sqrt() <= tol {
            break;
        }

        for p in 0..(n - 1) {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                let r = apq.abs();
                if r <= tol / (n as f64) {
                    continue;
                }

                // Phase absorption: A ← Dᴴ·A·D with D = diag(…, ū at q, …)
                // makes A[p][q] real (= r) while preserving Hermiticity.
                let u = apq.scale(1.0 / r);
                let uc = u.conj();
                for i in 0..n {
                    a[(i, q)] *= uc;
                }
                for j in 0..n {
                    a[(q, j)] *= u;
                }
                for i in 0..n {
                    v[(i, q)] *= uc;
                }

                // Real Jacobi rotation zeroing the now-real off-diagonal.
                let app = a[(p, p)].re();
                let aqq = a[(q, q)].re();
                let tau = (aqq - app) / (2.0 * r);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Column update: (a_ip, a_iq) ← (c·a_ip − s·a_iq, s·a_ip + c·a_iq).
                for i in 0..n {
                    let aip = a[(i, p)];
                    let aiq = a[(i, q)];
                    a[(i, p)] = aip.scale(c) - aiq.scale(s);
                    a[(i, q)] = aip.scale(s) + aiq.scale(c);
                }
                // Row update with the transpose.
                for j in 0..n {
                    let apj = a[(p, j)];
                    let aqj = a[(q, j)];
                    a[(p, j)] = apj.scale(c) - aqj.scale(s);
                    a[(q, j)] = apj.scale(s) + aqj.scale(c);
                }
                // Accumulate eigenvectors: V ← V·J.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = vip.scale(c) - viq.scale(s);
                    v[(i, q)] = vip.scale(s) + viq.scale(c);
                }
                // Clean up rounding drift on the zeroed pair.
                a[(p, q)] = S::ZERO;
                a[(q, p)] = S::ZERO;
            }
        }
    }
    finish(a, v)
}

fn finish<S: Scalar>(a: Matrix<S>, v: Matrix<S>) -> Eig<S> {
    let n = a.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| a[(i, i)].re()).collect();
    order.sort_by(|&i, &j| vals[i].total_cmp(&vals[j]));
    let values: Vec<f64> = order.iter().map(|&i| vals[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    Eig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, gemm::matmul, gemm::matmul_nh, Matrix};

    fn hermitian_random(n: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| c64::new(next(), next()));
        // (B + Bᴴ)/2 is Hermitian.
        let bh = b.hermitian();
        Matrix::from_fn(n, n, |i, j| (b[(i, j)] + bh[(i, j)]).scale(0.5))
    }

    fn check_decomposition(a: &Matrix<c64>, eig: &Eig<c64>, tol: f64) {
        let n = a.rows();
        // A·v_k = λ_k·v_k for each column k.
        for k in 0..n {
            let vk = eig.vectors.col(k);
            let av = a.matvec(&vk);
            for i in 0..n {
                assert!(
                    (av[i] - vk[i].scale(eig.values[k])).abs() < tol,
                    "eigenpair {k} fails at row {i}"
                );
            }
        }
        // V unitary.
        let vtv = matmul_nh(&eig.vectors.hermitian(), &eig.vectors.hermitian());
        for i in 0..n {
            for j in 0..n {
                let e = if i == j { c64::ONE } else { c64::ZERO };
                assert!((vtv[(i, j)] - e).abs() < tol, "V not unitary at ({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_matrix_is_its_own_answer() {
        let mut a = Matrix::<c64>::zeros(3, 3);
        a[(0, 0)] = c64::real(3.0);
        a[(1, 1)] = c64::real(-1.0);
        a[(2, 2)] = c64::real(2.0);
        let e = eigh(&a);
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn pauli_y_eigenvalues() {
        // σ_y = [[0, -i],[i, 0]] has eigenvalues ±1.
        let mut a = Matrix::<c64>::zeros(2, 2);
        a[(0, 1)] = c64::new(0.0, -1.0);
        a[(1, 0)] = c64::new(0.0, 1.0);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        check_decomposition(&a, &e, 1e-11);
    }

    #[test]
    fn random_hermitian_decompositions() {
        for &(n, seed) in &[(2, 1u64), (5, 2), (12, 3), (25, 4), (40, 5)] {
            let a = hermitian_random(n, seed);
            let e = eigh(&a);
            check_decomposition(&a, &e, 1e-9);
            // Values ascending.
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
            // Trace preserved.
            let tr: f64 = e.values.iter().sum();
            assert!((tr - a.trace().re).abs() < 1e-9);
        }
    }

    #[test]
    fn real_symmetric_path() {
        let a = Matrix::from_fn(4, 4, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = eigh(&a);
        check_real(&a, &e);
    }

    fn check_real(a: &Matrix<f64>, e: &Eig<f64>) {
        let n = a.rows();
        for k in 0..n {
            let vk = e.vectors.col(k);
            let av = a.matvec(&vk);
            for i in 0..n {
                assert!((av[i] - e.values[k] * vk[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn reconstruction_v_lambda_vh() {
        let a = hermitian_random(10, 9);
        let e = eigh(&a);
        let lam = Matrix::from_fn(10, 10, |i, j| {
            if i == j {
                c64::real(e.values[i])
            } else {
                c64::ZERO
            }
        });
        let recon = matmul_nh(&matmul(&e.vectors, &lam), &e.vectors);
        for i in 0..10 {
            for j in 0..10 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn known_2x2_real() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 1.0 });
        let e = eigh(&a);
        assert!((e.values[0] - 1.0).abs() < 1e-13);
        assert!((e.values[1] - 3.0).abs() < 1e-13);
    }
}
