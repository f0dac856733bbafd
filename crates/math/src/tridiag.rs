//! Householder tridiagonalization + implicit-shift QL eigensolver for
//! Hermitian matrices (the `zhetrd`/`steqr` pipeline of LAPACK, written
//! from scratch).
//!
//! The cyclic Jacobi solver in [`mod@crate::eigh`] is unconditionally robust
//! but costs O(n³) *per sweep*; the subspace problems in the all-band CG
//! solver hit it once per iteration with n = number of bands (up to a few
//! hundred for large fragments). This pipeline does the whole job in
//! ~(4/3)n³ + O(n²) per QL sweep and is the default for n above a small
//! threshold (see [`crate::eigh_fast`]).
//!
//! Written once over [`Scalar`]: the `c64` instantiation is the Hermitian
//! pipeline, the `f64` one the real-symmetric pipeline (reflectors, `Q`
//! and the QL rotations all real — a quarter of the arithmetic), which the
//! Γ-point real block algebra of `ls3df-pw` diagonalizes its subspace
//! matrices with.

use crate::{Eig, Matrix, Scalar};

/// Unit-modulus `z/|z|` (`1` for a vanishing `z`): a phase for `c64`, a
/// sign for `f64`.
#[inline]
fn phase_of<S: Scalar>(z: S) -> S {
    let r = z.abs();
    if r < 1e-300 {
        S::ONE
    } else {
        z.scale(1.0 / r)
    }
}

/// Reduces a Hermitian matrix to real symmetric tridiagonal form
/// `A = Q·T·Qᴴ` via Householder reflectors.
///
/// Returns `(diag, offdiag, q)` with `offdiag[i]` coupling `i` and `i+1`.
pub fn hermitian_to_tridiagonal<S: Scalar>(a: &Matrix<S>) -> (Vec<f64>, Vec<f64>, Matrix<S>) {
    assert!(a.is_square(), "tridiagonalize: matrix must be square");
    let n = a.rows();
    let mut a = a.clone();
    let mut q = Matrix::<S>::identity(n);

    for k in 0..n.saturating_sub(2) {
        // Householder vector zeroing column k below row k+1.
        let mut x = vec![S::ZERO; n - k - 1];
        for i in (k + 1)..n {
            x[i - k - 1] = a[(i, k)];
        }
        let xnorm = x.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        if xnorm < 1e-300 {
            continue;
        }
        // α = −e^{iθ}·‖x‖ where θ = arg(x₀): makes v = x − α·e₁ stable.
        let alpha = -(phase_of(x[0]).scale(xnorm));
        let mut v = x;
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        if vnorm2 < 1e-300 {
            continue;
        }
        let inv = 1.0 / vnorm2.sqrt();
        for z in v.iter_mut() {
            *z = z.scale(inv);
        }
        // Apply P = I − 2vvᴴ to rows/cols k+1.. of A (Hermitian update)
        // and accumulate Q ← Q·P.
        // w = A·v (restricted to the trailing block).
        let m = n - k - 1;
        let mut w = vec![S::ZERO; m];
        for i in 0..m {
            let mut acc = S::ZERO;
            for j in 0..m {
                acc = acc.acc(a[(k + 1 + i, k + 1 + j)], v[j]);
            }
            w[i] = acc;
        }
        // K = vᴴ·w (real for Hermitian A).
        let mut kvw = S::ZERO;
        for i in 0..m {
            kvw = kvw.acc_conj(v[i], w[i]);
        }
        // u = w − K·v ;  A ← A − 2(v·uᴴ + u·vᴴ) − ... (standard rank-2):
        // A ← A − 2v(wᴴ − K̄vᴴ) − 2(w − Kv)vᴴ simplifies with u:
        let u: Vec<S> = w.iter().zip(&v).map(|(&wi, &vi)| wi - vi * kvw).collect();
        for i in 0..m {
            for j in 0..m {
                let upd = (v[i] * u[j].conj() + u[i] * v[j].conj()).scale(2.0);
                a[(k + 1 + i, k + 1 + j)] -= upd;
            }
        }
        // Column k (and row k by symmetry): A[k+1.., k] ← P·x = α·e₁.
        a[(k + 1, k)] = alpha;
        a[(k, k + 1)] = alpha.conj();
        for i in (k + 2)..n {
            a[(i, k)] = S::ZERO;
            a[(k, i)] = S::ZERO;
        }
        // Q ← Q·P (apply to columns k+1..).
        for row in 0..n {
            let mut acc = S::ZERO;
            for j in 0..m {
                acc = acc.acc(q[(row, k + 1 + j)], v[j]);
            }
            let two_acc = acc.scale(2.0);
            for j in 0..m {
                let upd = two_acc * v[j].conj();
                q[(row, k + 1 + j)] -= upd;
            }
        }
    }

    // The tridiagonal now has complex (or negative) off-diagonals
    // a[(i+1, i)]; rotate phases onto the diagonal of a unitary D so that
    // T is real with non-negative couplings:
    // D_0 = 1, D_{i+1} = D_i·phase(a[(i+1,i)]).
    let mut diag = vec![0.0; n];
    let mut off = vec![0.0; n.saturating_sub(1)];
    let mut d = vec![S::ONE; n];
    for i in 0..n {
        diag[i] = a[(i, i)].re();
    }
    for i in 0..n.saturating_sub(1) {
        let e = a[(i + 1, i)];
        off[i] = e.abs();
        d[i + 1] = d[i] * phase_of(e);
    }
    // Fold D into Q: Q ← Q·D.
    for j in 0..n {
        for i in 0..n {
            q[(i, j)] *= d[j];
        }
    }
    (diag, off, q)
}

/// Implicit-shift QL iteration on a real symmetric tridiagonal matrix,
/// accumulating the rotations into `z` (columns become eigenvectors).
/// `diag`/`off` are consumed; returns eigenvalues in `diag` (unsorted).
pub fn tridiagonal_ql<S: Scalar>(diag: &mut [f64], off: &mut [f64], z: &mut Matrix<S>) {
    let n = diag.len();
    if n == 0 {
        return;
    }
    assert_eq!(off.len(), n.saturating_sub(1));
    assert_eq!(z.rows(), z.cols().max(z.rows()));
    // Pad off-diagonal with a trailing zero (classic NR layout).
    let mut e = Vec::with_capacity(n);
    e.extend_from_slice(off);
    e.push(0.0);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the block end m: first m ≥ l with negligible e[m].
            let mut m = l;
            while m + 1 < n {
                let dd = diag[m].abs() + diag[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiagonal QL failed to converge");
            // Shift from the 2×2 at l.
            let mut g = (diag[l + 1] - diag[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = diag[m] - diag[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0_f64, 1.0_f64);
            let mut p = 0.0_f64;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    diag[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = diag[i + 1] - p;
                r = (diag[i] - g) * s + 2.0 * c * b;
                p = s * r;
                diag[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..z.rows() {
                    let (zi, zi1) = (z[(k, i)], z[(k, i + 1)]);
                    z[(k, i + 1)] = zi.scale(s) + zi1.scale(c);
                    z[(k, i)] = zi.scale(c) - zi1.scale(s);
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            diag[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// Full Hermitian eigendecomposition via the tridiagonal pipeline.
pub fn eigh_tridiagonal<S: Scalar>(a: &Matrix<S>) -> Eig<S> {
    let n = a.rows();
    let (mut diag, mut off, mut q) = hermitian_to_tridiagonal(a);
    tridiagonal_ql(&mut diag, &mut off, &mut q);
    // Sort ascending, permuting eigenvector columns.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| diag[i].total_cmp(&diag[j]));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| q[(i, order[j])]);
    Eig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::eigh::eigh;
    use crate::gemm::{matmul, matmul_nh};

    fn hermitian_random(n: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| c64::new(next(), next()));
        let bh = b.hermitian();
        Matrix::from_fn(n, n, |i, j| (b[(i, j)] + bh[(i, j)]).scale(0.5))
    }

    #[test]
    fn tridiagonalization_preserves_spectrum_structure() {
        let a = hermitian_random(12, 3);
        let (diag, off, q) = hermitian_to_tridiagonal(&a);
        // Q unitary.
        let qhq = matmul_nh(&q.hermitian(), &q.hermitian());
        for i in 0..12 {
            for j in 0..12 {
                let e = if i == j { c64::ONE } else { c64::ZERO };
                assert!(
                    (qhq[(i, j)] - e).abs() < 1e-10,
                    "Q not unitary at ({i},{j})"
                );
            }
        }
        // Q·T·Qᴴ = A with T built from (diag, off).
        let mut t = Matrix::<c64>::zeros(12, 12);
        for i in 0..12 {
            t[(i, i)] = c64::real(diag[i]);
        }
        for i in 0..11 {
            t[(i, i + 1)] = c64::real(off[i]);
            t[(i + 1, i)] = c64::real(off[i]);
        }
        let recon = matmul_nh(&matmul(&q, &t), &q);
        for i in 0..12 {
            for j in 0..12 {
                assert!(
                    (recon[(i, j)] - a[(i, j)]).abs() < 1e-9,
                    "reconstruction fails at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matches_jacobi_on_random_hermitian() {
        for &(n, seed) in &[(2usize, 1u64), (5, 2), (16, 3), (40, 4), (80, 5)] {
            let a = hermitian_random(n, seed);
            let fast = eigh_tridiagonal(&a);
            let slow = eigh(&a);
            for b in 0..n {
                assert!(
                    (fast.values[b] - slow.values[b]).abs() < 1e-8 * (1.0 + slow.values[b].abs()),
                    "n={n} band {b}: {} vs {}",
                    fast.values[b],
                    slow.values[b]
                );
            }
            // Eigenpairs verify directly.
            for b in 0..n {
                let v = fast.vectors.col(b);
                let av = a.matvec(&v);
                for i in 0..n {
                    assert!(
                        (av[i] - v[i].scale(fast.values[b])).abs() < 1e-7,
                        "n={n} eigenpair {b} residual at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn already_tridiagonal_input() {
        // A real tridiagonal matrix with known spectrum: the discrete
        // Laplacian diag=2, off=−1 has λ_k = 2 − 2cos(kπ/(n+1)).
        let n = 10;
        let mut a = Matrix::<c64>::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = c64::real(2.0);
            if i + 1 < n {
                a[(i, i + 1)] = c64::real(-1.0);
                a[(i + 1, i)] = c64::real(-1.0);
            }
        }
        let e = eigh_tridiagonal(&a);
        for k in 1..=n {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!(
                (e.values[k - 1] - exact).abs() < 1e-10,
                "λ_{k}: {} vs {exact}",
                e.values[k - 1]
            );
        }
    }

    #[test]
    fn real_symmetric_instantiation_with_every_eigenvalue_tripled() {
        // A = Q·diag(λ)·Qᵀ with each λ three times over (the degenerate
        // shells of a cubic fragment), at the Jacobi size and at two
        // tridiagonal-pipeline sizes. The `f64` instantiation must give an
        // orthogonal eigenbasis with small residuals, and the spectrum the
        // `c64` instantiation gives on the promoted matrix.
        for n in [8usize, 40, 130] {
            let lambda: Vec<f64> = (0..n).map(|i| -1.0 + 0.37 * (i / 3) as f64).collect();
            let mut state = 0x9e37_79b9 ^ n as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
            };
            let mut q = Matrix::from_fn(n, n, |_, _| next());
            crate::ortho::gram_schmidt(&mut q, 1.0).unwrap();
            let ql = Matrix::from_fn(n, n, |i, j| q[(j, i)] * lambda[j]);
            let raw = matmul(&ql, &q);
            let a = Matrix::from_fn(n, n, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));

            let real = crate::eigh_fast(&a);
            let complex = crate::eigh_fast(&a.to_complex());
            for b in 0..n {
                assert!((real.values[b] - lambda[b]).abs() < 1e-12, "n={n} λ_{b}");
                assert!(
                    (real.values[b] - complex.values[b]).abs() <= 1e-12,
                    "n={n} band {b}: f64 {} vs c64 {}",
                    real.values[b],
                    complex.values[b]
                );
                let v = real.vectors.col(b);
                let av = a.matvec(&v);
                for i in 0..n {
                    assert!(
                        (av[i] - real.values[b] * v[i]).abs() < 1e-12,
                        "n={n} eigenpair {b} residual at {i}"
                    );
                }
            }
            assert!(
                real.vectors.orthonormality_error() < 1e-12,
                "n={n}: eigenbasis not orthogonal"
            );
        }
    }

    #[test]
    fn degenerate_spectrum_handled() {
        // Identity ⊕ 3·Identity blocks: heavy degeneracy.
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i != j {
                c64::ZERO
            } else if i < 4 {
                c64::real(1.0)
            } else {
                c64::real(3.0)
            }
        });
        let e = eigh_tridiagonal(&a);
        for b in 0..4 {
            assert!((e.values[b] - 1.0).abs() < 1e-12);
            assert!((e.values[b + 4] - 3.0).abs() < 1e-12);
        }
    }
}
