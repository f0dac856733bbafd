//! Cholesky factorization of Hermitian positive-definite matrices.
//!
//! This is the engine behind the paper's overlap-matrix orthogonalization:
//! instead of Gram–Schmidt after every conjugate-gradient step, LS3DF forms
//! the overlap `S = Ψ·Ψᴴ` once every few steps, factors `S = L·Lᴴ`, and
//! applies `Ψ ← L⁻¹·Ψ` — all BLAS-3 shaped work.

use crate::gemm::{GemmScratch, Op};
use crate::microkernel::{self, Product, View};
use crate::{Matrix, Scalar};

/// Error returned when a matrix fails to factor.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// Leading minor `k` was not positive definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// The non-positive pivot value encountered.
        value: f64,
    },
    /// The matrix was not square.
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { pivot, value } => {
                write!(f, "matrix not positive definite: pivot {pivot} = {value}")
            }
            FactorError::NotSquare => write!(f, "matrix not square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Lower-triangular Cholesky factor `L` with `A = L·Lᴴ`.
pub struct Cholesky<S: Scalar> {
    l: Matrix<S>,
}

impl<S: Scalar> Cholesky<S> {
    /// Factors a Hermitian positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    pub fn new(a: &Matrix<S>) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare);
        }
        let n = a.rows();
        let mut l = Matrix::<S>::zeros(n, n);
        for j in 0..n {
            // Diagonal: l_jj = sqrt(a_jj - Σ_{k<j} |l_jk|²), real positive.
            let mut d = a[(j, j)].re();
            for k in 0..j {
                d -= l[(j, k)].norm_sqr();
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(FactorError::NotPositiveDefinite { pivot: j, value: d });
            }
            let ljj = d.sqrt();
            l[(j, j)] = S::from_re(ljj);
            let inv = 1.0 / ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s = s.acc(-(l[(i, k)]), l[(j, k)].conj());
                }
                l[(i, j)] = s.scale(inv);
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix<S> {
        &self.l
    }

    /// Solves `L·x = b` in place (forward substitution).
    pub fn solve_l(&self, b: &mut [S]) {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s = s.acc(-(self.l[(i, k)]), b[k]);
            }
            b[i] = s.scale(1.0 / self.l[(i, i)].re());
        }
    }

    /// Solves `Lᴴ·x = b` in place (backward substitution).
    pub fn solve_lh(&self, b: &mut [S]) {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s = s.acc(-(self.l[(k, i)].conj()), b[k]);
            }
            b[i] = s.scale(1.0 / self.l[(i, i)].re());
        }
    }

    /// Solves `A·x = b` via the two triangular solves.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let mut x = b.to_vec();
        self.solve_l(&mut x);
        self.solve_lh(&mut x);
        x
    }

    /// Applies `L⁻¹` to every column of the row-major block `X` interpreted
    /// as `(n, width)`; i.e. computes `L⁻¹·X` in place. This is the
    /// all-band orthogonalization update `Ψ ← L⁻¹·Ψ` with `X` holding one
    /// band per row. Row-by-row forward substitution.
    pub fn solve_l_block(&self, x: &mut Matrix<S>) {
        assert_eq!(x.rows(), self.l.rows(), "solve_l_block: row mismatch");
        let width = x.cols();
        self.forward_rows(0, x.as_mut_slice(), width);
    }

    /// [`Cholesky::solve_l_block`] through caller-owned scratch. Block-sized
    /// shapes under [`crate::KernelPolicy::Fast`] run a blocked forward
    /// substitution, in place: each [`SOLVE_ROWS`]-row block first takes
    /// `X_I −= L[I, <I]·X[<I]` as one product on the packed kernel, then
    /// its own triangle row by row — all but `SOLVE_ROWS/n` of the work is
    /// a GEMM. Smaller shapes and [`crate::KernelPolicy::Reference`] keep
    /// the plain row loop (and its summation order).
    pub fn solve_l_block_with(&self, x: &mut Matrix<S>, scratch: &mut GemmScratch<S>) {
        let n = self.l.rows();
        assert_eq!(x.rows(), n, "solve_l_block: row mismatch");
        let width = x.cols();
        if !scratch.packs(n, n, width) {
            return self.solve_l_block(x);
        }
        for i0 in (0..n).step_by(SOLVE_ROWS) {
            let i1 = (i0 + SOLVE_ROWS).min(n);
            let (solved, rest) = x.as_mut_slice().split_at_mut(i0 * width);
            let rows = &mut rest[..(i1 - i0) * width];
            if i0 > 0 {
                let job = Product {
                    alpha: -S::ONE,
                    a: View::new(&self.l.as_slice()[i0 * n..], i1 - i0, i0, n),
                    op_a: Op::None,
                    b: View::new(solved, i0, width, width),
                    op_b: Op::None,
                    c: rows,
                    lower_only: false,
                };
                microkernel::run(scratch, job);
            }
            self.forward_rows(i0, rows, width);
        }
    }

    /// Forward substitution within the rows `i0..` held in `rows` (each
    /// `width` long), against the diagonal block of `L` starting at
    /// `(i0, i0)`; contributions of rows above `i0` are already removed.
    fn forward_rows(&self, i0: usize, rows: &mut [S], width: usize) {
        for r in 0..rows.len().checked_div(width).unwrap_or(0) {
            let (above, row_i) = rows.split_at_mut(r * width);
            let row_i = &mut row_i[..width];
            for (k, row_k) in above.chunks_exact(width).enumerate() {
                let lik = self.l[(i0 + r, i0 + k)];
                for (xi, &xk) in row_i.iter_mut().zip(row_k) {
                    *xi = xi.acc(-lik, xk);
                }
            }
            let inv = 1.0 / self.l[(i0 + r, i0 + r)].re();
            for v in row_i {
                *v = v.scale(inv);
            }
        }
    }
}

/// Rows of `X` per step of [`Cholesky::solve_l_block_with`]'s blocked
/// forward substitution (a multiple of the register tile's rows).
const SOLVE_ROWS: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, gemm::matmul_nh, Matrix};

    fn spd_complex(n: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| c64::new(next(), next()));
        // A = B·Bᴴ + n·I is Hermitian positive definite.
        let mut a = matmul_nh(&b, &b);
        for i in 0..n {
            a[(i, i)] += c64::real(n as f64);
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_complex(12, 42);
        let ch = Cholesky::new(&a).unwrap();
        let recon = matmul_nh(ch.l(), ch.l());
        for i in 0..12 {
            for j in 0..12 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_gives_residual_zero() {
        let a = spd_complex(9, 7);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<c64> = (0..9)
            .map(|i| c64::new(i as f64, -(i as f64) / 2.0))
            .collect();
        let x = ch.solve(&b);
        let r = a.matvec(&x);
        for i in 0..9 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn non_positive_definite_rejected() {
        let mut a = Matrix::<f64>::identity(3);
        a[(2, 2)] = -1.0;
        match Cholesky::new(&a) {
            Err(FactorError::NotPositiveDefinite { pivot: 2, .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {:?}", other.err()),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert_eq!(Cholesky::new(&a).err(), Some(FactorError::NotSquare));
    }

    #[test]
    fn block_solve_matches_columnwise() {
        let a = spd_complex(6, 3);
        let ch = Cholesky::new(&a).unwrap();
        let x0 = Matrix::from_fn(6, 10, |i, j| {
            c64::new((i + j) as f64, (i as f64) - (j as f64))
        });
        let mut x = x0.clone();
        ch.solve_l_block(&mut x);
        for j in 0..10 {
            let mut col = x0.col(j);
            ch.solve_l(&mut col);
            for i in 0..6 {
                assert!((x[(i, j)] - col[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn blocked_solve_matches_forward_substitution() {
        // 70·70·300 is block-sized, so the fast scratch takes the blocked
        // path (four full 16-row blocks and a ragged one); the reference
        // scratch must stay on the row loop, bit for bit.
        let a = spd_complex(70, 5);
        let ch = Cholesky::new(&a).unwrap();
        let x0 = Matrix::from_fn(70, 300, |i, j| {
            c64::new(((i * 7 + j) % 11) as f64 - 5.0, ((i + 3 * j) % 5) as f64)
        });
        let mut expect = x0.clone();
        ch.solve_l_block(&mut expect);
        for policy in [crate::KernelPolicy::Fast, crate::KernelPolicy::Reference] {
            let mut scratch = GemmScratch::with(policy, crate::gemm::Tier::host());
            let mut x = x0.clone();
            ch.solve_l_block_with(&mut x, &mut scratch);
            let worst = x
                .as_slice()
                .iter()
                .zip(expect.as_slice())
                .map(|(u, v)| (*u - *v).abs())
                .fold(0.0, f64::max);
            assert!(worst < 1e-12, "{policy:?}: {worst:e}");
            if policy == crate::KernelPolicy::Reference {
                assert!(x == expect, "reference keeps the row-loop bits");
            }
        }
    }
}
