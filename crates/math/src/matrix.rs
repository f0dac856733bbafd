//! Dense row-major matrix container.
//!
//! Wavefunction blocks are stored as `Matrix<c64>` with shape
//! `(n_bands, n_planewaves)`: one band per contiguous row, which makes both
//! the band-by-band (row slice) and all-band (GEMM on the whole block) code
//! paths natural.

use crate::{c64, Scalar};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<S: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer (length must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: wrong buffer length"
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Underlying storage, row-major.
    #[inline(always)]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable underlying storage, row-major.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[S] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Two disjoint mutable rows (`i != j`).
    pub fn rows_mut2(&mut self, i: usize, j: usize) -> (&mut [S], &mut [S]) {
        assert_ne!(i, j, "rows_mut2: identical indices");
        let c = self.cols;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * c);
            (&mut a[i * c..(i + 1) * c], &mut b[..c])
        } else {
            let (a, b) = self.data.split_at_mut(i * c);
            (&mut b[..c], &mut a[j * c..(j + 1) * c])
        }
    }

    /// Column `j` copied into a new vector.
    pub fn col(&self, j: usize) -> Vec<S> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<S> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose.
    pub fn hermitian(&self) -> Matrix<S> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Trace (sum of diagonal entries); matrix must be square.
    pub fn trace(&self) -> S {
        assert!(self.is_square(), "trace: non-square matrix");
        let mut t = S::ZERO;
        for i in 0..self.rows {
            t += self[(i, i)];
        }
        t
    }

    /// `self ← self + α·other` (same shape).
    pub fn add_scaled(&mut self, alpha: S, other: &Matrix<S>) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = a.acc(alpha, b);
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&mut self, s: f64) {
        for v in &mut self.data {
            *v = v.scale(s);
        }
    }

    /// Matrix-vector product `A·x`.
    pub fn matvec(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| crate::vec_ops::dotu(self.row(i), x))
            .collect()
    }

    /// Hermitian-transpose matrix-vector product `Aᴴ·x`.
    pub fn matvec_h(&self, x: &[S]) -> Vec<S> {
        assert_eq!(x.len(), self.rows, "matvec_h: dimension mismatch");
        let mut y = vec![S::ZERO; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] = y[j].acc(a.conj(), xi);
            }
        }
        y
    }

    /// Deviation from the identity, `‖AᴴA − I‖_max`, a convenient
    /// orthonormality check for wavefunction blocks.
    pub fn orthonormality_error(&self) -> f64 {
        let s = crate::gemm::matmul_nh(self, self);
        let mut err = 0.0_f64;
        for i in 0..s.rows() {
            for j in 0..s.cols() {
                let target = if i == j { S::ONE } else { S::ZERO };
                err = err.max((s[(i, j)] - target).abs());
            }
        }
        err
    }

    /// Maximum asymmetry `‖A − Aᴴ‖_max`; zero for Hermitian matrices.
    pub fn hermiticity_error(&self) -> f64 {
        assert!(self.is_square());
        let mut err = 0.0_f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                err = err.max((self[(i, j)] - self[(j, i)].conj()).abs());
            }
        }
        err
    }
}

impl Matrix<c64> {
    /// Real parts as an `f64` matrix.
    pub fn re(&self) -> Matrix<f64> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }
}

impl Matrix<f64> {
    /// Promotes to a complex matrix.
    pub fn to_complex(&self) -> Matrix<c64> {
        Matrix::from_fn(self.rows, self.cols, |i, j| c64::real(self[(i, j)]))
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<S: Scalar> fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn identity_and_trace() {
        let id = Matrix::<f64>::identity(4);
        assert_eq!(id.trace(), 4.0);
        assert_eq!(id.fro_norm(), 2.0);
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let m = Matrix::from_fn(2, 2, |i, j| c64::new(i as f64, j as f64));
        let h = m.hermitian();
        assert_eq!(h[(1, 0)], c64::new(0.0, -1.0));
        assert_eq!(h.hermitian(), m);
    }

    #[test]
    fn matvec_and_matvec_h_are_adjoint() {
        let a = Matrix::from_fn(3, 2, |i, j| {
            c64::new((i + j) as f64, (i as f64) - (j as f64))
        });
        let x = vec![c64::new(1.0, 1.0), c64::new(-2.0, 0.5)];
        let y = vec![c64::new(0.0, 1.0), c64::new(2.0, 0.0), c64::new(1.0, -1.0)];
        // ⟨y, A x⟩ = ⟨Aᴴ y, x⟩
        let lhs = crate::vec_ops::dotc(&y, &a.matvec(&x));
        let rhs = crate::vec_ops::dotc(&a.matvec_h(&y), &x);
        assert!((lhs - rhs).abs() < 1e-13);
    }

    #[test]
    fn rows_mut2_disjoint_both_orders() {
        let mut m = Matrix::from_fn(3, 2, |i, _| i as f64);
        {
            let (a, b) = m.rows_mut2(0, 2);
            a[0] = 100.0;
            b[1] = 200.0;
        }
        {
            let (a, b) = m.rows_mut2(2, 0);
            assert_eq!(a[1], 200.0);
            assert_eq!(b[0], 100.0);
        }
    }

    #[test]
    fn hermiticity_error_detects_asymmetry() {
        let mut m = Matrix::<c64>::identity(3);
        assert_eq!(m.hermiticity_error(), 0.0);
        m[(0, 1)] = c64::new(0.0, 1.0);
        m[(1, 0)] = c64::new(0.0, 1.0); // not the conjugate
        assert!(m.hermiticity_error() > 1.9);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }
}
