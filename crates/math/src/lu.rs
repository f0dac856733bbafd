//! LU factorization with partial pivoting.
//!
//! It backs the Pulay (DIIS) potential-mixing solve in the SCF loop.

use crate::{Matrix, Scalar};

/// LU decomposition `P·A = L·U` with partial pivoting.
pub struct Lu<S: Scalar> {
    lu: Matrix<S>,
    piv: Vec<usize>,
}

/// Error for singular systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularError {
    /// Column where no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularError {}

impl<S: Scalar> Lu<S> {
    /// Factors a square matrix.
    pub fn new(a: &Matrix<S>) -> Result<Self, SingularError> {
        assert!(a.is_square(), "Lu::new: matrix must be square");
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot selection.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(SingularError { column: k });
            }
            if p != k {
                piv.swap(p, k);
                let (rp, rk) = lu.rows_mut2(p, k);
                rp.swap_with_slice(rk);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                let (ri, rk) = lu.rows_mut2(i, k);
                for j in (k + 1)..n {
                    ri[j] = ri[j].acc(-f, rk[j]);
                }
            }
        }
        Ok(Lu { lu, piv })
    }

    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        // Apply permutation.
        let mut x: Vec<S> = self.piv.iter().map(|&i| b[i]).collect();
        // Forward: L·y = P·b (unit lower diagonal).
        for i in 1..n {
            let mut s = x[i];
            for k in 0..i {
                s = s.acc(-(self.lu[(i, k)]), x[k]);
            }
            x[i] = s;
        }
        // Backward: U·x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s = s.acc(-(self.lu[(i, k)]), x[k]);
            }
            x[i] = s / self.lu[(i, i)];
        }
        x
    }
}

/// Solves the square system `A·x = b` in one call.
pub fn solve<S: Scalar>(a: &Matrix<S>, b: &[S]) -> Result<Vec<S>, SingularError> {
    Ok(Lu::new(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn solve_known_system() {
        // [[2,1],[1,3]]·x = [5,10] → x = [1,3]
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn complex_system() {
        let a = Matrix::from_vec(
            2,
            2,
            vec![
                c64::new(1.0, 1.0),
                c64::real(2.0),
                c64::I,
                c64::new(0.0, -3.0),
            ],
        );
        let b = [c64::new(3.0, 1.0), c64::new(0.0, -2.0)];
        let x = a.matvec(&solve(&a, &b).unwrap());
        for i in 0..2 {
            assert!((x[i] - b[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve(&a, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }
}
