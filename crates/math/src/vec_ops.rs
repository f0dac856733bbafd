//! BLAS-1-style kernels on slices.
//!
//! These are the "band-by-band" building blocks: the original PEtot code the
//! paper starts from did almost all of its work through operations of this
//! shape (one wavefunction at a time), which is exactly why its performance
//! was limited to ~15% of peak before the all-band (BLAS-3) rewrite.

use crate::policy::KernelPolicy;
use crate::{microkernel, Scalar};

/// Inner product `⟨x|y⟩ = Σ conj(x_i)·y_i` (the `Fast` arithmetic).
#[inline]
pub fn dotc<S: Scalar>(x: &[S], y: &[S]) -> S {
    dotc_with(KernelPolicy::Fast, x, y)
}

/// [`dotc`] with an explicit [`KernelPolicy`]: `Fast` breaks the serial
/// FMA dependency chain with four fixed-order lane accumulators (the
/// Kleinman–Bylander projector and CG coefficient hot path), `Reference`
/// is the original sequential loop.
#[inline]
pub fn dotc_with<S: Scalar>(policy: KernelPolicy, x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len(), "dotc: length mismatch");
    match policy {
        KernelPolicy::Fast => microkernel::dotc_wide(x, y),
        KernelPolicy::Reference => {
            let mut acc = S::ZERO;
            for (&a, &b) in x.iter().zip(y) {
                acc = acc.acc_conj(a, b);
            }
            acc
        }
    }
}

/// Unconjugated product `Σ x_i·y_i`.
#[inline]
pub fn dotu<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len(), "dotu: length mismatch");
    let mut acc = S::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc = acc.acc(a, b);
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn nrm2<S: Scalar>(x: &[S]) -> f64 {
    x.iter().map(|&v| v.norm_sqr()).sum::<f64>().sqrt()
}

/// Squared Euclidean norm.
#[inline]
pub fn nrm2_sqr<S: Scalar>(x: &[S]) -> f64 {
    x.iter().map(|&v| v.norm_sqr()).sum::<f64>()
}

/// `y ← y + α·x`.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (&a, b) in x.iter().zip(y.iter_mut()) {
        *b = b.acc(alpha, a);
    }
}

/// `x ← α·x`.
#[inline]
pub fn scal<S: Scalar>(alpha: S, x: &mut [S]) {
    for v in x {
        *v *= alpha;
    }
}

/// `x ← s·x` with a real scale factor.
#[inline]
pub fn dscal<S: Scalar>(s: f64, x: &mut [S]) {
    for v in x {
        *v = v.scale(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn dotc_conjugates_left_argument() {
        let x = [c64::new(0.0, 1.0)];
        let y = [c64::new(0.0, 1.0)];
        // conj(i)*i = -i*i = 1
        assert!((dotc(&x, &y) - c64::ONE).abs() < 1e-15);
        // unconjugated: i*i = -1
        assert!((dotu(&x, &y) + c64::ONE).abs() < 1e-15);
    }

    #[test]
    fn axpy_real() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn norm_matches_dot() {
        let x = [c64::new(3.0, 0.0), c64::new(0.0, 4.0)];
        assert!((nrm2(&x) - 5.0).abs() < 1e-15);
        assert!((nrm2_sqr(&x) - dotc(&x, &x).re).abs() < 1e-13);
    }

    #[test]
    fn scaling_ops() {
        let mut x = [c64::new(1.0, -1.0), c64::new(2.0, 2.0)];
        dscal(0.5, &mut x);
        assert!((x[0] - c64::new(0.5, -0.5)).abs() < 1e-15);
        scal(c64::I, &mut x);
        assert!((x[0] - c64::new(0.5, 0.5)).abs() < 1e-15);
    }
}
