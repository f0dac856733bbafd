//! Unifying trait for the two element types the solver uses: `f64` and
//! [`c64`](crate::c64). Lets the matrix container, GEMM and factorization
//! kernels be written once.

use crate::c64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field element usable in dense linear algebra kernels.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Real floating-point operations in one multiply-add `c + a·b` — what
    /// the flop counters charge per inner-loop step of a block product.
    const MADD_FLOPS: u64;

    /// Complex conjugate (identity for reals).
    fn conj(self) -> Self;
    /// Modulus.
    fn abs(self) -> f64;
    /// Squared modulus.
    fn norm_sqr(self) -> f64;
    /// Real part.
    fn re(self) -> f64;
    /// Embeds a real number.
    fn from_re(x: f64) -> Self;
    /// Scales by a real factor.
    fn scale(self, s: f64) -> Self;
    /// `self + a * b`, rounded after the multiply and after the add (the
    /// accumulate of the row loops and lane-split inner products).
    fn acc(self, a: Self, b: Self) -> Self;
    /// `self + a * b` as the packed GEMM tile accumulates it: one rounding
    /// for `f64` (`f64::mul_add` — an FMA instruction on tiers that have
    /// one, libm's correctly rounded `fma` on the baseline, the same bits
    /// either way); `c64`, which production never packs, keeps [`acc`].
    ///
    /// [`acc`]: Scalar::acc
    fn acc_fused(self, a: Self, b: Self) -> Self;
    /// `self + conj(a) * b` (conjugated accumulate for inner products).
    fn acc_conj(self, a: Self, b: Self) -> Self;
    /// Principal square root (element must be non-negative if real).
    fn sqrt(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const MADD_FLOPS: u64 = 2;

    #[inline(always)]
    fn conj(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        self * self
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_re(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn scale(self, s: f64) -> f64 {
        self * s
    }
    #[inline(always)]
    fn acc(self, a: f64, b: f64) -> f64 {
        self + a * b
    }
    #[inline(always)]
    fn acc_fused(self, a: f64, b: f64) -> f64 {
        a.mul_add(b, self)
    }
    #[inline(always)]
    fn acc_conj(self, a: f64, b: f64) -> f64 {
        self + a * b
    }
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
}

impl Scalar for c64 {
    const ZERO: c64 = c64::ZERO;
    const ONE: c64 = c64::ONE;
    const MADD_FLOPS: u64 = 8;

    #[inline(always)]
    fn conj(self) -> c64 {
        c64::conj(self)
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        c64::abs(self)
    }
    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        c64::norm_sqr(self)
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }
    #[inline(always)]
    fn from_re(x: f64) -> c64 {
        c64::real(x)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> c64 {
        c64::scale(self, s)
    }
    #[inline(always)]
    fn acc(self, a: c64, b: c64) -> c64 {
        self.mul_add(a, b)
    }
    #[inline(always)]
    fn acc_fused(self, a: c64, b: c64) -> c64 {
        self.acc(a, b)
    }
    #[inline(always)]
    fn acc_conj(self, a: c64, b: c64) -> c64 {
        self.mul_add(a.conj(), b)
    }
    #[inline(always)]
    fn sqrt(self) -> c64 {
        c64::sqrt(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_scalar_semantics() {
        assert_eq!(<f64 as Scalar>::conj(-2.0), -2.0);
        assert_eq!(<f64 as Scalar>::norm_sqr(-3.0), 9.0);
        assert_eq!(<f64 as Scalar>::acc(1.0, 2.0, 3.0), 7.0);
        assert_eq!(<f64 as Scalar>::acc_conj(1.0, 2.0, 3.0), 7.0);
        assert_eq!(<f64 as Scalar>::acc_fused(1.0, 2.0, 3.0), 7.0);
    }

    #[test]
    fn real_fused_accumulate_rounds_once() {
        // (1 + ε)(1 − ε) = 1 − ε²: rounded to 1 before the add, the
        // unfused accumulate cancels to 0; the fused one keeps −ε².
        let (a, b) = (1.0 + f64::EPSILON, 1.0 - f64::EPSILON);
        assert_eq!(<f64 as Scalar>::acc(-1.0, a, b), 0.0);
        assert_eq!(
            <f64 as Scalar>::acc_fused(-1.0, a, b),
            -f64::EPSILON * f64::EPSILON
        );
    }

    #[test]
    fn complex_scalar_semantics() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(3.0, -1.0);
        let acc = <c64 as Scalar>::acc_conj(c64::ZERO, a, b);
        // conj(1+2i)*(3-i) = (1-2i)(3-i) = 3 - i - 6i + 2i^2 = 1 - 7i
        assert!((acc - c64::new(1.0, -7.0)).abs() < 1e-15);
    }
}
