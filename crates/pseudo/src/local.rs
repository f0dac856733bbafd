//! Analytic local pseudopotentials in reciprocal space.
//!
//! **Substitution note (see DESIGN.md):** the paper uses tabulated
//! norm-conserving pseudopotentials for Zn/Te/O. Those tables are not
//! redistributable here, so we use a two-term analytic model of the same
//! norm-conserving *shape*:
//!
//! ```text
//! v(r) = −Z·erf(r/r_c)/r + A·exp(−r²/w²)
//! v(q) = −(4πZ/q²)·exp(−q²r_c²/4) + A·π^{3/2}·w³·exp(−q²w²/4)
//! ```
//!
//! i.e. a screened Coulomb tail with softened core plus a repulsive
//! Gaussian core correction — the classic "evanescent core" form. The
//! `q → 0` limit keeps only the non-divergent part (the `−4πZ/q²` piece
//! cancels against the Hartree and jellium terms in a neutral cell):
//! `v(0) = πZr_c² + A·π^{3/2}w³`.

use std::f64::consts::PI;

/// Two-parameter analytic local pseudopotential for one species.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalPotential {
    /// Ionic charge Z (equals the species valence for neutrality).
    pub z: f64,
    /// Core softening radius r_c (Bohr).
    pub rc: f64,
    /// Gaussian core-repulsion amplitude A (Hartree).
    pub a: f64,
    /// Gaussian core-repulsion width w (Bohr).
    pub w: f64,
}

impl LocalPotential {
    /// Form factor `v(q)` in Hartree·Bohr³ (to be divided by the cell
    /// volume when assembling the periodic potential). For `q = 0` returns
    /// the regularized non-divergent part.
    pub fn fourier(&self, q: f64) -> f64 {
        let gauss = self.a * PI.powf(1.5) * self.w.powi(3) * (-q * q * self.w * self.w / 4.0).exp();
        if q < 1e-12 {
            PI * self.z * self.rc * self.rc + gauss
        } else {
            -(4.0 * PI * self.z / (q * q)) * (-q * q * self.rc * self.rc / 4.0).exp() + gauss
        }
    }

    /// Real-space value `v(r)` (Hartree); used for testing the Fourier
    /// representation and for visualization.
    pub fn real_space(&self, r: f64) -> f64 {
        let gauss = self.a * (-r * r / (self.w * self.w)).exp();
        if r < 1e-9 {
            // lim_{r→0} −Z·erf(r/rc)/r = −2Z/(√π·rc)
            -2.0 * self.z / (PI.sqrt() * self.rc) + gauss
        } else {
            -self.z * erf(r / self.rc) / r + gauss
        }
    }
}

/// Error function, evaluated by composite Simpson quadrature of the
/// defining integral (n = 128 panels). Accurate to better than 1e-12 for
/// |x| ≤ 6; beyond that erf(x) = ±1 in f64. Only used off the hot path
/// (real-space checks, visualization); the solver works in q-space.
pub fn erf(x: f64) -> f64 {
    if x.abs() > 6.0 {
        return if x > 0.0 { 1.0 } else { -1.0 };
    }
    let n = 128;
    let h = x / n as f64;
    let f = |t: f64| (-t * t).exp();
    let mut s = f(0.0) + f(x);
    for i in 1..n {
        let t = h * i as f64;
        s += f(t) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    s * h / 3.0 * 2.0 / PI.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values (Abramowitz & Stegun tables).
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
            (4.0, 0.9999999846),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-9,
                "erf({x}) = {} ≠ {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn fourier_continuous_at_origin() {
        // v(q) + 4πZ/q² (screened minus bare Coulomb) must tend smoothly to
        // the regularized v(0) = πZr_c² + A·π^{3/2}w³.
        let v = LocalPotential {
            z: 4.0,
            rc: 1.0,
            a: 2.0,
            w: 0.8,
        };
        let v0 = v.fourier(0.0);
        let q = 1e-4;
        let vq_plus_coulomb = v.fourier(q) + 4.0 * PI * v.z / (q * q);
        assert!(
            (vq_plus_coulomb - v0).abs() < 1e-3,
            "regularized limit mismatch: {vq_plus_coulomb} vs {v0}"
        );
    }

    #[test]
    fn real_space_attractive_at_origin_for_bare_ion() {
        let v = LocalPotential {
            z: 6.0,
            rc: 0.8,
            a: 0.0,
            w: 1.0,
        };
        assert!(v.real_space(0.0) < 0.0);
        // Tends to −Z/r at large r.
        let r = 8.0;
        assert!((v.real_space(r) + v.z / r).abs() < 1e-8);
    }

    #[test]
    fn gaussian_core_raises_origin() {
        let bare = LocalPotential {
            z: 2.0,
            rc: 1.0,
            a: 0.0,
            w: 1.0,
        };
        let repulsive = LocalPotential {
            z: 2.0,
            rc: 1.0,
            a: 5.0,
            w: 1.0,
        };
        assert!(repulsive.real_space(0.0) > bare.real_space(0.0));
        assert!(repulsive.fourier(0.0) > bare.fourier(0.0));
    }

    #[test]
    fn fourier_decays_with_q() {
        let v = LocalPotential {
            z: 6.0,
            rc: 1.2,
            a: 4.0,
            w: 1.0,
        };
        let v1 = v.fourier(1.0).abs();
        let v4 = v.fourier(4.0).abs();
        let v8 = v.fourier(8.0).abs();
        assert!(v4 < v1);
        assert!(v8 < v4);
        assert!(v8 < 1e-3 * v1 + 1e-6);
    }
}
