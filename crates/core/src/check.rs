//! Runtime numeric invariants for the LS3DF pipeline.
//!
//! LS3DF's accuracy claim rests on the sign-alternating patching sum
//! `ρ_tot = Σ_F α_F ρ_F` reproducing direct DFT to meV/atom (paper
//! §Gen_dens). A silently-propagated NaN, a non-conserved charge, or a
//! schedule-dependent reduction order destroys that claim without failing
//! any test — so the SCF loop re-derives the invariants at every step
//! when checking is active:
//!
//! * **finiteness** — every field/wavefunction produced by an SCF step is
//!   NaN/Inf-free; the first offending step taints the run with its name
//!   (`Gen_VF`, `PEtot_F`, `Gen_dens`, `GENPOT`);
//! * **charge conservation** — the patched density integrates to the
//!   global electron count *before* Gen_dens renormalizes it (a loose,
//!   measured bound relative to the gross patch scale `Σ|α_F|·n_e(F)`:
//!   unconverged fragments legitimately swing the signed sum by a
//!   fraction of the gross sum — see [`CHARGE_TOL_REL`]);
//! * **per-fragment region charge** — each fragment's region charge
//!   stays within `[0, n_e(F)]`, a structural bound that holds at any
//!   solver state and pins down *which* fragment's density is corrupted;
//! * **patching linearity** — the assembled density's integral equals
//!   the signed sum of per-fragment region charges to rounding accuracy
//!   (tight at every iteration, independent of solver convergence);
//! * **partition of unity** — the `α_F` weights sum to exactly 1 on every
//!   grid point (checked once at assembly);
//! * **orthonormality** — fragment wavefunction blocks stay orthonormal
//!   after each PEtot_F eigensolver pass.
//!
//! Checking is compiled in wherever `debug_assertions` are on (every
//! dev/test build); in release [`ENABLED`] is `false` and every check
//! site folds away to nothing (zero release-mode cost).
//!
//! A violated invariant is a programming error (or corrupted state), not
//! an environmental condition, so [`enforce`] aborts the computation by
//! panicking with the step name — the same contract as `debug_assert!`.

use ls3df_grid::RealField;
use ls3df_math::Matrix;

/// Whether invariant checking is active in this build.
pub const ENABLED: bool = cfg!(debug_assertions);

/// Relative tolerance for pre-normalization charge conservation,
/// measured against the **gross patch scale** `Σ_F |α_F|·n_e(F)` — not
/// against the electron count itself. The patched charge is a small
/// *difference* of large per-fragment region charges (the gross scale is
/// ≈ 6–7·N on the quickstart workload), so its burn-in drift is
/// proportional to the gross sum, not to N: fragment-level disagreement
/// of O(1) electrons — unavoidable at the burn-in `fragment_tol` of
/// 5e-2, where 35–55 % of each fragment's density still sits in its
/// buffer — moves the signed total by a sizeable fraction of the gross
/// scale. Instrumented sweeps on the 64-atom ZnTe quickstart observed
/// legitimate pre-normalization values anywhere from 0.004·N to 1.35·N
/// (i.e. drift up to ≈ 1.0·N ≈ 0.15 × gross). A bound relative to N can
/// therefore never separate healthy burn-in from corruption; 0.25 × the
/// gross scale clears the observed band with margin while still
/// rejecting a density that was patched into the wrong order of
/// magnitude. The *sharp* corruption detectors are the ones that do not
/// depend on solver convergence: [`patching_linearity`] (assembly
/// integrity, exact) and [`fragment_region_charge`] (each fragment's
/// region charge bounded by its own electron count, structural).
pub const CHARGE_TOL_REL: f64 = 0.25;

/// Slack on the per-fragment region-charge bound
/// ([`fragment_region_charge`]), relative to the fragment's electron
/// count. A fragment's density integrates over its *whole box* to its
/// own electron count (occupations × band norms, with the eigensolvers
/// holding band norms to [`ORTHO_TOL`]), and the density is pointwise
/// nonnegative — so the region part must land in `[0, n_e(F)]` up to
/// orthonormality slack and FFT rounding, at **any** solver state. 1e-4
/// covers `ORTHO_TOL`-level norm drift on a ≥100-electron fragment with
/// two orders of margin; real corruption (a rescaled wavefunction block,
/// a density added twice) overshoots the bound by O(1)·n_e.
pub const REGION_CHARGE_TOL_REL: f64 = 1e-4;

/// Relative tolerance for the patching-linearity invariant: the
/// assembled density's integral must equal the independently summed
/// `Σ_F α_F ∫_region ρ_F` up to floating-point reassociation (the two
/// sides sum the same ~10⁵ samples in different orders). Unlike
/// [`CHARGE_TOL_REL`] this bound does not depend on solver convergence,
/// so it stays tight at every iteration.
pub const PATCH_LINEARITY_TOL_REL: f64 = 1e-8;

/// Orthonormality residual allowed for a fragment wavefunction block
/// after an eigensolver pass (the solvers re-orthonormalize every
/// iteration; anything worse than this means the block degenerated).
pub const ORTHO_TOL: f64 = 1e-6;

/// A violated numeric invariant: which SCF step produced the bad value,
/// and what was wrong with it.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// SCF step name (`Gen_VF`, `PEtot_F`, `Gen_dens`, `GENPOT`, …).
    pub step: String,
    /// Offending fragment index, when the check ran inside a per-fragment
    /// stage — on a 10⁴-fragment run, "which fragment" is the difference
    /// between a debuggable taint and a shrug.
    pub fragment: Option<usize>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl InvariantViolation {
    /// Taints the violation with the fragment it occurred in (per-fragment
    /// check sites wrap their results with this).
    pub fn for_fragment(mut self, index: usize) -> Self {
        self.fragment = Some(index);
        self
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fragment {
            Some(id) => write!(
                f,
                "LS3DF invariant violated at {} (fragment {id}): {}",
                self.step, self.detail
            ),
            None => write!(
                f,
                "LS3DF invariant violated at {}: {}",
                self.step, self.detail
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Panics on a violation (the `debug_assert!` contract: invariant
/// violations are programming errors and must not propagate silently).
#[expect(
    clippy::panic,
    reason = "enforce() implements the debug_assert contract: a violated numeric invariant is a programming error and must abort, not propagate"
)]
pub fn enforce(result: Result<(), InvariantViolation>) {
    if let Err(v) = result {
        panic!("{v}");
    }
}

/// Every sample of `field` is finite; on failure reports the first
/// offending grid index and value, tainted with `step`.
pub fn finite_field(step: &str, field: &RealField) -> Result<(), InvariantViolation> {
    match field.as_slice().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(idx) => Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!(
                "non-finite value {} at grid index {idx} (of {})",
                field.as_slice()[idx],
                field.as_slice().len()
            ),
        }),
    }
}

/// Every coefficient of a packed wavefunction block is finite; reports
/// the first offending (band, coefficient) pair.
pub fn finite_matrix(step: &str, m: &Matrix<f64>) -> Result<(), InvariantViolation> {
    match m.as_slice().iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(idx) => {
            let cols = m.cols().max(1);
            Err(InvariantViolation {
                step: step.to_string(),
                fragment: None,
                detail: format!(
                    "non-finite coefficient at band {}, index {}",
                    idx / cols,
                    idx % cols
                ),
            })
        }
    }
}

/// One finite scalar (residuals, integrals).
pub fn finite_scalar(step: &str, name: &str, x: f64) -> Result<(), InvariantViolation> {
    if x.is_finite() {
        Ok(())
    } else {
        Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!("non-finite {name}: {x}"),
        })
    }
}

/// Pre-normalization charge conservation: the patched density must carry
/// the global electron count within [`CHARGE_TOL_REL`] × the gross patch
/// scale `Σ_F |α_F|·n_e(F)` (the natural size of the cancellation noise
/// in the signed patching sum — see [`CHARGE_TOL_REL`] for the measured
/// justification). `gross_scale` is floored at `|n_electrons|` so the
/// bound never degenerates below one electron-count of slack.
pub fn charge_conservation(
    step: &str,
    patched_charge: f64,
    n_electrons: f64,
    gross_scale: f64,
) -> Result<(), InvariantViolation> {
    finite_scalar(step, "patched charge", patched_charge)?;
    finite_scalar(step, "gross patch scale", gross_scale)?;
    let scale = gross_scale.abs().max(n_electrons.abs()).max(1.0);
    if (patched_charge - n_electrons).abs() > CHARGE_TOL_REL * scale {
        return Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!(
                "charge not conserved: patched density integrates to {patched_charge:.6} \
                 but the structure carries {n_electrons:.6} electrons (allowed drift \
                 {:.3} = {CHARGE_TOL_REL} × gross patch scale {scale:.3})",
                CHARGE_TOL_REL * scale
            ),
        });
    }
    Ok(())
}

/// Per-fragment structural charge bound: a fragment's density integrates
/// over its whole box to its own electron count and is pointwise
/// nonnegative, so the region part must satisfy
/// `0 ≤ ∫_region ρ_F ≤ n_e(F)` within [`REGION_CHARGE_TOL_REL`] slack —
/// independent of how converged the fragment is. This is the check that
/// catches a corrupted fragment density (rescaled wavefunctions, a
/// double-counted band) which the loose global bound can miss when the
/// corruption cancels in the signed sum.
pub fn fragment_region_charge(
    step: &str,
    region_charge: f64,
    fragment_electrons: f64,
) -> Result<(), InvariantViolation> {
    finite_scalar(step, "region charge", region_charge)?;
    let slack = REGION_CHARGE_TOL_REL * fragment_electrons.abs().max(1.0);
    if region_charge < -slack || region_charge > fragment_electrons + slack {
        return Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!(
                "fragment region charge {region_charge:.6} outside [0, {fragment_electrons:.6}] \
                 (slack {slack:.1e}) — the fragment density no longer integrates to its own \
                 electron count; its wavefunctions or occupations are corrupted"
            ),
        });
    }
    Ok(())
}

/// Patching linearity: the integral of the assembled (patched) density
/// equals the signed sum of per-fragment region integrals. Integration
/// is linear, so any violation beyond rounding means the assembly
/// itself is corrupted — a fragment patched twice or not at all, a
/// zeroed region, a wrong weight — independent of how converged the
/// fragment solutions are (which is what makes this check sharp where
/// [`charge_conservation`] has to stay loose).
pub fn patching_linearity(
    step: &str,
    assembled_charge: f64,
    signed_region_charge: f64,
) -> Result<(), InvariantViolation> {
    finite_scalar(step, "assembled charge", assembled_charge)?;
    finite_scalar(step, "signed region charge", signed_region_charge)?;
    let scale = assembled_charge
        .abs()
        .max(signed_region_charge.abs())
        .max(1.0);
    if (assembled_charge - signed_region_charge).abs() > PATCH_LINEARITY_TOL_REL * scale {
        return Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!(
                "patching not linear: assembled density integrates to \
                 {assembled_charge:.9} but the signed per-fragment region sum is \
                 {signed_region_charge:.9} (tolerance {PATCH_LINEARITY_TOL_REL:.0e} \
                 relative) — a fragment was patched twice, dropped, or misweighted"
            ),
        });
    }
    Ok(())
}

/// The `Σ_F α_F` partition of unity over the global grid: every point
/// covered with net weight exactly 1 (the ±1 weights cancel exactly, so
/// any deviation is a geometry bug).
pub fn patching_weights(
    fg: &crate::fragment::FragmentGrid,
    global: &ls3df_grid::Grid3,
) -> Result<(), InvariantViolation> {
    let deviation = fg.partition_of_unity(global);
    if deviation > 0.0 {
        return Err(InvariantViolation {
            step: "patching-weights".to_string(),
            fragment: None,
            detail: format!(
                "Σ_F α_F deviates from 1 by {deviation:.3e} somewhere on the global grid \
                 — fragment geometry is inconsistent"
            ),
        });
    }
    Ok(())
}

/// Fragment wavefunction block orthonormality after an eigensolver pass
/// (packed rows: their real overlap is the complex one).
pub fn orthonormal(step: &str, psi: &Matrix<f64>, metric: f64) -> Result<(), InvariantViolation> {
    finite_matrix(step, psi)?;
    let residual = ls3df_math::ortho::orthonormality_residual(psi, metric);
    if !residual.is_finite() || residual > ORTHO_TOL {
        return Err(InvariantViolation {
            step: step.to_string(),
            fragment: None,
            detail: format!(
                "wavefunction block lost orthonormality: residual {residual:.3e} \
                 (tolerance {ORTHO_TOL:.0e})"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;

    fn small_field(value: f64) -> RealField {
        RealField::constant(Grid3::cubic(4, 2.0), value)
    }

    #[test]
    fn finite_field_accepts_clean_data() {
        assert!(finite_field("Gen_dens", &small_field(1.0)).is_ok());
    }

    #[test]
    fn finite_field_reports_step_and_index() {
        let mut f = small_field(1.0);
        f.as_mut_slice()[7] = f64::NAN;
        let err = finite_field("Gen_VF", &f).unwrap_err();
        assert_eq!(err.step, "Gen_VF");
        assert!(err.detail.contains("index 7"), "{}", err.detail);
        let mut g = small_field(0.0);
        g.as_mut_slice()[0] = f64::INFINITY;
        assert!(finite_field("GENPOT", &g).is_err());
    }

    #[test]
    fn charge_conservation_window() {
        // Quickstart-like geometry: N = 100 electrons, gross patch scale
        // ≈ 6·N. The allowed drift is 0.25 × 600 = 150.
        assert!(charge_conservation("Gen_dens", 100.0, 100.0, 600.0).is_ok());
        assert!(charge_conservation("Gen_dens", 110.0, 100.0, 600.0).is_ok());
        // Burn-in drift: unconverged fragments legitimately swing the
        // signed sum by up to ≈ N (measured: 0.004·N to 1.35·N on the
        // quickstart workload) — the whole observed band must pass.
        assert!(charge_conservation("Gen_dens", 135.0, 100.0, 600.0).is_ok());
        assert!(charge_conservation("Gen_dens", 1.0, 100.0, 600.0).is_ok());
        assert!(charge_conservation("Gen_dens", 200.0, 100.0, 600.0).is_ok());
        // Order-of-magnitude corruption must still fail…
        let err = charge_conservation("Gen_dens", 900.0, 100.0, 600.0).unwrap_err();
        assert!(
            err.detail.contains("charge not conserved"),
            "{}",
            err.detail
        );
        assert!(charge_conservation("Gen_dens", -300.0, 100.0, 600.0).is_err());
        assert!(charge_conservation("Gen_dens", f64::NAN, 100.0, 600.0).is_err());
        assert!(charge_conservation("Gen_dens", 100.0, 100.0, f64::INFINITY).is_err());
        // …and the scale floors at the electron count, so a degenerate
        // gross scale cannot switch the check off.
        assert!(charge_conservation("Gen_dens", 160.0, 100.0, 0.0).is_err());
    }

    #[test]
    fn fragment_region_charge_bounds() {
        // Healthy: anywhere in [0, n_e], including all-in-buffer (0) and
        // fully-converged (≈ n_e with rounding slack).
        assert!(fragment_region_charge("Gen_dens", 152.6, 256.0).is_ok());
        assert!(fragment_region_charge("Gen_dens", 0.0, 256.0).is_ok());
        assert!(fragment_region_charge("Gen_dens", 256.0 + 1e-6, 256.0).is_ok());
        // Corrupted: a ×10 wavefunction scaling inflates the density
        // ×100; even a doubled density overshoots the box integral.
        let err = fragment_region_charge("Gen_dens", 15_260.0, 256.0).unwrap_err();
        assert!(err.detail.contains("region charge"), "{}", err.detail);
        assert!(fragment_region_charge("Gen_dens", 300.0, 256.0).is_err());
        assert!(fragment_region_charge("Gen_dens", -1.0, 256.0).is_err());
        assert!(fragment_region_charge("Gen_dens", f64::NAN, 256.0).is_err());
    }

    #[test]
    fn patching_linearity_window() {
        // Reassociation-level disagreement passes…
        assert!(patching_linearity("Gen_dens", 256.0, 256.0 + 1e-9).is_ok());
        // …assembly corruption does not: one dropped 1×1×1 region is a
        // ~9 % discrepancy on the quickstart workload.
        let err = patching_linearity("Gen_dens", 256.0, 278.7).unwrap_err();
        assert!(err.detail.contains("patching not linear"), "{}", err.detail);
        assert!(patching_linearity("Gen_dens", f64::NAN, 256.0).is_err());
        assert!(patching_linearity("Gen_dens", 256.0, f64::INFINITY).is_err());
    }

    #[test]
    fn orthonormality_detects_scaling() {
        let psi = Matrix::<f64>::identity(4);
        assert!(orthonormal("PEtot_F", &psi, 1.0).is_ok());
        let mut bad = Matrix::<f64>::identity(4);
        bad.scale_real(10.0);
        assert!(orthonormal("PEtot_F", &bad, 1.0).is_err());
    }

    #[test]
    fn weights_ok_for_valid_decomposition() {
        let g = Grid3::new([6, 6, 6], [6.0, 6.0, 6.0]);
        let fg = crate::fragment::FragmentGrid::new([2, 2, 2], &g, [1, 1, 1]).unwrap();
        assert!(patching_weights(&fg, &g).is_ok());
    }

    #[test]
    #[should_panic(expected = "LS3DF invariant violated at Gen_dens")]
    fn enforce_panics_with_step_name() {
        enforce(charge_conservation("Gen_dens", 900.0, 100.0, 600.0));
    }

    #[test]
    fn fragment_taint_appears_in_message() {
        let mut f = small_field(1.0);
        f.as_mut_slice()[3] = f64::NAN;
        let err = finite_field("Gen_VF", &f).unwrap_err().for_fragment(12);
        assert_eq!(err.fragment, Some(12));
        let msg = err.to_string();
        assert!(
            msg.contains("at Gen_VF (fragment 12):"),
            "fragment id missing from taint: {msg}"
        );
    }

    #[test]
    fn checking_is_active_in_test_builds() {
        let enabled = [false, ENABLED];
        assert!(
            enabled[1],
            "debug/test builds must compile the invariant layer in"
        );
    }
}
