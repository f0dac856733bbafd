//! Fault-tolerant fragment execution: retry ladder and quarantine records.
//!
//! The paper's production runs solve tens of thousands of independent
//! fragment problems per outer iteration; at that scale a single
//! pathological fragment (a poisoned wavefunction block, a panic on a bad
//! node) must not abort the whole calculation. The SCF loop therefore
//! wraps every PEtot_F fragment solve in supervision:
//!
//! 1. the **primary** warm-started solve runs under `catch_unwind`, with
//!    typed solver errors (`ls3df_pw::SolverError`) caught as well;
//! 2. on failure a bounded, *deterministic* retry ladder runs —
//!    [`RetryAction::FreshRandomStart`] (new deterministic start block),
//!    [`RetryAction::BandByBand`] (the more robust one-band-at-a-time
//!    scheme), then [`RetryAction::ReducedCg`] (halved step budget with
//!    re-orthonormalization every step);
//! 3. if every rung fails, the fragment is **quarantined** for this outer
//!    iteration: solves only ever work on a candidate block that is
//!    committed on success, so its wavefunctions are still the previous
//!    iteration's, Gen_dens patches the previous density for that
//!    fragment instead of garbage, and the outer loop continues.
//!
//! Every failed attempt and every quarantine is surfaced through the
//! [`ScfObserver`](crate::ScfObserver) hooks in fragment order, so the
//! event stream is deterministic regardless of the worker pool schedule.
//! The retry seeds are pure functions of (fragment index, attempt), so a
//! run that hits the same failure retries identically.

/// One rung of the deterministic retry ladder (plus the primary attempt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryAction {
    /// The normal warm-started solve with the configured method.
    Primary,
    /// Same method, but from a fresh deterministic random start block
    /// (discards warm-start state that may have been poisoned).
    FreshRandomStart,
    /// The band-by-band solver from a fresh start — slower, but each band
    /// is stabilized by Gram–Schmidt after every step.
    BandByBand,
    /// All remaining robustness: fresh start, halved step budget, CG
    /// memory reset and exact re-orthonormalization every step.
    ReducedCg,
}

impl RetryAction {
    /// Stable, log-friendly name.
    pub fn name(self) -> &'static str {
        match self {
            RetryAction::Primary => "primary",
            RetryAction::FreshRandomStart => "fresh-random-start",
            RetryAction::BandByBand => "band-by-band",
            RetryAction::ReducedCg => "reduced-cg",
        }
    }
}

/// The supervision schedule: the primary attempt followed by the retry
/// ladder, in the order they run.
pub const ATTEMPT_LADDER: [RetryAction; 4] = [
    RetryAction::Primary,
    RetryAction::FreshRandomStart,
    RetryAction::BandByBand,
    RetryAction::ReducedCg,
];

/// One failed solve attempt on a fragment.
#[derive(Clone, Debug)]
pub struct FragmentFault {
    /// Fragment index (position in the decomposition's fragment list).
    pub fragment: usize,
    /// Attempt number (0 = primary, 1.. = retry ladder rungs).
    pub attempt: usize,
    /// What was being attempted.
    pub action: RetryAction,
    /// Rendered failure: a `SolverError`, an invariant violation, or a
    /// panic payload.
    pub detail: String,
}

impl std::fmt::Display for FragmentFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fragment {} attempt {} ({}): {}",
            self.fragment,
            self.attempt,
            self.action.name(),
            self.detail
        )
    }
}

/// A fragment whose whole attempt ladder failed in one outer iteration.
///
/// The fragment's wavefunctions stayed the previous iteration's, so
/// Gen_dens reused its previous density; the run continued.
#[derive(Clone, Debug)]
pub struct QuarantineRecord {
    /// Fragment index.
    pub fragment: usize,
    /// Every failed attempt, in ladder order.
    pub faults: Vec<FragmentFault>,
}

impl std::fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fragment {} quarantined after {} failed attempts (last: {})",
            self.fragment,
            self.faults.len(),
            self.faults.last().map_or("<none>", |f| f.detail.as_str())
        )
    }
}

/// Kinds of fault the test hooks can inject into a fragment solve.
///
/// Validation support, in the same spirit as
/// [`Ls3df::scale_fragment_psi`](crate::Ls3df::scale_fragment_psi):
/// deliberately failing a fragment lets tests (and operators qualifying a
/// deployment) confirm the supervision layer retries and quarantines
/// instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The solve attempt panics (exercises the `catch_unwind` path).
    Panic,
    /// The solve attempt reports a typed solver error.
    SolverError,
}

/// Renders a caught panic payload for a [`FragmentFault`].
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_is_primary_then_escalating() {
        assert_eq!(ATTEMPT_LADDER[0], RetryAction::Primary);
        assert_eq!(ATTEMPT_LADDER.len(), 4);
        // Names are distinct (they key log lines and test assertions).
        let names: std::collections::BTreeSet<_> =
            ATTEMPT_LADDER.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn displays_carry_fragment_and_action() {
        let fault = FragmentFault {
            fragment: 7,
            attempt: 1,
            action: RetryAction::FreshRandomStart,
            detail: "non-finite residual at iteration 2".into(),
        };
        let s = fault.to_string();
        assert!(
            s.contains("fragment 7") && s.contains("fresh-random-start"),
            "{s}"
        );
        let q = QuarantineRecord {
            fragment: 7,
            faults: vec![fault],
        };
        assert!(q.to_string().contains("quarantined after 1"), "{q}");
    }

    #[test]
    fn panic_payloads_render() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        assert_eq!(panic_detail(s.as_ref()), "panic: boom");
        let s2: Box<dyn std::any::Any + Send> = Box::new("static boom");
        assert_eq!(panic_detail(s2.as_ref()), "panic: static boom");
        let s3: Box<dyn std::any::Any + Send> = Box::new(42usize);
        assert!(panic_detail(s3.as_ref()).contains("non-string"));
    }
}
