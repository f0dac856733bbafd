//! Observation hooks for the LS3DF outer SCF loop.
//!
//! [`Ls3df::scf_with`](crate::Ls3df::scf_with) streams progress through
//! the [`ScfObserver`] trait instead of a bare closure, so bench
//! binaries, progress printers and future tracing backends can attach
//! richer instrumentation (per-stage timings, convergence events)
//! without the driver's signature changing again. Plain
//! `FnMut(&Ls3dfStep)` closures keep working through a blanket impl —
//! they see only the per-iteration [`ScfObserver::on_step`] hook.

use crate::scf::Ls3dfStep;
use crate::supervise::{FragmentFault, QuarantineRecord};
use ls3df_ckpt::CkptError;
use std::path::Path;

/// One of the four timed stages of an LS3DF outer iteration
/// (paper Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScfStage {
    /// Global potential → fragment potentials.
    GenVf,
    /// Fragment eigensolves (the parallel hot path).
    PetotF,
    /// Fragment densities → patched global density.
    GenDens,
    /// Global Poisson + XC + mixing.
    Genpot,
}

impl ScfStage {
    /// The paper's name for the stage (stable, log-friendly).
    pub fn name(self) -> &'static str {
        match self {
            ScfStage::GenVf => "Gen_VF",
            ScfStage::PetotF => "PEtot_F",
            ScfStage::GenDens => "Gen_dens",
            ScfStage::Genpot => "GENPOT",
        }
    }
}

/// Receiver for LS3DF outer-loop progress events.
///
/// All hooks have empty defaults: implement only what you need. A
/// `FnMut(&Ls3dfStep)` closure is an observer via the blanket impl
/// (receiving [`on_step`](ScfObserver::on_step) only), so the
/// pre-existing call style `calc.scf_with(|step| …)` still compiles.
///
/// To keep a struct observer inspectable after the run, give it `&mut`
/// fields borrowing the caller's locals (the driver takes the observer
/// by value):
///
/// ```ignore
/// struct Wall<'a> {
///     petot: &'a mut f64,
/// }
/// impl ScfObserver for Wall<'_> {
///     fn on_stage(&mut self, _: usize, stage: ScfStage, seconds: f64) {
///         if stage == ScfStage::PetotF {
///             *self.petot += seconds;
///         }
///     }
/// }
/// ```
pub trait ScfObserver {
    /// Called after every completed outer iteration.
    fn on_step(&mut self, _step: &Ls3dfStep) {}

    /// Called after each of the four stages inside an iteration, with the
    /// stage's wall-clock seconds (timing hook; fires before `on_step`).
    fn on_stage(&mut self, _iteration: usize, _stage: ScfStage, _seconds: f64) {}

    /// Called once if the ΔV tolerance is reached, with the converging
    /// step (after its `on_step`). Not called when the iteration cap ends
    /// the run.
    fn on_converged(&mut self, _step: &Ls3dfStep) {}

    /// Called for every failed fragment solve attempt (primary or retry
    /// rung), in fragment order within the iteration. Fault events fire on
    /// the global rank (0) only, between the iteration's PEtot_F and
    /// Gen_dens stage events, for every group's fragments.
    fn on_fragment_retry(&mut self, _iteration: usize, _fault: &FragmentFault) {}

    /// Called when a fragment exhausts the retry ladder and is quarantined
    /// for this iteration (its previous-iteration density is reused).
    fn on_fragment_quarantined(&mut self, _iteration: usize, _record: &QuarantineRecord) {}

    /// Called after a checkpoint snapshot is durably written (fires after
    /// `on_step`, before `on_converged`).
    fn on_snapshot_written(&mut self, _iteration: usize, _path: &Path) {}

    /// Called when a checkpoint write fails. Snapshot failures never abort
    /// the SCF loop (the science result is still computable) — this hook
    /// is the only place the failure surfaces.
    fn on_snapshot_failed(&mut self, _iteration: usize, _error: &CkptError) {}

    /// Called once at the start of a resumed run, with the iteration the
    /// restored snapshot was taken at.
    fn on_snapshot_restored(&mut self, _resumed_from_iteration: usize) {}
}

impl<F: FnMut(&Ls3dfStep)> ScfObserver for F {
    fn on_step(&mut self, step: &Ls3dfStep) {
        self(step);
    }
}

/// The no-op observer ([`Ls3df::scf`](crate::Ls3df::scf) uses it).
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentObserver;

impl ScfObserver for SilentObserver {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::StepTimings;

    fn step(iteration: usize) -> Ls3dfStep {
        Ls3dfStep {
            iteration,
            dv_integral: 1.0,
            worst_residual: 0.5,
            charge_ratio: 1.0,
            timings: StepTimings::default(),
        }
    }

    #[test]
    fn closures_are_observers() {
        let mut count = 0usize;
        {
            let mut obs = |s: &Ls3dfStep| count += s.iteration;
            obs.on_step(&step(2));
            obs.on_step(&step(3));
            // Closures only get on_step; the other hooks default to no-ops.
            obs.on_stage(1, ScfStage::PetotF, 0.1);
            obs.on_converged(&step(3));
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn struct_observer_with_borrowed_state() {
        struct Recorder<'a> {
            stages: &'a mut Vec<&'static str>,
            converged: &'a mut bool,
        }
        impl ScfObserver for Recorder<'_> {
            fn on_stage(&mut self, _i: usize, stage: ScfStage, _s: f64) {
                self.stages.push(stage.name());
            }
            fn on_converged(&mut self, _step: &Ls3dfStep) {
                *self.converged = true;
            }
        }
        let mut stages = Vec::new();
        let mut converged = false;
        {
            let mut obs = Recorder {
                stages: &mut stages,
                converged: &mut converged,
            };
            obs.on_stage(1, ScfStage::GenVf, 0.0);
            obs.on_stage(1, ScfStage::PetotF, 0.0);
            obs.on_converged(&step(1));
        }
        assert_eq!(stages, vec!["Gen_VF", "PEtot_F"]);
        assert!(converged);
    }

    #[test]
    fn stage_names_match_paper() {
        assert_eq!(ScfStage::GenVf.name(), "Gen_VF");
        assert_eq!(ScfStage::PetotF.name(), "PEtot_F");
        assert_eq!(ScfStage::GenDens.name(), "Gen_dens");
        assert_eq!(ScfStage::Genpot.name(), "GENPOT");
    }
}
