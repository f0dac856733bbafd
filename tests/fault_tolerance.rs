//! Fault-tolerant fragment execution: injected fragment failures (panics
//! and solver errors) must be retried on the deterministic ladder and, if
//! the whole ladder fails, quarantined — with the run completing and every
//! event visible through the `ScfObserver` hooks. At production scale one
//! pathological fragment must never abort a multi-day calculation.

use ls3df::core::{Ls3df, Ls3dfBuilder, Ls3dfOptions, Ls3dfStep, Passivation};
use ls3df::{
    CheckpointConfig, CheckpointPolicy, FragmentFault, InjectedFault, QuarantineRecord,
    RetryAction, ScfObserver, Structure,
};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn small_calc(max_scf: usize) -> Ls3df {
    small_builder(&model_crystal([2, 2, 2], 6.5), max_scf)
        .build()
        .expect("valid test geometry")
}

fn small_builder(s: &Structure, max_scf: usize) -> Ls3dfBuilder<'_> {
    let opts = Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 10,
        initial_cg_steps: 30,
        fragment_tol: 1e-6,
        max_scf,
        tol: 1e-9,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    };
    Ls3df::builder(s).fragments([2, 2, 2]).options(opts)
}

/// Observer recording every supervision event in arrival order.
#[derive(Default)]
struct FaultLog {
    retries: Vec<(usize, FragmentFault)>,
    quarantines: Vec<(usize, QuarantineRecord)>,
    steps: usize,
}

impl ScfObserver for &mut FaultLog {
    fn on_step(&mut self, _step: &Ls3dfStep) {
        self.steps += 1;
    }
    fn on_fragment_retry(&mut self, iteration: usize, fault: &FragmentFault) {
        self.retries.push((iteration, fault.clone()));
    }
    fn on_fragment_quarantined(&mut self, iteration: usize, record: &QuarantineRecord) {
        self.quarantines.push((iteration, record.clone()));
    }
}

#[test]
fn injected_solver_error_is_retried_and_recovers() {
    let mut calc = small_calc(2);
    calc.inject_fragment_fault(3, InjectedFault::SolverError, 1);
    let mut log = FaultLog::default();
    let res = calc.scf_with(&mut log);

    // The run completed all iterations and nothing was quarantined.
    assert_eq!(log.steps, 2);
    assert!(res.quarantined.is_empty(), "one retry must not quarantine");
    assert!(log.quarantines.is_empty());
    // Exactly the injected failure was observed: fragment 3, primary
    // attempt, recovered by the first ladder rung.
    assert_eq!(log.retries.len(), 1);
    let (iteration, fault) = &log.retries[0];
    assert_eq!(*iteration, 1);
    assert_eq!(fault.fragment, 3);
    assert_eq!(fault.attempt, 0);
    assert_eq!(fault.action, RetryAction::Primary);
    assert!(fault.detail.contains("injected solver error"), "{fault}");
    // The recovered run still conserves charge.
    assert!((res.rho.integrate() - calc.n_electrons()).abs() < 1e-8);
}

#[test]
fn injected_panic_is_caught_and_retried() {
    let mut calc = small_calc(1);
    calc.inject_fragment_fault(5, InjectedFault::Panic, 1);
    let mut log = FaultLog::default();
    let res = calc.scf_with(&mut log);
    assert!(res.quarantined.is_empty());
    assert_eq!(log.retries.len(), 1);
    let (_, fault) = &log.retries[0];
    assert_eq!(fault.fragment, 5);
    assert!(fault.detail.contains("panic"), "{fault}");
    assert!(fault.detail.contains("injected panic"), "{fault}");
}

#[test]
fn exhausted_ladder_quarantines_without_aborting() {
    let mut calc = small_calc(2);
    // Enough injected panics to poison the primary attempt and every rung
    // of iteration 1's ladder (4 attempts total).
    calc.inject_fragment_fault(7, InjectedFault::Panic, 4);
    let mut log = FaultLog::default();
    let res = calc.scf_with(&mut log);

    // The run survived to the iteration cap.
    assert_eq!(log.steps, 2);
    assert_eq!(res.history.len(), 2);
    // Fragment 7 was quarantined in iteration 1 with the full ladder on
    // record, in ladder order.
    assert_eq!(res.quarantined.len(), 1);
    let q = &res.quarantined[0];
    assert_eq!(q.fragment, 7);
    assert_eq!(q.faults.len(), 4);
    let actions: Vec<RetryAction> = q.faults.iter().map(|f| f.action).collect();
    assert_eq!(
        actions,
        vec![
            RetryAction::Primary,
            RetryAction::FreshRandomStart,
            RetryAction::BandByBand,
            RetryAction::ReducedCg,
        ]
    );
    assert_eq!(log.quarantines.len(), 1);
    assert_eq!(log.quarantines[0].0, 1, "quarantined in iteration 1");
    // Iteration 2 solves fragment 7 normally (injections consumed): no
    // further faults.
    assert!(log.retries.iter().all(|(it, _)| *it == 1));
    // Quarantine reuses the previous density: the global density stays
    // finite and charge-conserving.
    assert!(res.rho.as_slice().iter().all(|v| v.is_finite()));
    assert!((res.rho.integrate() - calc.n_electrons()).abs() < 1e-8);
}

/// Quarantine is "leave ψ as it is": every rung works on a candidate block
/// and only a successful one is committed. Four rungs that each die after
/// scribbling on their candidate (the injected panic poisons it first)
/// leave the fragment's block — here still the start guess — bit for bit
/// what it was, and nothing non-finite reaches the density.
#[test]
fn rungs_that_panic_mid_write_leave_psi_untouched() {
    let mut calc = small_calc(1);
    let (before, neighbour) = (calc.fragment_psi_digest(7), calc.fragment_psi_digest(6));
    calc.inject_fragment_fault(7, InjectedFault::Panic, 4);
    let res = calc.scf();
    assert_eq!(res.quarantined.len(), 1);
    assert_eq!(calc.fragment_psi_digest(7), before);
    assert_ne!(
        calc.fragment_psi_digest(6),
        neighbour,
        "a solved fragment's block must change, or the digest proves nothing"
    );
    assert!(res.rho.as_slice().iter().all(|v| v.is_finite()));
}

/// A fragment that exhausts the ladder in iteration 2 keeps its
/// iteration-1 wavefunctions bit for bit. Iteration 1 runs in one
/// calculation and is snapshotted; a second one resumes from it — restore
/// installs ψ and nothing else — and fails fragment 7 four times.
#[test]
fn quarantine_in_iteration_2_keeps_the_iteration_1_psi() {
    let dir = std::env::temp_dir().join(format!("ls3df-fault-psi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = model_crystal([2, 2, 2], 6.5);
    let mut first = small_builder(&s, 1)
        .checkpoint(CheckpointConfig {
            dir: dir.clone(),
            policy: CheckpointPolicy::EveryN(1),
            keep_last: 1,
        })
        .build()
        .expect("valid test geometry");
    let _ = first.scf();
    let after_iteration_1 = first.fragment_psi_digest(7);

    let mut calc = small_builder(&s, 2)
        .resume_from(dir.join("scf-000001.ls3df"))
        .build()
        .expect("resumable snapshot");
    assert_eq!(calc.fragment_psi_digest(7), after_iteration_1);
    // Consumed in this order: two panics, then two solver errors.
    calc.inject_fragment_fault(7, InjectedFault::Panic, 2);
    calc.inject_fragment_fault(7, InjectedFault::SolverError, 2);
    let mut log = FaultLog::default();
    let res = calc.scf_with(&mut log);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(log.steps, 1, "the resumed run is iteration 2 alone");
    assert_eq!(log.quarantines.len(), 1);
    let (iteration, record) = &log.quarantines[0];
    assert_eq!(
        (*iteration, record.fragment, record.faults.len()),
        (2, 7, 4)
    );
    assert_eq!(calc.fragment_psi_digest(7), after_iteration_1);
    assert_ne!(calc.fragment_psi_digest(6), first.fragment_psi_digest(6));
    assert!((res.rho.integrate() - calc.n_electrons()).abs() < 1e-8);
}

/// The retry ladder is deterministic: the same failure replayed twice
/// produces the same fault stream and a bit-identical final density.
#[test]
fn recovery_is_deterministic() {
    let run = || {
        let mut calc = small_calc(2);
        calc.inject_fragment_fault(3, InjectedFault::SolverError, 2);
        calc.inject_fragment_fault(7, InjectedFault::Panic, 4);
        let mut log = FaultLog::default();
        let res = calc.scf_with(&mut log);
        (res, log)
    };
    let ((res_a, log_a), (res_b, log_b)) = (run(), run());
    let render = |log: &FaultLog| -> Vec<String> {
        log.retries
            .iter()
            .map(|(it, f)| format!("iter {it}: {f}"))
            .collect()
    };
    assert_eq!(render(&log_a), render(&log_b), "fault streams diverged");
    let diverging = res_a
        .rho
        .as_slice()
        .iter()
        .zip(res_b.rho.as_slice())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    assert_eq!(
        diverging, 0,
        "{diverging} grid points differ between reruns"
    );
}

/// `Ls3dfResult::quarantined` stays empty on a healthy run (the field is
/// load-bearing for monitoring: noise would train operators to ignore it).
#[test]
fn healthy_run_reports_no_faults() {
    let mut calc = small_calc(1);
    let mut log = FaultLog::default();
    let res = calc.scf_with(&mut log);
    assert!(res.quarantined.is_empty());
    assert!(log.retries.is_empty());
    assert!(log.quarantines.is_empty());
}
