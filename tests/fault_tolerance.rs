//! Fault-tolerant fragment execution: injected fragment failures (panics
//! and solver errors) must be retried on the deterministic ladder and, if
//! the whole ladder fails, quarantined — with the run completing and every
//! event visible through the `ScfObserver` hooks. At production scale one
//! pathological fragment must never abort a multi-day calculation.

use ls3df::core::{Ls3df, Ls3dfOptions, Ls3dfStep, Passivation};
use ls3df::{FragmentFault, InjectedFault, QuarantineRecord, RetryAction, ScfObserver};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn small_calc(max_scf: usize) -> Ls3df {
    let s = model_crystal([2, 2, 2], 6.5);
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
    Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid test geometry")
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
