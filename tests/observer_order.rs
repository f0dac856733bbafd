//! Observer hook-ordering contract of [`Ls3df::scf_with`]:
//!
//! * `on_stage` fires for all four stages (Gen_VF, PEtot_F, Gen_dens,
//!   GENPOT, in that order) before the iteration's `on_step`;
//! * `on_converged` fires at most once, and only after the converging
//!   step's `on_step`;
//! * fault hooks (`on_fragment_retry`, `on_fragment_quarantined`) fire
//!   in fragment order within an iteration, regardless of how the pool
//!   scheduled the parallel solves.
//!
//! Downstream observers (TraceObserver, bench printers, future tracing
//! backends) bake these assumptions in; this test pins them.

use ls3df::core::{Ls3df, Ls3dfOptions, Ls3dfStep, Passivation};
use ls3df::{FragmentFault, InjectedFault, QuarantineRecord, ScfObserver, ScfStage};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn small_calc(max_scf: usize, tol: f64) -> Ls3df {
    let s = model_crystal([2, 2, 2], 6.5);
    let opts = Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 4,
        initial_cg_steps: 8,
        fragment_tol: 1e-9,
        max_scf,
        tol,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    };
    Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid test geometry")
}

/// Every observer event, in arrival order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Stage(usize, &'static str),
    Step(usize),
    Converged(usize),
    Retry(usize, usize),      // (iteration, fragment)
    Quarantine(usize, usize), // (iteration, fragment)
}

#[derive(Default)]
struct OrderLog {
    events: Vec<Event>,
}

impl ScfObserver for &mut OrderLog {
    fn on_step(&mut self, step: &Ls3dfStep) {
        self.events.push(Event::Step(step.iteration));
    }
    fn on_stage(&mut self, iteration: usize, stage: ScfStage, _seconds: f64) {
        self.events.push(Event::Stage(iteration, stage.name()));
    }
    fn on_converged(&mut self, step: &Ls3dfStep) {
        self.events.push(Event::Converged(step.iteration));
    }
    fn on_fragment_retry(&mut self, iteration: usize, fault: &FragmentFault) {
        self.events.push(Event::Retry(iteration, fault.fragment));
    }
    fn on_fragment_quarantined(&mut self, iteration: usize, record: &QuarantineRecord) {
        self.events
            .push(Event::Quarantine(iteration, record.fragment));
    }
}

/// All four stages fire, in paper order, before the iteration's step
/// event — for every iteration.
#[test]
fn stages_fire_in_order_before_step() {
    let mut calc = small_calc(3, 1e-12);
    let mut log = OrderLog::default();
    let _res = calc.scf_with(&mut log);

    for iteration in 1..=3 {
        let expect = [
            Event::Stage(iteration, "Gen_VF"),
            Event::Stage(iteration, "PEtot_F"),
            Event::Stage(iteration, "Gen_dens"),
            Event::Stage(iteration, "GENPOT"),
            Event::Step(iteration),
        ];
        let got: Vec<&Event> = log
            .events
            .iter()
            .filter(|e| {
                matches!(e,
                    Event::Stage(i, _) | Event::Step(i) if *i == iteration)
            })
            .collect();
        assert_eq!(
            got,
            expect.iter().collect::<Vec<_>>(),
            "iteration {iteration} event order"
        );
    }
    assert!(
        !log.events.iter().any(|e| matches!(e, Event::Converged(_))),
        "tol 1e-12 must not converge in 3 iterations"
    );
}

/// `on_converged` fires exactly once on a converging run, after that
/// step's `on_step`, and the loop stops there.
#[test]
fn converged_fires_at_most_once_after_its_step() {
    // Huge tolerance: iteration 1 converges immediately.
    let mut calc = small_calc(10, 1e9);
    let mut log = OrderLog::default();
    let res = calc.scf_with(&mut log);
    assert!(res.converged);

    let converged: Vec<usize> = log
        .events
        .iter()
        .enumerate()
        .filter_map(|(pos, e)| matches!(e, Event::Converged(_)).then_some(pos))
        .collect();
    assert_eq!(converged.len(), 1, "on_converged must fire exactly once");
    let step_pos = log
        .events
        .iter()
        .position(|e| matches!(e, Event::Step(1)))
        .expect("step event");
    assert!(
        converged[0] > step_pos,
        "on_converged must fire after the converging on_step"
    );
    // The run stopped at iteration 1: no events from a second iteration.
    assert!(!log.events.contains(&Event::Step(2)));
}

/// Injected faults on out-of-order fragments surface through the retry
/// hook in fragment order, and a fully failing fragment's quarantine
/// event follows the retries.
#[test]
fn fault_hooks_fire_in_fragment_order() {
    let mut calc = small_calc(1, 1e-12);
    // One recoverable fault each on fragments 5 and 1 (injection order
    // deliberately reversed vs fragment order), and an unrecoverable
    // fragment 3 (every ladder rung fails → quarantine).
    calc.inject_fragment_fault(5, InjectedFault::SolverError, 1);
    calc.inject_fragment_fault(1, InjectedFault::Panic, 1);
    calc.inject_fragment_fault(3, InjectedFault::SolverError, 100);
    let mut log = OrderLog::default();
    let res = calc.scf_with(&mut log);
    assert_eq!(res.quarantined.len(), 1);

    let retry_fragments: Vec<usize> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Retry(_, fragment) => Some(*fragment),
            _ => None,
        })
        .collect();
    let mut sorted = retry_fragments.clone();
    sorted.sort_unstable();
    assert_eq!(
        retry_fragments, sorted,
        "retry events must arrive in fragment order"
    );
    assert!(retry_fragments.contains(&1) && retry_fragments.contains(&5));
    // Fragment 3 burned the whole ladder: several retries then quarantine.
    assert!(retry_fragments.iter().filter(|&&f| f == 3).count() > 1);
    let quarantine_pos = log
        .events
        .iter()
        .position(|e| matches!(e, Event::Quarantine(1, 3)))
        .expect("quarantine event");
    let last_retry = log
        .events
        .iter()
        .rposition(|e| matches!(e, Event::Retry(_, _)))
        .expect("retry events");
    assert!(
        quarantine_pos > last_retry,
        "quarantines replay after all retries"
    );
}
