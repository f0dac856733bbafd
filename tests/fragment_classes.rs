//! Translation classes: fragments that pose the same eigenproblem are
//! solved once per PEtot_F round and share the solution.
//!
//! * the class census of ideal crystals, pristine ZnTe and the relaxed
//!   alloy (where nothing is shared);
//! * an atom displaced by 1e-7 Bohr splits classes, and the density moves
//!   no more than the displacement does;
//! * the group plan keeps every class inside one group and leaves a
//!   classless system's plan as it was;
//! * a fault injected into a class member is retried or quarantined just
//!   as one injected into its representative.

use ls3df::core::{
    plan_class_groups, plan_groups, Effort, Ls3df, Ls3dfOptions, Ls3dfStep, Passivation,
};
use ls3df::{FragmentFault, InjectedFault, QuarantineRecord, ScfObserver, Structure};
use ls3df_atoms::{model_crystal, relax, znteo_alloy, ZNTE_LATTICE};
use ls3df_pseudo::PseudoTable;

/// The crystal8 set on 6-point pieces (the fault-tolerance options).
fn crystal_opts(max_scf: usize) -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 12,
        fragment_tol: 1e-9,
        max_scf,
        tol: 1e-12,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    }
}

/// The alloy at the `znteo64_iter` fidelity, built but never solved.
fn alloy_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.2,
        piece_pts: [6, 6, 6],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::PseudoH,
        n_extra_bands: 2,
        ..Default::default()
    }
}

fn build(s: &Structure, m: [usize; 3], opts: Ls3dfOptions) -> Ls3df {
    Ls3df::builder(s)
        .fragments(m)
        .options(opts)
        .build()
        .expect("valid test geometry")
}

fn n_classes(calc: &Ls3df) -> usize {
    let reps = calc.representatives();
    (0..reps.len()).filter(|&i| reps[i] == i).count()
}

fn relaxed_alloy(seed: u64) -> Structure {
    let mut s = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.03125, seed);
    relax(&mut s, 1e-4, 3000);
    s
}

/// Fragments that solved in the last PEtot_F round: the representatives,
/// and the members whose ψ is not a bit-exact copy of their
/// representative's.
fn solved_last_round(calc: &Ls3df) -> usize {
    let reps = calc.representatives();
    (0..reps.len())
        .filter(|&i| {
            reps[i] == i || calc.fragment_psi_digest(i) != calc.fragment_psi_digest(reps[i])
        })
        .count()
}

/// Largest max-abs Gen_VF difference between a member and its
/// representative.
fn member_vf_asymmetry(calc: &Ls3df) -> f64 {
    let (vfs, reps) = (calc.gen_vf(), calc.representatives());
    (0..vfs.len())
        .flat_map(|i| {
            let rep = &vfs[reps[i]];
            vfs[i]
                .as_slice()
                .iter()
                .zip(rep.as_slice())
                .map(|(a, b)| (a - b).abs())
        })
        .fold(0.0, f64::max)
}

#[test]
fn class_census_of_crystals_pristine_znte_and_the_relaxed_alloy() {
    let crystal8 = build(&model_crystal([2, 2, 2], 6.5), [2, 2, 2], crystal_opts(1));
    assert_eq!(n_classes(&crystal8), 8);
    // Every fragment of one size shares the representative at corner 0.
    let fragments = crystal8.fg.fragments();
    for (i, &rep) in crystal8.representatives().iter().enumerate() {
        assert_eq!(fragments[rep].size, fragments[i].size);
        assert_eq!(fragments[rep].corner, [0, 0, 0]);
    }
    let crystal27 = build(&model_crystal([3, 3, 3], 6.5), [3, 3, 3], crystal_opts(1));
    assert_eq!((crystal27.n_fragments(), n_classes(&crystal27)), (216, 8));

    let pristine = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.0, 42);
    assert_eq!(n_classes(&build(&pristine, [2, 2, 2], alloy_opts())), 8);
    for seed in [42, 7] {
        let alloy = build(&relaxed_alloy(seed), [2, 2, 2], alloy_opts());
        assert_eq!(n_classes(&alloy), 64, "seed {seed}");
    }
}

#[test]
fn a_displaced_atom_splits_classes_and_barely_moves_the_density() {
    let ideal = model_crystal([2, 2, 2], 6.5);
    let mut displaced = ideal.clone();
    displaced.atoms[5].pos[1] += 1e-7;

    let mut calc = build(&displaced, [2, 2, 2], crystal_opts(2));
    assert!(n_classes(&calc) > 8, "{} classes", n_classes(&calc));
    let effort = Effort {
        cg_steps: 6,
        rounds: 1,
    };
    for round in 1..=2 {
        calc.respond(effort).expect("one rank");
        let solved = solved_last_round(&calc);
        assert!(solved > 8, "round {round}: {solved} solves");
    }

    // The ideal crystal's members stay within rounding of their
    // representatives, far inside `fragment_tol`, so all of them share.
    let mut ideal_calc = build(&ideal, [2, 2, 2], crystal_opts(2));
    let a = ideal_calc.scf();
    assert!(member_vf_asymmetry(&ideal_calc) < 1e-11);
    assert_eq!(solved_last_round(&ideal_calc), 8);
    let b = build(&displaced, [2, 2, 2], crystal_opts(2)).scf();
    let drift = a.rho.diff(&b.rho).integrate_abs() / ideal.num_electrons();
    assert!(drift <= 1e-6, "∫|Δρ|/N_e = {drift:e}");
}

#[test]
fn no_class_spans_groups_and_the_alloy_plans_as_without_classes() {
    let s = model_crystal([2, 2, 2], 6.5);
    let calc = build(&s, [2, 2, 2], crystal_opts(1));
    let reps = calc.representatives();
    assert_eq!(calc.group_plan(), &plan_class_groups(&calc.fg, &s, reps, 1));
    for groups in [2, 4] {
        let plan = plan_class_groups(&calc.fg, &s, reps, groups);
        for (i, &rep) in reps.iter().enumerate() {
            assert_eq!(plan.owner[i], plan.owner[rep], "{groups} groups");
        }
        assert!(plan.groups.iter().all(|g| !g.is_empty()), "{groups} groups");
    }

    let alloy = relaxed_alloy(42);
    let calc = build(&alloy, [2, 2, 2], alloy_opts());
    assert_eq!(calc.group_plan(), &plan_groups(&calc.fg, &alloy, 1));
    for groups in [2, 4] {
        assert_eq!(
            plan_class_groups(&calc.fg, &alloy, calc.representatives(), groups),
            plan_groups(&calc.fg, &alloy, groups)
        );
    }
}

/// Supervision events, the fragment index written as `F` when it is the
/// injected one.
struct Events {
    injected: usize,
    log: Vec<String>,
}

impl ScfObserver for &mut Events {
    fn on_step(&mut self, step: &Ls3dfStep) {
        self.log.push(format!("step:{}", step.iteration));
    }
    fn on_fragment_retry(&mut self, iteration: usize, fault: &FragmentFault) {
        let who = if fault.fragment == self.injected {
            "F".to_string()
        } else {
            fault.fragment.to_string()
        };
        self.log.push(format!(
            "retry:{iteration}:{who}:{}:{}",
            fault.attempt,
            fault.action.name()
        ));
    }
    fn on_fragment_quarantined(&mut self, iteration: usize, record: &QuarantineRecord) {
        assert_eq!(record.fragment, self.injected);
        self.log
            .push(format!("quarantine:{iteration}:{}", record.faults.len()));
    }
}

#[test]
fn a_fault_on_a_member_is_supervised_like_one_on_its_representative() {
    let s = model_crystal([2, 2, 2], 6.5);
    let run = |fragment: usize, fault: InjectedFault, attempts: usize| {
        let mut calc = build(&s, [2, 2, 2], crystal_opts(2));
        assert_eq!(calc.representatives()[11], 3);
        calc.inject_fragment_fault(fragment, fault, attempts);
        let mut events = Events {
            injected: fragment,
            log: Vec::new(),
        };
        let res = calc.scf_with(&mut events);
        assert!((res.rho.integrate() - calc.n_electrons()).abs() < 1e-8);
        assert!(res.quarantined.iter().all(|r| r.fragment == fragment));
        (events.log, res.quarantined.len())
    };
    // One recoverable error, then a whole ladder of panics.
    for (fault, attempts, quarantines) in [
        (InjectedFault::SolverError, 1, 0),
        (InjectedFault::Panic, 4, 1),
    ] {
        let (rep_log, rep_quarantines) = run(3, fault, attempts);
        let (member_log, member_quarantines) = run(11, fault, attempts);
        assert!(rep_log.iter().any(|e| e.starts_with("retry:1:F:0")));
        assert_eq!(member_log, rep_log, "{fault:?} ×{attempts}");
        assert_eq!(
            (rep_quarantines, member_quarantines),
            (quarantines, quarantines)
        );
    }
}
