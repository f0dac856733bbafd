//! Worker-failure robustness for the processor-group transport: killing
//! a worker process mid-iteration must surface as a **typed**
//! [`ls3df::Ls3dfError::Comm`] naming the dead rank — never a hang. The
//! bounded receive (`LS3DF_DIST_TIMEOUT_MS`) is the backstop; the hub's
//! reader threads normally detect the closed socket well before it.
//!
//! Same SPMD child pattern as `tests/dist_digest.rs`: the parent re-execs
//! this binary with `LS3DF_DIST_FAULT_CHILD=1` (or
//! `LS3DF_DIST_FAULT_OBS_CHILD=1`); the child builds a two-group world
//! (`.groups(2)`), so it is the launcher (rank 0). It kills its own
//! rank-1 worker from an observer hook between Gen_VF and the PEtot
//! report receive, and checks the error it gets back.

use ls3df::core::observer::{ScfObserver, ScfStage};
use ls3df::core::{Ls3df, Ls3dfError, Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

fn small_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8, 8, 8],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 4,
        initial_cg_steps: 6,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 2,
        tol: 1e-4,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
    }
}

/// Kills worker rank 1 the moment the launcher finishes Gen_VF of the
/// first iteration — i.e. while the worker is (or is about to be) busy
/// solving, before its PEtot report can arrive.
struct KillWorkerMidIteration {
    killed: bool,
}

impl ScfObserver for KillWorkerMidIteration {
    fn on_stage(&mut self, iteration: usize, stage: ScfStage, _seconds: f64) {
        if iteration == 1 && stage == ScfStage::GenVf && !self.killed {
            self.killed = ls3df::dist::kill_worker(1);
            assert!(self.killed, "kill_worker(1) found no spawned worker");
        }
    }
}

/// Child half (inert under a plain `cargo test`): launches a 2-group
/// world, kills rank 1 mid-iteration, and requires a typed Comm error
/// that names the dead rank.
#[test]
fn dist_fault_child() {
    if std::env::var("LS3DF_DIST_FAULT_CHILD").is_err() {
        return;
    }
    // Workers re-exec this test and land here too; their build() joins
    // the world and their SCF dies with the hub — rank 1 by the kill,
    // any others by bounded receive. Only rank 0's verdict matters.
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts())
        .groups(2)
        .build()
        .expect("2-group world must bootstrap");
    if calc.comm().rank() != 0 {
        // A worker rank: run the loop; it is expected to fail once the
        // launcher stops participating. Exit quietly either way.
        let _ = calc.try_scf();
        return;
    }
    let err = match calc.try_scf_with(KillWorkerMidIteration { killed: false }) {
        Err(e) => e,
        Ok(_) => panic!("SCF must fail, not hang, when a worker dies"),
    };
    let Ls3dfError::Comm(comm_err) = &err else {
        panic!("expected Ls3dfError::Comm, got: {err}");
    };
    let msg = err.to_string();
    assert!(
        msg.contains("rank 1"),
        "error must name the dead rank: {msg} ({comm_err:?})"
    );
    println!("LS3DF_FAULT_OK={msg}");
}

/// The parent gate: the child must exit successfully (no hang — the
/// 15 s receive bound backstops the reader-thread EOF detection) and
/// report the typed error naming rank 1.
#[test]
fn killed_worker_surfaces_as_typed_error_naming_the_rank() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args(["--exact", "dist_fault_child", "--nocapture"])
        .env("LS3DF_DIST_FAULT_CHILD", "1")
        .env("LS3DF_DIST_TIMEOUT_MS", "15000")
        .env("LS3DF_THREADS", "2")
        .output()
        .expect("spawn dist_fault_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "fault child failed:\n{stdout}\n{stderr}"
    );
    let line = stdout
        .lines()
        .find(|l| l.contains("LS3DF_FAULT_OK="))
        .unwrap_or_else(|| panic!("no LS3DF_FAULT_OK line:\n{stdout}\n{stderr}"));
    assert!(
        line.contains("rank 1"),
        "typed error must name the dead rank: {line}"
    );
}

/// Child half of the observability leg (inert under a plain
/// `cargo test`): the same kill scenario collected through a
/// [`ls3df::core::TraceObserver`] — the merged report must
/// carry a `ranks` section where the dead rank is `down` with a typed
/// comm-error kind, and `telemetry_incomplete` must be set.
#[test]
fn dist_fault_obs_child() {
    if std::env::var("LS3DF_DIST_FAULT_OBS_CHILD").is_err() {
        return;
    }
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts())
        .groups(2)
        .build()
        .expect("2-group world must bootstrap");
    if calc.comm().rank() != 0 {
        let _ = calc.try_scf();
        return;
    }
    let mut tracer = ls3df::core::TraceObserver::new("dist-fault-obs");
    // The kill hook and the collector ride the same observer slot.
    struct KillAndTrace<'a> {
        kill: KillWorkerMidIteration,
        tracer: &'a mut ls3df::core::TraceObserver,
    }
    impl ScfObserver for KillAndTrace<'_> {
        fn on_stage(&mut self, iteration: usize, stage: ScfStage, seconds: f64) {
            self.kill.on_stage(iteration, stage, seconds);
            let mut t = &mut *self.tracer;
            t.on_stage(iteration, stage, seconds);
        }
    }
    let err = match calc.try_scf_with(KillAndTrace {
        kill: KillWorkerMidIteration { killed: false },
        tracer: &mut tracer,
    }) {
        Err(e) => e,
        Ok(_) => panic!("SCF must fail, not hang, when a worker dies"),
    };
    assert!(
        matches!(err, Ls3dfError::Comm(_)),
        "typed Comm error: {err}"
    );
    let report = tracer.finish();
    assert!(
        report.telemetry_incomplete,
        "a dead worker must flag the merged report incomplete"
    );
    assert_eq!(report.ranks.len(), 2, "one rank section per group");
    let kind = match &report.ranks[1].status {
        ls3df::obs::RankStatus::Down { kind } => kind.clone(),
        other => panic!("rank 1 must be down in the merged report, got {other:?}"),
    };
    assert!(
        kind == "rank_down" || kind == "timeout",
        "down kind must be a typed comm-error kind: {kind}"
    );
    // The assembled document still validates against the schema.
    let text = report.to_json().render();
    ls3df::obs::report::validate_report_str(&text).expect("fault report must stay schema-valid");
    println!("LS3DF_FAULT_OBS_OK={kind}");
}

/// Parent gate for the observability leg: only meaningful when spans
/// and counters are compiled in.
#[test]
fn killed_worker_lands_down_in_merged_report() {
    if !ls3df::obs::ENABLED {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args(["--exact", "dist_fault_obs_child", "--nocapture"])
        .env("LS3DF_DIST_FAULT_OBS_CHILD", "1")
        .env("LS3DF_DIST_TIMEOUT_MS", "15000")
        .env("LS3DF_THREADS", "2")
        .output()
        .expect("spawn dist_fault_obs_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "obs fault child failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.lines().any(|l| l.contains("LS3DF_FAULT_OBS_OK=")),
        "no LS3DF_FAULT_OBS_OK line:\n{stdout}\n{stderr}"
    );
}
