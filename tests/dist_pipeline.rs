//! What a multi-group run must share with the one-group run besides the
//! density digest (`tests/dist_digest.rs`): the observer event stream of
//! the global rank when fragments owned by *another* rank fail, and the
//! snapshots — cut on rank 0 from gathered wavefunctions — resuming
//! under any group count.
//!
//! Same SPMD child pattern as `tests/dist_digest.rs`: the parent re-execs
//! this binary with the group count in a `*_CHILD` variable; the child's
//! `build()` spawns its workers, which inherit the variable and re-exec
//! the same test again. Only the launcher's stdout reaches the parent.

mod common;

use common::resume_digest;
use ls3df::core::{plan_groups, Ls3df, Ls3dfOptions, Ls3dfStep, Passivation};
use ls3df::CheckpointConfig;
use ls3df::{FragmentFault, InjectedFault, QuarantineRecord, ScfObserver, ScfStage};
use ls3df_atoms::{model_crystal, Structure};
use ls3df_pseudo::PseudoTable;
use std::path::{Path, PathBuf};

const MAX_SCF: usize = 4;
/// The iteration the "kill" happens after (resume picks up at 3).
const KILL_AFTER: usize = 2;

fn small_opts(max_scf: usize) -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 4,
        initial_cg_steps: 6,
        fragment_tol: 1e-9,
        max_scf,
        tol: 1e-6, // unreachable in 4 iterations: every leg runs the full cap
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    }
}

fn crystal() -> Structure {
    model_crystal([2, 2, 2], 6.5)
}

/// Re-execs this binary as `test_name` with `env` set; returns the
/// launcher's stdout.
fn spawn_child(test_name: &str, env: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--exact", test_name, "--nocapture"])
        .env("LS3DF_THREADS", "1");
    for (key, value) in env {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{test_name} child {env:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn grab(stdout: &str, key: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.split(key).nth(1))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no {key} line from child:\n{stdout}"))
        .to_string()
}

/// Every observer event as one text token (names and indices only — no
/// seconds), in arrival order.
#[derive(Default)]
struct EventLog {
    events: Vec<String>,
}

impl ScfObserver for &mut EventLog {
    fn on_step(&mut self, step: &Ls3dfStep) {
        self.events.push(format!("step:{}", step.iteration));
    }
    fn on_stage(&mut self, iteration: usize, stage: ScfStage, _seconds: f64) {
        self.events
            .push(format!("stage:{iteration}:{}", stage.name()));
    }
    fn on_converged(&mut self, step: &Ls3dfStep) {
        self.events.push(format!("converged:{}", step.iteration));
    }
    fn on_fragment_retry(&mut self, iteration: usize, fault: &FragmentFault) {
        self.events.push(format!(
            "retry:{iteration}:{}:{}:{}",
            fault.fragment,
            fault.attempt,
            fault.action.name()
        ));
    }
    fn on_fragment_quarantined(&mut self, iteration: usize, record: &QuarantineRecord) {
        self.events.push(format!(
            "quarantine:{iteration}:{}:{}",
            record.fragment,
            record.faults.len()
        ));
    }
}

/// Child half of the fault-replay gate (inert under a plain
/// `cargo test`; `LS3DF_DIST_EVENTS_CHILD` holds the group count). Every rank queues the same injections (SPMD) on two
/// fragments that rank 1 owns in a 2-group plan: one recoverable solver
/// error and one fragment that burns the whole ladder every iteration.
#[test]
fn fault_events_child() {
    let Ok(groups) = std::env::var("LS3DF_DIST_EVENTS_CHILD") else {
        return;
    };
    let s = crystal();
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts(2))
        .groups(
            groups
                .parse()
                .expect("group count in LS3DF_DIST_EVENTS_CHILD"),
        )
        .build()
        .expect("valid test geometry");
    // Chosen from the 2-group plan at every world size, so the 1-group
    // leg fails the very same fragments.
    let remote = &plan_groups(&calc.fg, &s, 2).groups[1];
    let (retried, doomed) = (remote[0], remote[remote.len() - 1]);
    assert_ne!(retried, doomed, "rank 1 must own at least two fragments");
    calc.inject_fragment_fault(retried, InjectedFault::SolverError, 1);
    calc.inject_fragment_fault(doomed, InjectedFault::Panic, 100);
    let mut log = EventLog::default();
    let res = calc
        .try_scf_with(&mut log)
        .expect("a quarantined fragment must not fail the run");
    let quarantined: Vec<String> = res
        .quarantined
        .iter()
        .map(|r| format!("{}:{}", r.fragment, r.faults.len()))
        .collect();
    println!("LS3DF_EVENTS={}", log.events.join(","));
    println!("LS3DF_QUARANTINED={}", quarantined.join(","));
    println!("LS3DF_INJECTED={retried},{doomed}");
    println!("LS3DF_DIGEST={:016x}", resume_digest(&res));
}

/// Faults on fragments rank 1 owns reach rank 0's observer through the
/// PEtot report fold: the event stream, the quarantine list and the
/// density (the doomed fragment patches its restore-buffer density,
/// under the remote quarantine flag) equal the one-group run's.
#[test]
fn remote_faults_replay_like_the_one_group_run() {
    let run =
        |groups: &str| spawn_child("fault_events_child", &[("LS3DF_DIST_EVENTS_CHILD", groups)]);
    let one = run("1");
    let two = run("2");
    let events = grab(&one, "LS3DF_EVENTS=");
    let injected = grab(&one, "LS3DF_INJECTED=");
    let (retried, doomed) = injected.split_once(',').expect("two injected fragments");
    // The stream is not vacuous: one retry on the recoverable fragment,
    // a full ladder and a quarantine per iteration on the doomed one.
    assert!(
        events.contains(&format!("retry:1:{retried}:0:primary")),
        "{events}"
    );
    for iteration in 1..=2 {
        assert!(
            events.contains(&format!("retry:{iteration}:{doomed}:3:reduced-cg")),
            "{events}"
        );
        assert!(
            events.contains(&format!("quarantine:{iteration}:{doomed}:4")),
            "{events}"
        );
    }
    assert_eq!(
        grab(&one, "LS3DF_QUARANTINED="),
        format!("{doomed}:4,{doomed}:4")
    );
    for key in ["LS3DF_EVENTS=", "LS3DF_QUARANTINED=", "LS3DF_DIGEST="] {
        assert_eq!(
            grab(&two, key),
            grab(&one, key),
            "{key} differs between the 2-group and the 1-group run"
        );
    }
}

fn build_ckpt(groups: usize, ckpt: Option<CheckpointConfig>, resume: Option<&Path>) -> Ls3df {
    let s = crystal();
    let mut b = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts(MAX_SCF))
        .groups(groups);
    if let Some(cfg) = ckpt {
        b = b.checkpoint(cfg);
    }
    if let Some(path) = resume {
        b = b.resume_from(path);
    }
    b.build().expect("valid test geometry")
}

/// Child half of the resume gate (inert under a plain `cargo test`):
/// `LS3DF_GROUP_CKPT_CHILD` is `<leg>:<groups>`. Leg `full` runs
/// uninterrupted, snapshotting every iteration into `LS3DF_CKPT_DIR`;
/// `resume` continues from `LS3DF_CKPT_SNAPSHOT`.
#[test]
fn group_ckpt_child() {
    let Ok(marker) = std::env::var("LS3DF_GROUP_CKPT_CHILD") else {
        return;
    };
    let (leg, groups) = marker.split_once(':').expect("<leg>:<groups>");
    let groups = groups.parse().expect("group count");
    let mut calc = if leg == "full" {
        let dir = PathBuf::from(std::env::var("LS3DF_CKPT_DIR").expect("LS3DF_CKPT_DIR"));
        // Keeps the last three: iterations 2, 3, 4 — the parent picks 2.
        build_ckpt(groups, Some(CheckpointConfig::every_n(dir, 1)), None)
    } else {
        let snap =
            PathBuf::from(std::env::var("LS3DF_CKPT_SNAPSHOT").expect("LS3DF_CKPT_SNAPSHOT"));
        build_ckpt(groups, None, Some(&snap))
    };
    let res = calc.try_scf().expect("SCF must complete");
    println!("LS3DF_DIGEST={:016x}", resume_digest(&res));
}

/// A 2-group run snapshotted every iteration and killed after iteration
/// 2 resumes — in a fresh process, under one group and under two — onto
/// the digest of the run that was never interrupted: rank 0's snapshots
/// carry every rank's wavefunctions and do not depend on the group count.
#[test]
fn two_group_snapshot_resumes_under_any_group_count() {
    let dir = std::env::temp_dir().join(format!("ls3df-group-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().expect("utf-8 temp dir");
    let full = spawn_child(
        "group_ckpt_child",
        &[
            ("LS3DF_GROUP_CKPT_CHILD", "full:2"),
            ("LS3DF_CKPT_DIR", dir_str),
        ],
    );
    let snap = dir.join(format!("scf-{KILL_AFTER:06}.ls3df"));
    assert!(
        snap.exists(),
        "the 2-group run left no iteration-{KILL_AFTER} snapshot in {}",
        dir.display()
    );
    for groups in ["1", "2"] {
        let resumed = spawn_child(
            "group_ckpt_child",
            &[
                ("LS3DF_GROUP_CKPT_CHILD", &format!("resume:{groups}")),
                ("LS3DF_CKPT_SNAPSHOT", snap.to_str().expect("utf-8 path")),
            ],
        );
        assert_eq!(
            grab(&resumed, "LS3DF_DIGEST="),
            grab(&full, "LS3DF_DIGEST="),
            "resume from iteration {KILL_AFTER} under {groups} group(s) diverged \
             from the uninterrupted 2-group run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
