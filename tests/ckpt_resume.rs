//! Kill-and-resume determinism: a run checkpointed at iteration k and
//! resumed in a *fresh process* must produce a final density bit-identical
//! to the run that was never interrupted — under `LS3DF_THREADS=1` and
//! full host parallelism. The pool is configured once per process, so
//! each leg runs in a subprocess (this test binary re-execed with
//! `--exact <child test>`), which also makes the "kill" real: the resumed
//! process shares no memory with the one that wrote the snapshot.

mod common;

use common::resume_digest;
use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::{CheckpointConfig, CheckpointPolicy};
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;
use std::path::{Path, PathBuf};

const MAX_SCF: usize = 4;
/// The iteration the "kill" happens after (resume picks up at 3).
const KILL_AFTER: usize = 2;

fn small_opts() -> Ls3dfOptions {
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
        max_scf: MAX_SCF,
        tol: 1e-6, // unreachable in 4 iterations: both legs run the full cap
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    }
}

fn build(ckpt: Option<CheckpointConfig>, resume: Option<&Path>) -> Ls3df {
    let s = model_crystal([2, 2, 2], 6.5);
    let mut b = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(small_opts());
    if let Some(cfg) = ckpt {
        b = b.checkpoint(cfg);
    }
    if let Some(path) = resume {
        b = b.resume_from(path);
    }
    b.build().expect("valid test geometry")
}

/// Child leg A: the uninterrupted reference run, checkpointing every
/// iteration into `LS3DF_CKPT_DIR` (so the parent can pick the
/// iteration-`KILL_AFTER` snapshot for leg B).
#[test]
fn ckpt_child_full() {
    if std::env::var("LS3DF_CKPT_CHILD").as_deref() != Ok("full") {
        return;
    }
    let dir = PathBuf::from(std::env::var("LS3DF_CKPT_DIR").expect("LS3DF_CKPT_DIR"));
    let mut calc = build(
        Some(CheckpointConfig {
            dir,
            policy: CheckpointPolicy::EveryN(1),
            keep_last: MAX_SCF + 1, // keep them all; the parent picks one
        }),
        None,
    );
    let res = calc.scf();
    println!("LS3DF_DIGEST={:016x}", resume_digest(&res));
}

/// Child leg B: a fresh process resuming from the snapshot the parent
/// chose, running to the same iteration cap.
#[test]
fn ckpt_child_resume() {
    if std::env::var("LS3DF_CKPT_CHILD").as_deref() != Ok("resume") {
        return;
    }
    let snap = PathBuf::from(std::env::var("LS3DF_CKPT_SNAPSHOT").expect("LS3DF_CKPT_SNAPSHOT"));
    let mut calc = build(None, Some(&snap));
    let res = calc.scf();
    println!("LS3DF_DIGEST={:016x}", resume_digest(&res));
}

fn run_child(child: &str, threads: &str, dir: &Path, snapshot: Option<&Path>) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let test_name = match child {
        "full" => "ckpt_child_full",
        _ => "ckpt_child_resume",
    };
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--exact", test_name, "--nocapture"])
        .env("LS3DF_CKPT_CHILD", child)
        .env("LS3DF_THREADS", threads)
        .env("LS3DF_CKPT_DIR", dir);
    if let Some(s) = snapshot {
        cmd.env("LS3DF_CKPT_SNAPSHOT", s);
    }
    let out = cmd.output().expect("spawn checkpoint child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{child} child (LS3DF_THREADS={threads}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.split("LS3DF_DIGEST=").nth(1))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no digest line from {child} child:\n{stdout}"))
        .to_string()
}

/// The determinism contract of ISSUE/DESIGN §7: checkpoint + kill +
/// resume must be bit-identical to never having stopped, at 1 thread and
/// at full host parallelism.
#[test]
fn kill_and_resume_is_bit_identical() {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .to_string();
    for threads in ["1", max.as_str()] {
        let dir = std::env::temp_dir().join(format!(
            "ls3df-ckpt-resume-{}-t{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let full = run_child("full", threads, &dir, None);
        let snap = dir.join(format!("scf-{KILL_AFTER:06}.ls3df"));
        assert!(
            snap.exists(),
            "full run left no iteration-{KILL_AFTER} snapshot in {}",
            dir.display()
        );
        let resumed = run_child("resume", threads, &dir, Some(&snap));
        assert_eq!(
            resumed, full,
            "resume from iteration {KILL_AFTER} diverged from the uninterrupted \
             run at LS3DF_THREADS={threads}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rotation: `keep_last` bounds the snapshot directory no matter how many
/// iterations run, and the newest snapshot is always the survivor.
#[test]
fn rotation_keeps_only_the_newest_snapshots() {
    let dir = std::env::temp_dir().join(format!("ls3df-ckpt-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut calc = build(
        Some(CheckpointConfig {
            dir: dir.clone(),
            policy: CheckpointPolicy::EveryN(1),
            keep_last: 2,
        }),
        None,
    );
    let _ = calc.scf();
    let kept = ls3df::ckpt::list_snapshots(&dir).expect("list snapshots");
    let iterations: Vec<usize> = kept.iter().map(|(i, _)| *i).collect();
    assert_eq!(
        iterations,
        vec![MAX_SCF - 1, MAX_SCF],
        "keep_last=2 must leave exactly the two newest snapshots"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
