//! `cargo xtask schedules`: the deterministic schedule-exploration gate.
//!
//! The LS3DF determinism contract says the work-stealing pool is a pure
//! performance knob — *any* legal schedule must produce bit-identical
//! physics. The thread-matrix test already varies thread counts; this
//! gate varies the *work-selection order itself*, forcing adversarial
//! steal patterns the default policy never generates (see
//! `rayon::Schedule`: `lifo-starve`, `all-steal`, `reverse-park`).
//!
//! Two legs per run:
//!
//! 1. the rayon shim's own unit suite (`cargo test -p rayon`) once per
//!    schedule with `LS3DF_SCHEDULE` pinned — join correctness, nested-
//!    join deadlock freedom, panic propagation, the "at most
//!    `LS3DF_THREADS` closures in flight, caller included" high-water
//!    mark and the queued map's start order under each forced order,
//!    including for the lazily-created *global* pool the library drivers
//!    use;
//! 2. the digest matrix (`cargo test -p ls3df --test
//!    schedule_exploration`) — a short SCF re-executed in a subprocess
//!    per schedule, asserting the patched-density/history digest is
//!    bit-identical across every explored order *and* the sequential
//!    run.

use rayon::Schedule;
use std::path::Path;
use std::process::Command;

/// Runs both legs over every [`Schedule`]; returns `true` when all pass.
pub fn run(root: &Path) -> bool {
    println!("=== xtask schedules ===");
    let mut all_ok = true;
    let mut summary = Vec::new();
    for schedule in Schedule::ALL {
        let name = schedule.name();
        println!("--- schedules: pool suite under LS3DF_SCHEDULE={name} ---");
        let ok = run_cargo(
            root,
            &["test", "-p", "rayon", "-q"],
            &[("LS3DF_SCHEDULE", name)],
        );
        all_ok &= ok;
        summary.push((format!("pool suite [{name}]"), ok));
    }
    println!("--- schedules: SCF digest matrix across all schedules ---");
    let ok = run_cargo(
        root,
        &[
            "test",
            "-p",
            "ls3df",
            "--test",
            "schedule_exploration",
            "-q",
        ],
        &[],
    );
    all_ok &= ok;
    summary.push(("scf digest matrix".to_string(), ok));

    println!("--- schedules summary ---");
    for (name, ok) in &summary {
        println!("{name:<28} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "xtask schedules: {} schedules explored, {}",
        Schedule::ALL.len(),
        if all_ok { "all passed" } else { "FAILED" }
    );
    all_ok
}

fn run_cargo(root: &Path, args: &[&str], env: &[(&str, &str)]) -> bool {
    let mut cmd = Command::new("cargo");
    cmd.args(args).current_dir(root);
    for (k, v) in env {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(s) => s.success(),
        Err(e) => {
            eprintln!("cannot spawn cargo: {e}");
            false
        }
    }
}
