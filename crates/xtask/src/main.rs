//! Workspace tooling, invoked as `cargo xtask <command>` (the alias lives
//! in `.cargo/config.toml`).
//!
//! * `cargo xtask lint` — the token-aware LS3DF source analysis over all
//!   workspace sources (see [`xtask::lint`] for the rules and the
//!   allowlist format); writes `target/lint-report.json`;
//! * `cargo xtask miri` — the curated unsafe-core test filter under the
//!   Miri interpreter (skips loudly when the nightly component is not
//!   installed — the offline container cannot fetch it);
//! * `cargo xtask schedules` — the schedule-exploration gate: pool suite
//!   and SCF digest matrix under every adversarial work-selection order;
//! * `cargo xtask ci` — the tier-1 gate: fmt, clippy, lint, the
//!   workspace test suite under both scheduling regimes, zero-alloc,
//!   mem-budget, obs-report, obs-dist, bench-harness, accuracy, schedules,
//!   miri — with an `--offline` fallback for each cargo step when the
//!   registry is unreachable.

#![forbid(unsafe_code)]

mod ci;
mod miri;
mod schedules;

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::lint;

fn usage() -> &'static str {
    "usage: cargo xtask <command>\n\
     \n\
     commands:\n\
       lint       run the token-aware LS3DF source rules over the workspace\n\
                  (report: target/lint-report.json)\n\
       miri       run the curated unsafe-core test filter under Miri\n\
                  (skips loudly when the nightly component is unavailable)\n\
       schedules  run pool tests + an SCF digest matrix under every\n\
                  adversarial work-stealing schedule\n\
       ci         run the full tier-1 gate (fmt, clippy, lint, workspace\n\
                  tests, zero-alloc, mem-budget, obs-report, obs-dist,\n\
                  bench-harness, accuracy, schedules, miri)\n"
}

/// Workspace root: xtask lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => match lint::run(&root) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("xtask lint: {n} violation(s)");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: {e}");
                ExitCode::FAILURE
            }
        },
        Some("miri") => match miri::run(&root) {
            // An unavailable Miri is a loud skip, not a failure: the
            // offline container cannot install nightly components.
            miri::Outcome::Passed | miri::Outcome::Unavailable(_) => ExitCode::SUCCESS,
            miri::Outcome::Failed => ExitCode::FAILURE,
        },
        Some("schedules") => {
            if schedules::run(&root) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("ci") => {
            if ci::run(&root) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n{}", usage());
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}
