//! `cargo xtask ci`: the tier-1 gate, chaining
//!
//! 1. `cargo fmt --all -- --check`
//! 2. `cargo clippy --workspace --all-targets -- -D warnings` — also
//!    the house no-panic, float-compare and hash-container rules, through
//!    the root `clippy.toml` and the lint attributes every library root
//!    carries (`xtask::lint::ROOT_LINT_ATTRS`).
//! 3. `RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps` — a
//!    dangling or ambiguous intra-doc link (say, to a deleted item) is
//!    invisible to clippy.
//! 4. `cargo xtask lint` (in-process)
//! 5. `cargo test --workspace -q` twice: once with `LS3DF_THREADS=1`
//!    (exact sequential fallback) and once with the variable unset
//!    (work-stealing pool at the host's parallelism) — the determinism
//!    contract says both schedules must produce bit-identical physics, so
//!    both must pass. `--workspace` matters: a plain `cargo test` at the
//!    root builds only the facade package's integration tests and leaves
//!    the `#[test]`s inside `crates/*` and `shims/*` (the `distrib` codec
//!    round-trips, the planewave solver's units, the batched-FFT
//!    bit-identity suite in `crates/fft/tests/batched.rs`, the lint
//!    engine's rule units and fixture corpus) gated by nothing. Every
//!    default-feature suite rides here — checkpoint resume, the
//!    golden patched-density digest at every group and thread count,
//!    the kernel tolerance gate, group balance, worker-kill
//!    robustness, the obs-off no-op contract; the steps below exist only
//!    where the features differ or the package is outside the workspace.
//! 6. `zero-alloc`: `cargo test -p ls3df --features alloc-count --lib
//!    --test zero_alloc -q` under the same two scheduling regimes — the
//!    counting-allocator guard that a steady-state CG step and GENPOT
//!    solve stay heap-free.
//!    Then `mem-budget`: `cargo test -p ls3df --features alloc-count
//!    --test mem_budget -q` — the same allocator's live-byte high-water
//!    mark over a two-iteration alloy SCF, taken in a child process of
//!    its own under `LS3DF_THREADS=2`, must stay within the accounted
//!    footprint (one ψ per fragment, one solve workspace per thread).
//! 7. `obs-report [obs]`: `cargo test -p ls3df --features obs,alloc-count
//!    --test obs_report --test observer_order -q` — a small instrumented
//!    SCF must emit a schema-valid run report with ≥95% wall-time
//!    attribution and the allocator probe feeding the metrics registry,
//!    and the observer hook order must hold with spans compiled in.
//! 8. `obs-dist`: `cargo test -p ls3df --features obs,alloc-count --test
//!    obs_dist_report --test dist_fault -q` — the rank-aware
//!    observability gate: an obs-enabled SCF at any group count must
//!    produce one merged report with one `up` rank section per group,
//!    whose per-rank `fragment_solves` and `fragment_shares` counters sum
//!    to the same totals at groups ∈ {1, 2, 4} (solves plus
//!    shares = fragments × iterations), a killed worker must surface as a
//!    `down` rank section (typed comm-error kind) with
//!    `telemetry_incomplete` set, and the committed `BENCH_*.json`
//!    reports and `TRACE_fig6.json` must stay current.
//! 9. `bench-harness`: `cargo test -q --offline --manifest-path
//!    benchmark/Cargo.toml` (the repo benchmark's own unit tests: the
//!    percentile rule, span arithmetic, `/proc` parsing, manifest ==
//!    `BENCHMARK.json`) and then its `--smoke` gate — all four
//!    workloads at two iterations with every correctness check that
//!    applies (zero retries/quarantines, charge conservation, crystal8
//!    trajectories bit-identical across thread/rank/resume variants);
//!    a non-zero exit fails the step. The benchmark is a package of
//!    its own outside the workspace, so nothing else builds or tests it.
//! 10. `accuracy`: `cargo run -p ls3df-bench --bin accuracy --release
//!     --offline` — the model crystal's LS3DF and direct SCFs must both
//!     converge (exit 0), and the run prints the fixed-potential table
//!     from `Ls3df::respond`, which nothing else runs.
//! 11. `cargo xtask schedules` (in-process) — pool suite + SCF digest
//!     matrix under every adversarial work-stealing schedule.
//! 12. `cargo xtask miri` (in-process) — the curated unsafe-core filter
//!     under Miri; reported as a loud SKIP when the nightly component is
//!     unavailable (the offline container cannot install it).
//!
//! Every cargo step retries with `--offline` when the first attempt fails
//! with a registry/network error (the build container has no registry
//! access; all workspace dependencies are path crates, so offline always
//! resolves). Steps whose tool component is not installed (e.g. a
//! toolchain without rustfmt) are reported as skipped, not failed —
//! offline containers must still be able to run the gate.

use crate::{miri, schedules};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use xtask::lint;

enum StepResult {
    Pass,
    Fail,
    Skip(String),
}

/// Environment overrides for one step: `Some(v)` sets the variable,
/// `None` removes it from the child's environment.
type StepEnv<'a> = &'a [(&'a str, Option<&'a str>)];

/// Forced-sequential scheduling regime.
const THREADS_1: StepEnv<'static> = &[("LS3DF_THREADS", Some("1"))];
/// Default work-stealing pool (variable removed so an operator's own
/// setting can't mask either regime).
const POOL: StepEnv<'static> = &[("LS3DF_THREADS", None)];

const OBS: &str = "obs,alloc-count";

type CargoStep = (&'static str, &'static [&'static str], StepEnv<'static>);

/// The cargo steps before the in-process `xtask lint`. See the module
/// doc for what each step gates.
#[rustfmt::skip]
const CHECK_STEPS: &[CargoStep] = &[
    ("fmt", &["fmt", "--all", "--", "--check"], &[]),
    ("clippy", &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"], &[]),
    ("doc", &["doc", "--workspace", "--no-deps"], &[("RUSTDOCFLAGS", Some("-D warnings"))]),
];

/// The cargo steps after it.
#[rustfmt::skip]
const TEST_STEPS: &[CargoStep] = &[
    ("test [LS3DF_THREADS=1]", &["test", "--workspace", "-q"], THREADS_1),
    ("test [pool]", &["test", "--workspace", "-q"], POOL),
    ("zero-alloc [LS3DF_THREADS=1]", ZERO_ALLOC, THREADS_1),
    ("zero-alloc [pool]", ZERO_ALLOC, POOL),
    ("mem-budget",
     &["test", "-p", "ls3df", "--features", "alloc-count", "--test", "mem_budget", "-q"],
     &[]),
    ("obs-report [obs]",
     &["test", "-p", "ls3df", "--features", OBS, "--test", "obs_report", "--test", "observer_order", "-q"],
     &[]),
    ("obs-dist",
     &["test", "-p", "ls3df", "--features", OBS, "--test", "obs_dist_report", "--test", "dist_fault", "-q"],
     &[]),
    ("bench-harness [test]",
     &["test", "-q", "--offline", "--manifest-path", "benchmark/Cargo.toml"],
     &[]),
    ("bench-harness [smoke]",
     &["run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--", "--smoke"],
     &[]),
    ("accuracy",
     &["run", "-p", "ls3df-bench", "--bin", "accuracy", "--release", "--offline"],
     &[]),
];

#[rustfmt::skip]
const ZERO_ALLOC: &[&str] =
    &["test", "-p", "ls3df", "--features", "alloc-count", "--lib", "--test", "zero_alloc", "-q"];

/// Runs the gate; returns `true` when every step passed (skips count as
/// passes, failures never do).
pub fn run(root: &Path) -> bool {
    // Which compilation of the packed GEMM kernel every step below
    // exercises: the tests pick it up by the same detection.
    println!(
        "ci: packed GEMM kernel tier on this host: {}",
        ls3df_math::Tier::host().name()
    );
    let mut summary: Vec<(String, StepResult, f64)> = Vec::new();
    let cargo = |&(name, args, env): &CargoStep| {
        let (res, secs) = run_cargo_step(root, name, args, env);
        (format!("cargo {name}"), res, secs)
    };

    summary.extend(CHECK_STEPS.iter().map(cargo));
    println!("\n=== xtask lint ===");
    summary.push(timed("xtask lint", || match lint::run(root) {
        Ok(0) => StepResult::Pass,
        Ok(_) => StepResult::Fail,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            StepResult::Fail
        }
    }));
    summary.extend(TEST_STEPS.iter().map(cargo));

    // Schedule exploration: the determinism contract under adversarial
    // work-selection orders (see shims/rayon Schedule and DESIGN.md §6b).
    summary.push(timed("xtask schedules", || {
        if schedules::run(root) {
            StepResult::Pass
        } else {
            StepResult::Fail
        }
    }));

    // Miri over the unsafe core. Unavailable ⇒ loud skip: the offline
    // container cannot install the nightly component, and the gate must
    // stay runnable there.
    summary.push(timed("xtask miri", || match miri::run(root) {
        miri::Outcome::Passed => StepResult::Pass,
        miri::Outcome::Failed => StepResult::Fail,
        miri::Outcome::Unavailable(why) => StepResult::Skip(format!("miri unavailable: {why}")),
    }));

    println!("\n=== ci summary ===");
    for (name, res, secs) in &summary {
        let status = match res {
            StepResult::Pass => "ok".to_string(),
            StepResult::Fail => "FAILED".to_string(),
            StepResult::Skip(why) => format!("skipped ({why})"),
        };
        println!("{name:<32} {status:<24} {secs:7.1}s");
    }
    let all_ok = !summary
        .iter()
        .any(|(_, res, _)| matches!(res, StepResult::Fail));
    println!("ci: {}", if all_ok { "all steps passed" } else { "FAILED" });
    all_ok
}

/// Runs an in-process step and stamps its summary row.
fn timed(name: &str, step: impl FnOnce() -> StepResult) -> (String, StepResult, f64) {
    let t = Instant::now();
    let res = step();
    (name.to_string(), res, t.elapsed().as_secs_f64())
}

/// `env` entries with `Some(value)` are set on the child; `None` entries
/// are removed (so the step sees a clean default even if the operator's
/// shell exported the variable).
fn run_cargo_step(root: &Path, name: &str, args: &[&str], env: StepEnv<'_>) -> (StepResult, f64) {
    println!("\n=== cargo {name} ===");
    let t = Instant::now();

    let run = |extra: &[&str]| -> Result<(bool, String), String> {
        let mut cmd = Command::new("cargo");
        cmd.args(args.iter().take(1))
            .args(extra)
            .args(args.iter().skip(1))
            .current_dir(root);
        for (key, value) in env {
            match value {
                Some(v) => {
                    cmd.env(key, v);
                }
                None => {
                    cmd.env_remove(key);
                }
            }
        }
        let output = cmd
            .output()
            .map_err(|e| format!("cannot spawn cargo: {e}"))?;
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{stderr}");
        Ok((output.status.success(), stderr))
    };

    let result = match run(&[]) {
        Ok((true, _)) => StepResult::Pass,
        Ok((false, stderr)) if is_network_failure(&stderr) => {
            println!("=== cargo {name}: registry unreachable, retrying --offline ===");
            match run(&["--offline"]) {
                Ok((true, _)) => StepResult::Pass,
                Ok((false, stderr)) => failed_step(name, &stderr),
                Err(e) => {
                    eprintln!("{e}");
                    StepResult::Fail
                }
            }
        }
        Ok((false, stderr)) => failed_step(name, &stderr),
        Err(e) => {
            eprintln!("{e}");
            StepResult::Fail
        }
    };
    (result, t.elapsed().as_secs_f64())
}

fn is_network_failure(stderr: &str) -> bool {
    [
        "failed to download",
        "Could not resolve host",
        "network failure",
        "failed to fetch",
    ]
    .iter()
    .any(|m| stderr.contains(m))
}

/// A failed step is skipped only when rustup or cargo says the tool is
/// missing; anything else, however it is worded, is a failure.
fn failed_step(name: &str, stderr: &str) -> StepResult {
    let missing = ["no such command", "is not installed", "error: toolchain"]
        .iter()
        .any(|m| stderr.contains(m))
        && !stderr.contains("error[E");
    if missing {
        StepResult::Skip(format!("{name} not installed"))
    } else {
        StepResult::Fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_rustup_component_is_skipped() {
        let stderr = "error: 'cargo-clippy' is not installed for the toolchain \
                      '1.95.0-x86_64-unknown-linux-gnu'\n";
        assert!(matches!(failed_step("clippy", stderr), StepResult::Skip(_)));
    }

    #[test]
    fn a_doc_error_quoting_the_word_component_fails() {
        let stderr = "error: unresolved link to `wrap`\n   \
                      --> crates/grid/src/field.rs:154:9\n    |\n\
                      154 |     /// `origin` components may be any integers; see [`wrap`].\n\n\
                      error: could not document `ls3df-grid`\n";
        assert!(matches!(failed_step("doc", stderr), StepResult::Fail));
    }
}
