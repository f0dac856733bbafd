//! `cargo xtask ci`: the tier-1 gate, chaining
//!
//! 1. `cargo fmt --all -- --check`
//! 2. `cargo clippy --workspace --all-targets -- -D warnings`
//! 3. `cargo xtask lint` (in-process)
//! 4. `cargo test -q` twice: once with `LS3DF_THREADS=1` (exact
//!    sequential fallback) and once with the variable unset (work-stealing
//!    pool at the host's parallelism) — the determinism contract says both
//!    schedules must produce bit-identical physics, so both must pass.
//! 5. `cargo test -p ls3df --features alloc-count --test zero_alloc -q`
//!    under the same two scheduling regimes — the counting-allocator guard
//!    that a steady-state CG step and GENPOT solve stay heap-free (the
//!    batched-FFT equivalence suite in `crates/fft/tests/batched.rs` rides
//!    in step 4's full test passes).
//! 6. `cargo test -p ls3df --test ckpt_resume -q` — the checkpoint-resume
//!    smoke: a run snapshotted mid-SCF and resumed in a fresh process must
//!    reproduce the uninterrupted run bit-for-bit (it also rides in
//!    step 4; the dedicated step makes a checkpoint regression readable at
//!    a glance in the summary instead of buried in the full suite).
//! 7. `cargo test -p ls3df --test obs_report -q` twice: once with
//!    `--features obs,alloc-count` (a small instrumented SCF must emit a
//!    schema-valid run report with ≥95% wall-time attribution and the
//!    allocator probe feeding the metrics registry) and once with default
//!    features (the obs-off build must be a true no-op: zero-sized span
//!    guards, empty registries, reports flagged `obs_enabled: false`).
//!    Both feature states of the same test file must compile and pass.
//! 8. `cargo test -p ls3df --test scheme_contract --test scheme_digest -q`
//!    — the fragmentation-scheme gate: every registered scheme must meet
//!    its declared partition-of-unity tolerance across decompositions and
//!    buffers, and sign-alternating routed through the `FragmentScheme`
//!    trait must reproduce the pre-refactor SCF density digest
//!    bit-for-bit at LS3DF_THREADS ∈ {1, 2, max} (subprocess matrix).
//! 9. `cargo test -p ls3df --test kernel_tol -q` under the same two
//!    scheduling regimes — the kernel tolerance gate: the fast-kernel
//!    arithmetic (`LS3DF_KERNELS=fast`: packed r2c transforms, radix-4
//!    butterflies, the GEMM microkernel) must stay within the pinned
//!    per-kernel bounds of the reference arithmetic (DESIGN.md §6d).
//! 10. `cargo test -p ls3df --test group_balance --test dist_digest
//!     --test dist_fault -q` — the two-level distributed-execution gate:
//!     the fragment→group balancer properties (exactly-once assignment,
//!     heaviest-fragment imbalance bound, determinism), the subprocess
//!     digest matrix proving the SCF density bit-identical across
//!     `LS3DF_GROUPS ∈ {1, 2, 4}` × `LS3DF_THREADS ∈ {1, max}` against
//!     the pinned single-process golden, and the worker-kill robustness
//!     check (a dead rank surfaces as a typed `Ls3dfError::Comm` naming
//!     it, never a hang).
//! 11. `cargo test -p ls3df --features obs,alloc-count --test
//!     obs_dist_report --test dist_fault -q` — the rank-aware
//!     observability gate: an obs-enabled multi-group SCF must produce
//!     one merged schema-v2 report whose per-rank `fragment_solves`
//!     counters sum to the single-process total at `LS3DF_GROUPS ∈
//!     {1, 2, 4}`, a killed worker must surface as a `down` rank
//!     section (typed comm-error kind) with `telemetry_incomplete`
//!     set, and the committed `BENCH_fig5.json` must stay
//!     schema-valid.
//! 12. `bench-harness`: `cargo test -q --offline --manifest-path
//!     benchmark/Cargo.toml` (the repo benchmark's own unit tests: the
//!     percentile rule, span arithmetic, `/proc` parsing, manifest ==
//!     `BENCHMARK.json`) and then its `--smoke` gate — all four
//!     workloads at two iterations with every correctness check that
//!     applies (zero retries/quarantines, charge conservation, crystal8
//!     trajectories bit-identical across thread/rank/resume variants);
//!     a non-zero exit fails the step. The benchmark is a package of
//!     its own outside the workspace, so nothing else builds or tests it.
//! 13. `cargo test -p xtask -q` — the lint engine's own gate: lexer and
//!     rule unit tests plus the fixture corpus in
//!     `crates/xtask/tests/fixtures/` (known-positive snippets must fire
//!     exactly their golden violations; known-negative snippets — unsafe
//!     in string literals, `Ordering::` in doc comments, raw strings —
//!     must stay silent).
//! 14. `cargo xtask schedules` (in-process) — pool suite + SCF digest
//!     matrix under every adversarial work-stealing schedule.
//! 15. `cargo xtask miri` (in-process) — the curated unsafe-core filter
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

/// Runs the gate; returns `true` when every step passed (skips count as
/// passes, failures never do).
pub fn run(root: &Path) -> bool {
    // Which compilation of the packed GEMM kernel every step below
    // exercises: the tests pick it up by the same detection.
    println!(
        "ci: packed GEMM kernel tier on this host: {}",
        ls3df_math::Tier::host().name()
    );
    let mut all_ok = true;
    let mut summary: Vec<(String, StepResult, f64)> = Vec::new();

    let steps: [(&str, &[&str]); 11] = [
        ("fmt", &["fmt", "--all", "--", "--check"]),
        (
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
        ),
        ("test", &["test", "-q"]),
        (
            "zero-alloc",
            &[
                "test",
                "-p",
                "ls3df",
                "--features",
                "alloc-count",
                "--lib",
                "--test",
                "zero_alloc",
                "-q",
            ],
        ),
        (
            "ckpt-resume",
            &["test", "-p", "ls3df", "--test", "ckpt_resume", "-q"],
        ),
        (
            "obs-report [obs]",
            &[
                "test",
                "-p",
                "ls3df",
                "--features",
                "obs,alloc-count",
                "--test",
                "obs_report",
                "--test",
                "observer_order",
                "-q",
            ],
        ),
        (
            "obs-report [off]",
            &["test", "-p", "ls3df", "--test", "obs_report", "-q"],
        ),
        (
            "scheme",
            &[
                "test",
                "-p",
                "ls3df",
                "--test",
                "scheme_contract",
                "--test",
                "scheme_digest",
                "-q",
            ],
        ),
        (
            "kernel-tol",
            &["test", "-p", "ls3df", "--test", "kernel_tol", "-q"],
        ),
        (
            "dist",
            &[
                "test",
                "-p",
                "ls3df",
                "--test",
                "group_balance",
                "--test",
                "dist_digest",
                "--test",
                "dist_fault",
                "-q",
            ],
        ),
        (
            "obs-dist",
            &[
                "test",
                "-p",
                "ls3df",
                "--features",
                "obs,alloc-count",
                "--test",
                "obs_dist_report",
                "--test",
                "dist_fault",
                "-q",
            ],
        ),
    ];

    for (name, args) in [steps[0], steps[1]] {
        let (res, secs) = run_cargo_step(root, name, args, &[]);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // The lint pass runs in-process between clippy and the test suite.
    println!("\n=== xtask lint ===");
    let t = Instant::now();
    let lint_res = match lint::run(root) {
        Ok(0) => StepResult::Pass,
        Ok(_) => StepResult::Fail,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            StepResult::Fail
        }
    };
    if matches!(lint_res, StepResult::Fail) {
        all_ok = false;
    }
    summary.push((
        "xtask lint".to_string(),
        lint_res,
        t.elapsed().as_secs_f64(),
    ));

    // The lint engine's own tests: lexer + rule units and the fixture
    // corpus (golden expected-violation lists under tests/fixtures/).
    let (res, secs) = run_cargo_step(root, "lint-fixtures", &["test", "-p", "xtask", "-q"], &[]);
    if matches!(res, StepResult::Fail) {
        all_ok = false;
    }
    summary.push(("cargo lint-fixtures".to_string(), res, secs));

    // The test suite runs under both scheduling regimes: forced-sequential
    // (`LS3DF_THREADS=1`) and the default work-stealing pool (variable
    // removed so an operator's own setting can't mask either regime).
    let (_, args) = steps[2];
    let test_envs: [(&str, StepEnv<'_>); 2] = [
        ("test [LS3DF_THREADS=1]", &[("LS3DF_THREADS", Some("1"))]),
        ("test [pool]", &[("LS3DF_THREADS", None)]),
    ];
    for (name, env) in test_envs {
        let (res, secs) = run_cargo_step(root, name, args, env);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // The zero-allocation guard (counting global allocator, see
    // tests/zero_alloc.rs) also runs under both scheduling regimes.
    let (_, alloc_args) = steps[3];
    let alloc_envs: [(&str, StepEnv<'_>); 2] = [
        (
            "zero-alloc [LS3DF_THREADS=1]",
            &[("LS3DF_THREADS", Some("1"))],
        ),
        ("zero-alloc [pool]", &[("LS3DF_THREADS", None)]),
    ];
    for (name, env) in alloc_envs {
        let (res, secs) = run_cargo_step(root, name, alloc_args, env);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // Checkpoint-resume smoke (its subprocess legs pin their own
    // LS3DF_THREADS, so one invocation covers both regimes), then the
    // observability gate: the instrumented leg (obs + alloc-count,
    // schema-valid report with attribution/flop rates, hook-ordering
    // contract) and the obs-off leg (no-op contract — zero-sized span
    // guards, empty registries, reports flagged disabled), then the
    // fragmentation-scheme gate: the partition-of-unity contract sweep
    // plus the subprocess digest proving sign-alternating through the
    // `FragmentScheme` trait is bit-identical to the pre-refactor run
    // (the digest test pins its own LS3DF_THREADS matrix).
    for (name, args) in [steps[4], steps[5], steps[6], steps[7]] {
        let (res, secs) = run_cargo_step(root, name, args, &[]);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // The two-level distributed-execution gate (balancer properties,
    // cross-process digest matrix, worker-kill robustness). The digest
    // test pins its own LS3DF_GROUPS × LS3DF_THREADS matrix in the
    // subprocess legs, so one invocation covers every regime.
    let (_, dist_args) = steps[9];
    let (res, secs) = run_cargo_step(root, "dist", dist_args, &[]);
    if matches!(res, StepResult::Fail) {
        all_ok = false;
    }
    summary.push(("cargo dist".to_string(), res, secs));

    // The rank-aware observability gate: obs-enabled multi-group runs
    // must produce one merged schema-v2 report (per-rank counters
    // summing to the single-process total, straggler/imbalance/comm
    // sections), a killed worker must land as a `down` rank section,
    // and the committed BENCH_fig5.json must stay schema-valid.
    let (_, obs_dist_args) = steps[10];
    let (res, secs) = run_cargo_step(root, "obs-dist", obs_dist_args, &[]);
    if matches!(res, StepResult::Fail) {
        all_ok = false;
    }
    summary.push(("cargo obs-dist".to_string(), res, secs));

    // The kernel tolerance gate (tests/kernel_tol.rs): the fast-kernel
    // arithmetic (packed r2c 3-D transform, radix-4 butterflies, GEMM
    // microkernel, lane-split dots) must stay within its pinned
    // per-kernel bounds of the reference arithmetic. Runs under both
    // scheduling regimes — the kernels must be schedule-independent as
    // well as policy-gated.
    let (_, ktol_args) = steps[8];
    let ktol_envs: [(&str, StepEnv<'_>); 2] = [
        (
            "kernel-tol [LS3DF_THREADS=1]",
            &[("LS3DF_THREADS", Some("1"))],
        ),
        ("kernel-tol [pool]", &[("LS3DF_THREADS", None)]),
    ];
    for (name, env) in ktol_envs {
        let (res, secs) = run_cargo_step(root, name, ktol_args, env);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // The repo benchmark (benchmark/README.md) lives outside the
    // workspace, so `cargo test` above never compiles it: run its own
    // unit tests, then its `--smoke` gate (all four workloads at two
    // iterations, every correctness check that applies; exits non-zero
    // when one fails).
    let bench_steps: [(&str, &[&str]); 2] = [
        (
            "bench-harness [test]",
            &[
                "test",
                "-q",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
            ],
        ),
        (
            "bench-harness [smoke]",
            &[
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "--smoke",
            ],
        ),
    ];
    for (name, args) in bench_steps {
        let (res, secs) = run_cargo_step(root, name, args, &[]);
        if matches!(res, StepResult::Fail) {
            all_ok = false;
        }
        summary.push((format!("cargo {name}"), res, secs));
    }

    // Schedule exploration: the determinism contract under adversarial
    // work-selection orders (see shims/rayon Schedule and DESIGN.md §6b).
    let t = Instant::now();
    let sched_res = if schedules::run(root) {
        StepResult::Pass
    } else {
        all_ok = false;
        StepResult::Fail
    };
    summary.push((
        "xtask schedules".to_string(),
        sched_res,
        t.elapsed().as_secs_f64(),
    ));

    // Miri over the unsafe core. Unavailable ⇒ loud skip: the offline
    // container cannot install the nightly component, and the gate must
    // stay runnable there.
    let t = Instant::now();
    let miri_res = match miri::run(root) {
        miri::Outcome::Passed => StepResult::Pass,
        miri::Outcome::Failed => {
            all_ok = false;
            StepResult::Fail
        }
        miri::Outcome::Unavailable(why) => StepResult::Skip(format!("miri unavailable: {why}")),
    };
    summary.push((
        "xtask miri".to_string(),
        miri_res,
        t.elapsed().as_secs_f64(),
    ));

    println!("\n=== ci summary ===");
    for (name, res, secs) in &summary {
        let status = match res {
            StepResult::Pass => "ok".to_string(),
            StepResult::Fail => "FAILED".to_string(),
            StepResult::Skip(why) => format!("skipped ({why})"),
        };
        println!("{name:<32} {status:<24} {secs:7.1}s");
    }
    println!("ci: {}", if all_ok { "all steps passed" } else { "FAILED" });
    all_ok
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
                Ok((false, stderr)) if is_missing_component(&stderr) => {
                    StepResult::Skip(format!("{name} not installed"))
                }
                Ok((false, _)) => StepResult::Fail,
                Err(e) => {
                    eprintln!("{e}");
                    StepResult::Fail
                }
            }
        }
        Ok((false, stderr)) if is_missing_component(&stderr) => {
            StepResult::Skip(format!("{name} not installed"))
        }
        Ok((false, _)) => StepResult::Fail,
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

fn is_missing_component(stderr: &str) -> bool {
    [
        "no such command",
        "is not installed",
        "error: toolchain",
        "component",
    ]
    .iter()
    .any(|m| stderr.contains(m))
        && !stderr.contains("error[E")
}
