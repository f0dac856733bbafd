//! `cargo xtask miri`: the unsafe core under the Miri interpreter.
//!
//! Miri executes the tests in an interpreter that checks every pointer,
//! aliasing, initialization and data-race rule dynamically — the
//! strongest evidence available that the workspace's audited `unsafe`
//! surface (the work-stealing pool's `JobRef` lifecycle, the counting
//! global allocator's raw `GlobalAlloc` forwarding, the checkpoint
//! codec's byte-level corruption handling, the packed GEMM kernel's call
//! into its `#[target_feature]` instantiation) is actually sound, not
//! just plausibly commented. The filter is curated: interpretation is ~100×
//! slower than native, so whole-SCF integration tests are out and the
//! unit suites of the three unsafe-adjacent targets are in.
//!
//! Miri ships only with the nightly toolchain. The offline build
//! container cannot install it (`rustup component add miri` needs the
//! network), so an unavailable Miri is reported as a SKIPPED step with a
//! visible notice — never silently, and never as a pass.

use std::path::Path;
use std::process::Command;

/// What a run amounted to. [`ci`](crate::ci) maps `Unavailable` to a
/// skipped (non-failing) step; the standalone subcommand exits 0 on it.
pub enum Outcome {
    /// Every curated target passed under Miri.
    Passed,
    /// Miri ran and at least one target failed.
    Failed,
    /// Miri (or the nightly toolchain) is not installed.
    Unavailable(String),
}

/// The curated unsafe-core filter. Each entry is `(label, cargo args,
/// RUSTFLAGS)`; all run under `cargo +nightly miri` with the flags from
/// [`MIRIFLAGS`].
const TARGETS: [(&str, &[&str], Option<&str>); 4] = [
    // JobRef lifecycle, join/steal/panic paths, the schedule matrix.
    ("pool", &["test", "-p", "rayon", "--lib"], None),
    // Counting global allocator: raw GlobalAlloc forwarding + counter.
    (
        "alloc-count",
        &["test", "-p", "ls3df", "--features", "alloc-count", "--lib"],
        None,
    ),
    // Snapshot codec and its byte-mucking corruption tests.
    ("ckpt", &["test", "-p", "ls3df-ckpt", "--lib"], None),
    // The packed GEMM kernel's tier dispatch: the microkernel unit tests
    // (every tier against the baseline bit for bit, every `Op` pair — for
    // the `c64` instantiation and for both register-tile widths of the
    // `f64` one, each its own `#[target_feature]` monomorphization — and
    // the fused `mul_add` chain). Miri's runtime feature detection
    // reports only what is enabled statically, so the interpreted target
    // is given the features of both gated tiers — `Tier::supported` then
    // lists the AVX2 + FMA and the AVX-512 instantiations, and the one
    // `unsafe` call of `ls3df-math` is what gets interpreted on each.
    (
        "math-dispatch",
        &["test", "-p", "ls3df-math", "--lib", "microkernel::"],
        Some("-C target-feature=+avx2,+fma,+avx512f"),
    ),
];

/// `-Zmiri-disable-isolation`: the pool tests read the clock (condvar
/// timeouts) and the ckpt tests touch the filesystem; both are host
/// facilities Miri only exposes with isolation off.
const MIRIFLAGS: &str = "-Zmiri-disable-isolation";

/// Runs the curated filter; prints a per-target summary.
pub fn run(root: &Path) -> Outcome {
    println!("=== xtask miri ===");
    if let Err(why) = probe(root) {
        println!("xtask miri: SKIPPED — {why}");
        println!(
            "xtask miri: install with `rustup +nightly component add miri` \
             (needs network access) to run this gate"
        );
        return Outcome::Unavailable(why);
    }
    let mut all_ok = true;
    for (label, args, rustflags) in TARGETS {
        println!("--- miri: {label} ---");
        let mut cmd = Command::new("cargo");
        cmd.arg("+nightly")
            .arg("miri")
            .args(args)
            .arg("-q")
            .env("MIRIFLAGS", MIRIFLAGS)
            .current_dir(root);
        if let Some(flags) = rustflags {
            cmd.env("RUSTFLAGS", flags);
        }
        let status = cmd.status();
        match status {
            Ok(s) if s.success() => println!("miri {label}: ok"),
            Ok(_) => {
                println!("miri {label}: FAILED");
                all_ok = false;
            }
            Err(e) => {
                println!("miri {label}: FAILED (cannot spawn cargo: {e})");
                all_ok = false;
            }
        }
    }
    if all_ok {
        Outcome::Passed
    } else {
        Outcome::Failed
    }
}

/// Checks that `cargo +nightly miri` exists at all, without running any
/// tests. Distinguishes "not installed" (skip) from "installed but
/// broken" (also skip, with the message preserved) — only test failures
/// from an actually-running Miri count as failures.
fn probe(root: &Path) -> Result<(), String> {
    let out = Command::new("cargo")
        .args(["+nightly", "miri", "--version"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if out.status.success() {
        return Ok(());
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    Err(stderr
        .lines()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("miri unavailable")
        .trim()
        .to_string())
}
