//! The CPU tier the packed GEMM kernel is dispatched to must never move a
//! result: a whole LS3DF run with the dispatch forced to the baseline
//! instantiation (`ls3df::math::force_baseline_tier`, a test hook — there
//! is deliberately no env var or option for it) must produce the same
//! density digest as the run on whatever tier the host selects. Every
//! tier accumulates the register tile with one correctly rounded
//! multiply-add: an FMA instruction on the AVX2 + FMA and AVX-512 tiers,
//! a call of libm's `fma` on the baseline — which makes the forced child
//! the slow half of this test.
//!
//! The system is the benchmark's `znteo64_iter` alloy (fig. 6's relaxed
//! 64-atom ZnTe₁₋ₓOₓ, up to ~130 bands × ~2550 planewaves per fragment
//! with Kleinman–Bylander projectors), cut to one SCF iteration with a
//! short burn-in: every block product of the all-band solver — projection,
//! Rayleigh–Ritz rotation, subspace matrix, block KB apply, overlap and
//! blocked `L⁻¹` — runs on the packed kernel in most fragments. On a host
//! without AVX2 + FMA both children run the same code and the test is
//! trivially green. The run compares the widest tier only; the per-kernel
//! bit-identity tests in `tests/kernel_tol.rs` compare every tier the
//! host runs, so an AVX-512 host still checks the AVX2 instantiation.

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;

/// Child half: inert under a plain `cargo test`; re-execed with
/// `LS3DF_TIER_DIGEST_CHILD` set to `baseline` or `host` it runs the alloy
/// on that tier and prints the digest.
#[test]
fn tier_digest_child() {
    let Ok(mode) = std::env::var("LS3DF_TIER_DIGEST_CHILD") else {
        return;
    };
    match mode.as_str() {
        "baseline" => assert!(
            ls3df::math::force_baseline_tier(),
            "a tier was latched before the hook ran"
        ),
        "host" => {}
        other => panic!("unknown LS3DF_TIER_DIGEST_CHILD mode `{other}`"),
    }
    let mut s = ls3df::atoms::znteo_alloy([2, 2, 2], ls3df::atoms::ZNTE_LATTICE, 0.03125, 42);
    ls3df::atoms::relax(&mut s, 1e-4, 3000);
    let options = Ls3dfOptions {
        ecut: 1.2,
        piece_pts: [6; 3],
        buffer_pts: [3; 3],
        passivation: Passivation::PseudoH,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 2,
        // Three steps reach the periodic re-orthonormalization (every 3rd).
        initial_cg_steps: 3,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.1,
            q0: 1.0,
        },
        max_scf: 1,
        tol: 1e-10,
        ..Default::default()
    };
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(options)
        .build()
        .expect("valid alloy geometry");
    let res = calc.scf();
    println!(
        "LS3DF_TIER={} LS3DF_DIGEST={:016x}",
        ls3df::math::Tier::host().name(),
        res.digest()
    );
}

/// Runs the child in `mode`; returns `(tier name, digest)`.
fn child(mode: &str) -> (String, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args(["--exact", "tier_digest_child", "--nocapture"])
        .env("LS3DF_TIER_DIGEST_CHILD", mode)
        .output()
        .expect("spawn tier_digest_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (mode={mode}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let field = |key: &str| {
        stdout
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in child output (mode={mode}):\n{stdout}"))
            .to_string()
    };
    (field("LS3DF_TIER="), field("LS3DF_DIGEST="))
}

#[test]
fn forced_baseline_tier_reproduces_the_dispatched_density() {
    let (forced_tier, forced) = child("baseline");
    assert_eq!(forced_tier, "baseline", "the hook did not take");
    let (host_tier, dispatched) = child("host");
    assert_eq!(
        forced, dispatched,
        "density digest on the {host_tier} tier differs from the baseline tier"
    );
}
