//! Bit-identity gate for the fragment patching: the sign-alternating
//! `{1,2}³` fragment set must reproduce the pinned SCF density digest
//! exactly, at every thread count.
//!
//! [`GOLDEN`] is the digest of `model_crystal([2,2,2], 6.5)` under
//! `reference_opts` (`max_scf = 2` — the same workload as
//! `tests/ls3df_pipeline.rs::thread_matrix_child`), computed with the
//! production kernels. The digest covers every `rho` sample plus the
//! per-step `dv_integral`/`worst_residual` bit patterns, so any single-bit
//! drift in the fragment enumeration order, `α_F` arithmetic, wall
//! geometry or kernel arithmetic fails this test.
//!
//! The digest depends on the platform libm (`cos`/`exp`), so it is pinned
//! per build environment, not universally portable. To regenerate after
//! an *intentional* change of physics or arithmetic:
//!
//! ```text
//! LS3DF_SCHEME_DIGEST_CHILD=1 LS3DF_THREADS=1 \
//!   cargo test -q --test scheme_digest -- --exact scheme_digest_child --nocapture
//! ```
//!
//! and copy the printed `LS3DF_DIGEST=` value into [`GOLDEN`] (and into
//! `tests/dist_digest.rs`, which pins the same digest) — after confirming
//! the change is supposed to move the density.

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

/// SCF digest of the reference workload (threads 1/2/max all agree; see
/// the module docs for the capture procedure).
const GOLDEN: u64 = 0xeba2_0b58_e229_cae3;

/// Same options as `tests/ls3df_pipeline.rs::small_opts`, with the
/// thread-matrix `max_scf = 2` baked in.
fn reference_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8, 8, 8],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 10,
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

/// Child half: inert under a plain `cargo test`; when re-execed with
/// `LS3DF_SCHEME_DIGEST_CHILD` set it runs the reference workload and
/// prints the digest.
#[test]
fn scheme_digest_child() {
    if std::env::var_os("LS3DF_SCHEME_DIGEST_CHILD").is_none() {
        return;
    }
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(reference_opts())
        .build()
        .expect("valid reference geometry");
    let res = calc.scf();
    println!("LS3DF_DIGEST={:016x}", res.digest());
}

fn child_digest(threads: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args(["--exact", "scheme_digest_child", "--nocapture"])
        .env("LS3DF_SCHEME_DIGEST_CHILD", "1")
        .env("LS3DF_THREADS", threads)
        .output()
        .expect("spawn scheme_digest_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (LS3DF_THREADS={threads}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.split("LS3DF_DIGEST=").nth(1))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no digest line from child (threads={threads}):\n{stdout}"))
        .to_string()
}

/// The acceptance gate: the patched density is bit-identical to the
/// pinned golden at `LS3DF_THREADS` ∈ {1, 2, host parallelism}.
#[test]
fn sign_alternating_through_trait_matches_pre_refactor_golden() {
    let golden = format!("{GOLDEN:016x}");
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .to_string();
    for threads in ["1", "2", max.as_str()] {
        let digest = child_digest(threads);
        assert_eq!(
            digest, golden,
            "patched density diverged from the pinned golden at LS3DF_THREADS={threads}"
        );
    }
}
