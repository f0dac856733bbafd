//! Bit-identity gate for the fragment patching in one process: the
//! sign-alternating `{1,2}³` fragment set, built without processor groups,
//! must reproduce the pinned SCF density digest exactly, at every thread
//! count.
//!
//! [`GOLDEN`] and [`reference_opts`] are the reference workload of
//! `tests/common/reference.rs` (capture recipe there), the same digest
//! `tests/dist_digest.rs` asserts at every group count.

#[path = "common/reference.rs"]
mod reference;

use ls3df::core::Ls3df;
use ls3df_atoms::model_crystal;
use reference::{reference_opts, GOLDEN};

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
