//! Cross-process bit-identity gate for the two-level distributed
//! execution (`LS3DF_GROUPS`): the patched SCF density must be
//! **bit-identical** at any processor-group count, at any thread count —
//! the distributed loop merges workers' bit-exact region densities and
//! replays the single-process fragment-order patch, so group count is
//! pure partitioning, never physics.
//!
//! [`GOLDEN`] is the same digest `tests/scheme_digest.rs` pins (identical
//! workload, identical digest function), so a single-process run, a
//! 2-group run, and a 4-group run must all land on the exact digest of
//! the single-process SCF. The options fingerprint is asserted equal
//! across group counts too — snapshots stay exchangeable at any
//! `LS3DF_GROUPS`. To regenerate, follow the capture recipe in
//! `tests/scheme_digest.rs` and copy the value into both files.
//!
//! The child half is SPMD: the parent re-execs this test binary with
//! `LS3DF_GROUPS` set; the child's `build()` spawns its workers, which
//! re-exec the same binary again (`LS3DF_DIST_RANK` routes them into the
//! worker bootstrap inside the same `#[test]` function).

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;

/// The single-process SCF digest (see `tests/scheme_digest.rs::GOLDEN` —
/// same capture, same workload).
const GOLDEN: u64 = 0xeba2_0b58_e229_cae3;

/// Same options as `tests/scheme_digest.rs::reference_opts`.
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

/// Child half: inert under a plain `cargo test`; re-execed with
/// `LS3DF_DIST_DIGEST_CHILD=1` (and `LS3DF_GROUPS`) it runs the reference
/// workload over the processor-group communicator. Every rank — launcher
/// and spawned workers alike — runs this same function (SPMD); only the
/// launcher's stdout reaches the parent (workers are spawned with their
/// stdout nulled), so the digest line is rank 0's by construction.
#[test]
fn dist_digest_child() {
    if std::env::var("LS3DF_DIST_DIGEST_CHILD").is_err() {
        return;
    }
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(reference_opts())
        .build()
        .expect("valid reference geometry");
    let fingerprint = calc.fingerprint();
    let res = calc.try_scf().expect("distributed SCF must complete");
    println!("LS3DF_DIGEST={:016x}", res.digest());
    println!("LS3DF_FPRINT={fingerprint:016x}");
    println!("LS3DF_GROUP_SECONDS={}", res.group_petot_seconds.len());
}

fn child_run(groups: &str, threads: &str) -> (String, String, usize) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args(["--exact", "dist_digest_child", "--nocapture"])
        .env("LS3DF_DIST_DIGEST_CHILD", "1")
        .env("LS3DF_GROUPS", groups)
        .env("LS3DF_THREADS", threads)
        .output()
        .expect("spawn dist_digest_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (LS3DF_GROUPS={groups}, LS3DF_THREADS={threads}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let grab = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.split(key).nth(1))
            .map(str::trim)
            .unwrap_or_else(|| {
                panic!("no {key} line from child (groups={groups}, threads={threads}):\n{stdout}")
            })
            .to_string()
    };
    let digest = grab("LS3DF_DIGEST=");
    let fprint = grab("LS3DF_FPRINT=");
    let n_groups: usize = grab("LS3DF_GROUP_SECONDS=").parse().expect("group count");
    (digest, fprint, n_groups)
}

/// The acceptance gate: densities bit-identical across
/// `LS3DF_GROUPS ∈ {1, 2, 4}` × `LS3DF_THREADS ∈ {1, host parallelism}`,
/// all equal to the pinned single-process golden digest, with one
/// options fingerprint across every world size.
#[test]
fn density_bit_identical_across_group_counts() {
    let golden = format!("{GOLDEN:016x}");
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .to_string();
    let mut fingerprints = Vec::new();
    for groups in ["1", "2", "4"] {
        for threads in ["1", max.as_str()] {
            let (digest, fprint, n_groups) = child_run(groups, threads);
            assert_eq!(
                digest, golden,
                "density diverged from the single-process golden at \
                 LS3DF_GROUPS={groups}, LS3DF_THREADS={threads}"
            );
            assert_eq!(
                n_groups.to_string(),
                groups,
                "result carried per-group timings for the wrong world size"
            );
            fingerprints.push(fprint);
        }
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "options fingerprint must be group-count-independent: {fingerprints:?}"
    );
}
