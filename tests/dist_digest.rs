//! Bit-identity gate for the patched SCF density: at every processor-group
//! count and every thread count it must reproduce the pinned [`GOLDEN`]
//! digest exactly. The distributed loop merges workers' bit-exact region
//! densities and replays the single-process fragment-order patch, so the
//! group count is pure partitioning, and the work-stealing pool is a pure
//! performance knob — neither is ever physics.
//!
//! [`GOLDEN`] and [`reference_opts`] live in `tests/common/reference.rs`,
//! which also holds the capture recipe (it runs this file's child). The
//! options fingerprint is asserted equal across group counts too —
//! snapshots stay exchangeable at any group count.
//!
//! The child half is SPMD: the parent re-execs this test binary with the
//! group count in `LS3DF_DIST_DIGEST_CHILD`; the child's `build()` spawns
//! its workers, which inherit the variable and re-exec the same binary
//! again (`LS3DF_DIST_RANK` routes them into the worker bootstrap inside
//! the same `#[test]` function).

#[path = "common/reference.rs"]
mod reference;

use ls3df::core::Ls3df;
use ls3df_atoms::model_crystal;
use reference::{reference_opts, GOLDEN};

/// Child half: inert under a plain `cargo test`; re-execed with
/// `LS3DF_DIST_DIGEST_CHILD=<groups>` it runs the reference workload over
/// that many processor groups. Every rank — launcher and spawned workers
/// alike — runs this same function (SPMD); only the launcher's stdout
/// reaches the parent (workers are spawned with their stdout nulled), so
/// the digest line is rank 0's by construction.
#[test]
fn dist_digest_child() {
    let Ok(groups) = std::env::var("LS3DF_DIST_DIGEST_CHILD") else {
        return;
    };
    let groups: usize = groups
        .parse()
        .expect("group count in LS3DF_DIST_DIGEST_CHILD");
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(reference_opts())
        .groups(groups)
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
        .env("LS3DF_DIST_DIGEST_CHILD", groups)
        .env("LS3DF_THREADS", threads)
        .output()
        .expect("spawn dist_digest_child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (groups={groups}, LS3DF_THREADS={threads}) failed:\n{stdout}\n{}",
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

/// The acceptance gate: densities bit-identical across groups
/// ∈ {1, 2, 4} × `LS3DF_THREADS` ∈ {1, 2, host parallelism}, all equal to
/// the pinned golden digest, with one options fingerprint across every
/// world size.
#[test]
fn density_bit_identical_across_group_counts() {
    let golden = format!("{GOLDEN:016x}");
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .to_string();
    // On a 1- or 2-core host `max` repeats a count; run each point once.
    let mut thread_counts = vec!["1", "2", max.as_str()];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mut fingerprints = Vec::new();
    for groups in ["1", "2", "4"] {
        for &threads in &thread_counts {
            let (digest, fprint, n_groups) = child_run(groups, threads);
            assert_eq!(
                digest, golden,
                "density diverged from the pinned golden at \
                 groups={groups}, LS3DF_THREADS={threads}"
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
