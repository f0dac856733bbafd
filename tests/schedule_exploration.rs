//! Schedule-exploration gate (driven by `cargo xtask schedules`): the
//! determinism contract must hold not just across thread *counts*
//! (`tests/dist_digest.rs`) but across work-selection *orders*. The
//! adversarial schedules in the rayon shim (`lifo-starve`, `all-steal`,
//! `reverse-park`) force steal patterns the default policy never
//! generates; a short SCF run under every one of them — plus the
//! sequential fallback — must produce bit-identical densities and
//! convergence histories, and a panic inside a parallel closure must
//! still surface in the caller. The global pool latches its schedule at
//! creation, so each explored order runs in a fresh subprocess (this
//! test binary re-execed with `LS3DF_SCHEDULE` pinned).

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;
use rayon::Schedule;

fn short_scf() -> ls3df::core::Ls3dfResult {
    let s = model_crystal([2, 2, 2], 6.5);
    let opts = Ls3dfOptions {
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
    };
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid test geometry");
    calc.scf()
}

/// Child half of the digest matrix: inert under a plain `cargo test`;
/// runs a short SCF and prints its digest when the parent re-execs this
/// binary with `LS3DF_SCHEDULE_CHILD=1` (and `LS3DF_SCHEDULE` /
/// `LS3DF_THREADS` pinned to the explored point).
#[test]
fn schedule_child() {
    if std::env::var("LS3DF_SCHEDULE_CHILD").is_err() {
        return;
    }
    let res = short_scf();
    println!("LS3DF_DIGEST={:016x}", res.digest());
}

/// Child half of the panic-propagation check: panics inside a parallel
/// closure on the global pool (configured by the parent's env) and
/// prints a marker if — and only if — the panic surfaced in the caller.
#[test]
fn schedule_panic_child() {
    if std::env::var("LS3DF_SCHEDULE_PANIC_CHILD").is_err() {
        return;
    }
    use rayon::prelude::*;
    let caught = std::panic::catch_unwind(|| {
        (0..256u32).into_par_iter().for_each(|i| {
            if i == 171 {
                panic!("scheduled boom");
            }
        });
    });
    if caught.is_err() {
        println!("LS3DF_PANIC_CAUGHT=1");
    }
}

fn spawn_child(test_name: &str, envs: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(&exe);
    cmd.args(["--exact", test_name, "--nocapture"]);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn schedule child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child {test_name} under {envs:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The digest matrix: sequential fallback + every schedule at 4 threads
/// must agree to the last bit.
#[test]
fn densities_bit_identical_across_schedules() {
    let mut digests = Vec::new();

    let stdout = spawn_child(
        "schedule_child",
        &[("LS3DF_SCHEDULE_CHILD", "1"), ("LS3DF_THREADS", "1")],
    );
    digests.push(("sequential".to_string(), extract_digest(&stdout)));

    for schedule in Schedule::ALL {
        let stdout = spawn_child(
            "schedule_child",
            &[
                ("LS3DF_SCHEDULE_CHILD", "1"),
                ("LS3DF_THREADS", "4"),
                ("LS3DF_SCHEDULE", schedule.name()),
            ],
        );
        digests.push((schedule.name().to_string(), extract_digest(&stdout)));
    }

    let (_, reference) = &digests[0];
    for (point, digest) in &digests {
        assert_eq!(
            digest, reference,
            "schedule `{point}` diverged from the sequential run: \
             {digest} vs {reference}"
        );
    }
}

/// Panic propagation survives every adversarial order: a panic in a
/// parallel closure must reach the calling thread (and be catchable
/// there), never vanish into a worker.
#[test]
fn panics_propagate_under_every_schedule() {
    for schedule in Schedule::ALL {
        let stdout = spawn_child(
            "schedule_panic_child",
            &[
                ("LS3DF_SCHEDULE_PANIC_CHILD", "1"),
                ("LS3DF_THREADS", "4"),
                ("LS3DF_SCHEDULE", schedule.name()),
            ],
        );
        assert!(
            stdout.contains("LS3DF_PANIC_CAUGHT=1"),
            "panic did not propagate to the caller under `{}`:\n{stdout}",
            schedule.name()
        );
    }
}

fn extract_digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.split("LS3DF_DIGEST=").nth(1))
        .map(str::trim)
        .unwrap_or_else(|| panic!("no digest line from child:\n{stdout}"))
        .to_string()
}
