//! Memory budget of an SCF run (`--features alloc-count`).
//!
//! LS3DF's memory is the fragment wavefunctions kept between outer
//! iterations; everything else a run allocates is either built once
//! (bases, projectors, fields) or lives only while a fragment solve is in
//! flight. This test holds a two-iteration run of the benchmark's
//! 64-atom alloy to exactly that budget, using the byte-counting global
//! allocator: peak live bytes ≤ ψ at rest, plus projectors, plus bases and
//! fields, plus `LS3DF_THREADS` × (largest solve's blocks and candidate),
//! plus a fixed slack. Those are the categories of
//! [`Ls3df::memory_footprint`], so the footprint a run report prints is
//! also checked to be an upper bound — and the ψ, projector and solve
//! categories are recounted from the fragment shapes: everything at rest
//! is packed real rows, 8 bytes per coefficient, and no `c64` projector
//! block is ever built.
//!
//! The counters are process-wide, so the run happens alone in a child
//! process of this binary (`LS3DF_THREADS=2` latched there).
#![cfg(feature = "alloc-count")]

use ls3df::alloc_count::{live_bytes, peak_live_bytes, reset_peak, CountingAllocator};
use ls3df::atoms::{relax, znteo_alloy, ZNTE_LATTICE};
use ls3df::pw::solver::solve_workspace_bytes;
use ls3df::{Ls3df, Ls3dfOptions, Mixer, Passivation};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const MIB: f64 = 1024.0 * 1024.0;

/// What the run may hold beyond the accounted categories: FFT plans and
/// pooled transform buffers of 65 bases, `n_b²` matrices, GEMM pack
/// scratch, Gen_VF / Gen_dens temporaries, the pool itself (measured:
/// 5.7 MiB over the accounted bytes).
const SLACK_BYTES: usize = 12 << 20;

#[test]
fn budget_child() {
    if std::env::var("LS3DF_MATRIX_CHILD").is_err() {
        return;
    }
    assert_eq!(std::env::var("LS3DF_THREADS").as_deref(), Ok("2"));
    // The benchmark's `znteo64_iter` system and options.
    let mut s = znteo_alloy([2, 2, 2], ZNTE_LATTICE, 0.03125, 42);
    relax(&mut s, 1e-4, 3000);
    let opts = Ls3dfOptions {
        ecut: 1.2,
        piece_pts: [6; 3],
        buffer_pts: [3; 3],
        passivation: Passivation::PseudoH,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 2,
        initial_cg_steps: 4,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.1,
            q0: 1.0,
        },
        max_scf: 2,
        tol: 1e-10,
        ..Default::default()
    };
    let before_build = live_bytes();
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .build()
        .expect("valid alloy geometry");
    reset_peak();
    let res = calc.scf();
    assert_eq!(res.history.len(), 2);
    assert!(res.quarantined.is_empty());
    let peak = peak_live_bytes() - before_build;

    let memory = calc.memory_footprint();
    let bytes = |name: &str| {
        let found = memory.categories.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no {name} category")).1 as usize
    };
    let psi = bytes("psi_at_rest");
    // Recount the packed categories from the fragment shapes.
    let f64_bytes = size_of::<f64>();
    let (mut psi_expect, mut projectors_expect, mut largest_solve) = (0, 0, 0);
    for i in 0..calc.n_fragments() {
        let (nb, npw, n_proj) = calc.fragment_block_shape(i);
        psi_expect += f64_bytes * nb * npw;
        projectors_expect += f64_bytes * (n_proj * npw + n_proj);
        // Six real CG blocks plus the candidate the solve runs on.
        assert_eq!(solve_workspace_bytes(nb, npw), 7 * f64_bytes * nb * npw);
        largest_solve = largest_solve.max(solve_workspace_bytes(nb, npw));
    }
    assert_eq!(
        psi, psi_expect,
        "ψ at rest is one packed f64 per coefficient"
    );
    assert_eq!(
        bytes("projectors"),
        projectors_expect,
        "projectors are the packed blocks and energies alone"
    );
    assert_eq!(bytes("solve_workspace"), 2 * largest_solve);
    let accounted: usize = memory.categories.iter().map(|&(_, b)| b as usize).sum();
    print!("{}", memory.table());
    println!(
        "peak live {:.1} MiB, budget {:.1} MiB",
        peak as f64 / MIB,
        (accounted + SLACK_BYTES) as f64 / MIB
    );
    // On this system: ψ at rest 57.4 MiB (114.9 MiB as full-sphere `c64`),
    // projectors 23.8 MiB (71 MiB with the `c64` copy), accounted
    // 119.0 MiB, measured peak 124.7 MiB against a 131.0 MiB budget. A
    // second per-fragment ψ copy would put the peak at ≈ 182 MiB; a third
    // solving thread adds the 17.7 MiB of one more in-flight solve of the
    // largest fragment.
    assert!(
        peak <= accounted + SLACK_BYTES,
        "peak live bytes {peak} exceed the accounted {accounted} + slack {SLACK_BYTES}"
    );
    // The budget must stay tight enough to see a second ψ: were the slack
    // or an over-estimate to reach ψ's size, the bound would mean nothing.
    assert!(
        accounted + SLACK_BYTES < peak + psi / 2,
        "budget {accounted} + {SLACK_BYTES} is looser than half a ψ copy ({psi}) over the peak {peak}"
    );
    assert!(memory.peak_rss_bytes.is_some_and(|rss| rss >= psi as u64));
}

/// Peak live bytes of a two-iteration alloy SCF stay within the accounted
/// footprint (module docs).
#[test]
fn scf_peak_live_bytes_stay_within_the_accounted_footprint() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "budget_child", "--nocapture"])
        .env("LS3DF_MATRIX_CHILD", "1")
        .env("LS3DF_THREADS", "2")
        .output()
        .expect("spawn child test");
    assert!(
        out.status.success(),
        "budget child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
