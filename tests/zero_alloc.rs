//! Zero-allocation guard for the SCF hot paths (`--features alloc-count`).
//!
//! Installs the counting global allocator and proves that, after one
//! warm-up pass has populated every workspace and pool, a steady-state
//! all-band CG step (`cg_residual` + `cg_step`) and a steady-state GENPOT
//! Poisson solve (`HartreeSolver::solve_into`) perform **zero** heap
//! allocations. The system deliberately uses a 12³ grid — never a power
//! of two, so the FFT lines run the kernel with scratch to get wrong, the
//! mixed-radix ping-pong rows — and carries an active Kleinman–Bylander
//! projector so the nonlocal accumulation is exercised too. A 14³ box at
//! the benchmark's cutoff (the one-piece fragment of `crystal8_*`) puts
//! the sphere-pruned, folded-scaling `apply_block_with` under the same
//! gate — one band per transform pair on `c64` rows, two on packed real
//! rows (9 and 10 bands) — and a 64-band block with 12 projectors on a
//! 22³ box makes every block product of the CG step — projection and
//! Kleinman–Bylander — block-sized, so the step is held heap-free on the
//! packed GEMM kernel too (its pack scratch lives in the workspace and is
//! sized by the warm-up). The same step is then held heap-free on Γ-point
//! packed real rows — the `f64` instantiation the solve entries run — at
//! that 64-band shape (real GEMMs on the wide register tile) and at 10
//! bands on the 14³ box (the crystal8 fragment, scalar kernels).
//!
//! Everything lives in one `#[test]` so no concurrent test can perturb the
//! process-wide allocation counter between the bracketing reads.
#![cfg(feature = "alloc-count")]

use ls3df::alloc_count::{allocation_count, CountingAllocator};
use ls3df::grid::{Grid3, RealField};
use ls3df::math::KernelPolicy;
use ls3df::math::{c64, vec_ops, Matrix};
use ls3df::pseudo::LocalPotential;
use ls3df::pw::{
    cg_init, cg_residual, cg_step, effective_potential, initial_density, ionic_potential,
    CgWorkspace, Coeff, Hamiltonian, HartreeSolver, NonlocalPotential, PwAtom, PwBasis,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N_BANDS: usize = 4;

fn test_system() -> (PwBasis, Vec<PwAtom>) {
    // 12 = 2²·3: non-power-of-two on purpose, so all three FFT passes go
    // through workspace scratch (the mixed-radix rows).
    let grid = Grid3::cubic(12, 6.0);
    let basis = PwBasis::new(grid, 2.0);
    let atoms = vec![
        PwAtom {
            pos: [1.5, 1.5, 1.5],
            local: LocalPotential {
                z: 4.0,
                rc: 1.0,
                a: 2.0,
                w: 0.9,
            },
            kb_rb: 1.0,
            kb_energy: 0.8,
        },
        PwAtom {
            pos: [4.5, 4.5, 4.5],
            local: LocalPotential {
                z: 2.0,
                rc: 1.2,
                a: 1.0,
                w: 1.0,
            },
            kb_rb: 1.0,
            kb_energy: 0.0,
        },
    ];
    (basis, atoms)
}

/// Deterministic pseudo-random normalized band block (no `rand`, so the
/// setup is reproducible and self-contained).
fn seed_bands(npw: usize) -> Matrix<c64> {
    seed_block(N_BANDS, npw)
}

fn seed_block(n_bands: usize, npw: usize) -> Matrix<c64> {
    let mut psi = Matrix::zeros(n_bands, npw);
    let mut state = 0x2545f491_4f6c_dd1du64;
    for b in 0..n_bands {
        let row = psi.row_mut(b);
        for v in row.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let re = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let im = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
            *v = c64::new(re, im);
        }
        let inv = 1.0 / vec_ops::nrm2(psi.row(b)).max(1e-300);
        for v in psi.row_mut(b).iter_mut() {
            *v = v.scale(inv);
        }
    }
    psi
}

/// Allocations of one steady-state `cg_residual` + `cg_step` on `psi`, in
/// either row representation. Two warm-up rounds first: the first
/// `cg_step` has no previous direction, the second runs the full
/// β-combination path — true steady state — and sizes the pack scratch.
fn step_allocations<S: Coeff>(h: &Hamiltonian<'_>, mut psi: Matrix<S>) -> u64 {
    let mut ws = CgWorkspace::new(h, psi.rows());
    cg_init(h, &psi, &mut ws);
    for _ in 0..2 {
        let _ = cg_residual(&psi, &mut ws);
        cg_step(h, &mut psi, &mut ws, false);
    }
    let before = allocation_count();
    let resid = cg_residual(&psi, &mut ws);
    cg_step(h, &mut psi, &mut ws, false);
    let allocs = allocation_count() - before;
    assert!(resid.is_finite());
    allocs
}

/// [`step_allocations`] on the Γ-point packed real rows of `psi`.
fn real_step_allocations(h: &Hamiltonian<'_>, psi: &Matrix<c64>) -> u64 {
    let mut packed = Matrix::zeros(psi.rows(), psi.cols());
    for b in 0..psi.rows() {
        h.basis().pack(psi.row(b), packed.row_mut(b));
    }
    ls3df::math::ortho::cholesky_orthonormalize(&mut packed, 1.0)
        .expect("the real parts of a random block are independent");
    step_allocations(h, packed)
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    let (basis, atoms) = test_system();
    let positions: Vec<[f64; 3]> = atoms.iter().map(|a| a.pos).collect();
    let e_kb: Vec<f64> = atoms.iter().map(|a| a.kb_energy).collect();
    let nl = NonlocalPotential::new(
        &basis,
        &positions,
        |a, q| {
            let rb = atoms[a].kb_rb;
            (-0.5 * q * q * rb * rb).exp()
        },
        &e_kb,
    );
    assert_eq!(nl.len(), 1, "one active projector expected");
    let v_ion = ionic_potential(&basis, &atoms);
    let rho = initial_density(&basis, &atoms, 1.2);
    let (v_eff, _) = effective_potential(&basis, &v_ion, &rho);
    let h = Hamiltonian::new(&basis, v_eff, &nl);

    // --- steady-state CG step -------------------------------------------
    let mut psi = seed_bands(basis.len());
    let mut ws = CgWorkspace::new(&h, N_BANDS);
    cg_init(&h, &psi, &mut ws);
    // Two warm-up rounds: the first cg_step has no previous direction; the
    // second runs the full β-combination path, i.e. true steady state.
    for _ in 0..2 {
        let _ = cg_residual(&psi, &mut ws);
        cg_step(&h, &mut psi, &mut ws, false);
    }
    // Sanity: the counting allocator really is installed — setup above
    // (workspaces, fields, plans) must have allocated plenty.
    assert!(
        allocation_count() > 100,
        "counting allocator not installed?"
    );
    let before = allocation_count();
    let resid = cg_residual(&psi, &mut ws);
    cg_step(&h, &mut psi, &mut ws, false);
    let cg_allocs = allocation_count() - before;
    assert!(resid.is_finite());
    assert_eq!(
        cg_allocs, 0,
        "steady-state cg_residual+cg_step allocated {cg_allocs} times"
    );

    // --- steady-state H·ψ on a 14³ fragment box --------------------------
    // 14 = 7·2 runs the odd-radix butterflies; at E_cut = 1.5 the sphere
    // has radius ≈ 3 grid units, so the pruned x/y passes skip lines.
    let box_grid = Grid3::cubic(14, 11.375);
    let box_basis = PwBasis::new(box_grid.clone(), 1.5);
    let v_box = RealField::from_fn(box_grid, |r| 0.2 * (r[0] * 0.5).cos() - 0.1 * r[2].sin());
    let box_nl = NonlocalPotential::none(&box_basis);
    let h_box = Hamiltonian::new(&box_basis, v_box, &box_nl);
    let psi_box = seed_bands(box_basis.len());
    let mut hpsi_box = Matrix::zeros(N_BANDS, box_basis.len());
    let mut ham_ws = h_box.workspace();
    h_box.apply_block_with(&psi_box, &mut hpsi_box, &mut ham_ws);
    let before = allocation_count();
    h_box.apply_block_with(&psi_box, &mut hpsi_box, &mut ham_ws);
    let apply_allocs = allocation_count() - before;
    assert_eq!(
        apply_allocs, 0,
        "steady-state apply_block_with on the 14³ box allocated {apply_allocs} times"
    );
    assert!(hpsi_box.as_slice().iter().all(|v| v.is_finite()));

    // --- the same box, two packed real bands per transform pair ----------
    // An even and an odd band count (the odd one ends on a lone band).
    let mut paired_ws = h_box.workspace();
    for nb in [9, 10] {
        let full = seed_block(nb, box_basis.len());
        let mut psi = Matrix::zeros(nb, box_basis.len());
        for b in 0..nb {
            box_basis.pack(full.row(b), psi.row_mut(b));
        }
        let mut hpsi = Matrix::zeros(nb, box_basis.len());
        h_box.apply_block_with(&psi, &mut hpsi, &mut paired_ws);
        let before = allocation_count();
        h_box.apply_block_with(&psi, &mut hpsi, &mut paired_ws);
        let paired_allocs = allocation_count() - before;
        assert_eq!(
            paired_allocs, 0,
            "steady-state paired apply_block_with ({nb} bands, 14³) allocated \
             {paired_allocs} times"
        );
        assert!(hpsi.as_slice().iter().all(|v| v.is_finite()));
    }

    // --- steady-state CG step on the packed GEMM kernel ------------------
    // 64 bands × ~500 planewaves with 12 projectors: the projection
    // products (64·64·npw) and both KB products (12·64·npw) are past the
    // block-size crossover, so they pack.
    let big_grid = Grid3::cubic(22, 17.875);
    let big_basis = PwBasis::new(big_grid.clone(), 1.5);
    let n_big = 64;
    assert!(12 * n_big * big_basis.len() >= 1 << 18 && big_basis.len() > n_big);
    let sites: Vec<[f64; 3]> = (0..12)
        .map(|a| {
            let t = a as f64;
            [
                1.0 + 1.3 * t,
                16.0 - 1.1 * t,
                2.0 + 0.9 * ((a * 5) % 12) as f64,
            ]
        })
        .collect();
    let big_nl =
        NonlocalPotential::new(&big_basis, &sites, |_, q| (-0.5 * q * q).exp(), &[0.7; 12]);
    assert_eq!(big_nl.len(), 12);
    let v_big = RealField::from_fn(big_grid, |r| {
        0.2 * (r[0] * 0.4).cos() - 0.1 * (r[1] * 0.3).sin()
    });
    let h_big = Hamiltonian::new(&big_basis, v_big, &big_nl);
    let mut psi_big = seed_block(n_big, big_basis.len());
    ls3df::math::ortho::cholesky_orthonormalize(&mut psi_big, 1.0)
        .expect("random block is independent");
    let big_allocs = step_allocations(&h_big, psi_big.clone());
    assert_eq!(
        big_allocs, 0,
        "steady-state cg_residual+cg_step on a 64-band block allocated {big_allocs} times"
    );

    // --- the same step on Γ-point packed real rows ------------------------
    let real_big = real_step_allocations(&h_big, &psi_big);
    assert_eq!(
        real_big, 0,
        "steady-state real cg_residual+cg_step on a 64-band block allocated {real_big} times"
    );
    let real_box = real_step_allocations(&h_box, &seed_block(10, box_basis.len()));
    assert_eq!(
        real_box, 0,
        "steady-state real cg_residual+cg_step on 10 bands (14³) allocated {real_box} times"
    );

    // --- steady-state GENPOT (FFT Poisson) solve ------------------------
    // Both solvers must hold the zero-alloc contract: the production
    // path (12 is even → packed r2c forward + c2r inverse through the
    // Fft3rWorkspace in the pooled scratch) and the reference oracle (the
    // complex Fft3 round trip).
    for policy in [KernelPolicy::Fast, KernelPolicy::Reference] {
        let hartree = HartreeSolver::new_with(basis.grid().clone(), policy);
        let mut v_h = RealField::zeros(basis.grid().clone());
        // Warm-up populates the solver's scratch pool.
        hartree.solve_into(&rho, &mut v_h);
        let before = allocation_count();
        hartree.solve_into(&rho, &mut v_h);
        let hartree_allocs = allocation_count() - before;
        assert_eq!(
            hartree_allocs, 0,
            "steady-state HartreeSolver::solve_into ({policy:?}) allocated \
             {hartree_allocs} times"
        );
        assert!(v_h.as_slice().iter().all(|v| v.is_finite()));
    }
}
