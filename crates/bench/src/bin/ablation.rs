//! Regenerates the paper **§IV optimization ablations**, each *measured*
//! with this repository's real solvers on fragment-sized problems:
//!
//! 1. all-band (BLAS-3) vs band-by-band (BLAS-2) eigensolver (paper:
//!    PEtot went from 15% to 45–56% of peak);
//! 2. Gram–Schmidt vs overlap-matrix orthogonalization;
//! 3. blocked vs naive GEMM at the paper's typical fragment shape;
//! 4. q-space vs real-space Kleinman–Bylander projectors (paper §V).
//!
//! Run: `cargo run -p ls3df-bench --bin ablation --release`

use ls3df_math::{c64, Matrix};
use ls3df_pw::{
    solve_all_band, solve_band_by_band, Hamiltonian, NonlocalPotential, PwBasis, SolverOptions,
};
use std::time::Instant;

fn main() {
    // ---- 1. All-band vs band-by-band (measured) --------------------------
    println!("ablation 1 — eigensolver variant on a fragment-sized problem (measured)");
    // A realistic fragment: ~1,500 planewaves × 32 bands (the paper's
    // production fragments are 3000 × 200 per group member).
    let grid = ls3df_grid::Grid3::cubic(24, 18.0);
    let basis = PwBasis::new(grid.clone(), 3.0);
    let v = ls3df_grid::RealField::from_fn(grid, |r| {
        let d2 = (r[0] - 9.0).powi(2) + (r[1] - 9.0).powi(2) + (r[2] - 9.0).powi(2);
        -0.8 * (-0.1 * d2).exp()
    });
    let nl = NonlocalPotential::none(&basis);
    let h = Hamiltonian::new(&basis, v, &nl);
    let nb = 32;
    println!(
        "  basis: {} planewaves × {} bands, target residual 1e-5",
        basis.len(),
        nb
    );
    // Time-to-tolerance comparison (the fair metric: both must reach the
    // same residual).
    let opts = SolverOptions {
        max_iter: 120,
        tol: 1e-5,
        ..Default::default()
    };

    let mut psi_a = ls3df_pw::scf::random_start(nb, &basis, 1);
    let t = Instant::now();
    let sa = solve_all_band(&h, &mut psi_a, &opts);
    let t_all = t.elapsed().as_secs_f64();

    let mut psi_b = ls3df_pw::scf::random_start(nb, &basis, 1);
    let t = Instant::now();
    let sb = solve_band_by_band(&h, &mut psi_b, &opts);
    let t_bbb = t.elapsed().as_secs_f64();

    println!(
        "  all-band (BLAS-3 shaped):     {:>7.2}s to residual {:.1e} ({} iters)",
        t_all, sa.residual, sa.iterations
    );
    println!(
        "  band-by-band (BLAS-2 shaped): {:>7.2}s to residual {:.1e} ({} iters/band)",
        t_bbb, sb.residual, sb.iterations
    );
    println!(
        "  at equal wall time the all-band residual is {:.0}× lower — the all-band\n  scheme converges much further per second (paper: PEtot 15% → 45-56% of peak)\n",
        sb.residual / sa.residual
    );

    // ---- 2. Orthogonalization variant (measured) --------------------------
    println!("ablation 2 — orthogonalization kernel on a wavefunction block (measured)");
    let npw = basis.len();
    let block = ls3df_pw::scf::random_start(96, &basis, 9);
    let reps = 10;
    let t = Instant::now();
    for _ in 0..reps {
        let mut b = block.clone();
        ls3df_math::ortho::gram_schmidt(&mut b, 1.0).unwrap();
    }
    let t_gs = t.elapsed().as_secs_f64() / reps as f64;
    let t = Instant::now();
    for _ in 0..reps {
        let mut b = block.clone();
        ls3df_math::ortho::cholesky_orthonormalize(&mut b, 1.0).unwrap();
    }
    let t_ch = t.elapsed().as_secs_f64() / reps as f64;
    println!("  block: 96 bands × {npw} planewaves");
    println!("  Gram–Schmidt (band-by-band): {:>8.4}s", t_gs);
    println!("  overlap-matrix (Cholesky):   {:>8.4}s", t_ch);
    println!(
        "  ratio {:.2}× — note: the overlap-matrix win in the paper comes from vendor\n  DGEMM + within-group parallelism; on this scalar single-core build the\n  streaming Gram–Schmidt dots are competitive (the BLAS-3 *shape* is what\n  this ablation verifies; ablation 3 shows the blocking win directly)",
        t_gs / t_ch
    );

    // ---- 3. GEMM kernel (measured; paper's DGEMM-sized matrices) ----------
    println!("\nablation 3 — GEMM kernel at the paper's typical fragment shape (measured)");
    let (m, k, n) = (200, 3000, 200); // paper: 'typical matrix … 3000 × 200'
    let a = Matrix::from_fn(m, k, |i, j| {
        c64::new((i + j) as f64 * 1e-4, (i as f64 - j as f64) * 1e-4)
    });
    let b = Matrix::from_fn(k, n, |i, j| c64::new((i * j % 17) as f64 * 1e-3, 0.1));
    let t = Instant::now();
    let _ = ls3df_math::gemm::matmul(&a, &b);
    let t_blocked = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = ls3df_math::gemm::matmul_naive(&a, &b);
    let t_naive = t.elapsed().as_secs_f64();
    let flops = 8.0 * (m * k * n) as f64; // complex MAC = 8 real flops
    println!(
        "  blocked: {:.3}s ({:.2} Gflop/s) | naive: {:.3}s ({:.2} Gflop/s) | speedup {:.2}×",
        t_blocked,
        flops / t_blocked / 1e9,
        t_naive,
        flops / t_naive / 1e9,
        t_naive / t_blocked
    );

    // ---- 4. q-space vs real-space nonlocal projectors (measured) ----------
    // Paper §V: "a reciprocal q-space implementation of the nonlocal
    // potential is faster than a real-space implementation" for their
    // fragment sizes.
    println!("\nablation 4 — Kleinman–Bylander projector implementation (measured)");
    let grid = ls3df_grid::Grid3::cubic(20, 16.0);
    let basis = PwBasis::new(grid.clone(), 2.0);
    let v = ls3df_grid::RealField::from_fn(grid.clone(), |r| 0.05 * (r[0] - 8.0));
    // A fragment-like payload: 27 atoms with one projector each.
    let mut positions = Vec::new();
    for z in 0..3 {
        for y in 0..3 {
            for x in 0..3 {
                positions.push([
                    2.0 + 4.0 * x as f64,
                    2.0 + 4.0 * y as f64,
                    2.0 + 4.0 * z as f64,
                ]);
            }
        }
    }
    let rb = vec![1.2; 27];
    let e_kb = vec![1.0; 27];
    let nl_q = NonlocalPotential::new(
        &basis,
        &positions,
        |a, q| (-q * q * rb[a] * rb[a] / 2.0).exp(),
        &e_kb,
    );
    let h_q = Hamiltonian::new(&basis, v.clone(), &nl_q);
    let nl_r = ls3df_pw::RealSpaceNonlocal::new(&grid, &positions, &rb, &e_kb, 4.0);
    let psi = ls3df_pw::scf::random_start(32, &basis, 5);
    println!(
        "  {} planewaves × 32 bands, 27 projectors (avg sphere {} pts of {} grid pts)",
        basis.len(),
        nl_r.avg_sphere_points() as usize,
        grid.len()
    );
    let reps = 5;
    let t = Instant::now();
    for _ in 0..reps {
        let _ = h_q.apply_block(&psi);
    }
    let t_q = t.elapsed().as_secs_f64() / reps as f64;
    let t = Instant::now();
    for _ in 0..reps {
        let _ = ls3df_pw::apply_block_realspace(&basis, &v, &nl_r, &psi);
    }
    let t_r = t.elapsed().as_secs_f64() / reps as f64;
    println!("  H·ψ with q-space projectors:     {t_q:.3}s");
    println!("  H·ψ with real-space projectors:  {t_r:.3}s");
    println!(
        "  q-space is {:.2}× {} at this fragment size (paper §V picked q-space for fragments)",
        if t_r > t_q { t_r / t_q } else { t_q / t_r },
        if t_r > t_q { "faster" } else { "slower" }
    );
}
