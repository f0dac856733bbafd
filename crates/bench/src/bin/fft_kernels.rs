//! Before/after microbenchmark for the FFT + GEMM kernel hot paths.
//!
//! "Before" reconstructs the pre-optimization kernels from the same
//! public primitives: a 3-D transform that walks the y/z passes line by
//! line through freshly allocated gather buffers and the allocating
//! [`Fft1d::forward`]/[`inverse`] calls (which build Bluestein scratch per
//! call), and a Poisson solve through [`hartree_potential`], which
//! rebuilds the [`Fft3`] plan and reciprocal kernel every call. "After"
//! is the shipped path: [`Fft3::forward_with`]/[`inverse_with`] through
//! one reused workspace (batched strided line transforms) and
//! [`HartreeSolver::solve_into`] (cached plan + pooled scratch).
//!
//! On top of that, [`KernelPolicy`] A/B sections time the real-flop
//! kernels against their reference arithmetic:
//!
//! - **r2c vs complex 3-D**: the packed [`Fft3r`] round trip (the GENPOT
//!   transform shape) against the complex [`Fft3`] round trip on the
//!   same real field. This is the headline number: the N/2 packing plus
//!   half-spectrum y/z passes should beat the complex path by ≥ 1.5×.
//! - **fast vs reference on power-of-two lines**: 256-point lines
//!   through the strided batch API of [`Fft1d::new_with`] (the shape of
//!   every y/z pass of a 3-D transform) under `fast` (mixed-radix,
//!   radices {4, 2}) and `reference` (radix-2).
//! - **GEMM microkernel**: a BLAS-3 band-block update through
//!   [`gemm_with`] under both policies (register-tiled packed kernel vs
//!   the blocked reference loop).
//! - **GEMM tiers**: the packed kernel's baseline (SSE2) instantiation
//!   against the one this host dispatches to, at 16/32/64/130 bands × the
//!   planewave counts of the ZnTeO fragment boxes (751/1157/1715/2553),
//!   Gflop/s each, outputs compared bit for bit.
//! - **real tile** (`real_tile`): the same product on the `c64` 4×4
//!   register tile, on an `f64` 4×4 tile and on the wide `f64` tile the
//!   kernel selects for 8-byte scalars, both tiers — the measurement
//!   behind the real tile's width, and the rate the Γ-point real block
//!   algebra of `ls3df-pw` runs its GEMMs at (Gflop/s count 8 flops per
//!   complex multiply-add, 2 per real one: the real rows show *fewer*
//!   Gflop/s and *less* time).
//! - **real eigh + ortho** (`real_eigh_ortho`): the subspace
//!   diagonalization and the overlap-Cholesky orthonormalization at the
//!   same shapes, Hermitian/`c64` against real-symmetric/`f64`.
//! - **row loops vs block products**: the subspace projection of one
//!   `cg_step` and the three rotations of one `rr_rotate` at 130 × 2553,
//!   as the `dotc`/`axpy` row loops the solver ran before and as the
//!   [`gemm_into`] products it runs now, cross-checked.
//! - **block-size crossover**: the same two operations, row loops against
//!   the packed kernel forced on (both tiers), down a ladder of shapes
//!   around `m·k·n = 2¹⁸` — the measurement behind the one constant that
//!   sends a product to the packed kernel (and, in the allocating entry
//!   points, to the pool).
//! - **mixed-radix vs Bluestein**: the fragment box edges — 1-D lines of
//!   n ∈ {12, 14, 18, 22, 40} through the strided batch API and 3-D
//!   12³/14³/18³/22³ round trips — under `fast` (mixed-radix Stockham,
//!   lines innermost) and `reference` (Bluestein over radix-2; the
//!   pre-mixed-radix `fast` plan was the same Bluestein over radix-4,
//!   ≈ 1.2× quicker than this baseline).
//! - **pruned vs full H·ψ**: [`Hamiltonian::apply_block_with`] on a 14³
//!   and a 22³ fragment box (sphere-pruned transforms, one folded
//!   `V(r)/N` scaling) against the same mixed-radix plan run over the
//!   full grid with the three separate normalizations.
//!
//! The default 40³ grid is not a power of two: 40 = 2³·5 ran every line
//! through the Bluestein kernel before the mixed-radix plan existed (its
//! per-call scratch was the dominant allocation cost of the "before"
//! path) and still does under `reference`. Each variant also cross-checks
//! its output against the other, so the table doubles as an equivalence
//! test.
//! Results land in `BENCH_fft_kernels.json` (schema in EXPERIMENTS.md).
//!
//! Run: `cargo run -p ls3df-bench --bin fft_kernels --release -- [n] [reps]`

use ls3df_bench::arg;
use ls3df_fft::{Fft1d, Fft3, Fft3r};
use ls3df_grid::{Grid3, RealField};
use ls3df_math::ortho::cholesky_orthonormalize;
use ls3df_math::vec_ops::{axpy, dotc};
use ls3df_math::{
    c64, eigh_fast, gemm_into, gemm_packed_into, gemm_with, GemmScratch, KernelPolicy, Matrix, Op,
    Tier,
};
use ls3df_obs::{Json, Report};
use ls3df_pw::hartree::{hartree_potential, HartreeSolver};
use ls3df_pw::{Hamiltonian, NonlocalPotential, PwBasis};
use std::path::Path;
use std::time::Instant;

/// Deterministic filler (no RNG dependency, same field every run).
fn lcg_field(len: usize, seed: u64) -> Vec<c64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let re = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let im = ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
            c64::new(re, im)
        })
        .collect()
}

/// The pre-refactor 3-D transform: per-line gather/scatter buffers for
/// the strided passes and the allocating 1-D entry points throughout.
fn fft3_line_by_line(plans: &[Fft1d; 3], dims: [usize; 3], data: &mut [c64], forward: bool) {
    let [n1, n2, n3] = dims;
    let go = |plan: &Fft1d, line: &mut [c64]| {
        if forward {
            plan.forward(line);
        } else {
            plan.inverse(line);
        }
    };
    for line in data.chunks_mut(n1) {
        go(&plans[0], line);
    }
    for iz in 0..n3 {
        for ix in 0..n1 {
            let mut line: Vec<c64> = (0..n2).map(|iy| data[(iz * n2 + iy) * n1 + ix]).collect();
            go(&plans[1], &mut line);
            for (iy, v) in line.into_iter().enumerate() {
                data[(iz * n2 + iy) * n1 + ix] = v;
            }
        }
    }
    let plane = n1 * n2;
    for l in 0..plane {
        let mut line: Vec<c64> = (0..n3).map(|iz| data[iz * plane + l]).collect();
        go(&plans[2], &mut line);
        for (iz, v) in line.into_iter().enumerate() {
            data[iz * plane + l] = v;
        }
    }
}

fn max_diff(a: &[c64], b: &[c64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// H·ψ's local-potential term the pre-pruning way, from public API: the
/// full-grid transforms of the basis plan with their three separate
/// normalizations (`1/N` in the inverse, `N/√Ω`, `√Ω/N`), plus the
/// kinetic diagonal. `slots` are the basis vectors' grid indices.
fn apply_full_grid(
    basis: &PwBasis,
    slots: &[usize],
    v: &RealField,
    psi: &Matrix<c64>,
    hpsi: &mut Matrix<c64>,
    buf: &mut [c64],
    ws: &mut ls3df_fft::Fft3Workspace,
) {
    let grid = basis.grid();
    let up = grid.len() as f64 / grid.volume().sqrt();
    let down = 1.0 / up;
    for b in 0..psi.rows() {
        buf.fill(c64::ZERO);
        for (&slot, &c) in slots.iter().zip(psi.row(b)) {
            buf[slot] = c;
        }
        basis.fft().inverse_with(buf, ws);
        for (x, &vv) in buf.iter_mut().zip(v.as_slice()) {
            *x = x.scale(up).scale(vv);
        }
        basis.fft().forward_with(buf, ws);
        let out = hpsi.row_mut(b);
        for (i, &slot) in slots.iter().enumerate() {
            out[i] = buf[slot].scale(down) + psi.row(b)[i].scale(0.5 * basis.g2()[i]);
        }
    }
}

/// A deterministic `(rows × cols)` block with entries in `[-½, ½)²`.
fn lcg_block(rows: usize, cols: usize, seed: u64) -> Matrix<c64> {
    Matrix::from_vec(rows, cols, lcg_field(rows * cols, seed))
}

/// The subspace projection `D −= (D·Ψᴴ)·Ψ` as the all-band solver ran it
/// before it went back to GEMM: `n_b²` `dotc`, then `n_b²` `axpy`.
fn project_rows(psi: &Matrix<c64>, d: &mut Matrix<c64>, o: &mut Matrix<c64>) {
    let nb = psi.rows();
    for b in 0..nb {
        for j in 0..nb {
            o[(b, j)] = dotc(psi.row(j), d.row(b));
        }
    }
    for b in 0..nb {
        for j in 0..nb {
            axpy(-o[(b, j)], psi.row(j), d.row_mut(b));
        }
    }
}

/// A block product entry point: [`gemm_into`] or [`gemm_packed_into`].
type Gemm =
    fn(&mut GemmScratch<c64>, c64, &Matrix<c64>, Op, &Matrix<c64>, Op, c64, &mut Matrix<c64>);

/// The same projection as two block products, `O = Ψ·Dᴴ`, `D −= Oᴴ·Ψ`.
fn project_block(
    gemm: Gemm,
    scratch: &mut GemmScratch<c64>,
    psi: &Matrix<c64>,
    d: &mut Matrix<c64>,
    o: &mut Matrix<c64>,
) {
    let (one, zero) = (c64::ONE, c64::ZERO);
    gemm(scratch, one, psi, Op::None, d, Op::ConjTrans, zero, o);
    gemm(scratch, -one, o, Op::ConjTrans, psi, Op::None, one, d);
}

/// The Rayleigh–Ritz rotation `out = Uᵀ·X` as `n_b²` row `axpy`s.
fn rotate_rows(u: &Matrix<c64>, x: &Matrix<c64>, out: &mut Matrix<c64>) {
    let nb = x.rows();
    out.as_mut_slice().fill(c64::ZERO);
    for i in 0..nb {
        for j in 0..nb {
            axpy(u[(j, i)], x.row(j), out.row_mut(i));
        }
    }
}

fn main() {
    let t_main = Instant::now();
    let n: usize = arg(1, 40);
    let reps: usize = arg(2, 20);
    let dims = [n, n, n];
    let len = n * n * n;
    println!("fft_kernels: {n}³ grid ({len} points), {reps} reps per kernel\n");

    let plans = [Fft1d::new(n), Fft1d::new(n), Fft1d::new(n)];
    let fft3 = Fft3::new(n, n, n);
    let mut ws = fft3.workspace();
    let field = lcg_field(len, 0x5eed);

    // Equivalence check first: one round trip through each path.
    let mut a = field.clone();
    let mut b = field.clone();
    fft3_line_by_line(&plans, dims, &mut a, true);
    fft3_line_by_line(&plans, dims, &mut a, false);
    fft3.forward_with(&mut b, &mut ws);
    fft3.inverse_with(&mut b, &mut ws);
    let diff = max_diff(&a, &b);
    assert!(diff < 1e-12, "kernel paths diverged: {diff:e}");

    let bench_n = |label: &str, inner: usize, mut f: Box<dyn FnMut() + '_>| -> f64 {
        f(); // warm-up (plan twiddles, workspace pools, page faults)
        let t = Instant::now();
        for _ in 0..reps * inner {
            f();
        }
        let per = t.elapsed().as_secs_f64() / (reps * inner) as f64;
        println!("  {label:<44} {:9.4} ms/round-trip", per * 1e3);
        per
    };
    let bench = |label: &str, f: Box<dyn FnMut() + '_>| bench_n(label, 1, f);
    // The fragment-box kernels run in tens of microseconds: time 32 calls
    // per rep so each measurement spans milliseconds, not timer ticks.
    let bench_small = |label: &str, f: Box<dyn FnMut() + '_>| bench_n(label, 32, f);

    println!("3-D FFT forward+inverse round trip:");
    let mut buf = field.clone();
    let before = bench(
        "line-by-line, allocating (pre-refactor)",
        Box::new(|| {
            buf.copy_from_slice(&field);
            fft3_line_by_line(&plans, dims, &mut buf, true);
            fft3_line_by_line(&plans, dims, &mut buf, false);
        }),
    );
    let mut buf2 = field.clone();
    let after = bench(
        "batched strided + reused workspace",
        Box::new(|| {
            buf2.copy_from_slice(&field);
            fft3.forward_with(&mut buf2, &mut ws);
            fft3.inverse_with(&mut buf2, &mut ws);
        }),
    );
    println!("  speedup: {:.2}x\n", before / after);

    // GENPOT: the FFT Poisson solve.
    let grid = Grid3::cubic(n, 10.0);
    let rho = RealField::from_fn(grid.clone(), |r| {
        (r[0] - 5.0).mul_add(r[1] - 4.0, (r[2] - 6.0).cos())
    });
    let solver = HartreeSolver::new(grid.clone());
    let mut v_h = RealField::zeros(grid);
    solver.solve_into(&rho, &mut v_h);
    let reference = hartree_potential(&rho);
    let hdiff = v_h
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    assert!(hdiff < 1e-10, "hartree paths diverged: {hdiff:e}");

    println!("GENPOT Poisson solve:");
    let before_h = bench(
        "hartree_potential (plan rebuilt per call)",
        Box::new(|| {
            let _ = hartree_potential(&rho);
        }),
    );
    let after_h = bench(
        "HartreeSolver::solve_into (cached plan)",
        Box::new(|| {
            solver.solve_into(&rho, &mut v_h);
        }),
    );
    println!("  speedup: {:.2}x\n", before_h / after_h);

    // --- r2c packed transform vs complex transform (GENPOT shape) -------
    // The Poisson solve transforms a *real* field; the packed r2c path
    // does the x pass at length n/2 via the two-reals-in-one-complex
    // trick and carries only the half spectrum through the y/z passes.
    let real_field: Vec<f64> = field.iter().map(|v| v.re).collect();
    let rfft = Fft3r::new(dims);
    let mut rws = rfft.workspace();
    let mut spec = vec![c64::ZERO; rfft.packed_len()];
    let mut real_back = vec![0.0_f64; len];
    // Equivalence: kept bins of the packed forward must match the complex
    // transform of the same real field, and the c2r inverse must restore it.
    rfft.forward(&real_field, &mut spec, &mut rws);
    let mut cplx: Vec<c64> = real_field.iter().map(|&v| c64::new(v, 0.0)).collect();
    fft3.forward_with(&mut cplx, &mut ws);
    let h1 = rfft.packed_nx();
    let mut rdiff = 0.0_f64;
    for iz in 0..n {
        for iy in 0..n {
            for ix in 0..h1 {
                let p = spec[(iz * n + iy) * h1 + ix];
                let f = cplx[(iz * n + iy) * n + ix];
                rdiff = rdiff.max((p - f).abs());
            }
        }
    }
    assert!(rdiff < 1e-10, "r2c and complex spectra diverged: {rdiff:e}");
    rfft.inverse(&mut spec, &mut real_back, &mut rws);
    let rt = real_back
        .iter()
        .zip(&real_field)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(rt < 1e-10, "r2c round trip diverged: {rt:e}");

    println!("real-field 3-D round trip (GENPOT transform shape):");
    let mut cbuf = vec![c64::ZERO; len];
    let before_r = bench(
        "complex Fft3 on real data",
        Box::new(|| {
            for (d, s) in cbuf.iter_mut().zip(&real_field) {
                *d = c64::new(*s, 0.0);
            }
            fft3.forward_with(&mut cbuf, &mut ws);
            fft3.inverse_with(&mut cbuf, &mut ws);
        }),
    );
    let after_r = bench(
        "packed r2c/c2r Fft3r (half spectrum)",
        Box::new(|| {
            rfft.forward(&real_field, &mut spec, &mut rws);
            rfft.inverse(&mut spec, &mut real_back, &mut rws);
        }),
    );
    println!("  speedup: {:.2}x\n", before_r / after_r);

    // --- fast vs reference on power-of-two lines ------------------------
    // `lines` interleaved lines of `n1d` points (`data[i·lines + l]`),
    // the layout of a 3-D transform's y/z pencils.
    let n1d = 256usize;
    let lines = 2048usize;
    let line_data = lcg_field(n1d * lines, 0xfeed);
    let p_ref = Fft1d::new_with(n1d, KernelPolicy::Reference);
    let p_fast = Fft1d::new_with(n1d, KernelPolicy::Fast);
    let (mut ws_ref, mut ws_fast) = (p_ref.workspace(), p_fast.workspace());
    let mut check_ref = line_data.clone();
    let mut check_fast = line_data.clone();
    p_ref.forward_strided(&mut check_ref, lines, lines, &mut ws_ref);
    p_fast.forward_strided(&mut check_fast, lines, lines, &mut ws_fast);
    let pow2_diff = max_diff(&check_ref, &check_fast);
    assert!(
        pow2_diff < 1e-11,
        "mixed radix diverged from radix-2: {pow2_diff:e}"
    );

    println!("1-D power-of-two lines ({lines} × n={n1d}, strided batch, forward+inverse):");
    let mut lbuf = line_data.clone();
    let before_x = bench(
        "radix-2 (reference policy)",
        Box::new(|| {
            lbuf.copy_from_slice(&line_data);
            p_ref.forward_strided(&mut lbuf, lines, lines, &mut ws_ref);
            p_ref.inverse_strided(&mut lbuf, lines, lines, &mut ws_ref);
        }),
    );
    let mut lbuf2 = line_data.clone();
    let after_x = bench(
        "mixed radix {4, 2} (fast policy)",
        Box::new(|| {
            lbuf2.copy_from_slice(&line_data);
            p_fast.forward_strided(&mut lbuf2, lines, lines, &mut ws_fast);
            p_fast.inverse_strided(&mut lbuf2, lines, lines, &mut ws_fast);
        }),
    );
    println!("  speedup: {:.2}x\n", before_x / after_x);

    // --- GEMM register-tile microkernel vs blocked reference ------------
    // Band-block shape from the all-band CG update: (bands × planewaves)
    // times (planewaves × bands) — comfortably past the microkernel's
    // dispatch threshold.
    let (m, k, nn) = (64usize, 1200usize, 64usize);
    let a = Matrix::from_fn(m, k, |i, j| {
        c64::new(
            ((i * 31 + j * 7) % 13) as f64 - 6.0,
            ((i + 3 * j) % 11) as f64 - 5.0,
        )
    });
    let b = Matrix::from_fn(k, nn, |i, j| {
        c64::new(
            ((i * 5 + j * 17) % 9) as f64 - 4.0,
            ((2 * i + j) % 7) as f64 - 3.0,
        )
    });
    let mut c_ref = Matrix::zeros(m, nn);
    let mut c_fast = Matrix::zeros(m, nn);
    let one = c64::new(1.0, 0.0);
    let zero = c64::ZERO;
    gemm_with(
        KernelPolicy::Reference,
        one,
        &a,
        Op::None,
        &b,
        Op::None,
        zero,
        &mut c_ref,
    );
    gemm_with(
        KernelPolicy::Fast,
        one,
        &a,
        Op::None,
        &b,
        Op::None,
        zero,
        &mut c_fast,
    );
    let gdiff = max_diff(c_ref.as_slice(), c_fast.as_slice());
    assert!(gdiff < 1e-9 * k as f64, "gemm kernels diverged: {gdiff:e}");

    println!("complex GEMM C = A·B ({m}×{k} · {k}×{nn}):");
    let before_g = bench(
        "blocked reference loop",
        Box::new(|| {
            gemm_with(
                KernelPolicy::Reference,
                one,
                &a,
                Op::None,
                &b,
                Op::None,
                zero,
                &mut c_ref,
            );
        }),
    );
    let after_g = bench(
        "packed register-tile microkernel",
        Box::new(|| {
            gemm_with(
                KernelPolicy::Fast,
                one,
                &a,
                Op::None,
                &b,
                Op::None,
                zero,
                &mut c_fast,
            );
        }),
    );
    println!("  speedup: {:.2}x\n", before_g / after_g);

    // --- packed GEMM: baseline tier vs the tier this host dispatches to ---
    // The rotation product Uᵀ·Ψ at 16/32/64/130 bands × the planewave
    // counts of the ZnTeO benchmark workload's 1-, 2-, 4- and 8-piece
    // fragment boxes. Forced onto the packed kernel so the 16-band shape
    // (below the block-size crossover) is measured too.
    let host = Tier::host();
    println!(
        "packed GEMM Uᵀ·Ψ, baseline tier vs dispatched tier ({}):",
        host.name()
    );
    let mut tier_rows: Vec<Json> = Vec::new();
    for (nb, npw) in [(16usize, 751usize), (32, 1157), (64, 1715), (130, 2553)] {
        let psi = lcg_block(nb, npw, 0x7e ^ nb as u64);
        let u = lcg_block(nb, nb, 0x7f ^ nb as u64);
        let gflop = 8.0 * (nb * nb * npw) as f64 * 1e-9;
        let mut out = [Matrix::zeros(nb, npw), Matrix::zeros(nb, npw)];
        let mut secs = [0.0_f64; 2];
        for (slot, tier) in [Tier::BASELINE, host].into_iter().enumerate() {
            let mut scratch = GemmScratch::with(KernelPolicy::Fast, tier);
            let c = &mut out[slot];
            let inner = (2e8 / (nb * nb * npw) as f64).ceil() as usize;
            secs[slot] = bench_n(
                &format!("{nb} × {npw}, {} tier", tier.name()),
                inner,
                Box::new(|| {
                    gemm_packed_into(&mut scratch, one, &u, Op::Trans, &psi, Op::None, zero, c);
                }),
            );
        }
        let identical = out[0]
            .as_slice()
            .iter()
            .zip(out[1].as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
        assert!(identical, "{nb} × {npw}: tiers are not bit-identical");
        println!(
            "  {:.2} -> {:.2} Gflop/s ({:.2}x), bit-identical",
            gflop / secs[0],
            gflop / secs[1],
            secs[0] / secs[1]
        );
        tier_rows.push(Json::obj(vec![
            ("bands", Json::num(nb as f64)),
            ("planewaves", Json::num(npw as f64)),
            ("baseline_gflops", Json::num(gflop / secs[0])),
            ("dispatched_gflops", Json::num(gflop / secs[1])),
            ("bit_identical", Json::Bool(identical)),
        ]));
    }
    println!();

    // --- the real register tile ---------------------------------------------
    // Uᵀ·Ψ again, now also on real operands: the 4×4 tile the complex
    // kernel uses (4 AVX2 accumulators for f64 — too few independent add
    // chains) against the wide tile `GemmScratch` selects for 8-byte
    // scalars. Widths are cross-checked bit for bit.
    println!("packed GEMM Uᵀ·Ψ, c64 4×4 tile vs f64 4×4 tile vs f64 wide tile:");
    let mut real_tile_rows: Vec<Json> = Vec::new();
    let mut real_shapes: Vec<Json> = Vec::new();
    for (nb, npw) in [(16usize, 751usize), (32, 1157), (64, 1715), (130, 2553)] {
        let psi = lcg_block(nb, npw, 0x8e ^ nb as u64);
        let u = lcg_block(nb, nb, 0x8f ^ nb as u64);
        let (psi_r, u_r) = (psi.re(), u.re());
        let madds = (nb * nb * npw) as f64;
        let inner = (2e8 / madds).ceil() as usize;
        for tier in [Tier::BASELINE, host] {
            let mut out_c = Matrix::zeros(nb, npw);
            let mut scratch = GemmScratch::with(KernelPolicy::Fast, tier);
            let complex_s = bench_n(
                &format!("{nb} × {npw}, {} tier, c64 4×4", tier.name()),
                inner,
                Box::new(|| {
                    let c = &mut out_c;
                    gemm_packed_into(&mut scratch, one, &u, Op::Trans, &psi, Op::None, zero, c);
                }),
            );
            let mut real_s = [0.0_f64; 2];
            let mut out_r = [Matrix::zeros(nb, npw), Matrix::zeros(nb, npw)];
            for (slot, label) in ["f64 4×4", "f64 wide"].into_iter().enumerate() {
                let mut scratch = GemmScratch::<f64>::with(KernelPolicy::Fast, tier);
                if slot == 0 {
                    scratch = scratch.narrow_tile();
                }
                let c = &mut out_r[slot];
                real_s[slot] = bench_n(
                    &format!("{nb} × {npw}, {} tier, {label}", tier.name()),
                    inner,
                    Box::new(|| {
                        gemm_packed_into(
                            &mut scratch,
                            1.0,
                            &u_r,
                            Op::Trans,
                            &psi_r,
                            Op::None,
                            0.0,
                            c,
                        );
                    }),
                );
            }
            let identical = out_r[0]
                .as_slice()
                .iter()
                .zip(out_r[1].as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(identical, "{nb} × {npw}: tile widths are not bit-identical");
            println!(
                "  c64 {:.2} Gflop/s | f64 4×4 {:.2} | f64 wide {:.2} Gflop/s; wide vs c64 {:.2}x faster",
                8.0 * madds / complex_s * 1e-9,
                2.0 * madds / real_s[0] * 1e-9,
                2.0 * madds / real_s[1] * 1e-9,
                complex_s / real_s[1]
            );
            real_tile_rows.push(Json::obj(vec![
                ("bands", Json::num(nb as f64)),
                ("planewaves", Json::num(npw as f64)),
                ("tier", Json::str(tier.name())),
                ("c64_4x4_ms", Json::num(complex_s * 1e3)),
                ("f64_4x4_ms", Json::num(real_s[0] * 1e3)),
                ("f64_wide_ms", Json::num(real_s[1] * 1e3)),
                ("c64_4x4_gflops", Json::num(8.0 * madds / complex_s * 1e-9)),
                ("f64_4x4_gflops", Json::num(2.0 * madds / real_s[0] * 1e-9)),
                ("f64_wide_gflops", Json::num(2.0 * madds / real_s[1] * 1e-9)),
                ("widths_bit_identical", Json::Bool(identical)),
            ]));
        }

        // The O(n_b³) and triangular work on the same shapes: Hermitian
        // vs real-symmetric eigh, complex vs real overlap-Cholesky.
        let herm = Matrix::from_fn(nb, nb, |i, j| (u[(i, j)] + u[(j, i)].conj()).scale(0.5));
        let sym = herm.re();
        let small = (4e6 / (nb * nb * nb) as f64).ceil() as usize;
        let eigh_c = bench_n(
            &format!("{nb} × {nb} eigh, Hermitian c64"),
            small,
            Box::new(|| {
                std::hint::black_box(eigh_fast(&herm));
            }),
        );
        let eigh_r = bench_n(
            &format!("{nb} × {nb} eigh, real-symmetric f64"),
            small,
            Box::new(|| {
                std::hint::black_box(eigh_fast(&sym));
            }),
        );
        let (mut work_c, mut work_r) = (psi.clone(), psi_r.clone());
        let ortho_c = bench_n(
            &format!("{nb} × {npw} overlap-Cholesky ortho, c64"),
            inner,
            Box::new(|| {
                work_c.as_mut_slice().copy_from_slice(psi.as_slice());
                cholesky_orthonormalize(&mut work_c, 1.0).expect("independent rows");
            }),
        );
        let ortho_r = bench_n(
            &format!("{nb} × {npw} overlap-Cholesky ortho, f64"),
            inner,
            Box::new(|| {
                work_r.as_mut_slice().copy_from_slice(psi_r.as_slice());
                cholesky_orthonormalize(&mut work_r, 1.0).expect("independent rows");
            }),
        );
        println!(
            "  eigh {:.2}x, ortho {:.2}x faster real",
            eigh_c / eigh_r,
            ortho_c / ortho_r
        );
        real_shapes.push(Json::obj(vec![
            ("bands", Json::num(nb as f64)),
            ("planewaves", Json::num(npw as f64)),
            ("eigh_c64_ms", Json::num(eigh_c * 1e3)),
            ("eigh_f64_ms", Json::num(eigh_r * 1e3)),
            ("ortho_c64_ms", Json::num(ortho_c * 1e3)),
            ("ortho_f64_ms", Json::num(ortho_r * 1e3)),
        ]));
    }
    println!();

    // --- row loops vs block products at the 8-piece fragment shape --------
    // One cg_step's subspace projection and one rr_rotate's three
    // rotations (Ψ, HΨ, D_prev), the way the solver ran them before
    // (dotc/axpy per band pair) and the way it runs them now.
    let (nb, npw) = (130usize, 2553usize);
    let psi = lcg_block(nb, npw, 0xa1);
    let d0 = lcg_block(nb, npw, 0xa2);
    let u = lcg_block(nb, nb, 0xa3);
    let mut scratch = GemmScratch::new();
    let (mut d_rows, mut d_block) = (d0.clone(), d0.clone());
    let mut o = Matrix::zeros(nb, nb);
    project_rows(&psi, &mut d_rows, &mut o);
    project_block(gemm_into, &mut scratch, &psi, &mut d_block, &mut o);
    let pdiff = max_diff(d_rows.as_slice(), d_block.as_slice());
    assert!(pdiff < 1e-11, "projection paths diverged: {pdiff:e}");
    let (mut r_rows, mut r_block) = (Matrix::zeros(nb, npw), Matrix::zeros(nb, npw));
    rotate_rows(&u, &psi, &mut r_rows);
    gemm_into(
        &mut scratch,
        one,
        &u,
        Op::Trans,
        &psi,
        Op::None,
        zero,
        &mut r_block,
    );
    let rdiff = max_diff(r_rows.as_slice(), r_block.as_slice());
    assert!(rdiff < 1e-11, "rotation paths diverged: {rdiff:e}");

    println!("all-band block operations at {nb} bands × {npw} planewaves:");
    let before_p = bench(
        "cg_step projection, dotc/axpy row loops",
        Box::new(|| {
            d_rows.as_mut_slice().copy_from_slice(d0.as_slice());
            project_rows(&psi, &mut d_rows, &mut o);
        }),
    );
    let mut o2 = Matrix::zeros(nb, nb);
    let after_p = bench(
        "cg_step projection, two block products",
        Box::new(|| {
            d_block.as_mut_slice().copy_from_slice(d0.as_slice());
            project_block(gemm_into, &mut scratch, &psi, &mut d_block, &mut o2);
        }),
    );
    println!("  speedup: {:.2}x", before_p / after_p);
    let before_rot = bench(
        "rr_rotate rotations ×3, axpy row loops",
        Box::new(|| {
            for _ in 0..3 {
                rotate_rows(&u, &psi, &mut r_rows);
            }
        }),
    );
    let mut scratch_rot = GemmScratch::new();
    let after_rot = bench(
        "rr_rotate rotations ×3, block products",
        Box::new(|| {
            for _ in 0..3 {
                gemm_into(
                    &mut scratch_rot,
                    one,
                    &u,
                    Op::Trans,
                    &psi,
                    Op::None,
                    zero,
                    &mut r_block,
                );
            }
        }),
    );
    println!("  speedup: {:.2}x\n", before_rot / after_rot);

    // --- the block-size crossover ------------------------------------------
    // Row loops vs the packed kernel (forced on, both tiers) for the same
    // two operations down a ladder of fragment-like shapes. BLOCK_MIN_WORK
    // (2¹⁸) must sit where the packed kernel is not behind on either
    // tier; the crystal8 fragments (≤ 10 bands × ≈ 500 planewaves) stay on
    // the row loops, the ZnTeO ones (18 × 751 the smallest, 34 × 1157 the
    // smallest 2-piece) straddle and clear it.
    println!("block-size crossover (projection + one rotation; m·k·n = bands²·planewaves):");
    let mut crossover_rows: Vec<Json> = Vec::new();
    for (nb, npw) in [
        (8usize, 256usize),
        (10, 500),
        (12, 600),
        (16, 320),
        (16, 1024),
        (18, 751),
        (24, 455),
        (34, 1157),
    ] {
        let psi = lcg_block(nb, npw, 0xc0 ^ nb as u64);
        let d0 = lcg_block(nb, npw, 0xc1 ^ nb as u64);
        let u = lcg_block(nb, nb, 0xc2 ^ nb as u64);
        let (mut d, mut out) = (d0.clone(), Matrix::zeros(nb, npw));
        let mut o = Matrix::zeros(nb, nb);
        let inner = (4e7 / (nb * nb * npw) as f64).ceil() as usize;
        let work = nb * nb * npw;
        let rows_s = bench_n(
            &format!("{nb} × {npw} (m·k·n = {work}), row loops"),
            inner,
            Box::new(|| {
                d.as_mut_slice().copy_from_slice(d0.as_slice());
                project_rows(&psi, &mut d, &mut o);
                rotate_rows(&u, &psi, &mut out);
            }),
        );
        let mut packed_s = [0.0_f64; 2];
        for (slot, tier) in [Tier::BASELINE, host].into_iter().enumerate() {
            let mut scratch = GemmScratch::with(KernelPolicy::Fast, tier);
            packed_s[slot] = bench_n(
                &format!("{nb} × {npw}, packed kernel, {} tier", tier.name()),
                inner,
                Box::new(|| {
                    d.as_mut_slice().copy_from_slice(d0.as_slice());
                    project_block(gemm_packed_into, &mut scratch, &psi, &mut d, &mut o);
                    let (s, x) = (&mut scratch, &mut out);
                    gemm_packed_into(s, one, &u, Op::Trans, &psi, Op::None, zero, x);
                }),
            );
        }
        println!(
            "  packed / row loops: {:.2}x (baseline), {:.2}x ({})",
            rows_s / packed_s[0],
            rows_s / packed_s[1],
            host.name()
        );
        crossover_rows.push(Json::obj(vec![
            ("bands", Json::num(nb as f64)),
            ("planewaves", Json::num(npw as f64)),
            ("work", Json::num(work as f64)),
            ("row_loops_ms", Json::num(rows_s * 1e3)),
            ("packed_baseline_ms", Json::num(packed_s[0] * 1e3)),
            ("packed_dispatched_ms", Json::num(packed_s[1] * 1e3)),
        ]));
    }
    println!();

    // --- mixed-radix vs Bluestein on the fragment box edges --------------
    // Strided batches (the y/z-pass shape: n_lines interleaved lines) so
    // each kernel runs the way the 3-D transform drives it.
    let mut mixed_rows: Vec<(String, f64, f64)> = Vec::new();
    println!("1-D fragment-box lines (256 interleaved lines, forward+inverse):");
    for n1 in [12usize, 14, 18, 22, 40] {
        let lines = 256;
        let blue = Fft1d::new_with(n1, KernelPolicy::Reference);
        let mixed = Fft1d::new_with(n1, KernelPolicy::Fast);
        let (mut wb, mut wm) = (blue.workspace(), mixed.workspace());
        let src = lcg_field(n1 * lines, 0xb10e ^ n1 as u64);
        let (mut a, mut b) = (src.clone(), src.clone());
        blue.forward_strided(&mut a, lines, lines, &mut wb);
        mixed.forward_strided(&mut b, lines, lines, &mut wm);
        let d = max_diff(&a, &b);
        assert!(
            d < 1e-11,
            "n={n1}: mixed-radix diverged from Bluestein: {d:e}"
        );
        let before = bench_small(
            &format!("n={n1} Bluestein (reference policy)"),
            Box::new(|| {
                a.copy_from_slice(&src);
                blue.forward_strided(&mut a, lines, lines, &mut wb);
                blue.inverse_strided(&mut a, lines, lines, &mut wb);
            }),
        );
        let after = bench_small(
            &format!("n={n1} mixed-radix (fast policy)"),
            Box::new(|| {
                b.copy_from_slice(&src);
                mixed.forward_strided(&mut b, lines, lines, &mut wm);
                mixed.inverse_strided(&mut b, lines, lines, &mut wm);
            }),
        );
        println!("  speedup: {:.2}x", before / after);
        mixed_rows.push((format!("mixed_vs_bluestein_1d_n{n1}"), before, after));
    }
    println!("\n3-D fragment boxes (forward+inverse round trip):");
    for n3 in [12usize, 14, 18, 22] {
        let blue = Fft3::new_with(n3, n3, n3, KernelPolicy::Reference);
        let mixed = Fft3::new_with(n3, n3, n3, KernelPolicy::Fast);
        let (mut wb, mut wm) = (blue.workspace(), mixed.workspace());
        let src = lcg_field(n3 * n3 * n3, 0xb0c5 ^ n3 as u64);
        let (mut a, mut b) = (src.clone(), src.clone());
        blue.forward_with(&mut a, &mut wb);
        mixed.forward_with(&mut b, &mut wm);
        let d = max_diff(&a, &b);
        assert!(
            d < 1e-10,
            "{n3}³: mixed-radix diverged from Bluestein: {d:e}"
        );
        let before = bench_small(
            &format!("{n3}³ Bluestein (reference policy)"),
            Box::new(|| {
                a.copy_from_slice(&src);
                blue.forward_with(&mut a, &mut wb);
                blue.inverse_with(&mut a, &mut wb);
            }),
        );
        let after = bench_small(
            &format!("{n3}³ mixed-radix (fast policy)"),
            Box::new(|| {
                b.copy_from_slice(&src);
                mixed.forward_with(&mut b, &mut wm);
                mixed.inverse_with(&mut b, &mut wm);
            }),
        );
        println!("  speedup: {:.2}x", before / after);
        mixed_rows.push((format!("mixed_vs_bluestein_3d_{n3}"), before, after));
    }

    // --- sphere-pruned, folded-scaling H·ψ vs the full-grid path ---------
    // The crystal8 benchmark's 1- and 8-piece fragment boxes at its
    // cutoff; 8 bands. The full-grid row is rebuilt from the public plan.
    println!("\nH·ψ, 8 bands, E_cut = 1.5 (local potential + kinetic):");
    for (nb3, edge) in [(14usize, 11.375), (22, 17.875)] {
        let box_grid = Grid3::cubic(nb3, edge);
        let basis = PwBasis::new(box_grid.clone(), 1.5);
        let slots: Vec<usize> = box_grid
            .iter_points()
            .filter(|&(ix, iy, iz)| 0.5 * box_grid.g2(ix, iy, iz) <= basis.ecut())
            .map(|(ix, iy, iz)| box_grid.index(ix, iy, iz))
            .collect();
        assert_eq!(slots.len(), basis.len(), "slot reconstruction");
        let v = RealField::from_fn(box_grid.clone(), |r| {
            0.3 * (r[0] * 0.6).cos() - 0.2 * (r[1] * 0.4).sin() + 0.1 * r[2].cos()
        });
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v.clone(), &nl);
        let psi = Matrix::from_fn(8, basis.len(), |i, j| {
            c64::new(
                ((i * 37 + j * 11) % 23) as f64 - 11.0,
                ((i + 5 * j) % 19) as f64 - 9.0,
            )
            .scale(1e-2)
        });
        let mut hpsi = Matrix::zeros(8, basis.len());
        let mut hpsi_full = Matrix::zeros(8, basis.len());
        let mut ham_ws = h.workspace();
        let mut fft_ws = basis.fft().workspace();
        let mut buf = vec![c64::ZERO; box_grid.len()];
        h.apply_block_with(&psi, &mut hpsi, &mut ham_ws);
        apply_full_grid(
            &basis,
            &slots,
            &v,
            &psi,
            &mut hpsi_full,
            &mut buf,
            &mut fft_ws,
        );
        let d = max_diff(hpsi.as_slice(), hpsi_full.as_slice());
        assert!(
            d < 1e-12,
            "{nb3}³: pruned H·ψ diverged from full grid: {d:e}"
        );
        let before = bench_small(
            &format!("{nb3}³ full-grid transforms, 3 scalings"),
            Box::new(|| {
                apply_full_grid(
                    &basis,
                    &slots,
                    &v,
                    &psi,
                    &mut hpsi_full,
                    &mut buf,
                    &mut fft_ws,
                );
            }),
        );
        let after = bench_small(
            &format!("{nb3}³ sphere-pruned, folded V(r)/N"),
            Box::new(|| {
                h.apply_block_with(&psi, &mut hpsi, &mut ham_ws);
            }),
        );
        println!("  speedup: {:.2}x", before / after);
        mixed_rows.push((format!("pruned_vs_full_hpsi_{nb3}"), before, after));
    }
    println!();

    // Machine-readable run report (`ls3df-run-report` schema; the
    // kernel A/B table rides in `extra.kernel_sections`, documented in
    // EXPERIMENTS.md).
    let section = |name: &str, before: f64, after: f64| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("before_ms", Json::num(before * 1e3)),
            ("after_ms", Json::num(after * 1e3)),
            ("speedup", Json::num(before / after)),
        ])
    };
    let mut report = Report::new("fft_kernels", t_main.elapsed().as_secs_f64());
    report.extra.push(("grid".to_string(), Json::num(n as f64)));
    report
        .extra
        .push(("reps".to_string(), Json::num(reps as f64)));
    let mut sections = vec![
        section("fft3_roundtrip", before, after),
        section("genpot_solve", before_h, after_h),
        section("r2c_vs_complex", before_r, after_r),
        section("pow2_fast_vs_reference", before_x, after_x),
        section("gemm_micro", before_g, after_g),
        section("cg_step_projection_130x2553", before_p, after_p),
        section("rr_rotate_rotations_130x2553", before_rot, after_rot),
    ];
    sections.extend(mixed_rows.iter().map(|(name, b, a)| section(name, *b, *a)));
    report
        .extra
        .push(("kernel_sections".to_string(), Json::Arr(sections)));
    report
        .extra
        .push(("gemm_dispatched_tier".to_string(), Json::str(host.name())));
    report
        .extra
        .push(("gemm_tiers".to_string(), Json::Arr(tier_rows)));
    report
        .extra
        .push(("real_tile".to_string(), Json::Arr(real_tile_rows)));
    report
        .extra
        .push(("real_eigh_ortho".to_string(), Json::Arr(real_shapes)));
    report
        .extra
        .push(("gemm_crossover".to_string(), Json::Arr(crossover_rows)));
    let path = Path::new("BENCH_fft_kernels.json");
    match report.write(path) {
        Ok(()) => println!("run report -> {}", path.display()),
        Err(e) => eprintln!("run report write failed: {e}"),
    }
}
