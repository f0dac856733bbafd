//! Per-kernel tolerance contract between the production arithmetic
//! (`KernelPolicy::Fast`) and its oracles (see DESIGN.md "Kernel
//! architecture").
//!
//! The production kernels (r2c/c2r packing, mixed-radix Stockham
//! butterflies, sphere-pruned grid transfers, lane-split dots, the packed
//! GEMM microkernel, the Γ-point real block algebra) re-round relative to
//! the original scalar arithmetic, which `KernelPolicy::Reference` keeps
//! behind the explicit `*_with` constructors, and to the full-grid and
//! `c64` paths rebuilt here; THIS file is the contract that says by how
//! much. Every bound below is a pinned constant — loosening one is a
//! reviewed decision, not a test tweak. The bounds are deliberately ~100×
//! above observed worst cases so they fail on algorithmic regressions (a
//! wrong twiddle, a dropped Nyquist bin), not on benign rounding
//! differences between build environments.
//!
//! Runs under both `LS3DF_THREADS` regimes in CI (`cargo xtask ci`, the
//! workspace `test` steps): the fast kernels must meet the same bounds at
//! any thread count, which they do trivially because their arithmetic is
//! schedule-independent by construction.

use ls3df::fft::dft::dft_forward;
use ls3df::fft::{Fft1d, Fft3, Fft3r, RealFft1d};
use ls3df::grid::{Grid3, RealField};
use ls3df::math::{
    c64, gemm, gemm_into, vec_ops, Cholesky, GemmScratch, KernelPolicy, Matrix, Op, Tier,
};
use ls3df::pseudo::KbProjector;
use ls3df::pw::density::compute_density;
use ls3df::pw::{
    cg_init, cg_residual, cg_step, ionic_potential_with, try_solve_all_band_packed,
    try_solve_all_band_with, try_solve_band_by_band, try_solve_band_by_band_packed, CgWorkspace,
    Hamiltonian, HartreeSolver, Mixer, MixerState, NonlocalPotential, PwAtom, PwBasis,
    SolverOptions,
};
use ls3df_pseudo::LocalPotential;

/// Complex 1-D transforms, mixed-radix (fast) vs radix-2 and Bluestein
/// (reference), per-bin, relative to the spectrum peak.
const FFT1D_TOL: f64 = 1e-12;
/// Sphere-pruned `wave_to_grid_with`/`grid_to_wave_with` (raw transforms,
/// one folded scale) vs the full-grid path (per-axis `1/n`, then the
/// volume factor), per value, relative to the largest value. Observed
/// worst case over the boxes below: 4.3e-16 (14³), 3.3e-16 (22³),
/// 4.3e-16 (12×18×18) — the two paths differ by a handful of roundings,
/// so the bound sits the file's usual ~100× above them.
const PRUNED_TOL: f64 = 5e-14;
/// Packed r2c spectrum vs the complex transform of the same real signal.
const R2C_TOL: f64 = 1e-12;
/// 3-D packed transform + inverse vs the complex 3-D path, per sample.
const FFT3R_TOL: f64 = 1e-11;
/// Hartree potential, packed Poisson solve vs complex reference.
const HARTREE_TOL: f64 = 1e-10;
/// Kerker-mixed potential, packed filter vs complex reference.
const KERKER_TOL: f64 = 1e-11;
/// Ionic potential, packed half-spectrum synthesis vs complex sweep.
const SYNTH_TOL: f64 = 1e-10;
/// GEMM microkernel vs blocked scalar kernel, per element, scaled by k.
const GEMM_TOL: f64 = 1e-14;
/// Lane-split dot products vs sequential, scaled by length.
const DOTC_TOL: f64 = 1e-15;
/// The all-band solver's block operations on the packed kernel vs the
/// `dotc`/`axpy` row loops they replaced, per element, relative to the
/// largest element of the row-loop result. Observed worst cases at
/// 70 bands × 400 planewaves (12 projectors): projection 1.2e-15, subspace
/// matrix 1.3e-15, block KB apply 9.2e-16, `L⁻¹` apply 1.4e-15; the RR
/// rotation is exact (k = 70 is one pack block summed from zero, the same
/// order as the row loop).
const BLOCK_OP_TOL: f64 = 2e-13;
/// The Γ-point real instantiation of `H·Ψ` and of each block operation of
/// the all-band solver vs the `c64` instantiation on the unpacked block,
/// per element of the packed result, relative to its largest element.
/// Observed worst cases over 14³ / 12×18×18 / 22³ boxes × 5 / 8 / 64 bands
/// × 0 / 8 / 24 projectors: `H·Ψ` 9.7e-16, block KB
/// apply 1.7e-15, subspace matrix 2.1e-15, orthonormalization 1.8e-15,
/// one `cg_residual` + `cg_step` 2.0e-15 (its eigenvalues 2.0e-15) — the
/// two paths do the same sums over half the terms, so they differ by
/// rounding only.
const REAL_BLOCK_TOL: f64 = 1e-13;
/// `H·Ψ` on packed real rows with two bands per complex transform pair vs
/// one band per pair, per element, relative to the largest element.
/// Observed worst case over the 14³ / Nyquist-touching 12³ boxes × 1 / 6 /
/// 7 bands: 2.3e-16 (a lone band is exact — it takes the same code either
/// way).
const PAIRED_H_TOL: f64 = 1e-12;
/// The density with two occupied bands per synthesis vs one, as
/// `∫|Δρ| / N_e`. Observed worst case over the same boxes: 1.8e-16.
const PAIRED_DENSITY_TOL: f64 = 1e-13;
/// The density of packed rows (what Gen_dens reads) vs the `c64` density
/// of the unpacked rows, as `∫|Δρ| / N_e`: the same pairing, the
/// `1/√2` folded into the scatter instead of the unpack.
const PACKED_DENSITY_TOL: f64 = 1e-13;
/// A packed solve entry vs the `c64` façade from the same start block:
/// eigenvalues, absolute (Hartree).
const PACKED_SOLVE_EIG_TOL: f64 = 1e-12;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }
}

#[test]
fn mixed_matches_radix2_every_pow2() {
    // Every power of two ≤ 1024 covers both the even-level (radix-4
    // stages only) and odd-level (radix-4 stages + one radix-2 stage)
    // factorisations of the mixed-radix plan.
    let mut n = 2;
    while n <= 1024 {
        let mut next = lcg(0xA11CE ^ n as u64);
        let x: Vec<c64> = (0..n).map(|_| c64::new(next(), next())).collect();
        let fast = Fft1d::new_with(n, KernelPolicy::Fast);
        let reference = Fft1d::new_with(n, KernelPolicy::Reference);
        let (mut ws_fast, mut ws_ref) = (fast.workspace(), reference.workspace());
        for dir in [true, false] {
            let mut a = x.clone();
            let mut b = x.clone();
            if dir {
                fast.forward_with(&mut a, &mut ws_fast);
                reference.forward_with(&mut b, &mut ws_ref);
            } else {
                fast.inverse_with(&mut a, &mut ws_fast);
                reference.inverse_with(&mut b, &mut ws_ref);
            }
            let peak = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                let d = (*u - *v).abs();
                assert!(
                    d <= FFT1D_TOL * peak,
                    "n={n} bin {i} dir={dir}: |Δ|={d:e} > {FFT1D_TOL:e}·{peak:e}"
                );
            }
        }
        n *= 2;
    }
}

/// True when `n` factors over the mixed-radix kernel's radices.
fn is_13_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5, 7, 11, 13] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

#[test]
fn mixed_radix_matches_dft_and_bluestein_every_smooth_length() {
    // Every 13-smooth non-power-of-two ≤ 128 — which includes the
    // fragment box edges 12, 14, 18, 22 and the paper's 40 — against both
    // the O(n²) definition and the Bluestein plan it replaced.
    let lengths: Vec<usize> = (3..=128usize)
        .filter(|&n| is_13_smooth(n) && !n.is_power_of_two())
        .collect();
    for required in [12, 14, 18, 22, 40] {
        assert!(lengths.contains(&required));
    }
    for n in lengths {
        let mut next = lcg(0x51300 ^ n as u64);
        let x: Vec<c64> = (0..n).map(|_| c64::new(next(), next())).collect();
        let mixed = Fft1d::new_with(n, KernelPolicy::Fast);
        let bluestein = Fft1d::new_with(n, KernelPolicy::Reference);
        let exact = dft_forward(&x);
        let peak = exact.iter().map(|v| v.abs()).fold(1.0, f64::max);

        let (mut ws_mixed, mut ws_blue) = (mixed.workspace(), bluestein.workspace());
        let mut fwd = x.clone();
        mixed.forward_with(&mut fwd, &mut ws_mixed);
        let mut fwd_ref = x.clone();
        bluestein.forward_with(&mut fwd_ref, &mut ws_blue);
        let mut inv = x.clone();
        mixed.inverse_with(&mut inv, &mut ws_mixed);
        let mut inv_ref = x.clone();
        bluestein.inverse_with(&mut inv_ref, &mut ws_blue);
        for i in 0..n {
            let d = (fwd[i] - exact[i]).abs();
            assert!(d <= FFT1D_TOL * peak, "n={n} bin {i} vs DFT: |Δ|={d:e}");
            let d = (fwd[i] - fwd_ref[i]).abs();
            assert!(
                d <= FFT1D_TOL * peak,
                "n={n} bin {i} vs Bluestein: |Δ|={d:e}"
            );
            let d = (inv[i] - inv_ref[i]).abs();
            assert!(d <= FFT1D_TOL, "n={n} sample {i} inverse: |Δ|={d:e}");
        }
    }
}

#[test]
fn pruned_grid_transfers_match_full_grid_path() {
    // The 1-, 8- and mixed-piece fragment boxes at the benchmark's
    // cutoff. The full-grid path is rebuilt from the public plan: same
    // scatter, `Fft3::inverse_with`/`forward_with`, same scale factors.
    for (dims, lengths) in [
        ([14, 14, 14], [11.375, 11.375, 11.375]),
        ([22, 22, 22], [17.875, 17.875, 17.875]),
        ([12, 18, 18], [9.75, 14.625, 14.625]),
    ] {
        let grid = Grid3::new(dims, lengths);
        let basis = PwBasis::new(grid.clone(), 1.5);
        // Basis order is grid order filtered by the cutoff.
        let slots: Vec<usize> = grid
            .iter_points()
            .filter(|&(ix, iy, iz)| 0.5 * grid.g2(ix, iy, iz) <= basis.ecut())
            .map(|(ix, iy, iz)| grid.index(ix, iy, iz))
            .collect();
        assert_eq!(
            slots.len(),
            basis.len(),
            "dims {dims:?}: slot reconstruction"
        );
        let fft = basis.fft();
        let mut ws = fft.workspace();
        let (n, vol) = (grid.len() as f64, grid.volume());

        let mut next = lcg(0x5FE4E ^ grid.len() as u64);
        let coeffs: Vec<c64> = (0..basis.len()).map(|_| c64::new(next(), next())).collect();
        let mut pruned = vec![c64::ZERO; grid.len()];
        basis.wave_to_grid_with(&coeffs, &mut pruned, &mut ws);
        let mut full = vec![c64::ZERO; grid.len()];
        for (&slot, &c) in slots.iter().zip(&coeffs) {
            full[slot] = c;
        }
        fft.inverse_with(&mut full, &mut ws);
        let peak = full.iter().map(|v| v.abs()).fold(0.0, f64::max) * n / vol.sqrt();
        let mut worst = 0.0_f64;
        for (p, f) in pruned.iter().zip(&full) {
            worst = worst.max((*p - f.scale(n / vol.sqrt())).abs() / peak);
        }
        assert!(
            worst <= PRUNED_TOL,
            "dims {dims:?}: wave_to_grid pruned vs full {worst:e}"
        );

        let field: Vec<c64> = (0..grid.len()).map(|_| c64::new(next(), next())).collect();
        let mut got = vec![c64::ZERO; basis.len()];
        basis.grid_to_wave_with(&mut field.clone(), &mut got, &mut ws);
        let mut full = field;
        fft.forward_with(&mut full, &mut ws);
        let expect: Vec<c64> = slots
            .iter()
            .map(|&slot| full[slot].scale(vol.sqrt() / n))
            .collect();
        let peak = expect.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let mut worst = 0.0_f64;
        for (g, e) in got.iter().zip(&expect) {
            worst = worst.max((*g - *e).abs() / peak);
        }
        assert!(
            worst <= PRUNED_TOL,
            "dims {dims:?}: grid_to_wave pruned vs full {worst:e}"
        );
    }
}

#[test]
fn r2c_matches_complex_transform() {
    for n in [2usize, 6, 8, 16, 40, 54, 64, 100, 128] {
        let mut next = lcg(0xBEEF ^ n as u64);
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let rplan = RealFft1d::new_with(n, KernelPolicy::Fast);
        let mut ws = rplan.workspace();
        let mut packed = vec![c64::ZERO; rplan.packed_len()];
        rplan.forward(&x, &mut packed, &mut ws);
        let mut full: Vec<c64> = x.iter().map(|&v| c64::new(v, 0.0)).collect();
        let reference = Fft1d::new_with(n, KernelPolicy::Reference);
        reference.forward_with(&mut full, &mut reference.workspace());
        let peak = full.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (k, (p, f)) in packed.iter().zip(&full).enumerate() {
            let d = (*p - *f).abs();
            assert!(
                d <= R2C_TOL * peak,
                "n={n} bin {k}: packed vs complex |Δ|={d:e}"
            );
        }
    }
}

#[test]
fn packed_3d_roundtrip_matches_complex() {
    for dims in [[12, 12, 12], [16, 8, 8], [10, 9, 8]] {
        let len = dims[0] * dims[1] * dims[2];
        let mut next = lcg(0xD1CE ^ len as u64);
        let x: Vec<f64> = (0..len).map(|_| next()).collect();

        let rfft = Fft3r::new_with(dims, KernelPolicy::Fast);
        let mut ws = rfft.workspace();
        let mut spec = vec![c64::ZERO; rfft.packed_len()];
        rfft.forward(&x, &mut spec, &mut ws);
        let mut back = vec![0.0_f64; len];
        rfft.inverse(&mut spec, &mut back, &mut ws);

        let cplan = Fft3::new(dims[0], dims[1], dims[2]);
        let mut cws = cplan.workspace();
        let mut full: Vec<c64> = x.iter().map(|&v| c64::new(v, 0.0)).collect();
        cplan.forward_with(&mut full, &mut cws);
        cplan.inverse_with(&mut full, &mut cws);

        let peak = x.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for i in 0..len {
            let d = (back[i] - full[i].re).abs();
            assert!(
                d <= FFT3R_TOL * peak,
                "dims {dims:?} sample {i}: |Δ|={d:e} > {FFT3R_TOL:e}"
            );
        }
    }
}

fn test_field(grid: &Grid3) -> RealField {
    RealField::from_fn(grid.clone(), |r| {
        (r[0] * 0.7).sin() + (r[1] - 3.0).cos() * (r[2] * 0.3).sin() + 0.2
    })
}

#[test]
fn hartree_fast_within_tolerance() {
    for dims in [[16, 8, 8], [9, 8, 10]] {
        let grid = Grid3::new(dims, [8.0, 7.0, 9.0]);
        let rho = test_field(&grid);
        let mut fast = RealField::zeros(grid.clone());
        let mut reference = RealField::zeros(grid.clone());
        HartreeSolver::new_with(grid.clone(), KernelPolicy::Fast).solve_into(&rho, &mut fast);
        HartreeSolver::new_with(grid.clone(), KernelPolicy::Reference)
            .solve_into(&rho, &mut reference);
        let d = fast.diff(&reference).max_abs();
        let scale = reference.max_abs().max(1.0);
        assert!(
            d <= HARTREE_TOL * scale,
            "dims {dims:?}: hartree fast vs reference |Δ|={d:e}"
        );
    }
}

#[test]
fn kerker_fast_within_tolerance() {
    let dims = [12, 10, 8];
    let grid = Grid3::new(dims, [6.0, 5.0, 4.0]);
    let fft = Fft3::new(dims[0], dims[1], dims[2]);
    let v_in = test_field(&grid);
    let mut v_out = test_field(&grid);
    v_out.add_scaled(0.3, &v_in);
    let scheme = Mixer::Kerker {
        alpha: 0.6,
        q0: 0.8,
    };
    // Mix twice so the cached-factor path is exercised too.
    let mut fast_state = MixerState::new_with(scheme.clone(), KernelPolicy::Fast);
    let mut ref_state = MixerState::new_with(scheme, KernelPolicy::Reference);
    for _ in 0..2 {
        let fast = fast_state.mix(&v_in, &v_out, &fft);
        let reference = ref_state.mix(&v_in, &v_out, &fft);
        let d = fast.diff(&reference).max_abs();
        let scale = reference.max_abs().max(1.0);
        assert!(
            d <= KERKER_TOL * scale,
            "kerker fast vs reference |Δ|={d:e}"
        );
    }
}

#[test]
fn ionic_synthesis_fast_within_tolerance() {
    let atoms = vec![
        PwAtom {
            pos: [2.0, 2.0, 2.0],
            local: LocalPotential {
                z: 4.0,
                rc: 1.0,
                a: 2.0,
                w: 0.9,
            },
            kb_rb: 1.0,
            kb_energy: 0.0,
        },
        PwAtom {
            pos: [5.5, 6.0, 1.5],
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
    for grid in [
        Grid3::cubic(12, 8.0),
        Grid3::new([10, 12, 9], [8.0, 8.0, 8.0]),
    ] {
        let basis = PwBasis::new(grid, 1.5);
        let fast = ionic_potential_with(&basis, &atoms, KernelPolicy::Fast);
        let reference = ionic_potential_with(&basis, &atoms, KernelPolicy::Reference);
        let d = fast.diff(&reference).max_abs();
        let scale = reference.max_abs().max(1.0);
        assert!(
            d <= SYNTH_TOL * scale,
            "ionic synthesis fast vs reference |Δ|={d:e}"
        );
    }
}

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<c64> {
    let mut next = lcg(seed);
    Matrix::from_fn(rows, cols, |_, _| c64::new(next(), next()))
}

#[test]
fn gemm_microkernel_within_tolerance() {
    // Big enough for the microkernel dispatch (m·k·n ≥ 2¹⁸), ragged so
    // edge panels and the partial bottom strip are covered.
    for &(m, k, n) in &[(32, 300, 32), (37, 280, 29)] {
        let a = rand_matrix(m, k, 11 + m as u64);
        let b = rand_matrix(k, n, 22 + n as u64);
        let c0 = rand_matrix(m, n, 33);
        let alpha = c64::new(0.8, -0.2);
        let beta = c64::new(-0.5, 0.1);
        let mut fast = c0.clone();
        let mut reference = c0.clone();
        gemm::gemm_with(
            KernelPolicy::Fast,
            alpha,
            &a,
            Op::None,
            &b,
            Op::None,
            beta,
            &mut fast,
        );
        gemm::gemm_with(
            KernelPolicy::Reference,
            alpha,
            &a,
            Op::None,
            &b,
            Op::None,
            beta,
            &mut reference,
        );
        let tol = GEMM_TOL * k as f64;
        for i in 0..m {
            for j in 0..n {
                let d = (fast[(i, j)] - reference[(i, j)]).abs();
                let scale = reference[(i, j)].abs().max(1.0);
                assert!(
                    d <= tol * scale,
                    "({i},{j}) of {m}x{k}x{n}: |Δ|={d:e} > {tol:e}"
                );
            }
        }
    }
}

fn same_bits(x: &Matrix<c64>, y: &Matrix<c64>) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(u, v)| u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits())
}

#[test]
fn every_supported_tier_is_bit_identical_to_baseline() {
    // Every compilation of the packed kernel this CPU runs executes the
    // same IEEE operations in the same order (the same fused multiply-add
    // in the tile, no other contraction, no re-association), so the tier
    // a host selects can never move a digest. Each tier against the
    // baseline covers every pair. Ragged everywhere: m, n not multiples
    // of the 4×4 tile, k not a multiple of the 256-deep pack block, plus
    // the 8-piece fragment shape.
    let ops = [Op::None, Op::Trans, Op::ConjTrans];
    for &(m, k, n) in &[(5, 9, 7), (33, 70, 21), (66, 300, 35), (130, 2550, 130)] {
        for op_a in ops {
            for op_b in ops {
                let dims =
                    |op: Op, r: usize, c: usize| if op == Op::None { (r, c) } else { (c, r) };
                let (ar, ac) = dims(op_a, m, k);
                let (br, bc) = dims(op_b, k, n);
                let a = rand_matrix(ar, ac, 3 + m as u64);
                let b = rand_matrix(br, bc, 5 + n as u64);
                let c0 = rand_matrix(m, n, 7);
                let (alpha, beta) = (c64::new(0.8, -0.2), c64::new(-0.5, 0.1));
                let run = |tier: Tier| {
                    let mut scratch = GemmScratch::with(KernelPolicy::Fast, tier);
                    let mut c = c0.clone();
                    gemm_into(&mut scratch, alpha, &a, op_a, &b, op_b, beta, &mut c);
                    c
                };
                let baseline = run(Tier::BASELINE);
                for tier in Tier::supported() {
                    assert!(
                        same_bits(&baseline, &run(tier)),
                        "{m}x{k}x{n} {op_a:?}/{op_b:?}: {} tier differs from baseline",
                        tier.name()
                    );
                }
            }
        }
    }
}

fn same_real_bits(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits())
}

#[test]
fn real_packed_gemm_is_bit_identical_across_tiers_and_tile_widths() {
    // The `f64` instantiation of the packed kernel runs a wider register
    // tile than the `c64` one (and a wider one still on AVX-512). Neither
    // the CPU tier nor the tile width may change the order any element of
    // C is summed in: every supported tier on both widths against the
    // baseline's wide tile, on ragged shapes (m, n multiples of no tile,
    // k past one pack block) plus the 8-piece fragment shape, every `Op`
    // pair.
    let ops = [Op::None, Op::Trans, Op::ConjTrans];
    for &(m, k, n) in &[(5, 9, 7), (33, 70, 21), (66, 300, 35), (130, 2550, 130)] {
        for op_a in ops {
            for op_b in ops {
                let dims =
                    |op: Op, r: usize, c: usize| if op == Op::None { (r, c) } else { (c, r) };
                let mut next = lcg(0x7e41 ^ (m * n) as u64);
                let mut real = |(r, c): (usize, usize)| Matrix::from_fn(r, c, |_, _| next());
                let a = real(dims(op_a, m, k));
                let b = real(dims(op_b, k, n));
                let c0 = real((m, n));
                let run = |mut scratch: GemmScratch<f64>| {
                    let mut c = c0.clone();
                    gemm_into(&mut scratch, 0.8, &a, op_a, &b, op_b, -0.5, &mut c);
                    c
                };
                let baseline = run(GemmScratch::with(KernelPolicy::Fast, Tier::BASELINE));
                for tier in Tier::supported() {
                    let wide = run(GemmScratch::with(KernelPolicy::Fast, tier));
                    let narrow = run(GemmScratch::with(KernelPolicy::Fast, tier).narrow_tile());
                    let what = format!("{m}x{k}x{n} {op_a:?}/{op_b:?} on {}", tier.name());
                    assert!(same_real_bits(&baseline, &wide), "{what}: tier moved a bit");
                    assert!(
                        same_real_bits(&baseline, &narrow),
                        "{what}: tile width moved a bit"
                    );
                }
            }
        }
    }
}

/// Largest `|real − pack(complex)|` over a block, relative to the largest
/// element of the packed complex result.
fn packed_deviation(basis: &PwBasis, real: &Matrix<f64>, complex: &Matrix<c64>) -> f64 {
    let mut row = vec![0.0; basis.len()];
    let (mut worst, mut peak) = (0.0_f64, 0.0_f64);
    for b in 0..real.rows() {
        basis.pack(complex.row(b), &mut row);
        for (r, c) in real.row(b).iter().zip(&row) {
            worst = worst.max((r - c).abs());
            peak = peak.max(c.abs());
        }
    }
    worst / peak
}

#[test]
fn real_block_algebra_matches_the_complex_path() {
    // What the solver runs (the `f64` instantiation on Γ-point packed
    // rows) against its complex oracle (the `c64` instantiation on the
    // unpacked block), operation by operation, on the benchmark's fragment
    // boxes.
    for (dims, lengths) in [
        ([14, 14, 14], [11.375, 11.375, 11.375]),
        ([12, 18, 18], [9.75, 14.625, 14.625]),
        ([22, 22, 22], [17.875, 17.875, 17.875]),
    ] {
        let grid = Grid3::new(dims, lengths);
        let basis = PwBasis::new(grid.clone(), 1.5);
        let npw = basis.len();
        let v = RealField::from_fn(grid, |r| {
            0.3 * (r[0] * 0.6).cos() - 0.2 * (r[1] * 0.4).sin() + 0.1 * r[2].cos()
        });
        for n_proj in [0usize, 8, 24] {
            let sites: Vec<[f64; 3]> = (0..n_proj)
                .map(|a| {
                    let t = a as f64 / n_proj as f64;
                    [
                        lengths[0] * t,
                        lengths[1] * (1.0 - t),
                        lengths[2] * (3.0 * t).fract(),
                    ]
                })
                .collect();
            let e_kb: Vec<f64> = (0..n_proj).map(|a| 0.45 - 0.07 * a as f64).collect();
            let nl = NonlocalPotential::new(&basis, &sites, |_, q| (-0.7 * q * q).exp(), &e_kb);
            assert_eq!(nl.len(), n_proj);
            let h = Hamiltonian::new(&basis, v.clone(), &nl);
            for nb in [5usize, 8, 64] {
                let what = format!("{dims:?}, {nb} bands, {n_proj} projectors");
                // An orthonormal packed block and the full-sphere block it
                // stands for.
                let mut next = lcg(0x9a11 ^ (npw * nb + n_proj) as u64);
                let mut packed = Matrix::from_fn(nb, npw, |_, _| next());
                ls3df::math::ortho::cholesky_orthonormalize(&mut packed, 1.0).unwrap();
                let mut full = Matrix::zeros(nb, npw);
                for b in 0..nb {
                    basis.unpack(packed.row(b), full.row_mut(b));
                }
                let check = |name: &str, real: &Matrix<f64>, complex: &Matrix<c64>| {
                    let dev = packed_deviation(&basis, real, complex);
                    assert!(dev <= REAL_BLOCK_TOL, "{what}: {name} deviates {dev:e}");
                };

                // H·Ψ, and its Kleinman–Bylander term alone.
                let (hp_r, hp_c) = (h.apply_block(&packed), h.apply_block(&full));
                check("H·Ψ", &hp_r, &hp_c);
                let (mut kb_r, mut kb_c) = (hp_r.clone(), hp_c.clone());
                nl.accumulate_block(&packed, &mut kb_r);
                nl.accumulate_block(&full, &mut kb_c);
                check("block KB apply", &kb_r, &kb_c);

                // The Rayleigh–Ritz matrix: real-symmetric vs Hermitian
                // with a vanishing imaginary part.
                let m_r = Hamiltonian::subspace_matrix(&packed, &hp_r);
                let m_c = Hamiltonian::subspace_matrix(&full, &hp_c);
                let peak = m_c.max_abs();
                for i in 0..nb {
                    for j in 0..nb {
                        let d = (m_c[(i, j)] - c64::real(m_r[(i, j)])).abs();
                        assert!(
                            d <= REAL_BLOCK_TOL * peak,
                            "{what}: subspace ({i},{j}) {d:e}"
                        );
                    }
                }

                // Overlap + Cholesky + L⁻¹ on a block that needs it.
                let (mut o_r, mut o_c) = (hp_r.clone(), hp_c.clone());
                ls3df::math::ortho::cholesky_orthonormalize(&mut o_r, 1.0).unwrap();
                ls3df::math::ortho::cholesky_orthonormalize(&mut o_c, 1.0).unwrap();
                check("orthonormalization", &o_r, &o_c);

                // One residual + CG step (projection, preconditioner,
                // H·d, line minimization) from the same state.
                let (mut psi_r, mut psi_c) = (packed.clone(), full.clone());
                let mut ws_r = CgWorkspace::new(&h, nb);
                let mut ws_c = CgWorkspace::new(&h, nb);
                cg_init(&h, &psi_r, &mut ws_r);
                cg_init(&h, &psi_c, &mut ws_c);
                let (res_r, res_c) = (
                    cg_residual(&psi_r, &mut ws_r),
                    cg_residual(&psi_c, &mut ws_c),
                );
                assert!(
                    (res_r - res_c).abs() <= REAL_BLOCK_TOL * res_c,
                    "{what}: residual"
                );
                cg_step(&h, &mut psi_r, &mut ws_r, false);
                cg_step(&h, &mut psi_c, &mut ws_c, false);
                check("cg_step", &psi_r, &psi_c);
                for (er, ec) in ws_r.eigenvalues().iter().zip(ws_c.eigenvalues()) {
                    assert!(
                        (er - ec).abs() <= REAL_BLOCK_TOL * ec.abs().max(1.0),
                        "{what}: ε"
                    );
                }
            }
        }
    }
}

/// The benchmark's one-piece fragment box at its cutoff, and a box whose
/// cutoff sphere reaches the Nyquist planes (`E_cut = ½·G_Nyq²`).
fn pairing_bases() -> [PwBasis; 2] {
    let edge = 9.75;
    let g_nyq = std::f64::consts::PI * 12.0 / edge;
    let touching = PwBasis::new(Grid3::cubic(12, edge), 0.5 * g_nyq * g_nyq);
    assert!(touching.n_self_conjugate() > 1, "sphere reaches Nyquist");
    [PwBasis::new(Grid3::cubic(14, 11.375), 1.5), touching]
}

/// An orthonormal block of random real orbitals: the packed rows and the
/// conjugate-symmetric full-sphere rows they stand for.
fn real_orbitals(basis: &PwBasis, nb: usize, seed: u64) -> (Matrix<f64>, Matrix<c64>) {
    let mut next = lcg(seed);
    let mut packed = Matrix::from_fn(nb, basis.len(), |_, _| next());
    ls3df::math::ortho::cholesky_orthonormalize(&mut packed, 1.0).unwrap();
    let mut full = Matrix::zeros(nb, basis.len());
    for b in 0..nb {
        basis.unpack(packed.row(b), full.row_mut(b));
    }
    (packed, full)
}

#[test]
fn paired_h_apply_matches_one_band_per_transform() {
    // `apply_block_with::<f64>` (bands 2k, 2k+1 share one transform pair)
    // vs the single-band path (one pair per band), on even, odd and
    // one-band blocks, with Kleinman–Bylander projectors.
    for basis in pairing_bases() {
        let lengths = basis.grid().lengths;
        let v = RealField::from_fn(basis.grid().clone(), |r| {
            0.3 * (r[0] * 0.6).cos() - 0.2 * (r[1] * 0.4).sin() + 0.1 * r[2].cos()
        });
        let sites: Vec<[f64; 3]> = (0..8)
            .map(|a| {
                let t = a as f64 / 8.0;
                [
                    lengths[0] * t,
                    lengths[1] * (1.0 - t),
                    lengths[2] * (3.0 * t).fract(),
                ]
            })
            .collect();
        let nl = NonlocalPotential::new(&basis, &sites, |_, q| (-0.7 * q * q).exp(), &[0.4; 8]);
        let h = Hamiltonian::new(&basis, v, &nl);
        for nb in [1usize, 6, 7] {
            let (psi, _) = real_orbitals(&basis, nb, 0xFA12 ^ (nb * basis.len()) as u64);
            let paired = h.apply_block(&psi);
            let mut worst = 0.0_f64;
            for b in 0..nb {
                let single = h.apply_vec(psi.row(b));
                for (p, s) in paired.row(b).iter().zip(&single) {
                    worst = worst.max((p - s).abs());
                }
            }
            let worst = worst / paired.max_abs();
            assert!(
                worst <= PAIRED_H_TOL,
                "{:?} ({} self-conjugate), {nb} bands: paired vs single {worst:e}",
                basis.grid().dims,
                basis.n_self_conjugate()
            );
        }
    }
}

#[test]
fn paired_density_matches_one_band_per_transform() {
    // `compute_density` (two occupied real orbitals per synthesis) vs
    // one `wave_to_grid` per band: 19 bands over three band
    // blocks, fractional occupations and a zero-occupation tail, so blocks
    // end on an odd occupied band too. Once on real orbitals only, once
    // with complex rows in between, which must each go through their own
    // transform and leave the real ones around them to pair.
    let occupations: Vec<f64> = (0..19)
        .map(|b| match b {
            0..=9 => 2.0,
            10 => 1.5,
            11..=12 => 0.5,
            _ => 0.0,
        })
        .collect();
    let n_e: f64 = occupations.iter().sum();
    let bases = pairing_bases();
    for (basis, complex_rows) in bases
        .iter()
        .flat_map(|basis| [(basis, &[][..]), (basis, &[3, 8, 9, 11][..])])
    {
        let (_, mut psi) = real_orbitals(basis, occupations.len(), 0xDE45 ^ basis.len() as u64);
        for &b in complex_rows {
            for (j, c) in psi.row_mut(b).iter_mut().enumerate() {
                *c *= c64::cis(0.1 * j as f64);
            }
            assert!(!basis.is_conjugate_symmetric(psi.row(b)));
        }
        let rho = compute_density(basis, &psi, &occupations);
        let mut single = RealField::zeros(basis.grid().clone());
        let mut grid = vec![c64::ZERO; basis.grid().len()];
        for (b, &f) in occupations.iter().enumerate() {
            basis.wave_to_grid(psi.row(b), &mut grid);
            for (s, v) in single.as_mut_slice().iter_mut().zip(&grid) {
                *s += f * v.norm_sqr();
            }
        }
        let err = rho.diff(&single).integrate_abs() / n_e;
        assert!(
            err <= PAIRED_DENSITY_TOL,
            "{:?}, complex rows {complex_rows:?}: ∫|Δρ|/N_e = {err:e}",
            basis.grid().dims
        );
    }
}

#[test]
fn packed_density_matches_the_unpacked_density() {
    // Gen_dens on the packed rows fragments keep vs `compute_density` of
    // the full-sphere block they stand for, with the occupations of
    // `paired_density_matches_one_band_per_transform`.
    let occupations: Vec<f64> = (0..19)
        .map(|b| match b {
            0..=9 => 2.0,
            10 => 1.5,
            11..=12 => 0.5,
            _ => 0.0,
        })
        .collect();
    let n_e: f64 = occupations.iter().sum();
    for basis in pairing_bases() {
        let (packed, full) = real_orbitals(&basis, occupations.len(), 0xD0E5 ^ basis.len() as u64);
        let rho = compute_density(&basis, &packed, &occupations);
        let oracle = compute_density(&basis, &full, &occupations);
        let err = rho.diff(&oracle).integrate_abs() / n_e;
        assert!(
            err <= PACKED_DENSITY_TOL,
            "{:?}: ∫|Δρ|/N_e = {err:e}",
            basis.grid().dims
        );
    }
}

#[test]
fn packed_solve_entries_match_the_complex_facades() {
    // The packed entries (what PEtot_F and the direct SCF call) against
    // the `Matrix<c64>` façades the benchmark calls, from the same start
    // block, on the benchmark's one-piece fragment box with projectors:
    // the façade packs its block and runs the same arithmetic, so
    // eigenvalues and density agree to rounding.
    let basis = PwBasis::new(Grid3::cubic(14, 11.375), 1.5);
    let v = RealField::from_fn(basis.grid().clone(), |r| {
        let d2: f64 = r.iter().map(|x| (x - 5.6875).powi(2)).sum();
        -0.9 * (-d2 / 9.0).exp() + 0.05 * (r[0] * 0.6).cos()
    });
    let sites: Vec<[f64; 3]> = (0..8)
        .map(|a| [1.0 + 1.2 * a as f64, 9.8 - 1.1 * a as f64, 2.0 + a as f64])
        .collect();
    let nl = NonlocalPotential::new(&basis, &sites, |_, q| (-0.6 * q * q).exp(), &[0.5; 8]);
    let h = Hamiltonian::new(&basis, v, &nl);
    let nb = 9;
    let occupations = ls3df::pw::density::insulator_occupations(nb, 14.0);
    let opts = SolverOptions {
        max_iter: 30,
        tol: 1e-12,
        ..Default::default()
    };
    let start = ls3df::pw::scf::random_start(nb, &basis, 0x5017);
    for scheme in ["all-band", "band-by-band"] {
        let mut full = start.clone();
        let mut packed = basis.pack_block(&start);
        let (c, r) = if scheme == "all-band" {
            (
                try_solve_all_band_with(&h, &mut full, &opts, &mut CgWorkspace::new(&h, nb)),
                try_solve_all_band_packed(&h, &mut packed, &opts),
            )
        } else {
            (
                try_solve_band_by_band(&h, &mut full, &opts),
                try_solve_band_by_band_packed(&h, &mut packed, &opts),
            )
        };
        let (c, r) = (c.unwrap(), r.unwrap());
        for (b, (ec, er)) in c.eigenvalues.iter().zip(&r.eigenvalues).enumerate() {
            assert!(
                (ec - er).abs() <= PACKED_SOLVE_EIG_TOL,
                "{scheme}, band {b}: façade {ec} vs packed {er}"
            );
        }
        let rho_c = compute_density(&basis, &full, &occupations);
        let rho_r = compute_density(&basis, &packed, &occupations);
        let err = rho_c.diff(&rho_r).integrate_abs() / 14.0;
        assert!(err <= PACKED_DENSITY_TOL, "{scheme}: ∫|Δρ|/N_e = {err:e}");
    }
}

/// The five block operations of the all-band solver, each as the
/// `dotc`/`axpy` row loop it was before the solver went back to GEMM and
/// as the block products it is now. Returns `(row loop, block)` pairs.
fn block_operations(
    policy: KernelPolicy,
    nb: usize,
    npw: usize,
) -> Vec<(&'static str, Matrix<c64>, Matrix<c64>)> {
    let (one, zero) = (c64::ONE, c64::ZERO);
    let mut scratch = GemmScratch::with(policy, Tier::host());
    let psi = rand_matrix(nb, npw, 0x51);
    let d = rand_matrix(nb, npw, 0x52);
    let mut out = Vec::new();

    // Subspace projection D −= (D·Ψᴴ)·Ψ.
    let mut rows = d.clone();
    let mut o = Matrix::zeros(nb, nb);
    for b in 0..nb {
        for j in 0..nb {
            o[(b, j)] = vec_ops::dotc_with(policy, psi.row(j), d.row(b));
        }
    }
    for b in 0..nb {
        for j in 0..nb {
            vec_ops::axpy(-o[(b, j)], psi.row(j), rows.row_mut(b));
        }
    }
    let mut block = d.clone();
    let mut oh = Matrix::zeros(nb, nb);
    gemm_into(
        &mut scratch,
        one,
        &psi,
        Op::None,
        &d,
        Op::ConjTrans,
        zero,
        &mut oh,
    );
    gemm_into(
        &mut scratch,
        -one,
        &oh,
        Op::ConjTrans,
        &psi,
        Op::None,
        one,
        &mut block,
    );
    out.push(("projection", rows, block));

    // Rayleigh–Ritz rotation X ← Uᵀ·X.
    let u = rand_matrix(nb, nb, 0x53);
    let mut rows = Matrix::zeros(nb, npw);
    for i in 0..nb {
        for j in 0..nb {
            vec_ops::axpy(u[(j, i)], psi.row(j), rows.row_mut(i));
        }
    }
    let mut block = Matrix::zeros(nb, npw);
    gemm_into(
        &mut scratch,
        one,
        &u,
        Op::Trans,
        &psi,
        Op::None,
        zero,
        &mut block,
    );
    out.push(("rr rotation", rows, block));

    // Subspace matrix Ψ·(HΨ)ᴴ (`d` standing in for HΨ).
    let rows = Matrix::from_fn(nb, nb, |i, j| {
        vec_ops::dotc_with(policy, psi.row(i), d.row(j)).conj()
    });
    let mut block = Matrix::zeros(nb, nb);
    gemm_into(
        &mut scratch,
        one,
        &psi,
        Op::None,
        &d,
        Op::ConjTrans,
        zero,
        &mut block,
    );
    out.push(("subspace matrix", rows, block));

    // Block Kleinman–Bylander apply HΨ += Σ_p E_p·|β_p⟩⟨β_p|Ψ⟩.
    let n_proj = 12;
    let beta = rand_matrix(n_proj, npw, 0x54);
    let e: Vec<f64> = (0..n_proj).map(|p| 0.3 * p as f64 - 1.0).collect();
    let mut rows = d.clone();
    for b in 0..nb {
        for p in 0..n_proj {
            let coef = vec_ops::dotc_with(policy, beta.row(p), psi.row(b)).scale(e[p]);
            vec_ops::axpy(coef, beta.row(p), rows.row_mut(b));
        }
    }
    let mut block = d.clone();
    let mut coeffs = Matrix::zeros(n_proj, nb);
    gemm_into(
        &mut scratch,
        one,
        &beta,
        Op::None,
        &psi,
        Op::ConjTrans,
        zero,
        &mut coeffs,
    );
    for p in 0..n_proj {
        vec_ops::dscal(e[p], coeffs.row_mut(p));
    }
    gemm_into(
        &mut scratch,
        one,
        &coeffs,
        Op::ConjTrans,
        &beta,
        Op::None,
        one,
        &mut block,
    );
    out.push(("block KB apply", rows, block));

    // Ψ ← L⁻¹·Ψ with L·Lᴴ = Ψ·Ψᴴ.
    let s = ls3df::math::overlap_hermitian_with(policy, &psi, 1.0);
    let ch = Cholesky::new(&s).expect("random block is independent");
    let (mut rows, mut block) = (psi.clone(), psi.clone());
    ch.solve_l_block(&mut rows);
    ch.solve_l_block_with(&mut block, &mut scratch);
    out.push(("L^-1 apply", rows, block));
    out
}

#[test]
fn block_operations_match_the_row_loops_they_replace() {
    // 70·70·400 is block-sized: under `Fast` every product below runs on
    // the packed kernel and is held to BLOCK_OP_TOL.
    for (name, rows, block) in block_operations(KernelPolicy::Fast, 70, 400) {
        let peak = rows.max_abs();
        let worst = rows
            .as_slice()
            .iter()
            .zip(block.as_slice())
            .map(|(r, b)| (*r - *b).abs())
            .fold(0.0, f64::max);
        assert!(
            worst <= BLOCK_OP_TOL * peak,
            "{name}: block vs row loop {:e} (relative)",
            worst / peak
        );
    }
}

#[test]
fn block_operations_keep_the_row_loop_bits_off_the_packed_kernel() {
    // `Reference` never packs, and `Fast` does not below block size (the
    // crystal8 fragments: 10 bands × ~500 planewaves): there the scalar
    // kernels must reproduce the row loops' summation order exactly.
    for (policy, nb, npw) in [
        (KernelPolicy::Reference, 70, 400),
        (KernelPolicy::Reference, 10, 500),
        (KernelPolicy::Fast, 10, 500),
    ] {
        for (name, rows, block) in block_operations(policy, nb, npw) {
            assert!(
                same_bits(&rows, &block),
                "{name} ({policy:?}, {nb}×{npw}): block differs from the row loop"
            );
        }
    }
}

#[test]
fn lane_split_dots_within_tolerance() {
    for len in [5usize, 64, 1001, 4096] {
        let mut next = lcg(0xD07 ^ len as u64);
        let x: Vec<c64> = (0..len).map(|_| c64::new(next(), next())).collect();
        let y: Vec<c64> = (0..len).map(|_| c64::new(next(), next())).collect();
        let fast = vec_ops::dotc_with(KernelPolicy::Fast, &x, &y);
        let reference = vec_ops::dotc_with(KernelPolicy::Reference, &x, &y);
        let d = (fast - reference).abs();
        let tol = DOTC_TOL * len as f64 * reference.abs().max(1.0);
        assert!(d <= tol, "len {len}: dotc fast vs reference |Δ|={d:e}");
    }
}

#[test]
fn projector_batch_is_bit_identical() {
    // The batched projector form factor is a hoist, not a re-rounding:
    // it must agree with the scalar path bit-for-bit (no tolerance).
    let p = KbProjector { rb: 1.1, e_kb: 1.5 };
    let mut next = lcg(0xF0F0);
    let qs: Vec<f64> = (0..512).map(|_| next().abs() * 12.0).collect();
    let mut out = vec![0.0; qs.len()];
    p.fourier_batch(&qs, &mut out);
    for (&q, &b) in qs.iter().zip(&out) {
        assert_eq!(p.fourier(q), b, "q = {q}");
    }
}
