//! Property-based tests for the planewave engine.

use ls3df_grid::{Grid3, RealField};
use ls3df_math::gemm::matmul_nh;
use ls3df_math::{c64, Matrix};
use ls3df_pw::{Hamiltonian, NonlocalPotential, PwBasis};
use proptest::prelude::*;

fn basis_and_potential(n: usize, l: f64, amp: f64, seed: u64) -> (PwBasis, RealField) {
    let grid = Grid3::cubic(n, l);
    let basis = PwBasis::new(grid.clone(), 1.0);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    let v = RealField::from_fn(grid, |_| amp * next());
    (basis, v)
}

fn rand_block(nb: usize, npw: usize, seed: u64) -> Matrix<c64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    let mut m = Matrix::from_fn(nb, npw, |_, _| c64::new(next(), next()));
    ls3df_math::ortho::cholesky_orthonormalize(&mut m, 1.0).unwrap();
    m
}

/// A random packed real row and the conjugate-symmetric full-sphere row
/// it stands for.
fn real_orbital(basis: &PwBasis, seed: u64) -> (Vec<f64>, Vec<c64>) {
    let mut state = seed | 1;
    let packed: Vec<f64> = (0..basis.len())
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        })
        .collect();
    let mut full = vec![c64::ZERO; basis.len()];
    basis.unpack(&packed, &mut full);
    (packed, full)
}

/// An orthonormal block of random real orbitals: the packed rows and the
/// conjugate-symmetric full-sphere rows they stand for.
fn real_orbitals(basis: &PwBasis, nb: usize, seed: u64) -> (Matrix<f64>, Matrix<c64>) {
    let mut packed = rand_block(nb, basis.len(), seed).re();
    ls3df_math::ortho::cholesky_orthonormalize(&mut packed, 1.0).unwrap();
    let mut full = Matrix::zeros(nb, basis.len());
    for b in 0..nb {
        basis.unpack(packed.row(b), full.row_mut(b));
    }
    (packed, full)
}

/// Distance in units in the last place (same sign assumed).
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// An 8³ box whose cutoff sphere just reaches the axis Nyquist points:
/// `E_cut = ½·G_Nyq²` exactly, so `(4,0,0)`, `(0,4,0)`, `(0,0,4)` are in
/// the basis — self-conjugate like `G = 0` — and nothing else on a
/// Nyquist plane is (it would lie outside the sphere).
fn nyquist_touching_basis() -> PwBasis {
    let edge = 7.0;
    let g_nyq = 2.0 * std::f64::consts::PI * 4.0 / edge;
    PwBasis::new(Grid3::cubic(8, edge), 0.5 * g_nyq * g_nyq)
}

#[test]
fn nyquist_axis_points_are_self_conjugate_slots() {
    let basis = nyquist_touching_basis();
    assert_eq!(basis.n_self_conjugate(), 4, "G = 0 and three axis points");
    assert_eq!((basis.len() - 4) % 2, 0);
    assert_eq!(
        PwBasis::new(Grid3::cubic(8, 7.0), 1.0).n_self_conjugate(),
        1
    );

    // A packed row is a real function on the grid, Nyquist slots included…
    let (packed, full) = real_orbital(&basis, 77);
    let mut grid = vec![c64::ZERO; basis.grid().len()];
    basis.wave_to_grid(&full, &mut grid);
    let peak = grid.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(grid.iter().all(|v| v.im.abs() <= 1e-14 * peak));
    // …survives the round trip…
    let mut back = vec![0.0; basis.len()];
    basis.pack(&full, &mut back);
    assert!(packed.iter().zip(&back).all(|(&a, &b)| ulps(a, b) <= 1));
    // …and H (local + kinetic) acts on it as on the full-sphere row.
    let v = RealField::from_fn(basis.grid().clone(), |r| {
        0.4 * (r[0] * 0.9).cos() - 0.2 * (r[1] * 1.8).sin() * (r[2] * 0.9).cos()
    });
    let nl = NonlocalPotential::none(&basis);
    let h = Hamiltonian::new(&basis, v, &nl);
    let h_real = h.apply_vec(&packed);
    let mut h_full = vec![0.0; basis.len()];
    basis.pack(&h.apply_vec(&full), &mut h_full);
    let peak = h_full.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for (a, b) in h_real.iter().zip(&h_full) {
        assert!((a - b).abs() <= 1e-13 * peak, "{a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packed_real_dot_is_the_complex_inner_product(seed in 1u64..500, n in 8usize..13) {
        let basis = PwBasis::new(Grid3::new([n, 10, 12], [7.0, 8.0, 9.5]), 1.0);
        let (pa, a) = real_orbital(&basis, seed);
        let (pb, b) = real_orbital(&basis, seed.wrapping_add(1000));
        let complex = ls3df_math::vec_ops::dotc(&a, &b);
        let real = ls3df_math::vec_ops::dotc(&pa, &pb);
        let scale = basis.len() as f64;
        prop_assert!((complex.re - real).abs() <= 1e-15 * scale, "{complex:?} vs {real}");
        prop_assert!(complex.im.abs() <= 1e-15 * scale, "Im = {}", complex.im);
    }

    #[test]
    fn unpack_then_pack_is_within_one_ulp_on_symmetric_rows(seed in 1u64..500) {
        for basis in [PwBasis::new(Grid3::cubic(10, 8.0), 1.3), nyquist_touching_basis()] {
            let (_, full) = real_orbital(&basis, seed);
            let mut packed = vec![0.0; basis.len()];
            basis.pack(&full, &mut packed);
            let mut back = vec![c64::ZERO; basis.len()];
            basis.unpack(&packed, &mut back);
            for (x, y) in full.iter().zip(&back) {
                prop_assert!(ulps(x.re, y.re) <= 1 && ulps(x.im, y.im) <= 1, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn pack_of_a_general_row_is_the_real_part_of_the_orbital(seed in 1u64..500) {
        let basis = PwBasis::new(Grid3::new([10, 8, 9], [8.0, 6.5, 7.0]), 1.2);
        let general = rand_block(1, basis.len(), seed);
        let mut packed = vec![0.0; basis.len()];
        basis.pack(general.row(0), &mut packed);
        let mut from_pack = vec![c64::ZERO; basis.len()];
        basis.unpack(&packed, &mut from_pack);
        // Re ψ(r) on the grid, analysed back.
        let mut grid = vec![c64::ZERO; basis.grid().len()];
        basis.wave_to_grid(general.row(0), &mut grid);
        for v in &mut grid {
            *v = c64::real(v.re);
        }
        let mut from_grid = vec![c64::ZERO; basis.len()];
        basis.grid_to_wave(&mut grid, &mut from_grid);
        for (a, b) in from_pack.iter().zip(&from_grid) {
            prop_assert!((*a - *b).abs() <= 1e-14, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn hamiltonian_hermitian_for_any_real_potential(
        amp in 0.0..3.0f64,
        seed in 1u64..500,
    ) {
        let (basis, v) = basis_and_potential(8, 7.0, amp, seed);
        let nl = NonlocalPotential::new(
            &basis,
            &[[2.0, 3.0, 1.0]],
            |_, q| (-q * q / 2.0).exp(),
            &[0.7],
        );
        let h = Hamiltonian::new(&basis, v, &nl);
        let psi = rand_block(4, basis.len(), seed.wrapping_add(7));
        let hpsi = h.apply_block(&psi);
        let m = matmul_nh(&psi, &hpsi);
        prop_assert!(m.hermiticity_error() < 1e-9, "err = {}", m.hermiticity_error());
    }

    #[test]
    fn hamiltonian_is_linear(seed in 1u64..500, alpha in -2.0..2.0f64) {
        let (basis, v) = basis_and_potential(8, 6.0, 0.5, seed);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let a = rand_block(2, basis.len(), seed);
        let b = rand_block(2, basis.len(), seed.wrapping_add(1));
        // H(a + α·b) = H·a + α·H·b
        let mut combo = a.clone();
        combo.add_scaled(c64::real(alpha), &b);
        let lhs = h.apply_block(&combo);
        let ha = h.apply_block(&a);
        let hb = h.apply_block(&b);
        for i in 0..lhs.rows() {
            for j in 0..lhs.cols() {
                let rhs = ha[(i, j)] + hb[(i, j)].scale(alpha);
                prop_assert!((lhs[(i, j)] - rhs).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn density_nonnegative_and_normalized(seed in 1u64..500, nb in 1usize..5) {
        let (basis, _) = basis_and_potential(8, 6.0, 0.0, seed);
        let psi = rand_block(nb, basis.len(), seed);
        let occ: Vec<f64> = (0..nb).map(|b| if b % 2 == 0 { 2.0 } else { 1.0 }).collect();
        let n_expect: f64 = occ.iter().sum();
        let rho = ls3df_pw::density::compute_density(&basis, &psi, &occ);
        prop_assert!(rho.min() >= -1e-12);
        prop_assert!((rho.integrate() - n_expect).abs() < 1e-9);
    }

    #[test]
    fn real_orbital_density_nonnegative_and_normalized(seed in 1u64..500, nb in 1usize..5) {
        let (basis, _) = basis_and_potential(8, 6.0, 0.0, seed);
        let psi = real_orbitals(&basis, nb, seed).1;
        let occ: Vec<f64> = (0..nb).map(|b| if b % 2 == 0 { 2.0 } else { 1.0 }).collect();
        let n_expect: f64 = occ.iter().sum();
        let rho = ls3df_pw::density::compute_density(&basis, &psi, &occ);
        prop_assert!(rho.min() >= -1e-12);
        prop_assert!((rho.integrate() - n_expect).abs() < 1e-9);
    }

    #[test]
    fn two_real_bands_per_transform_match_one_band_per_transform(
        seed in 1u64..500,
        nb in 1usize..8,
        which in 0usize..2,
        complex_rows in 0u32..128,
    ) {
        // Random conjugate-symmetric blocks, on a basis whose sphere stops
        // short of the Nyquist planes and on one that touches them. The
        // density also sees the block with the rows set in `complex_rows`
        // swapped for complex ones.
        let basis = match which {
            0 => PwBasis::new(Grid3::cubic(8, 6.5), 1.0),
            _ => nyquist_touching_basis(),
        };
        let phase = seed as f64;
        let v = RealField::from_fn(basis.grid().clone(), |r| {
            0.4 * (r[0] * 0.9 + phase).cos() - 0.2 * (r[1] * 1.8).sin() * (r[2] * 0.9).cos()
        });
        let (packed, real_full) = real_orbitals(&basis, nb, seed);

        // H·ψ: the paired block apply vs the single-band path per row.
        let nl = NonlocalPotential::new(&basis, &[[2.0, 3.0, 1.0]], |_, q| (-q * q).exp(), &[0.6]);
        let h = Hamiltonian::new(&basis, v, &nl);
        let paired = h.apply_block(&packed);
        let peak = paired.max_abs();
        for b in 0..nb {
            let single = h.apply_vec(packed.row(b));
            for (x, y) in paired.row(b).iter().zip(&single) {
                prop_assert!((x - y).abs() <= 1e-12 * peak, "band {b}: {x} vs {y}");
            }
        }

        // ρ (two occupied real orbitals per transform under `fast`) vs one
        // band per transform, with a zero-occupation tail.
        let occ: Vec<f64> = (0..nb).map(|b| [2.0, 1.5, 2.0, 0.5, 0.0][b.min(4)]).collect();
        let n_e: f64 = occ.iter().sum();
        let complex = rand_block(nb, basis.len(), seed ^ 0x5A5A);
        let mut mixed = real_full.clone();
        for b in (0..nb).filter(|b| complex_rows >> b & 1 == 1) {
            mixed.row_mut(b).copy_from_slice(complex.row(b));
        }
        for full in [&real_full, &mixed] {
            let rho = ls3df_pw::density::compute_density(&basis, full, &occ);
            let mut single = vec![0.0; basis.grid().len()];
            let mut grid = vec![c64::ZERO; basis.grid().len()];
            for (b, &f) in occ.iter().enumerate() {
                basis.wave_to_grid(full.row(b), &mut grid);
                for (s, v) in single.iter_mut().zip(&grid) {
                    *s += f * v.norm_sqr();
                }
            }
            let err: f64 = rho.as_slice().iter().zip(&single).map(|(a, b)| (a - b).abs()).sum::<f64>()
                * basis.grid().dv();
            prop_assert!(err <= 1e-13 * n_e.max(1.0), "∫|Δρ| = {err:e}");
        }
    }

    #[test]
    fn hartree_potential_is_linear_functional(seed in 1u64..200) {
        let grid = Grid3::cubic(8, 5.0);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let r1 = RealField::from_fn(grid.clone(), |_| next());
        let r2 = RealField::from_fn(grid.clone(), |_| next());
        let v1 = ls3df_pw::hartree::hartree_potential(&r1);
        let v2 = ls3df_pw::hartree::hartree_potential(&r2);
        let mut sum = r1.clone();
        sum.add_scaled(1.5, &r2);
        let v_sum = ls3df_pw::hartree::hartree_potential(&sum);
        let mut expect = v1.clone();
        expect.add_scaled(1.5, &v2);
        prop_assert!(v_sum.diff(&expect).max_abs() < 1e-9);
    }

    #[test]
    fn xc_potential_monotone_in_density(rho1 in 0.001..5.0f64, factor in 1.01..5.0f64) {
        // v_xc is negative and deepens with density.
        let v1 = ls3df_pw::xc::v_xc(rho1);
        let v2 = ls3df_pw::xc::v_xc(rho1 * factor);
        prop_assert!(v1 < 0.0);
        prop_assert!(v2 < v1);
    }
}
