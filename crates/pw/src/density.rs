//! Electron density construction from wavefunction blocks.

use crate::{Coeff, PwBasis};
use ls3df_fft::Fft3Workspace;
use ls3df_grid::RealField;
use ls3df_math::{c64, Matrix};
use rayon::prelude::*;

/// Bands per parallel work unit in [`compute_density`]. Fixed (not derived
/// from the thread count) so the floating-point summation tree is the same
/// no matter how the runtime schedules the blocks.
const BAND_BLOCK: usize = 8;

/// Builds `ρ(r) = Σ_b f_b·|ψ_b(r)|²` on the basis grid.
///
/// Band-parallel with a **fixed-order tree reduction**: bands are cut into
/// `BAND_BLOCK`-sized blocks, each block accumulates its partial density
/// in ascending band order, and the ordered partials are combined pairwise.
/// The summation tree depends only on the band count — never on the rayon
/// schedule — so repeated runs produce bit-identical densities.
///
/// A block synthesizes two occupied real orbitals per transform,
/// `ψ_a + i·ψ_b`, and adds `f_a·Re² + f_b·Im²`. Every packed `f64` row is
/// a real orbital by construction, so a packed block — the state every
/// production path keeps — pairs its rows unconditionally. A `c64` row
/// pairs only when [`PwBasis::is_conjugate_symmetric`] accepts it; any
/// other occupied row, and a real orbital left without a partner in its
/// block, goes through a transform of its own, so the density is right
/// for any input. Pairs never straddle a block, so the summation tree is
/// the same.
pub fn compute_density<S: Coeff>(
    basis: &PwBasis,
    psi: &Matrix<S>,
    occupations: &[f64],
) -> RealField {
    assert_eq!(
        psi.rows(),
        occupations.len(),
        "density: occupation count mismatch"
    );
    assert_eq!(psi.cols(), basis.len(), "density: basis mismatch");
    let ngrid = basis.grid().len();
    let nb = psi.rows();
    let blocks: Vec<(usize, usize)> = (0..nb.div_ceil(BAND_BLOCK))
        .map(|i| (i * BAND_BLOCK, ((i + 1) * BAND_BLOCK).min(nb)))
        .collect();
    // `collect` keeps the partials in block order regardless of which
    // worker finished first.
    let mut partials: Vec<Vec<f64>> = blocks
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut acc = vec![0.0_f64; ngrid];
            let mut buf = vec![c64::ZERO; ngrid];
            let mut ws = basis.take_fft_workspace();
            let single = |b: usize, acc: &mut [f64], buf: &mut [c64], ws: &mut Fft3Workspace| {
                S::scatter(basis, psi.row(b), buf);
                basis.synthesize(buf, ws);
                let f = occupations[b];
                for (x, v) in acc.iter_mut().zip(&*buf) {
                    *x += f * v.norm_sqr();
                }
            };
            // A real orbital waiting for the next one in the block.
            let mut waiting = None;
            for b in (lo..hi).filter(|&b| occupations[b] != 0.0) {
                if !S::is_real_orbital(basis, psi.row(b)) {
                    single(b, &mut acc, &mut buf, &mut ws);
                } else if let Some(a) = waiting.take() {
                    S::scatter_pair(basis, psi.row(a), psi.row(b), &mut buf);
                    basis.synthesize(&mut buf, &mut ws);
                    let (fa, fb) = (occupations[a], occupations[b]);
                    for (x, v) in acc.iter_mut().zip(&buf) {
                        *x += fa * (v.re * v.re) + fb * (v.im * v.im);
                    }
                } else {
                    waiting = Some(b);
                }
            }
            if let Some(a) = waiting {
                single(a, &mut acc, &mut buf, &mut ws);
            }
            basis.return_fft_workspace(ws);
            acc
        })
        .collect();
    // Pairwise combine adjacent partials until one remains: a balanced,
    // deterministic summation tree (also lower round-off than a left fold).
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
            }
            next.push(a);
        }
        partials = next;
    }
    let rho_data = partials.pop().unwrap_or_else(|| vec![0.0_f64; ngrid]);
    RealField::from_vec(basis.grid().clone(), rho_data)
}

/// Standard double-occupation vector: the lowest `n_electrons/2` bands get
/// occupation 2, the rest 0 (spin-unpolarized insulator filling).
pub fn insulator_occupations(n_bands: usize, n_electrons: f64) -> Vec<f64> {
    let n_occ = (n_electrons / 2.0).round() as usize;
    assert!(
        n_occ <= n_bands,
        "need at least {n_occ} bands for {n_electrons} electrons, have {n_bands}"
    );
    (0..n_bands)
        .map(|b| if b < n_occ { 2.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;

    /// An orthonormal block of real orbitals (conjugate-symmetric rows).
    fn real_orbitals(basis: &PwBasis, nb: usize) -> Matrix<c64> {
        basis.unpack_block(&packed_orbitals(basis, nb))
    }

    /// An orthonormal block of packed real rows.
    fn packed_orbitals(basis: &PwBasis, nb: usize) -> Matrix<f64> {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut packed = Matrix::from_fn(nb, basis.len(), |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        });
        ls3df_math::ortho::cholesky_orthonormalize(&mut packed, 1.0).unwrap();
        packed
    }

    #[test]
    fn density_integrates_to_electron_count() {
        let grid = Grid3::cubic(10, 6.0);
        let basis = PwBasis::new(grid, 1.5);
        let nb = 4;
        let mut psi = Matrix::from_fn(nb, basis.len(), |i, j| {
            c64::new(((i * 31 + j * 7) as f64).sin(), ((i * 13 + j) as f64).cos())
        });
        ls3df_math::ortho::cholesky_orthonormalize(&mut psi, 1.0).unwrap();
        let occ = insulator_occupations(nb, 6.0); // 3 bands × 2
        let rho = compute_density(&basis, &psi, &occ);
        assert!(
            (rho.integrate() - 6.0).abs() < 1e-9,
            "N = {}",
            rho.integrate()
        );
        assert!(rho.min() >= -1e-12, "density must be non-negative");
    }

    #[test]
    fn real_orbital_density_integrates_to_electron_count() {
        let basis = PwBasis::new(Grid3::cubic(10, 6.0), 1.5);
        let nb = 5;
        let psi = real_orbitals(&basis, nb);
        let occ = [2.0, 1.0, 2.0, 1.5, 0.5];
        let rho = compute_density(&basis, &psi, &occ);
        assert!(
            (rho.integrate() - 7.0).abs() < 1e-9,
            "N = {}",
            rho.integrate()
        );
        assert!(rho.min() >= -1e-12, "density must be non-negative");
    }

    #[test]
    fn packed_rows_give_the_density_of_the_orbitals_they_stand_for() {
        let basis = PwBasis::new(Grid3::cubic(10, 6.0), 1.5);
        let packed = packed_orbitals(&basis, 5);
        let occ = [2.0, 1.0, 2.0, 1.5, 0.5];
        let rho = compute_density(&basis, &packed, &occ);
        let full = compute_density(&basis, &basis.unpack_block(&packed), &occ);
        for (r, f) in rho.as_slice().iter().zip(full.as_slice()) {
            assert!((r - f).abs() < 1e-13, "{r} vs {f}");
        }
    }

    #[test]
    fn complex_rows_among_real_orbitals_keep_their_own_density() {
        // Bands 1 and 3 are complex (not real orbitals). The real ones
        // pair around them; each complex one must still add its own |ψ|²,
        // not Re²/Im² of a mix with a neighbour.
        let basis = PwBasis::new(Grid3::cubic(10, 6.0), 1.5);
        let nb = 5;
        let mut psi = real_orbitals(&basis, nb);
        for b in [1, 3] {
            for (j, c) in psi.row_mut(b).iter_mut().enumerate() {
                *c *= c64::cis(0.3 * j as f64);
            }
        }
        let occ = [2.0, 1.0, 2.0, 1.5, 0.5];
        let rho = compute_density(&basis, &psi, &occ);
        let mut expect = vec![0.0; basis.grid().len()];
        let mut buf = vec![c64::ZERO; basis.grid().len()];
        for (b, &f) in occ.iter().enumerate() {
            basis.wave_to_grid(psi.row(b), &mut buf);
            for (e, v) in expect.iter_mut().zip(&buf) {
                *e += f * v.norm_sqr();
            }
        }
        for (r, e) in rho.as_slice().iter().zip(&expect) {
            assert!((r - e).abs() < 1e-13, "{r} vs {e}");
        }
    }

    #[test]
    fn single_g0_band_gives_uniform_density() {
        let grid = Grid3::cubic(8, 5.0);
        let basis = PwBasis::new(grid, 1.0);
        let mut psi = Matrix::zeros(1, basis.len());
        psi[(0, basis.g0_index())] = c64::ONE;
        let rho = compute_density(&basis, &psi, &[2.0]);
        let expect = 2.0 / basis.grid().volume();
        for &v in rho.as_slice() {
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn occupation_filling() {
        assert_eq!(insulator_occupations(5, 6.0), vec![2.0, 2.0, 2.0, 0.0, 0.0]);
        assert_eq!(insulator_occupations(2, 4.0), vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_bands_rejected() {
        let _ = insulator_occupations(2, 6.0);
    }
}
