//! Wavefunction analysis for the paper's science results (Fig. 7):
//! localization of the band-edge and oxygen-induced states.

use ls3df_atoms::{Species, Structure};
use ls3df_grid::RealField;
use ls3df_math::c64;
use ls3df_pw::PwBasis;

/// Converts a planewave state to its grid density `|ψ(r)|²` (integrates
/// to 1).
pub fn state_density(basis: &PwBasis, coefficients: &[c64]) -> RealField {
    let mut buf = vec![c64::ZERO; basis.grid().len()];
    basis.wave_to_grid(coefficients, &mut buf);
    let data: Vec<f64> = buf.iter().map(|z| z.norm_sqr()).collect();
    RealField::from_vec(basis.grid().clone(), data)
}

/// Inverse participation ratio `IPR = Ω·∫|ψ|⁴ / (∫|ψ|²)²`.
///
/// IPR = 1 for a fully extended (uniform) state; it grows as the state
/// localizes — the metric behind the paper's observation that high-energy
/// oxygen-band states are "more localized … which will significantly
/// reduce the electron mobility".
pub fn inverse_participation_ratio(density: &RealField) -> f64 {
    let dv = density.grid().dv();
    let p2: f64 = density.as_slice().iter().map(|&d| d * d).sum::<f64>() * dv;
    let p1: f64 = density.as_slice().iter().sum::<f64>() * dv;
    density.grid().volume() * p2 / (p1 * p1).max(1e-300)
}

/// Fraction of `|ψ|²` within `radius` (Bohr) of any atom of the given
/// species — e.g. the "oxygen weight" of a state (Fig. 7: O-induced states
/// cluster on the oxygen atoms).
pub fn species_weight(
    density: &RealField,
    structure: &Structure,
    species: Species,
    radius: f64,
) -> f64 {
    let grid = density.grid();
    let sites: Vec<[f64; 3]> = structure
        .atoms
        .iter()
        .filter(|a| a.species == species)
        .map(|a| a.pos)
        .collect();
    if sites.is_empty() {
        return 0.0;
    }
    let mut inside = 0.0;
    let mut total = 0.0;
    for (idx, &d) in density.as_slice().iter().enumerate() {
        let (ix, iy, iz) = grid.coords(idx);
        let r = grid.position(ix, iy, iz);
        total += d;
        if sites.iter().any(|s| grid.distance(*s, r) <= radius) {
            inside += d;
        }
    }
    inside / total.max(1e-300)
}

/// Fraction of the cell volume within `radius` of atoms of `species`
/// (the baseline against which [`species_weight`] indicates clustering).
pub fn species_volume_fraction(
    grid: &ls3df_grid::Grid3,
    structure: &Structure,
    species: Species,
    radius: f64,
) -> f64 {
    let sites: Vec<[f64; 3]> = structure
        .atoms
        .iter()
        .filter(|a| a.species == species)
        .map(|a| a.pos)
        .collect();
    if sites.is_empty() {
        return 0.0;
    }
    let mut inside = 0usize;
    for (ix, iy, iz) in grid.iter_points() {
        let r = grid.position(ix, iy, iz);
        if sites.iter().any(|s| grid.distance(*s, r) <= radius) {
            inside += 1;
        }
    }
    inside as f64 / grid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_atoms::Atom;
    use ls3df_grid::Grid3;

    #[test]
    fn uniform_state_has_ipr_one() {
        let grid = Grid3::cubic(8, 5.0);
        let basis = PwBasis::new(grid, 1.0);
        let mut c = vec![c64::ZERO; basis.len()];
        c[basis.g0_index()] = c64::ONE;
        let d = state_density(&basis, &c);
        assert!((inverse_participation_ratio(&d) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn localized_state_has_large_ipr() {
        let grid = Grid3::cubic(12, 10.0);
        let d = RealField::from_fn(grid, |r| {
            let r2 = (r[0] - 5.0).powi(2) + (r[1] - 5.0).powi(2) + (r[2] - 5.0).powi(2);
            (-r2).exp()
        });
        let ipr = inverse_participation_ratio(&d);
        assert!(ipr > 10.0, "IPR = {ipr}");
    }

    #[test]
    fn species_weight_detects_concentration() {
        let grid = Grid3::cubic(12, 10.0);
        let s = Structure::new(
            [10.0, 10.0, 10.0],
            vec![
                Atom {
                    species: Species::O,
                    pos: [5.0, 5.0, 5.0],
                },
                Atom {
                    species: Species::Zn,
                    pos: [0.0, 0.0, 0.0],
                },
            ],
        );
        // Density concentrated at the O site.
        let on_o = RealField::from_fn(grid.clone(), |r| {
            let r2 = (r[0] - 5.0).powi(2) + (r[1] - 5.0).powi(2) + (r[2] - 5.0).powi(2);
            (-2.0 * r2).exp()
        });
        let w = species_weight(&on_o, &s, Species::O, 2.5);
        assert!(w > 0.9, "w = {w}");
        // Uniform density has weight ≈ volume fraction.
        let uniform = RealField::constant(grid.clone(), 1.0);
        let wu = species_weight(&uniform, &s, Species::O, 2.5);
        let vf = species_volume_fraction(&grid, &s, Species::O, 2.5);
        assert!((wu - vf).abs() < 1e-12);
        assert!(
            w > 5.0 * vf,
            "clustered state must exceed the volume baseline"
        );
    }

    #[test]
    fn absent_species_gives_zero() {
        let grid = Grid3::cubic(6, 4.0);
        let s = Structure::new(
            [4.0, 4.0, 4.0],
            vec![Atom {
                species: Species::Zn,
                pos: [1.0, 1.0, 1.0],
            }],
        );
        let d = RealField::constant(grid.clone(), 1.0);
        assert_eq!(species_weight(&d, &s, Species::O, 1.0), 0.0);
        assert_eq!(species_volume_fraction(&grid, &s, Species::O, 1.0), 0.0);
    }
}
