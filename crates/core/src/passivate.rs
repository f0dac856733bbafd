//! Fragment atom extraction and surface passivation.
//!
//! When the supercell is cut into fragments, bonds crossing the fragment
//! boundary are left dangling. The paper passivates them with hydrogen or
//! partially charged pseudo-hydrogen atoms (ref. [18]) and additionally
//! applies a fixed boundary potential ΔV_F. We implement both mechanisms:
//!
//! * [`Passivation::PseudoH`] — a pseudo-H is placed along every cut bond
//!   at the H-bond-length fraction, carrying the II–VI fractional charge
//!   (1.5 on cation-side cuts, 0.5 on anion-side);
//! * a smooth confining wall in the outer buffer shell (the ΔV_F analogue)
//!   keeps fragment states from leaking onto neighboring-fragment atoms
//!   whose (screened) potential wells are visible in the extracted global
//!   potential.

use crate::{Fragment, FragmentGrid};
use ls3df_atoms::{bond_params, Species, Structure};
use ls3df_grid::RealField;
use ls3df_pseudo::{passivant_params, PseudoTable};
use ls3df_pw::PwAtom;

/// Boundary treatment for fragment surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Passivation {
    /// Pseudo-hydrogen atoms on cut bonds + confining wall (paper's
    /// scheme).
    PseudoH,
    /// Confining wall only (ablation variant).
    WallOnly,
}

/// Atoms of one fragment, expressed in the fragment box frame.
pub struct FragmentAtoms {
    /// Region atoms + passivants, in box coordinates (Bohr).
    pub atoms: Vec<PwAtom>,
    /// Number of real (region) atoms; passivants follow them in `atoms`.
    pub n_real: usize,
    /// Total valence electrons of the fragment problem.
    pub n_electrons: f64,
    /// Global indices of the region atoms (for bookkeeping/analysis).
    pub global_indices: Vec<usize>,
}

/// Wraps `x` into `[0, l)`.
#[inline]
fn wrap(x: f64, l: f64) -> f64 {
    x.rem_euclid(l)
}

/// Extracts the atoms of fragment `f` from the global structure and
/// passivates its surface.
///
/// `neighbors` must be the global bonded topology (from
/// `Structure::neighbor_list_within(topology_cutoff(..))`).
pub fn fragment_atoms(
    structure: &Structure,
    neighbors: &[Vec<usize>],
    fg: &FragmentGrid,
    f: &Fragment,
    passivation: Passivation,
    pseudo: &PseudoTable,
) -> FragmentAtoms {
    let (lo, hi) = fg.region_bounds(f);
    let box_origin = fg.box_origin_pos(f);
    let lengths = structure.lengths;
    let region_len: [f64; 3] = std::array::from_fn(|d| hi[d] - lo[d]);

    // Membership test under periodic wrap: relative to the region origin.
    let in_region = |pos: [f64; 3]| -> bool {
        (0..3).all(|d| wrap(pos[d] - lo[d], lengths[d]) < region_len[d])
    };
    // Box-frame coordinates: offset from the box origin, wrapped into the
    // global cell first (the box is smaller than origin + global period in
    // every sane configuration).
    let to_box = |pos: [f64; 3]| -> [f64; 3] {
        std::array::from_fn(|d| wrap(pos[d] - box_origin[d], lengths[d]))
    };

    let mut atoms = Vec::new();
    let mut global_indices = Vec::new();
    let mut n_electrons = 0.0;

    for (idx, atom) in structure.atoms.iter().enumerate() {
        if in_region(atom.pos) {
            atoms.push(PwAtom::new(to_box(atom.pos), &pseudo.get(atom.species)));
            global_indices.push(idx);
            n_electrons += atom.species.valence();
        }
    }
    let n_real = atoms.len();

    if passivation == Passivation::PseudoH {
        // Cut bonds: inside atom i, outside neighbor j → pseudo-H along
        // the bond at the X–H bond-length fraction.
        for (&g_idx, k) in global_indices.iter().zip(0..n_real) {
            for &j in &neighbors[g_idx] {
                if in_region(structure.atoms[j].pos) {
                    continue;
                }
                let si = structure.atoms[g_idx].species;
                let sj = structure.atoms[j].species;
                let Some(bond) = bond_params(si, sj) else {
                    continue;
                };
                let Some(h_bond) = bond_params(si, Species::H) else {
                    continue;
                };
                let frac = h_bond.d0 / bond.d0;
                // Minimum-image bond vector in the global cell.
                let mut dvec = [0.0; 3];
                for d in 0..3 {
                    let mut x = structure.atoms[j].pos[d] - structure.atoms[g_idx].pos[d];
                    x -= (x / lengths[d]).round() * lengths[d];
                    dvec[d] = x;
                }
                let inside_box = atoms[k].pos;
                let h_pos: [f64; 3] = std::array::from_fn(|d| inside_box[d] + frac * dvec[d]);
                let charge = si.passivant_charge();
                atoms.push(PwAtom::new(h_pos, &passivant_params(charge)));
                n_electrons += charge;
            }
        }
    }

    FragmentAtoms {
        atoms,
        n_real,
        n_electrons,
        global_indices,
    }
}

/// Builds the confining-wall part of ΔV_F on the fragment box grid: zero
/// over the region and inner half of the buffer, rising smoothly (cos²
/// ramp) to `height` across the outer half of the buffer. This is the
/// model ΔV_F (paper: "a fixed passivation potential … only nonzero near
/// its boundary").
pub fn boundary_wall(fg: &FragmentGrid, f: &Fragment, height: f64) -> RealField {
    let grid = fg.box_grid(f);
    let dims = grid.dims;
    let spacing = grid.spacing();
    let buffer: [f64; 3] = std::array::from_fn(|d| fg.buffer_pts[d] as f64 * spacing[d]);
    RealField::from_fn(grid, move |r| {
        let mut v: f64 = 0.0;
        for d in 0..3 {
            let len = dims[d] as f64 * spacing[d];
            // Distance from the nearer box face along axis d.
            let edge = r[d].min(len - r[d]).max(0.0);
            let ramp_width = (buffer[d] * 0.5).max(spacing[d]);
            if edge < ramp_width && buffer[d] > 0.0 {
                // cos² ramp: height at the face (edge = 0), zero at the
                // inner end of the ramp.
                let t = (edge / ramp_width).clamp(0.0, 1.0);
                let s = 0.5 + 0.5 * (std::f64::consts::PI * t).cos();
                v = v.max(height * s);
            }
        }
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_atoms::{topology_cutoff, znte_supercell, ZNTE_LATTICE};
    use ls3df_grid::Grid3;

    fn setup() -> (Structure, Vec<Vec<usize>>, FragmentGrid, Grid3) {
        let s = znte_supercell([2, 2, 2], ZNTE_LATTICE);
        let nbrs = s.neighbor_list_within(topology_cutoff(&s));
        let pts = 8;
        let global = Grid3::new([2 * pts, 2 * pts, 2 * pts], s.lengths);
        let fg = FragmentGrid::new([2, 2, 2], &global, [3, 3, 3]).unwrap();
        (s, nbrs, fg, global)
    }

    #[test]
    fn region_atom_counts_sum_correctly() {
        let (s, nbrs, fg, _) = setup();
        // Every atom must land in exactly one 1×1×1 fragment region.
        let mut total = 0;
        for f in fg.fragments() {
            if f.size == [1, 1, 1] {
                let fa = fragment_atoms(
                    &s,
                    &nbrs,
                    &fg,
                    f,
                    Passivation::WallOnly,
                    &PseudoTable::default(),
                );
                total += fa.n_real;
                assert_eq!(fa.n_real, 8, "one zinc-blende cell per piece");
            }
        }
        assert_eq!(total, s.len());
    }

    #[test]
    fn signed_atom_count_reproduces_total() {
        // Σ_F α_F · (region atoms) = N_atoms — the discrete partition of
        // unity applied to atoms.
        let (s, nbrs, fg, _) = setup();
        let signed: f64 = fg
            .fragments()
            .iter()
            .map(|f| {
                f.alpha()
                    * fragment_atoms(
                        &s,
                        &nbrs,
                        &fg,
                        f,
                        Passivation::WallOnly,
                        &PseudoTable::default(),
                    )
                    .n_real as f64
            })
            .sum();
        assert_eq!(signed, s.len() as f64);
    }

    #[test]
    fn one_cell_fragment_has_expected_passivation() {
        let (s, nbrs, fg, _) = setup();
        let f = Fragment::new([0, 0, 0], [1, 1, 1]);
        let fa = fragment_atoms(
            &s,
            &nbrs,
            &fg,
            &f,
            Passivation::PseudoH,
            &PseudoTable::default(),
        );
        assert_eq!(fa.n_real, 8);
        // One conventional cell has 18 crossing bonds (9 Zn-side + 9
        // Te-side), each receiving one pseudo-H.
        assert_eq!(fa.atoms.len() - fa.n_real, 18);
        // Electron count: 32 valence + 9·1.5 + 9·0.5 = 50.
        assert!(
            (fa.n_electrons - 50.0).abs() < 1e-12,
            "n_e = {}",
            fa.n_electrons
        );
    }

    #[test]
    fn passivants_sit_in_buffer_not_region() {
        let (s, nbrs, fg, _) = setup();
        let f = Fragment::new([1, 0, 1], [1, 1, 1]);
        let fa = fragment_atoms(
            &s,
            &nbrs,
            &fg,
            &f,
            Passivation::PseudoH,
            &PseudoTable::default(),
        );
        let grid = fg.box_grid(&f);
        let off = fg.region_offset_in_box();
        let spacing = grid.spacing();
        let region_lo: [f64; 3] = std::array::from_fn(|d| off[d] as f64 * spacing[d]);
        let region_hi: [f64; 3] =
            std::array::from_fn(|d| region_lo[d] + fg.region_dims(&f)[d] as f64 * spacing[d]);
        for h in &fa.atoms[fa.n_real..] {
            // A passivant saturates a cut bond, so it must sit close to the
            // region surface (within one X–H bond length of some face) —
            // never deep in the region interior or far out in the buffer.
            let depth = (0..3)
                .map(|d| (h.pos[d] - region_lo[d]).min(region_hi[d] - h.pos[d]))
                .fold(f64::INFINITY, f64::min);
            assert!(
                depth.abs() < 3.2,
                "passivant at {:?} is {depth:.2} Bohr from the region surface",
                h.pos
            );
            // Also within the box bounds.
            for d in 0..3 {
                assert!(h.pos[d] >= 0.0 && h.pos[d] < grid.lengths[d]);
            }
        }
    }

    #[test]
    fn boundary_wall_shape() {
        let (_, _, fg, _) = setup();
        let f = Fragment::new([0, 0, 0], [1, 1, 1]);
        let wall = boundary_wall(&fg, &f, 2.0);
        // Zero at the box center.
        let g = wall.grid().clone();
        let c = [g.dims[0] / 2, g.dims[1] / 2, g.dims[2] / 2];
        assert_eq!(wall.at(c[0], c[1], c[2]), 0.0);
        // High at the box faces.
        assert!(wall.at(0, c[1], c[2]) > 1.0);
        assert!(wall.at(c[0], 0, c[2]) > 1.0);
        // Never negative, never above height.
        assert!(wall.min() >= 0.0);
        assert!(wall.max() <= 2.0 + 1e-12);
    }

    #[test]
    fn wall_only_electron_count_matches_region_valence() {
        let (s, nbrs, fg, _) = setup();
        let f = Fragment::new([0, 1, 0], [2, 1, 1]);
        let fa = fragment_atoms(
            &s,
            &nbrs,
            &fg,
            &f,
            Passivation::WallOnly,
            &PseudoTable::default(),
        );
        let manual: f64 = fa
            .global_indices
            .iter()
            .map(|&i| s.atoms[i].species.valence())
            .sum();
        assert_eq!(fa.n_electrons, manual);
        assert_eq!(fa.atoms.len(), fa.n_real);
    }
}
