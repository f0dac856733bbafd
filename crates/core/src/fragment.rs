//! Fragment geometry: the heart of the LS3DF patching scheme.
//!
//! The periodic supercell is divided into `M = m1 × m2 × m3` *pieces*
//! (the paper uses one eight-atom zinc-blende cell per piece). Every
//! piece corner carries **eight fragments** with sizes
//! `{1,2} × {1,2} × {1,2}` pieces and patching weight
//!
//! ```text
//! α_F = Π_d sign_d,   sign_d = +1 if size_d = 2, −1 if size_d = 1
//! ```
//!
//! (`+1` for 2×2×2; `−1` for the three 2×2×1 types; `+1` for the three
//! 2×1×1 types; `−1` for 1×1×1 — the 3-D extension of the paper's Fig. 1).
//! Every artificial fragment surface appears once with `+1` and once with
//! `−1`, so summing `α_F · (anything accumulated over the fragment
//! interior)` over all fragments covers every piece with net weight
//! exactly **one**: the integer weights cancel exactly in floating point.
//! [`FragmentGrid::partition_of_unity`] measures the deviation, which is
//! `0.0` for every valid decomposition, and `Gen_dens` relies on it.
//!
//! [`FragmentGrid`] enumerates the fragments once, in a fixed order, and
//! carries the metric bookkeeping (piece sizes, buffer widths, box/region
//! geometry).

use ls3df_grid::Grid3;

/// Why a fragment decomposition could not be built. Surfaced by the
/// builder as [`Ls3dfError::Fragmentation`](crate::scf::Ls3dfError);
/// nothing in the construction path panics on bad geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FragmentError {
    /// Fewer pieces along `axis` than the largest fragment extent (2): a
    /// fragment would wrap onto itself.
    TooFewPieces {
        /// Offending dimension (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// The requested piece count.
        m: usize,
        /// The minimum along this axis.
        min: usize,
    },
    /// The global grid does not divide evenly into `m` pieces along
    /// `axis`, so pieces would have fractional grid points.
    Indivisible {
        /// Offending dimension (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Global grid points along the axis.
        points: usize,
        /// The requested piece count.
        m: usize,
    },
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragmentError::TooFewPieces { axis, m, min } => write!(
                f,
                "axis {axis} has {m} piece(s), needs ≥ {min} so no fragment wraps onto itself"
            ),
            FragmentError::Indivisible { axis, points, m } => write!(
                f,
                "global grid axis {axis} ({points} points) not divisible into {m} pieces"
            ),
        }
    }
}

impl std::error::Error for FragmentError {}

/// Largest fragment extent in pieces, and so the fewest pieces an axis
/// may have.
const MIN_PIECES: usize = 2;

/// One fragment: corner piece index and size in pieces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Piece index of the fragment's low corner `(i, j, k)`.
    pub corner: [usize; 3],
    /// Fragment extent in pieces per dimension, each 1 or 2.
    pub size: [usize; 3],
}

impl Fragment {
    /// The fragment at `corner` spanning `size` pieces.
    pub fn new(corner: [usize; 3], size: [usize; 3]) -> Self {
        Fragment { corner, size }
    }

    /// The patching weight `α_F = Π_d (+1 if size_d = 2, −1 otherwise)`.
    pub fn alpha(&self) -> f64 {
        let mut alpha = 1.0;
        for d in 0..3 {
            alpha *= if self.size[d] == 2 { 1.0 } else { -1.0 };
        }
        alpha
    }

    /// Number of pieces covered.
    pub fn n_pieces(&self) -> usize {
        self.size[0] * self.size[1] * self.size[2]
    }

    /// Stable `Copy` identifier `(corner, size)` for logs and fault
    /// reports — formats like `F[1,2,3](2x1x2)` without allocating until
    /// actually displayed.
    pub fn id(&self) -> FragmentId {
        FragmentId {
            corner: self.corner,
            size: self.size,
        }
    }
}

/// Allocation-free fragment identifier: carries corner and extent, and
/// renders as `F[i,j,k](s1xs2xs3)` via [`Display`](std::fmt::Display).
/// Replaces the old `Fragment::label() -> String` in fault/observer hot
/// paths — `Copy`, `Ord`, and `Hash`, so it can key maps and travel
/// through channels without heap traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentId {
    /// Piece index of the fragment's low corner.
    pub corner: [usize; 3],
    /// Fragment extent in pieces per dimension.
    pub size: [usize; 3],
}

impl std::fmt::Display for FragmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "F[{},{},{}]({}x{}x{})",
            self.corner[0],
            self.corner[1],
            self.corner[2],
            self.size[0],
            self.size[1],
            self.size[2]
        )
    }
}

/// The fragment decomposition of a supercell: the fragment list for a
/// concrete piece/buffer geometry, enumerated once and cached in its
/// canonical order.
#[derive(Clone, Debug)]
pub struct FragmentGrid {
    /// Pieces per dimension.
    pub m: [usize; 3],
    /// Grid points per piece per dimension (global grid must be
    /// `m[d] · piece_pts[d]` points along axis `d`).
    pub piece_pts: [usize; 3],
    /// Physical piece lengths (Bohr).
    pub piece_len: [f64; 3],
    /// Buffer width added around the fragment region on each side, in
    /// grid points per dimension (sets the fragment box ΩF).
    pub buffer_pts: [usize; 3],
    fragments: Vec<Fragment>,
}

impl FragmentGrid {
    /// Builds the decomposition for a global grid of `m · piece_pts`
    /// points. Rejects bad geometry with a typed [`FragmentError`]
    /// instead of panicking.
    pub fn new(
        m: [usize; 3],
        global: &Grid3,
        buffer_pts: [usize; 3],
    ) -> Result<Self, FragmentError> {
        Self::check_pieces(m)?;
        for axis in 0..3 {
            if !global.dims[axis].is_multiple_of(m[axis]) {
                return Err(FragmentError::Indivisible {
                    axis,
                    points: global.dims[axis],
                    m: m[axis],
                });
            }
        }
        let piece_pts = [
            global.dims[0] / m[0],
            global.dims[1] / m[1],
            global.dims[2] / m[2],
        ];
        let piece_len = [
            global.lengths[0] / m[0] as f64,
            global.lengths[1] / m[1] as f64,
            global.lengths[2] / m[2] as f64,
        ];
        // Canonical order: corners k, j, i (x fastest), then the eight
        // sizes s3, s2, s1 (s1 fastest). Gen_dens accumulates fragment
        // densities in exactly this order, so it is part of the
        // determinism contract.
        let mut fragments = Vec::with_capacity(8 * m[0] * m[1] * m[2]);
        for k in 0..m[2] {
            for j in 0..m[1] {
                for i in 0..m[0] {
                    for s3 in 1..=2 {
                        for s2 in 1..=2 {
                            for s1 in 1..=2 {
                                fragments.push(Fragment::new([i, j, k], [s1, s2, s3]));
                            }
                        }
                    }
                }
            }
        }
        Ok(FragmentGrid {
            m,
            piece_pts,
            piece_len,
            buffer_pts,
            fragments,
        })
    }

    /// Rejects a piece count below 2 on any axis, where a size-2
    /// fragment would wrap onto itself.
    pub(crate) fn check_pieces(m: [usize; 3]) -> Result<(), FragmentError> {
        match (0..3).find(|&axis| m[axis] < MIN_PIECES) {
            Some(axis) => Err(FragmentError::TooFewPieces {
                axis,
                m: m[axis],
                min: MIN_PIECES,
            }),
            None => Ok(()),
        }
    }

    /// Total number of corners (= pieces).
    pub fn n_corners(&self) -> usize {
        self.m[0] * self.m[1] * self.m[2]
    }

    /// Total number of fragments.
    pub fn n_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// All fragments, in canonical (deterministic) order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Origin of the fragment *region* in global grid points (may exceed
    /// the global grid; callers wrap periodically).
    pub fn region_origin(&self, f: &Fragment) -> [i64; 3] {
        std::array::from_fn(|d| (f.corner[d] * self.piece_pts[d]) as i64)
    }

    /// Size of the fragment region in grid points.
    pub fn region_dims(&self, f: &Fragment) -> [usize; 3] {
        std::array::from_fn(|d| f.size[d] * self.piece_pts[d])
    }

    /// Origin of the fragment *box* ΩF (region minus buffer) in global
    /// grid points.
    pub fn box_origin(&self, f: &Fragment) -> [i64; 3] {
        let r = self.region_origin(f);
        std::array::from_fn(|d| r[d] - self.buffer_pts[d] as i64)
    }

    /// The fragment box grid (region + buffer on both sides), with the
    /// same grid spacing as the global grid.
    pub fn box_grid(&self, f: &Fragment) -> Grid3 {
        let rd = self.region_dims(f);
        let dims: [usize; 3] = std::array::from_fn(|d| rd[d] + 2 * self.buffer_pts[d]);
        let spacing: [f64; 3] =
            std::array::from_fn(|d| self.piece_len[d] / self.piece_pts[d] as f64);
        let lengths: [f64; 3] = std::array::from_fn(|d| dims[d] as f64 * spacing[d]);
        Grid3::new(dims, lengths)
    }

    /// Physical coordinates (in the global cell, unwrapped) of the box
    /// origin.
    pub fn box_origin_pos(&self, f: &Fragment) -> [f64; 3] {
        let o = self.box_origin(f);
        let spacing: [f64; 3] =
            std::array::from_fn(|d| self.piece_len[d] / self.piece_pts[d] as f64);
        std::array::from_fn(|d| o[d] as f64 * spacing[d])
    }

    /// Physical bounds (unwrapped) of the fragment region:
    /// `[origin, origin + size·piece_len)`.
    pub fn region_bounds(&self, f: &Fragment) -> ([f64; 3], [f64; 3]) {
        let lo: [f64; 3] = std::array::from_fn(|d| f.corner[d] as f64 * self.piece_len[d]);
        let hi: [f64; 3] = std::array::from_fn(|d| lo[d] + f.size[d] as f64 * self.piece_len[d]);
        (lo, hi)
    }

    /// Offset (in box grid points) of the fragment region inside its box.
    pub fn region_offset_in_box(&self) -> [usize; 3] {
        self.buffer_pts
    }

    /// Verifies the partition of unity: accumulating `α_F` over every
    /// fragment region covers each global grid point with net weight 1.
    /// Returns the maximum deviation, which is exactly `0.0` for every
    /// valid decomposition.
    pub fn partition_of_unity(&self, global: &Grid3) -> f64 {
        let mut weight = vec![0.0_f64; global.len()];
        for f in &self.fragments {
            let alpha = f.alpha();
            let origin = self.region_origin(f);
            let dims = self.region_dims(f);
            for dz in 0..dims[2] {
                for dy in 0..dims[1] {
                    for dx in 0..dims[0] {
                        let idx = global.index_wrapped(
                            origin[0] + dx as i64,
                            origin[1] + dy as i64,
                            origin[2] + dz as i64,
                        );
                        weight[idx] += alpha;
                    }
                }
            }
        }
        weight.iter().map(|w| (w - 1.0).abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(m: [usize; 3], pts: usize) -> Grid3 {
        Grid3::new(
            [m[0] * pts, m[1] * pts, m[2] * pts],
            [m[0] as f64 * 4.0, m[1] as f64 * 4.0, m[2] as f64 * 4.0],
        )
    }

    #[test]
    fn alpha_signs_match_paper() {
        // 2D analogue in the paper: +1 for 1×1 and 2×2, −1 for mixed.
        // 3D: α = (−1)^(#dims of size 1).
        let mk = |s: [usize; 3]| Fragment::new([0, 0, 0], s).alpha();
        assert_eq!(mk([2, 2, 2]), 1.0);
        assert_eq!(mk([1, 2, 2]), -1.0);
        assert_eq!(mk([2, 1, 2]), -1.0);
        assert_eq!(mk([2, 2, 1]), -1.0);
        assert_eq!(mk([1, 1, 2]), 1.0);
        assert_eq!(mk([1, 2, 1]), 1.0);
        assert_eq!(mk([2, 1, 1]), 1.0);
        assert_eq!(mk([1, 1, 1]), -1.0);
    }

    #[test]
    fn alpha_sum_per_corner_is_one_piece() {
        // Σ_S α_S · volume(S) = 1 piece: 8 − 3·4 + 3·2 − 1 = 1.
        let fg = FragmentGrid::new([2, 2, 2], &grid([2, 2, 2], 4), [1, 1, 1]).unwrap();
        let total: f64 = fg
            .fragments()
            .iter()
            .take(8) // one corner
            .map(|f| f.alpha() * f.n_pieces() as f64)
            .sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn partition_of_unity_exact() {
        // Every decomposition in m ∈ {2,3,4}³, at buffer widths {0,1,2}:
        // the ±1 weights cancel exactly, whatever the box size.
        for mx in 2..=4usize {
            for my in 2..=4usize {
                for mz in 2..=4usize {
                    let m = [mx, my, mz];
                    let g = grid(m, 3);
                    for b in 0..=2usize {
                        let fg = FragmentGrid::new(m, &g, [b; 3]).unwrap();
                        assert_eq!(fg.partition_of_unity(&g), 0.0, "m = {m:?}, buffer {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_order_is_corner_major_then_size() {
        let fg = FragmentGrid::new([3, 2, 2], &grid([3, 2, 2], 2), [1, 1, 1]).unwrap();
        let frags = fg.fragments();
        assert_eq!(frags[0], Fragment::new([0, 0, 0], [1, 1, 1]));
        assert_eq!(frags[1], Fragment::new([0, 0, 0], [2, 1, 1]));
        assert_eq!(frags[2], Fragment::new([0, 0, 0], [1, 2, 1]));
        assert_eq!(frags[4], Fragment::new([0, 0, 0], [1, 1, 2]));
        assert_eq!(frags[7], Fragment::new([0, 0, 0], [2, 2, 2]));
        assert_eq!(frags[8], Fragment::new([1, 0, 0], [1, 1, 1]));
        assert_eq!(frags[8 * 3], Fragment::new([0, 1, 0], [1, 1, 1]));
        assert_eq!(frags[8 * 6], Fragment::new([0, 0, 1], [1, 1, 1]));
        // Four positive and four negative fragments per corner.
        let plus = frags.iter().filter(|f| f.alpha() > 0.0).count();
        assert_eq!(2 * plus, frags.len());
    }

    #[test]
    fn fragment_count() {
        let g = grid([3, 3, 3], 4);
        let fg = FragmentGrid::new([3, 3, 3], &g, [2, 2, 2]).unwrap();
        assert_eq!(fg.n_fragments(), 8 * 27);
        assert_eq!(fg.fragments().len(), 8 * 27);
    }

    #[test]
    fn box_geometry() {
        let g = grid([4, 4, 4], 6);
        let fg = FragmentGrid::new([4, 4, 4], &g, [2, 2, 2]).unwrap();
        let f = Fragment::new([1, 2, 3], [2, 1, 2]);
        assert_eq!(fg.region_origin(&f), [6, 12, 18]);
        assert_eq!(fg.region_dims(&f), [12, 6, 12]);
        assert_eq!(fg.box_origin(&f), [4, 10, 16]);
        let bg = fg.box_grid(&f);
        assert_eq!(bg.dims, [16, 10, 16]);
        // Same spacing as global.
        let h_global = g.spacing();
        let h_box = bg.spacing();
        for d in 0..3 {
            assert!((h_global[d] - h_box[d]).abs() < 1e-12);
        }
    }

    #[test]
    fn region_bounds_physical() {
        let g = grid([2, 2, 2], 4);
        let fg = FragmentGrid::new([2, 2, 2], &g, [1, 1, 1]).unwrap();
        let f = Fragment::new([1, 0, 1], [1, 2, 1]);
        let (lo, hi) = fg.region_bounds(&f);
        assert_eq!(lo, [4.0, 0.0, 4.0]);
        assert_eq!(hi, [8.0, 8.0, 8.0]);
    }

    #[test]
    fn single_piece_dimension_rejected() {
        let g = Grid3::new([4, 8, 8], [4.0, 8.0, 8.0]);
        let err = FragmentGrid::new([1, 2, 2], &g, [1, 1, 1]).unwrap_err();
        assert_eq!(
            err,
            FragmentError::TooFewPieces {
                axis: 0,
                m: 1,
                min: 2,
            }
        );
    }

    #[test]
    fn indivisible_grid_rejected() {
        let g = Grid3::new([9, 8, 8], [8.0, 8.0, 8.0]);
        let err = FragmentGrid::new([2, 2, 2], &g, [1, 1, 1]).unwrap_err();
        assert_eq!(
            err,
            FragmentError::Indivisible {
                axis: 0,
                points: 9,
                m: 2,
            }
        );
        assert!(err.to_string().contains("not divisible"), "{err}");
    }

    #[test]
    fn fragment_id_displays_without_allocation_until_rendered() {
        let f = Fragment::new([1, 2, 3], [2, 1, 2]);
        let id = f.id();
        let copied = id; // Copy: no clone needed
        assert_eq!(copied.to_string(), "F[1,2,3](2x1x2)");
        assert_eq!(id, copied);
        // Unique per fragment, so ids can key maps.
        let fg = FragmentGrid::new([2, 2, 2], &grid([2, 2, 2], 4), [1, 1, 1]).unwrap();
        let ids: std::collections::BTreeSet<_> = fg.fragments().iter().map(|f| f.id()).collect();
        assert_eq!(ids.len(), fg.n_fragments());
    }
}
