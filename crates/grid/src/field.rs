//! Scalar fields on periodic grids and the sub-box data motions.
//!
//! A [`Field`] couples a buffer to its [`Grid3`]. The periodic sub-box
//! extraction/insertion operations here are exactly the serial kernels of
//! the paper's **Gen_VF** (slice the global potential into fragment boxes)
//! and **Gen_dens** (accumulate signed fragment densities back into the
//! global grid) steps.

use crate::Grid3;
use ls3df_math::{c64, Scalar};

/// A scalar field sampled on a periodic grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Field<S: Scalar> {
    grid: Grid3,
    data: Vec<S>,
}

/// Real-valued field (densities, potentials).
pub type RealField = Field<f64>;
/// Complex-valued field (wavefunctions on the grid).
pub type ComplexField = Field<c64>;

impl<S: Scalar> Field<S> {
    /// Zero field on `grid`.
    pub fn zeros(grid: Grid3) -> Self {
        let n = grid.len();
        Field {
            grid,
            data: vec![S::ZERO; n],
        }
    }

    /// Field with every point set to `value`.
    pub fn constant(grid: Grid3, value: S) -> Self {
        let n = grid.len();
        Field {
            grid,
            data: vec![value; n],
        }
    }

    /// Builds a field from a function of the grid point position (Bohr).
    pub fn from_fn(grid: Grid3, mut f: impl FnMut([f64; 3]) -> S) -> Self {
        let mut data = Vec::with_capacity(grid.len());
        for (ix, iy, iz) in grid.iter_points() {
            data.push(f(grid.position(ix, iy, iz)));
        }
        Field { grid, data }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(grid: Grid3, data: Vec<S>) -> Self {
        assert_eq!(data.len(), grid.len(), "Field::from_vec: length mismatch");
        Field { grid, data }
    }

    /// The grid this field lives on.
    #[inline]
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// Raw values.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable raw values.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Value at `(ix, iy, iz)`.
    #[inline(always)]
    pub fn at(&self, ix: usize, iy: usize, iz: usize) -> S {
        self.data[self.grid.index(ix, iy, iz)]
    }

    /// Mutable value at `(ix, iy, iz)`.
    #[inline(always)]
    pub fn at_mut(&mut self, ix: usize, iy: usize, iz: usize) -> &mut S {
        let idx = self.grid.index(ix, iy, iz);
        &mut self.data[idx]
    }

    /// Value with periodic wrapping.
    #[inline]
    pub fn at_wrapped(&self, ix: i64, iy: i64, iz: i64) -> S {
        self.data[self.grid.index_wrapped(ix, iy, iz)]
    }

    /// `∫ f d³r ≈ dv·Σᵢ fᵢ`.
    pub fn integrate(&self) -> S {
        let mut acc = S::ZERO;
        for &v in &self.data {
            acc += v;
        }
        acc.scale(self.grid.dv())
    }

    /// `∫ |f| d³r` — the paper's SCF convergence metric (Fig. 6) applied to
    /// the potential difference field.
    pub fn integrate_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum::<f64>() * self.grid.dv()
    }

    /// Largest |value| on the grid.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// `self ← self + α·other` (grids must match).
    pub fn add_scaled(&mut self, alpha: S, other: &Field<S>) {
        assert_eq!(self.grid, other.grid, "add_scaled: grid mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = a.acc(alpha, b);
        }
    }

    /// Scales every value by a real factor.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v = v.scale(s);
        }
    }

    /// Pointwise difference `self − other` as a new field.
    pub fn diff(&self, other: &Field<S>) -> Field<S> {
        assert_eq!(self.grid, other.grid, "diff: grid mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Field {
            grid: self.grid.clone(),
            data,
        }
    }

    /// Extracts a periodic sub-box starting at global grid point `origin`
    /// with dimensions `sub.dims`, into a field on `sub` (the Gen_VF data
    /// motion: global potential → fragment box).
    ///
    /// `origin` components may be any integers; they wrap periodically.
    pub fn extract_subbox(&self, origin: [i64; 3], sub: &Grid3) -> Field<S> {
        let mut out = Field::zeros(sub.clone());
        let [sn1, sn2, sn3] = sub.dims;
        for sz in 0..sn3 {
            for sy in 0..sn2 {
                for sx in 0..sn1 {
                    let v = self.at_wrapped(
                        origin[0] + sx as i64,
                        origin[1] + sy as i64,
                        origin[2] + sz as i64,
                    );
                    *out.at_mut(sx, sy, sz) = v;
                }
            }
        }
        out
    }

    /// Accumulates `weight · sub` into this field at global grid point
    /// `origin`, wrapping periodically (the Gen_dens data motion:
    /// fragment density → global density, with the fragment sign `α_F`
    /// as the weight).
    pub fn accumulate_subbox(&mut self, origin: [i64; 3], sub: &Field<S>, weight: f64) {
        let [sn1, sn2, sn3] = sub.grid.dims;
        for sz in 0..sn3 {
            for sy in 0..sn2 {
                for sx in 0..sn1 {
                    let idx = self.grid.index_wrapped(
                        origin[0] + sx as i64,
                        origin[1] + sy as i64,
                        origin[2] + sz as i64,
                    );
                    self.data[idx] = self.data[idx].acc(S::from_re(weight), sub.at(sx, sy, sz));
                }
            }
        }
    }
}

impl RealField {
    /// Promotes to a complex field.
    pub fn to_complex(&self) -> ComplexField {
        Field {
            grid: self.grid.clone(),
            data: self.data.iter().map(|&v| c64::real(v)).collect(),
        }
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Shifts all values by a constant (potential gauge shifts).
    pub fn shift(&mut self, c: f64) {
        for v in &mut self.data {
            *v += c;
        }
    }

    /// Mean value over the grid.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }
}

impl ComplexField {
    /// Real parts as a real field.
    pub fn re(&self) -> RealField {
        Field {
            grid: self.grid.clone(),
            data: self.data.iter().map(|z| z.re).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid3 {
        Grid3::new([4, 4, 4], [2.0, 2.0, 2.0])
    }

    #[test]
    fn integrate_constant() {
        let f = RealField::constant(grid(), 3.0);
        assert!((f.integrate() - 24.0).abs() < 1e-12); // 3 · volume(8)
    }

    #[test]
    fn from_fn_positions() {
        let f = RealField::from_fn(grid(), |r| r[0]);
        // x positions are 0, 0.5, 1.0, 1.5 on each row.
        assert_eq!(f.at(3, 0, 0), 1.5);
        assert_eq!(f.at(0, 2, 1), 0.0);
    }

    #[test]
    fn extract_then_accumulate_roundtrip() {
        let g = grid();
        let f = RealField::from_fn(g.clone(), |r| r[0] + 10.0 * r[1] + 100.0 * r[2]);
        let sub_grid = Grid3::new([2, 2, 2], [1.0, 1.0, 1.0]);
        let sub = f.extract_subbox([1, 2, 3], &sub_grid);
        // Check a wrapped point: global (1+1, 2+1, 3+1) = (2,3,0 wrapped).
        assert_eq!(sub.at(1, 1, 1), f.at(2, 3, 0));

        // Accumulating the extracted box back with weight −1 zeroes it.
        let mut f2 = f.clone();
        f2.accumulate_subbox([1, 2, 3], &sub, -1.0);
        for sz in 0..2i64 {
            for sy in 0..2i64 {
                for sx in 0..2i64 {
                    assert_eq!(f2.at_wrapped(1 + sx, 2 + sy, 3 + sz), 0.0);
                }
            }
        }
    }

    #[test]
    fn extract_with_negative_origin_wraps() {
        let g = grid();
        let f = RealField::from_fn(g.clone(), |r| r[0]);
        let sub_grid = Grid3::new([2, 1, 1], [1.0, 0.5, 0.5]);
        let sub = f.extract_subbox([-1, 0, 0], &sub_grid);
        assert_eq!(sub.at(0, 0, 0), f.at(3, 0, 0));
        assert_eq!(sub.at(1, 0, 0), f.at(0, 0, 0));
    }

    #[test]
    fn partition_of_unity_accumulation() {
        // Covering the whole grid with disjoint sub-boxes of weight 1 must
        // reproduce a constant field exactly.
        let g = grid();
        let mut acc = RealField::zeros(g.clone());
        let sub_grid = Grid3::new([2, 2, 2], [1.0, 1.0, 1.0]);
        let ones = RealField::constant(sub_grid.clone(), 1.0);
        for oz in [0i64, 2] {
            for oy in [0i64, 2] {
                for ox in [0i64, 2] {
                    acc.accumulate_subbox([ox, oy, oz], &ones, 1.0);
                }
            }
        }
        for &v in acc.as_slice() {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn diff_and_integrate_abs() {
        let a = RealField::constant(grid(), 2.0);
        let b = RealField::constant(grid(), -1.0);
        let d = a.diff(&b);
        assert!((d.integrate_abs() - 3.0 * 8.0).abs() < 1e-12);
    }

    #[test]
    fn mean_shift_minmax() {
        let g = grid();
        let mut f = RealField::from_fn(g, |r| r[0]);
        let m = f.mean();
        f.shift(-m);
        assert!(f.mean().abs() < 1e-14);
        assert!((f.min() + m).abs() < 1e-14);
        assert!((f.max() - (1.5 - m)).abs() < 1e-14);
    }
}
