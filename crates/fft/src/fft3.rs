//! Three-dimensional FFT over periodic supercell grids.
//!
//! This is the kernel behind two pieces of the paper's pipeline: the
//! GENPOT global Poisson solve (one forward + one inverse 3-D FFT per SCF
//! iteration) and the local-potential application `V(r)·ψ(r)` inside
//! PEtot_F (a pair of 3-D FFTs per band block per CG step).
//!
//! Layout convention (shared with `ls3df-grid`): the **x index is fastest**,
//! `idx = (iz·n2 + iy)·n1 + ix` for dimensions `(n1, n2, n3)`.
//!
//! The transform itself is sequential: the LS3DF outer loop already
//! parallelizes over fragments and bands, and a box-sized 3-D FFT is far
//! below the granularity where task overhead pays off. All scratch lives
//! in an [`Fft3Workspace`] sized at plan build, so the `*_with` entry
//! points are allocation-free — the property the `alloc-count` tier-1
//! test pins down.
//!
//! **Sphere-aware variants.** Planewave coefficients fill a cutoff sphere
//! — a small part of the FFT box — so most lines of the passes next to
//! the coefficient side carry nothing. [`Fft3::inverse_from_sparse`]
//! (sparse *input*) runs x → y → z: only the x-lines holding a
//! coefficient, then only the y-pencils of z-planes holding one, then
//! every z-line. [`Fft3::forward_to_sparse`] (sparse *output*) runs the
//! mirror order z → y → x, so the passes it can prune — lines whose
//! outputs nobody reads — come last. Both are unnormalized; the caller
//! folds `1/N` into its own scaling. The full transforms keep x → y → z
//! in both directions.

use crate::plan::{Direction, Fft1d, Fft1dWorkspace};
use ls3df_math::{c64, KernelPolicy};
use ls3df_obs::{counter_add, Counter};

/// Reusable scratch for one [`Fft3`] plan (one [`Fft1dWorkspace`] per
/// axis). Build with [`Fft3::workspace`], once per thread.
pub struct Fft3Workspace {
    x: Fft1dWorkspace,
    y: Fft1dWorkspace,
    z: Fft1dWorkspace,
}

/// Reusable 3-D FFT plan for a fixed `(n1, n2, n3)` grid.
pub struct Fft3 {
    n1: usize,
    n2: usize,
    n3: usize,
    plan_x: Fft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
}

/// Which lines of a grid a sparse set of points touches — what the
/// sphere-aware transforms ([`Fft3::inverse_from_sparse`],
/// [`Fft3::forward_to_sparse`]) need to skip the rest. Build once per
/// point set with [`Fft3::occupancy`].
pub struct Occupancy {
    /// x-lines (`iy + n2·iz`, ascending) holding at least one point.
    x_lines: Vec<usize>,
    /// z-planes (`iz`, ascending) holding at least one point.
    z_planes: Vec<usize>,
}

impl Fft3 {
    /// Builds a plan for an `(n1, n2, n3)` grid (x fastest).
    pub fn new(n1: usize, n2: usize, n3: usize) -> Self {
        Self::new_with(n1, n2, n3, KernelPolicy::Fast)
    }

    /// [`Fft3::new`] with an explicit [`KernelPolicy`] — lets tests and
    /// benches hold the reference oracle beside the production plan.
    pub fn new_with(n1: usize, n2: usize, n3: usize, policy: KernelPolicy) -> Self {
        assert!(n1 >= 1 && n2 >= 1 && n3 >= 1, "Fft3::new: degenerate grid");
        Fft3 {
            n1,
            n2,
            n3,
            plan_x: Fft1d::new_with(n1, policy),
            plan_y: Fft1d::new_with(n2, policy),
            plan_z: Fft1d::new_with(n3, policy),
        }
    }

    /// Grid dimensions `(n1, n2, n3)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n1, self.n2, self.n3)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }

    /// Always false for a valid plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Builds a reusable scratch workspace sized for this plan.
    ///
    /// Allocate once (per thread, or checked out of a pool) and pass to
    /// [`Fft3::forward_with`]/[`Fft3::inverse_with`]; those entry points
    /// then perform no heap allocation.
    pub fn workspace(&self) -> Fft3Workspace {
        Fft3Workspace {
            x: self.plan_x.workspace(),
            y: self.plan_y.workspace(),
            z: self.plan_z.workspace(),
        }
    }

    /// In-place forward transform (unnormalized).
    pub fn forward(&self, data: &mut [c64]) {
        // alloc-audit: one-shot convenience path; hot loops use forward_with.
        let mut ws = self.workspace();
        self.run_with(data, Direction::Forward, &mut ws);
    }

    /// In-place inverse transform (includes the full `1/(n1·n2·n3)`).
    pub fn inverse(&self, data: &mut [c64]) {
        // alloc-audit: one-shot convenience path; hot loops use inverse_with.
        let mut ws = self.workspace();
        self.run_with(data, Direction::Inverse, &mut ws);
    }

    /// In-place forward transform using caller-provided scratch.
    /// Performs no heap allocation.
    pub fn forward_with(&self, data: &mut [c64], ws: &mut Fft3Workspace) {
        self.run_with(data, Direction::Forward, ws);
    }

    /// In-place inverse transform using caller-provided scratch (includes
    /// the full `1/(n1·n2·n3)`). Performs no heap allocation.
    pub fn inverse_with(&self, data: &mut [c64], ws: &mut Fft3Workspace) {
        self.run_with(data, Direction::Inverse, ws);
    }

    fn run_with(&self, data: &mut [c64], dir: Direction, ws: &mut Fft3Workspace) {
        assert_eq!(data.len(), self.len(), "Fft3: buffer length mismatch");
        counter_add(Counter::Fft3Transforms, 1);
        let (n1, n2, n3) = (self.n1, self.n2, self.n3);

        // X lines are contiguous: one slice per (y,z) pair.
        if n1 > 1 {
            self.plan_x.run_lines(data, 0..n2 * n3, dir, &mut ws.x);
        }

        // Y lines: within one contiguous z-plane the n1 lines along y all
        // have stride n1, so each plane is one batched strided call.
        if n2 > 1 {
            for plane in data.chunks_mut(n1 * n2) {
                self.plan_y.run_strided(plane, n1, n1, &mut ws.y, dir);
            }
        }

        // Z lines: all n1·n2 columns share stride n1·n2, so the whole grid
        // is one batched strided call — no full-grid transpose scratch.
        if n3 > 1 {
            let plane = n1 * n2;
            self.plan_z.run_strided(data, plane, plane, &mut ws.z, dir);
        }
    }

    /// The lines of this grid touched by the points at linear indices
    /// `points` (`idx = (iz·n2 + iy)·n1 + ix`) — for a planewave basis,
    /// the cutoff sphere's footprint.
    pub fn occupancy(&self, points: &[usize]) -> Occupancy {
        // alloc-audit: built once per point set (per basis), never per
        // transform.
        let mut line_used = vec![false; self.n2 * self.n3];
        let mut plane_used = vec![false; self.n3];
        for &idx in points {
            assert!(idx < self.len(), "Fft3::occupancy: point off the grid");
            line_used[idx / self.n1] = true;
            plane_used[idx / (self.n1 * self.n2)] = true;
        }
        let set = |used: Vec<bool>| (0..used.len()).filter(|&i| used[i]).collect();
        Occupancy {
            x_lines: set(line_used),
            z_planes: set(plane_used),
        }
    }

    /// **Unnormalized** inverse transform of data that is zero outside
    /// the points `occ` was built from: runs x → y → z and transforms
    /// only the x-lines holding a point and only the y-pencils of
    /// z-planes holding one (every other line is all zeros and stays so);
    /// the z pass is full. Multiply by `1/(n1·n2·n3)` — or fold that
    /// factor into whatever scales the result next — to match
    /// [`Fft3::inverse_with`] up to rounding. Performs no heap
    /// allocation.
    pub fn inverse_from_sparse(&self, data: &mut [c64], occ: &Occupancy, ws: &mut Fft3Workspace) {
        assert_eq!(data.len(), self.len(), "Fft3: buffer length mismatch");
        counter_add(Counter::Fft3Transforms, 1);
        let dir = Direction::InverseRaw;
        self.x_pass_sparse(data, occ, dir, ws);
        self.y_pass_sparse(data, occ, dir, ws);
        let plane = self.n1 * self.n2;
        self.plan_z.run_strided(data, plane, plane, &mut ws.z, dir);
    }

    /// Forward transform (unnormalized) whose output is only read at the
    /// points `occ` was built from: the mirror order z → y → x, a full z
    /// pass, then only the y-pencils of occupied z-planes and only the
    /// occupied x-lines. Values elsewhere are left as partial transforms
    /// — unspecified. Performs no heap allocation.
    pub fn forward_to_sparse(&self, data: &mut [c64], occ: &Occupancy, ws: &mut Fft3Workspace) {
        assert_eq!(data.len(), self.len(), "Fft3: buffer length mismatch");
        counter_add(Counter::Fft3Transforms, 1);
        let dir = Direction::Forward;
        let plane = self.n1 * self.n2;
        self.plan_z.run_strided(data, plane, plane, &mut ws.z, dir);
        self.y_pass_sparse(data, occ, dir, ws);
        self.x_pass_sparse(data, occ, dir, ws);
    }

    fn x_pass_sparse(
        &self,
        data: &mut [c64],
        occ: &Occupancy,
        dir: Direction,
        ws: &mut Fft3Workspace,
    ) {
        let lines = occ.x_lines.iter().copied();
        self.plan_x.run_lines(data, lines, dir, &mut ws.x);
    }

    fn y_pass_sparse(
        &self,
        data: &mut [c64],
        occ: &Occupancy,
        dir: Direction,
        ws: &mut Fft3Workspace,
    ) {
        let (n1, plane) = (self.n1, self.n1 * self.n2);
        for &iz in &occ.z_planes {
            let pencils = &mut data[iz * plane..(iz + 1) * plane];
            self.plan_y.run_strided(pencils, n1, n1, &mut ws.y, dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn rand_field(n: usize, seed: u64) -> Vec<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        (0..n).map(|_| c64::new(next(), next())).collect()
    }

    /// Brute-force 3-D DFT for small grids.
    fn dft3(data: &[c64], n1: usize, n2: usize, n3: usize) -> Vec<c64> {
        let mut out = vec![c64::ZERO; data.len()];
        for kz in 0..n3 {
            for ky in 0..n2 {
                for kx in 0..n1 {
                    let mut acc = c64::ZERO;
                    for iz in 0..n3 {
                        for iy in 0..n2 {
                            for ix in 0..n1 {
                                let phase = -2.0
                                    * PI
                                    * ((ix * kx) as f64 / n1 as f64
                                        + (iy * ky) as f64 / n2 as f64
                                        + (iz * kz) as f64 / n3 as f64);
                                acc = acc.mul_add(data[(iz * n2 + iy) * n1 + ix], c64::cis(phase));
                            }
                        }
                    }
                    out[(kz * n2 + ky) * n1 + kx] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_3d_dft() {
        for &(n1, n2, n3) in &[(4usize, 4usize, 4usize), (8, 4, 2), (3, 5, 4), (6, 6, 6)] {
            let data = rand_field(n1 * n2 * n3, (n1 * 100 + n2 * 10 + n3) as u64);
            let expect = dft3(&data, n1, n2, n3);
            let mut got = data.clone();
            Fft3::new(n1, n2, n3).forward(&mut got);
            let err = got
                .iter()
                .zip(&expect)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0_f64, f64::max);
            assert!(
                err < 1e-9 * (n1 * n2 * n3) as f64,
                "({n1},{n2},{n3}) err={err}"
            );
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &(n1, n2, n3) in &[
            (8usize, 8usize, 8usize),
            (10, 6, 12),
            (16, 16, 16),
            (1, 8, 3),
        ] {
            let data = rand_field(n1 * n2 * n3, 77);
            let plan = Fft3::new(n1, n2, n3);
            let mut work = data.clone();
            plan.forward(&mut work);
            plan.inverse(&mut work);
            let err = work
                .iter()
                .zip(&data)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0_f64, f64::max);
            assert!(err < 1e-11, "roundtrip ({n1},{n2},{n3}) err={err}");
        }
    }

    #[test]
    fn plane_wave_lands_in_single_bin() {
        let (n1, n2, n3) = (8, 8, 8);
        let (k1, k2, k3) = (2usize, 3usize, 5usize);
        let mut data = vec![c64::ZERO; n1 * n2 * n3];
        for iz in 0..n3 {
            for iy in 0..n2 {
                for ix in 0..n1 {
                    let phase = 2.0
                        * PI
                        * ((ix * k1) as f64 / n1 as f64
                            + (iy * k2) as f64 / n2 as f64
                            + (iz * k3) as f64 / n3 as f64);
                    data[(iz * n2 + iy) * n1 + ix] = c64::cis(phase);
                }
            }
        }
        Fft3::new(n1, n2, n3).forward(&mut data);
        let total = (n1 * n2 * n3) as f64;
        for iz in 0..n3 {
            for iy in 0..n2 {
                for ix in 0..n1 {
                    let v = data[(iz * n2 + iy) * n1 + ix];
                    if (ix, iy, iz) == (k1, k2, k3) {
                        assert!((v.re - total).abs() < 1e-8);
                    } else {
                        assert!(v.abs() < 1e-8);
                    }
                }
            }
        }
    }

    /// Linear indices of the grid points within `radius` grid units of
    /// the origin in wrap-around frequency order — a cutoff sphere.
    fn sphere_points(n1: usize, n2: usize, n3: usize, radius: f64) -> Vec<usize> {
        let freq = |i: usize, n: usize| i.min(n - i) as f64;
        let mut points = Vec::new();
        for iz in 0..n3 {
            for iy in 0..n2 {
                for ix in 0..n1 {
                    let f2 = freq(ix, n1).powi(2) + freq(iy, n2).powi(2) + freq(iz, n3).powi(2);
                    if f2 <= radius * radius {
                        points.push((iz * n2 + iy) * n1 + ix);
                    }
                }
            }
        }
        points
    }

    #[test]
    fn occupancy_is_the_sphere_footprint() {
        let plan = Fft3::new(14, 14, 14);
        let occ = plan.occupancy(&sphere_points(14, 14, 14, 3.0));
        // Radius 3: planes iz ∈ {0..3} ∪ {11..13}; the x-lines are the
        // (iy, iz) pairs inside the radius-3 disc — 29 of 196.
        assert_eq!(occ.z_planes, vec![0, 1, 2, 3, 11, 12, 13]);
        assert_eq!(occ.x_lines.len(), 29);
        assert!(occ.x_lines.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sparse_transforms_match_the_full_ones() {
        // Mixed-radix boxes, a Bluestein axis (17), and a power of two.
        for &(n1, n2, n3, radius) in &[
            (14usize, 14usize, 14usize, 3.2),
            (12, 18, 18, 2.5),
            (17, 6, 10, 2.0),
            (8, 8, 8, 1.5),
        ] {
            let len = n1 * n2 * n3;
            let plan = Fft3::new(n1, n2, n3);
            let mut ws = plan.workspace();
            let points = sphere_points(n1, n2, n3, radius);
            let occ = plan.occupancy(&points);
            assert!(occ.x_lines.len() < n2 * n3, "sphere must leave lines out");

            // Inverse: data supported on the sphere only.
            let values = rand_field(points.len(), len as u64);
            let mut sparse = vec![c64::ZERO; len];
            for (&p, &v) in points.iter().zip(&values) {
                sparse[p] = v;
            }
            let mut full = sparse.clone();
            plan.inverse_from_sparse(&mut sparse, &occ, &mut ws);
            plan.inverse_with(&mut full, &mut ws);
            for (a, b) in sparse.iter().zip(&full) {
                assert!(
                    (a.scale(1.0 / len as f64) - *b).abs() < 1e-13,
                    "inverse ({n1},{n2},{n3})"
                );
            }

            // Forward: dense input, outputs compared on the sphere only.
            let data = rand_field(len, 7 + len as u64);
            let mut sparse = data.clone();
            let mut full = data;
            plan.forward_to_sparse(&mut sparse, &occ, &mut ws);
            plan.forward_with(&mut full, &mut ws);
            for &p in &points {
                assert!(
                    (sparse[p] - full[p]).abs() < 1e-11,
                    "forward ({n1},{n2},{n3}) point {p}"
                );
            }
        }
    }

    #[test]
    fn linearity() {
        let (n1, n2, n3) = (6, 5, 4);
        let a = rand_field(n1 * n2 * n3, 1);
        let b = rand_field(n1 * n2 * n3, 2);
        let plan = Fft3::new(n1, n2, n3);
        let mut sum: Vec<c64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        plan.forward(&mut sum);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        for i in 0..sum.len() {
            assert!((sum[i] - (fa[i] + fb[i].scale(2.0))).abs() < 1e-9);
        }
    }
}
