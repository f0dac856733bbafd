//! FFT Poisson solver — the serial kernel of the paper's GENPOT step.
//!
//! Solves `∇²V_H = −4πρ` on the periodic grid:
//! `V_H(G) = 4π·ρ(G)/|G|²`, with the `G = 0` component set to zero
//! (jellium convention for charge-neutral cells).

use ls3df_fft::{Fft3, Fft3Workspace, Fft3r, Fft3rWorkspace};
use ls3df_grid::{Grid3, RealField};
use ls3df_math::{c64, KernelPolicy};
use std::sync::Mutex;

/// Scratch one Poisson solve needs; the variant matches the solver's
/// kernel policy (a solver pool never mixes variants).
enum HartreeScratch {
    /// Reference oracle: full complex grid buffer + complex FFT scratch.
    Complex { buf: Vec<c64>, ws: Fft3Workspace },
    /// Fast path: packed `(n1/2+1)·n2·n3` spectrum + r2c FFT scratch.
    Packed { spec: Vec<c64>, ws: Fft3rWorkspace },
}

/// Cached FFT Poisson solver for one grid geometry: the FFT plans
/// (including Bluestein filter FFTs) and the reciprocal-space kernel
/// are built once at construction, not per solve.
///
/// The solve runs through the packed [`Fft3r`] r2c/c2r transform — ρ
/// and V are real, so only the non-redundant Hermitian half of the
/// spectrum is ever computed or scaled. A solver built with
/// [`KernelPolicy::Reference`] keeps the original complex-grid
/// arithmetic as the oracle `tests/kernel_tol.rs` compares against.
///
/// [`HartreeSolver::solve_into`] is the steady-state GENPOT entry point:
/// after the first call has warmed the internal scratch pool it performs
/// no heap allocation on either path.
pub struct HartreeSolver {
    grid: Grid3,
    fft: Fft3,
    policy: KernelPolicy,
    /// Packed r2c plan (fast path only; built either way — plan
    /// construction is cheap next to the coefficient tables).
    rfft: Fft3r,
    /// Reference kernel: `4π/(|G|²·N)` per grid point, `0` at `G = 0`.
    coeffs: Vec<f64>,
    /// Fast kernel on the packed grid: `4π/|G|²` (no `1/N` — the c2r
    /// inverse carries the full normalization), `0` at `G = 0`.
    packed_coeffs: Vec<f64>,
    pool: Mutex<Vec<HartreeScratch>>,
}

impl HartreeSolver {
    /// Builds the solver for a grid geometry (plans + kernels, once).
    pub fn new(grid: Grid3) -> Self {
        Self::new_with(grid, KernelPolicy::Fast)
    }

    /// [`HartreeSolver::new`] with an explicit [`KernelPolicy`] — lets
    /// tests and benches compare the reference oracle in one process.
    pub fn new_with(grid: Grid3, policy: KernelPolicy) -> Self {
        let fft = Fft3::new(grid.dims[0], grid.dims[1], grid.dims[2]);
        let rfft = Fft3r::new_with(grid.dims, policy);
        let n = grid.len() as f64;
        let coeffs = (0..grid.len())
            .map(|idx| {
                let (ix, iy, iz) = grid.coords(idx);
                let g2 = grid.g2(ix, iy, iz);
                if g2 == 0.0 {
                    0.0
                } else {
                    4.0 * std::f64::consts::PI / (g2 * n)
                }
            })
            .collect();
        // Packed layout: ix in 0..n1/2+1 (the kept Hermitian half), with
        // the same (iy, iz) sweep as the full grid, x fastest.
        let h1 = rfft.packed_nx();
        let mut packed_coeffs = Vec::with_capacity(rfft.packed_len());
        for iz in 0..grid.dims[2] {
            for iy in 0..grid.dims[1] {
                for ix in 0..h1 {
                    let g2 = grid.g2(ix, iy, iz);
                    packed_coeffs.push(if g2 == 0.0 {
                        0.0
                    } else {
                        4.0 * std::f64::consts::PI / g2
                    });
                }
            }
        }
        HartreeSolver {
            grid,
            fft,
            policy,
            rfft,
            coeffs,
            packed_coeffs,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The grid this solver was built for.
    pub fn grid(&self) -> &Grid3 {
        &self.grid
    }

    /// The cached FFT plan (shared with callers that need one-off grid
    /// transforms on the same geometry).
    pub fn fft(&self) -> &Fft3 {
        &self.fft
    }

    /// Solves `∇²V_H = −4πρ` into `out` (both on the solver's grid).
    /// Heap-free once the internal scratch pool is warm.
    pub fn solve_into(&self, rho: &RealField, out: &mut RealField) {
        assert_eq!(rho.grid(), &self.grid, "hartree: density grid mismatch");
        assert_eq!(out.grid(), &self.grid, "hartree: output grid mismatch");
        ls3df_obs::counter_add(ls3df_obs::Counter::HartreeSolves, 1);
        let scratch = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        // alloc-audit: pool warmup only — steady state reuses the scratch.
        let mut scratch = scratch.unwrap_or_else(|| match self.policy {
            KernelPolicy::Reference => HartreeScratch::Complex {
                buf: vec![c64::ZERO; self.grid.len()],
                ws: self.fft.workspace(),
            },
            KernelPolicy::Fast => HartreeScratch::Packed {
                spec: vec![c64::ZERO; self.rfft.packed_len()],
                ws: self.rfft.workspace(),
            },
        });
        match &mut scratch {
            HartreeScratch::Complex { buf, ws } => {
                for (b, &r) in buf.iter_mut().zip(rho.as_slice()) {
                    *b = c64::real(r);
                }
                self.fft.forward_with(buf, ws);
                for (v, &k) in buf.iter_mut().zip(&self.coeffs) {
                    // k = 0 in the G = 0 slot projects out the mean
                    // (jellium), matching the branch in
                    // hartree_potential_with exactly (x·0 = 0 for the
                    // finite FFT outputs here).
                    *v = v.scale(k);
                }
                self.fft.inverse_with(buf, ws);
                // inverse includes 1/N, but the kernel already divided
                // by N above; compensate.
                let n = self.grid.len() as f64;
                for (o, v) in out.as_mut_slice().iter_mut().zip(&*buf) {
                    *o = v.re * n;
                }
            }
            HartreeScratch::Packed { spec, ws } => {
                self.rfft.forward(rho.as_slice(), spec, ws);
                for (v, &k) in spec.iter_mut().zip(&self.packed_coeffs) {
                    // Packed kernel has no 1/N: forward leaves N·ρ(G) in
                    // the bins and the c2r inverse carries the full 1/N,
                    // so scaling by 4π/G² alone lands on V_H exactly.
                    *v = v.scale(k);
                }
                self.rfft.inverse(spec, out.as_mut_slice(), ws);
            }
        }
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
    }

    /// Allocating convenience wrapper over [`HartreeSolver::solve_into`].
    pub fn solve(&self, rho: &RealField) -> RealField {
        let mut out = RealField::zeros(self.grid.clone());
        self.solve_into(rho, &mut out);
        out
    }
}

/// Solves the periodic Poisson equation for the Hartree potential of
/// `rho` (electrons·Bohr⁻³, positive = electron density). Returns the
/// potential in Hartree acting on electrons (repulsive: positive where the
/// density clumps).
///
/// One-shot path (plan built per call): SCF loops should hold a
/// [`HartreeSolver`].
pub fn hartree_potential(rho: &RealField) -> RealField {
    let grid = rho.grid().clone();
    let fft = Fft3::new(grid.dims[0], grid.dims[1], grid.dims[2]);
    hartree_potential_with(rho, &fft, &grid)
}

/// Same as [`hartree_potential`] but reusing an existing FFT plan.
pub fn hartree_potential_with(rho: &RealField, fft: &Fft3, grid: &Grid3) -> RealField {
    assert_eq!(rho.grid(), grid, "hartree: grid mismatch");
    let mut buf: Vec<c64> = rho.as_slice().iter().map(|&v| c64::real(v)).collect();
    fft.forward(&mut buf);
    let n = grid.len() as f64;
    for (idx, v) in buf.iter_mut().enumerate() {
        let (ix, iy, iz) = grid.coords(idx);
        let g2 = grid.g2(ix, iy, iz);
        if g2 == 0.0 {
            *v = c64::ZERO;
        } else {
            // forward is unnormalized → ρ(G) = buf/N.
            *v = v.scale(4.0 * std::f64::consts::PI / (g2 * n));
        }
    }
    fft.inverse(&mut buf);
    // inverse includes 1/N, but we already divided by N above; compensate.
    let mut out = RealField::zeros(grid.clone());
    for (o, v) in out.as_mut_slice().iter_mut().zip(&buf) {
        *o = v.re * n;
    }
    out
}

/// Hartree energy `E_H = ½·∫ρ·V_H d³r`.
pub fn hartree_energy(rho: &RealField, v_h: &RealField) -> f64 {
    assert_eq!(rho.grid(), v_h.grid());
    0.5 * rho
        .as_slice()
        .iter()
        .zip(v_h.as_slice())
        .map(|(&r, &v)| r * v)
        .sum::<f64>()
        * rho.grid().dv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn single_cosine_mode_analytic() {
        // ρ(r) = cos(G·x) with G = 2π/L → V = 4π/G²·cos(Gx).
        let l = 8.0;
        let grid = Grid3::cubic(16, l);
        let g = 2.0 * PI / l;
        let rho = RealField::from_fn(grid.clone(), |r| (g * r[0]).cos());
        let v = hartree_potential(&rho);
        let expect = 4.0 * PI / (g * g);
        for (idx, &val) in v.as_slice().iter().enumerate() {
            let (ix, _, _) = v.grid().coords(idx);
            let x = ix as f64 * l / 16.0;
            assert!(
                (val - expect * (g * x).cos()).abs() < 1e-9,
                "V({x}) = {val}, expected {}",
                expect * (g * x).cos()
            );
        }
    }

    #[test]
    fn cached_solver_matches_one_shot_path() {
        let grid = Grid3::new([10, 8, 9], [7.0, 5.5, 6.0]);
        let rho = RealField::from_fn(grid.clone(), |r| {
            (r[0] * 0.9).sin() + 0.3 * (r[1] * 1.1).cos() * (r[2] * 0.5).sin()
        });
        let reference = hartree_potential(&rho);
        let solver = HartreeSolver::new(grid.clone());
        let mut out = RealField::zeros(grid);
        // Twice: the second call exercises the warmed (dirty) scratch pool.
        solver.solve_into(&rho, &mut out);
        solver.solve_into(&rho, &mut out);
        let diff = reference.diff(&out);
        assert!(
            diff.max_abs() < 1e-11,
            "cached vs one-shot: {}",
            diff.max_abs()
        );
        let again = solver.solve(&rho);
        assert!(
            out.diff(&again).max_abs() == 0.0,
            "solve vs solve_into drifted"
        );
    }

    #[test]
    fn packed_fast_path_matches_reference_path() {
        // Even, odd, and mixed-parity x-extents: the packed r2c trick
        // (even n1) and the odd-length fallback must both agree with the
        // complex-grid reference arithmetic to solver tolerance.
        for dims in [[16usize, 8, 8], [9, 8, 8], [10, 8, 9], [40, 4, 4]] {
            let grid = Grid3::new(dims, [7.0, 5.5, 6.0]);
            let rho = RealField::from_fn(grid.clone(), |r| {
                (r[0] * 0.9).sin() + 0.3 * (r[1] * 1.1).cos() * (r[2] * 0.5).sin()
            });
            let fast = HartreeSolver::new_with(grid.clone(), KernelPolicy::Fast);
            let reference = HartreeSolver::new_with(grid.clone(), KernelPolicy::Reference);
            let mut v_fast = RealField::zeros(grid.clone());
            let mut v_ref = RealField::zeros(grid);
            // Twice: the second call exercises the warmed packed pool.
            fast.solve_into(&rho, &mut v_fast);
            fast.solve_into(&rho, &mut v_fast);
            reference.solve_into(&rho, &mut v_ref);
            let diff = v_fast.diff(&v_ref).max_abs();
            assert!(diff < 1e-10, "dims {dims:?}: fast vs reference {diff}");
        }
    }

    #[test]
    fn gauge_invariant_to_constant_density_shift() {
        // Adding a uniform background changes only the G = 0 channel, which
        // is projected out → same potential.
        let grid = Grid3::cubic(12, 6.0);
        let rho1 = RealField::from_fn(grid.clone(), |r| (r[0] - 3.0).powi(2) * 0.1);
        let mut rho2 = rho1.clone();
        rho2.shift(0.7);
        let v1 = hartree_potential(&rho1);
        let v2 = hartree_potential(&rho2);
        let diff = v1.diff(&v2);
        assert!(diff.max_abs() < 1e-10);
    }

    #[test]
    fn output_mean_is_zero() {
        let grid = Grid3::new([8, 10, 12], [5.0, 6.0, 7.0]);
        let rho = RealField::from_fn(grid, |r| (r[0] * 1.3).sin() + 0.2 * (r[2] * 0.7).cos());
        let v = hartree_potential(&rho);
        assert!(v.mean().abs() < 1e-10);
    }

    #[test]
    fn energy_positive_for_localized_charge() {
        let grid = Grid3::cubic(16, 10.0);
        let rho = RealField::from_fn(grid, |r| {
            let d2 = (r[0] - 5.0).powi(2) + (r[1] - 5.0).powi(2) + (r[2] - 5.0).powi(2);
            (-d2).exp()
        });
        let v = hartree_potential(&rho);
        assert!(hartree_energy(&rho, &v) > 0.0);
    }

    #[test]
    fn laplacian_consistency() {
        // ∇²V = −4π(ρ − ρ̄): check via finite differences at interior points.
        let n = 20;
        let l = 10.0;
        let grid = Grid3::cubic(n, l);
        let rho = RealField::from_fn(grid.clone(), |r| {
            (2.0 * PI * r[0] / l).cos() * (2.0 * PI * r[1] / l).sin()
        });
        let v = hartree_potential(&rho);
        let h = l / n as f64;
        let mean = rho.mean();
        for &(ix, iy, iz) in &[(5i64, 5i64, 5i64), (10, 3, 7), (1, 18, 9)] {
            let lap = (v.at_wrapped(ix + 1, iy, iz)
                + v.at_wrapped(ix - 1, iy, iz)
                + v.at_wrapped(ix, iy + 1, iz)
                + v.at_wrapped(ix, iy - 1, iz)
                + v.at_wrapped(ix, iy, iz + 1)
                + v.at_wrapped(ix, iy, iz - 1)
                - 6.0 * v.at_wrapped(ix, iy, iz))
                / (h * h);
            let target = -4.0 * PI * (rho.at_wrapped(ix, iy, iz) - mean);
            // Second-order stencil on a smooth mode: tolerance ~h².
            assert!(
                (lap - target).abs() < 0.1 * target.abs().max(1.0),
                "∇²V = {lap}, want {target}"
            );
        }
    }
}
