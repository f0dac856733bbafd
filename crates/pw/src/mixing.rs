//! Potential mixing for the self-consistent field loop.
//!
//! The paper mixes *potentials* between outer iterations ("After potential
//! mixing from previous iterations, the modified V_out is used as the input
//! for the next self-consistent iteration") and measures convergence by
//! `∫|V_out − V_in| d³r` (Fig. 6). Three mixers are provided:
//!
//! * [`Mixer::Linear`] — `V ← V_in + α(V_out − V_in)`;
//! * [`Mixer::Kerker`] — linear with the `G²/(G²+q₀²)` long-wavelength
//!   damping that prevents charge sloshing in large cells;
//! * [`Mixer::Pulay`] — DIIS over the potential-residual history.

use ls3df_fft::{Fft3, Fft3r, Fft3rWorkspace};
use ls3df_grid::RealField;
use ls3df_math::{c64, KernelPolicy, Matrix};

/// Mixing scheme selector.
#[derive(Clone, Debug)]
pub enum Mixer {
    /// Simple linear mixing with factor `alpha`.
    Linear {
        /// Mixing fraction in (0, 1].
        alpha: f64,
    },
    /// Kerker-regularized linear mixing.
    Kerker {
        /// Mixing fraction in (0, 1].
        alpha: f64,
        /// Screening wavevector q₀ (Bohr⁻¹).
        q0: f64,
    },
    /// Pulay (DIIS) mixing over a sliding history window.
    Pulay {
        /// Linear fraction used for the first steps and as the DIIS
        /// preconditioner.
        alpha: f64,
        /// History depth.
        depth: usize,
    },
}

/// Fast-path Kerker engine, cached per grid geometry: the residual is
/// real, so the damping round-trip runs through the packed r2c/c2r
/// transform on the non-redundant half spectrum.
struct KerkerPacked {
    grid: ls3df_grid::Grid3,
    rfft: Fft3r,
    ws: Fft3rWorkspace,
    /// `α·G²/(G²+q₀²)` on the packed `(n1/2+1)·n2·n3` layout.
    factors: Vec<f64>,
    /// Real residual staging (`V_out − V_in`) and its packed spectrum.
    diff: Vec<f64>,
    spec: Vec<c64>,
}

/// Stateful mixer bound to one SCF run.
pub struct MixerState {
    scheme: Mixer,
    policy: KernelPolicy,
    /// (input potential, residual = output − input) history for Pulay.
    history: Vec<(Vec<f64>, Vec<f64>)>,
    /// Kerker damping factors `α·G²/(G²+q₀²)` cached per grid geometry —
    /// the reciprocal-space sweep then reads a flat table instead of
    /// recomputing `coords`/`g2` per point per iteration. (Reference
    /// oracle; the production path caches [`KerkerPacked`] instead.)
    kerker: Option<(ls3df_grid::Grid3, Vec<f64>)>,
    kerker_packed: Option<KerkerPacked>,
    /// Complex scratch reused across the reference Kerker round-trips.
    scratch: Vec<c64>,
}

impl MixerState {
    /// Creates the state for a scheme.
    pub fn new(scheme: Mixer) -> Self {
        Self::new_with(scheme, KernelPolicy::Fast)
    }

    /// [`MixerState::new`] with an explicit [`KernelPolicy`] — the
    /// reference Kerker oracle for the tolerance tests.
    pub fn new_with(scheme: Mixer, policy: KernelPolicy) -> Self {
        MixerState {
            scheme,
            policy,
            history: Vec::new(),
            kerker: None,
            kerker_packed: None,
            scratch: Vec::new(),
        }
    }

    /// Produces the next input potential from the current `(V_in, V_out)`
    /// pair.
    pub fn mix(&mut self, v_in: &RealField, v_out: &RealField, fft: &Fft3) -> RealField {
        assert_eq!(v_in.grid(), v_out.grid(), "mix: grid mismatch");
        ls3df_obs::counter_add(ls3df_obs::Counter::MixerApplies, 1);
        match self.scheme {
            Mixer::Linear { alpha } => {
                let mut v = v_in.clone();
                let diff = v_out.diff(v_in);
                v.add_scaled(alpha, &diff);
                v
            }
            Mixer::Kerker { alpha, q0 } if self.policy == KernelPolicy::Fast => {
                let grid = v_in.grid();
                if !matches!(&self.kerker_packed, Some(kp) if kp.grid == *grid) {
                    let rfft = Fft3r::new_with(grid.dims, self.policy);
                    let h1 = rfft.packed_nx();
                    let mut factors = Vec::with_capacity(rfft.packed_len());
                    for iz in 0..grid.dims[2] {
                        for iy in 0..grid.dims[1] {
                            for ix in 0..h1 {
                                let g2 = grid.g2(ix, iy, iz);
                                let damp = if g2 == 0.0 { 1.0 } else { g2 / (g2 + q0 * q0) };
                                factors.push(alpha * damp);
                            }
                        }
                    }
                    self.kerker_packed = Some(KerkerPacked {
                        grid: grid.clone(),
                        ws: rfft.workspace(),
                        spec: vec![c64::ZERO; rfft.packed_len()],
                        diff: vec![0.0; grid.len()],
                        rfft,
                        factors,
                    });
                }
                let Some(kp) = &mut self.kerker_packed else {
                    unreachable!("cache built above")
                };
                for (d, (&o, &i)) in kp
                    .diff
                    .iter_mut()
                    .zip(v_out.as_slice().iter().zip(v_in.as_slice()))
                {
                    *d = o - i;
                }
                kp.rfft.forward(&kp.diff, &mut kp.spec, &mut kp.ws);
                for (v, &k) in kp.spec.iter_mut().zip(&kp.factors) {
                    *v = v.scale(k);
                }
                kp.rfft.inverse(&mut kp.spec, &mut kp.diff, &mut kp.ws);
                let mut v = v_in.clone();
                for (o, &d) in v.as_mut_slice().iter_mut().zip(&kp.diff) {
                    *o += d;
                }
                v
            }
            Mixer::Kerker { alpha, q0 } => {
                let grid = v_in.grid();
                if !matches!(&self.kerker, Some((g, _)) if g == grid) {
                    let factors = (0..grid.len())
                        .map(|idx| {
                            let (ix, iy, iz) = grid.coords(idx);
                            let g2 = grid.g2(ix, iy, iz);
                            let damp = if g2 == 0.0 { 1.0 } else { g2 / (g2 + q0 * q0) };
                            alpha * damp
                        })
                        .collect();
                    self.kerker = Some((grid.clone(), factors));
                }
                let Some((_, factors)) = &self.kerker else {
                    unreachable!("cache built above")
                };
                self.scratch.resize(grid.len(), c64::ZERO);
                for (s, (&o, &i)) in self
                    .scratch
                    .iter_mut()
                    .zip(v_out.as_slice().iter().zip(v_in.as_slice()))
                {
                    *s = c64::real(o - i);
                }
                fft.forward(&mut self.scratch);
                for (v, &k) in self.scratch.iter_mut().zip(factors) {
                    *v = v.scale(k);
                }
                fft.inverse(&mut self.scratch);
                let mut v = v_in.clone();
                for (o, d) in v.as_mut_slice().iter_mut().zip(&self.scratch) {
                    *o += d.re;
                }
                v
            }
            Mixer::Pulay { alpha, depth } => {
                let residual: Vec<f64> = v_out
                    .as_slice()
                    .iter()
                    .zip(v_in.as_slice())
                    .map(|(&o, &i)| o - i)
                    .collect();
                self.history.push((v_in.as_slice().to_vec(), residual));
                if self.history.len() > depth {
                    self.history.remove(0);
                }
                let m = self.history.len();
                if m < 2 {
                    let mut v = v_in.clone();
                    let diff = v_out.diff(v_in);
                    v.add_scaled(alpha, &diff);
                    return v;
                }
                // DIIS: minimize ‖Σ c_i r_i‖ subject to Σ c_i = 1 via the
                // bordered linear system.
                let dv = v_in.grid().dv();
                let mut a = Matrix::<f64>::zeros(m + 1, m + 1);
                for i in 0..m {
                    for j in 0..m {
                        let dot: f64 = self.history[i]
                            .1
                            .iter()
                            .zip(&self.history[j].1)
                            .map(|(&x, &y)| x * y)
                            .sum::<f64>()
                            * dv;
                        a[(i, j)] = dot;
                    }
                    a[(i, m)] = 1.0;
                    a[(m, i)] = 1.0;
                }
                let mut b = vec![0.0; m + 1];
                b[m] = 1.0;
                let coeffs = match ls3df_math::solve(&a, &b) {
                    Ok(c) => c,
                    Err(_) => {
                        // Degenerate history: fall back to linear mixing.
                        let mut v = v_in.clone();
                        let diff = v_out.diff(v_in);
                        v.add_scaled(alpha, &diff);
                        return v;
                    }
                };
                let n = v_in.grid().len();
                let mut out = vec![0.0_f64; n];
                for (i, (vin_i, r_i)) in self.history.iter().enumerate() {
                    let c = coeffs[i];
                    for k in 0..n {
                        out[k] += c * (vin_i[k] + alpha * r_i[k]);
                    }
                }
                RealField::from_vec(v_in.grid().clone(), out)
            }
        }
    }

    /// Clears accumulated history (e.g. when restarting an SCF loop).
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// The Pulay `(V_in, residual)` history, oldest first — the part of
    /// the mixer state that must survive a checkpoint/restart for the
    /// resumed run to mix bit-identically. (The Kerker factor table and
    /// FFT scratch are derived caches and rebuild on demand.)
    pub fn history(&self) -> &[(Vec<f64>, Vec<f64>)] {
        &self.history
    }

    /// Replaces the history with one restored from a checkpoint.
    pub fn restore_history(&mut self, history: Vec<(Vec<f64>, Vec<f64>)>) {
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_grid::Grid3;

    fn fields() -> (RealField, RealField, Fft3) {
        let grid = Grid3::cubic(8, 4.0);
        let v_in = RealField::from_fn(grid.clone(), |r| r[0]);
        let v_out = RealField::from_fn(grid.clone(), |r| r[0] + 1.0 + 0.5 * r[1]);
        let fft = Fft3::new(8, 8, 8);
        (v_in, v_out, fft)
    }

    #[test]
    fn linear_mixing_interpolates() {
        let (v_in, v_out, fft) = fields();
        let mut m = MixerState::new(Mixer::Linear { alpha: 0.25 });
        let v = m.mix(&v_in, &v_out, &fft);
        for i in 0..v.as_slice().len() {
            let expect = v_in.as_slice()[i] + 0.25 * (v_out.as_slice()[i] - v_in.as_slice()[i]);
            assert!((v.as_slice()[i] - expect).abs() < 1e-13);
        }
    }

    #[test]
    fn linear_alpha_one_returns_output() {
        let (v_in, v_out, fft) = fields();
        let mut m = MixerState::new(Mixer::Linear { alpha: 1.0 });
        let v = m.mix(&v_in, &v_out, &fft);
        assert!(v.diff(&v_out).max_abs() < 1e-12);
    }

    #[test]
    fn kerker_damps_long_wavelength_only() {
        let grid = Grid3::cubic(16, 8.0);
        let fft = Fft3::new(16, 16, 16);
        let v_in = RealField::zeros(grid.clone());
        // Long-wavelength (k = 2π/L) residual.
        let g1 = 2.0 * std::f64::consts::PI / 8.0;
        let v_out_long = RealField::from_fn(grid.clone(), |r| (g1 * r[0]).cos());
        // Short-wavelength (k = 8π/L).
        let v_out_short = RealField::from_fn(grid.clone(), |r| (4.0 * g1 * r[0]).cos());
        let q0 = 1.0;
        let mut m = MixerState::new(Mixer::Kerker { alpha: 1.0, q0 });
        let long = m.mix(&v_in, &v_out_long, &fft);
        let short = m.mix(&v_in, &v_out_short, &fft);
        let damp_long = long.max_abs();
        let damp_short = short.max_abs();
        let expect_long = g1 * g1 / (g1 * g1 + q0 * q0);
        let g4 = 4.0 * g1;
        let expect_short = g4 * g4 / (g4 * g4 + q0 * q0);
        assert!((damp_long - expect_long).abs() < 1e-10);
        assert!((damp_short - expect_short).abs() < 1e-10);
        assert!(damp_long < damp_short);
    }

    #[test]
    fn kerker_fast_path_matches_reference() {
        // Packed-residual Kerker vs the complex-grid reference, across
        // even/odd/mixed x-extents, reusing one mixer so the second grid
        // exercises the cache-rebuild path.
        for dims in [[16usize, 8, 8], [9, 8, 8], [10, 8, 9]] {
            let grid = Grid3::new(dims, [6.0, 5.0, 5.5]);
            let fft = Fft3::new(dims[0], dims[1], dims[2]);
            let v_in = RealField::from_fn(grid.clone(), |r| (r[0] * 0.7).sin() + 0.1 * r[1]);
            let v_out =
                RealField::from_fn(grid.clone(), |r| (r[0] * 0.7).sin() + (r[2] * 1.3).cos());
            let scheme = Mixer::Kerker {
                alpha: 0.6,
                q0: 0.8,
            };
            let mut fast = MixerState::new_with(scheme.clone(), KernelPolicy::Fast);
            let mut reference = MixerState::new_with(scheme, KernelPolicy::Reference);
            // Twice: second mix runs on the warmed packed cache.
            let _ = fast.mix(&v_in, &v_out, &fft);
            let vf = fast.mix(&v_in, &v_out, &fft);
            let vr = reference.mix(&v_in, &v_out, &fft);
            let diff = vf.diff(&vr).max_abs();
            assert!(diff < 1e-11, "dims {dims:?}: fast vs reference {diff}");
        }
    }

    #[test]
    fn pulay_solves_linear_problem_fast() {
        // For the linear fixed-point map V_out = G·V* + (1−G)·V_in with a
        // scalar G, DIIS should land essentially on V* once it has 2+
        // history entries.
        let grid = Grid3::cubic(4, 2.0);
        let fft = Fft3::new(4, 4, 4);
        let target = RealField::from_fn(grid.clone(), |r| (r[0] - 1.0) * (r[1] - 0.5));
        let g = 0.6;
        let response = |v_in: &RealField| {
            let mut v = target.clone();
            v.scale(g);
            let mut rest = v_in.clone();
            rest.scale(1.0 - g);
            v.add_scaled(1.0, &rest);
            v
        };
        let mut mixer = MixerState::new(Mixer::Pulay {
            alpha: 0.5,
            depth: 5,
        });
        let mut v = RealField::zeros(grid);
        for _ in 0..6 {
            let out = response(&v);
            v = mixer.mix(&v, &out, &fft);
        }
        let err = v.diff(&target).max_abs();
        assert!(err < 1e-10, "Pulay residual {err}");
    }

    #[test]
    fn reset_clears_history() {
        let (v_in, v_out, fft) = fields();
        let mut m = MixerState::new(Mixer::Pulay {
            alpha: 0.3,
            depth: 4,
        });
        let _ = m.mix(&v_in, &v_out, &fft);
        assert_eq!(m.history.len(), 1);
        m.reset();
        assert!(m.history.is_empty());
    }
}
