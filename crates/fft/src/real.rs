//! Real-to-complex / complex-to-real transforms.
//!
//! ρ and V are real fields, so their spectra are Hermitian:
//! `X[n−k] = conj(X[k])`. A complex FFT of a real line therefore
//! computes every output twice. [`RealFft1d`] avoids that with the
//! standard packed trick for even n: view the real line as a complex
//! line of half the length (`z[j] = x[2j] + i·x[2j+1]`), run one
//! complex FFT of size `m = n/2`, and unpack the Hermitian halves
//!
//! ```text
//! E[k] = (Z[k] + conj(Z[m−k]))/2          (DFT of the even samples)
//! O[k] = −i·(Z[k] − conj(Z[m−k]))/2       (DFT of the odd samples)
//! X[k] = E[k] + e^{−2πik/n}·O[k],  k = 0..n/2
//! ```
//!
//! keeping only the non-redundant `n/2 + 1` packed outputs (`X[0]` and
//! `X[n/2]` are real). The inverse reverses the unpacking and runs one
//! inverse complex FFT of size m — the `1/m` it carries *is* the full
//! `1/n` normalization, because the packed line has half the length.
//!
//! [`Fft3r`] lifts this to three dimensions for the x-fastest grid
//! layout: an r2c pass over the x-lines shrinks the grid to
//! `(n1/2+1) × n2 × n3` packed complex values, and the y/z passes are
//! ordinary complex strided transforms on the packed array — roughly
//! half the 3-D work of the complex path the Hartree/Kerker solvers
//! used before.
//!
//! Odd lengths (and n = 1) fall back to a full complex transform per
//! line, so every grid the complex path accepted still works; the
//! packed savings simply apply to the dominant even sizes.
//!
//! Conventions match [`Fft1d`]: `forward` unnormalized, `inverse`
//! carries the full `1/n` (and 1/N for [`Fft3r`]).

use crate::plan::{Direction, Fft1d, Fft1dWorkspace};
use ls3df_math::{c64, KernelPolicy};
use ls3df_obs::{counter_add, Counter};
use std::f64::consts::PI;

/// A reusable r2c/c2r plan for real lines of a fixed length.
pub struct RealFft1d {
    n: usize,
    kind: RKind,
    /// Estimated flops per transformed real line, fixed at plan build —
    /// the *true* cost (inner complex transform + unpacking), so the
    /// `FftFlops` counter never credits the packed path with the flops
    /// a full complex line would have spent.
    line_flops: u64,
}

enum RKind {
    /// n == 1: the spectrum is the sample.
    Trivial,
    /// Even n: inner complex plan of length n/2 plus unpack twiddles
    /// `e^{−2πik/n}` for k in 0..n/4+1 (the pair loop touches k and
    /// m−k together, so only the first half is needed... stored to m/2).
    Packed { inner: Fft1d, twiddles: Vec<c64> },
    /// Odd n: full complex transform per line (no packed savings, full
    /// correctness).
    Odd { inner: Fft1d },
}

/// Scratch for one [`RealFft1d`] plan; build with
/// [`RealFft1d::workspace`] once per thread, reuse across calls.
pub struct RealFftWorkspace {
    inner_ws: Fft1dWorkspace,
    /// Line staging: length n/2 for the packed inverse, n for the odd
    /// fallback (both directions).
    buf: Vec<c64>,
}

impl RealFft1d {
    /// Builds a plan for real lines of length `n` (n ≥ 1).
    pub fn new(n: usize) -> Self {
        Self::new_with(n, KernelPolicy::Fast)
    }

    /// [`RealFft1d::new`] with an explicit [`KernelPolicy`] (the policy
    /// selects the *inner* complex kernel; the packing itself is the
    /// same either way).
    pub fn new_with(n: usize, policy: KernelPolicy) -> Self {
        assert!(n >= 1, "RealFft1d::new: length must be ≥ 1");
        let kind = if n == 1 {
            RKind::Trivial
        } else if n.is_multiple_of(2) {
            let m = n / 2;
            let twiddles: Vec<c64> = (0..=m / 2)
                .map(|k| c64::cis(-2.0 * PI * k as f64 / n as f64))
                .collect();
            RKind::Packed {
                inner: Fft1d::new_with(m, policy),
                twiddles,
            }
        } else {
            RKind::Odd {
                inner: Fft1d::new_with(n, policy),
            }
        };
        let line_flops = match &kind {
            RKind::Trivial => 0,
            // Unpack: ~18 real flops per (k, m−k) pair, m/2 pairs → 9m.
            RKind::Packed { inner, .. } => inner.line_flops() + 9 * (n as u64 / 2),
            // Promote + transform + extract: the complex line plus 2n
            // moves (counted as zero flops — honesty over generosity).
            RKind::Odd { inner } => inner.line_flops(),
        };
        RealFft1d {
            n,
            kind,
            line_flops,
        }
    }

    /// Real line length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (a plan has length ≥ 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Packed spectrum length: `n/2 + 1`.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Builds a scratch workspace sized for this plan.
    pub fn workspace(&self) -> RealFftWorkspace {
        let (inner_ws, buf_len) = match &self.kind {
            RKind::Trivial => (Fft1d::new(1).workspace(), 0),
            RKind::Packed { inner, .. } => (inner.workspace(), inner.len()),
            RKind::Odd { inner } => (inner.workspace(), inner.len()),
        };
        RealFftWorkspace {
            inner_ws,
            // alloc-audit: workspace construction is the one-time setup
            // that makes every later forward/inverse call heap-free.
            buf: vec![c64::ZERO; buf_len],
        }
    }

    #[inline(always)]
    fn record_lines(&self, lines: u64) {
        if ls3df_obs::ENABLED {
            counter_add(Counter::FftLinesReal, lines);
            counter_add(Counter::FftFlops, lines * self.line_flops);
        }
    }

    /// Forward r2c transform (unnormalized): `input` holds n real
    /// samples, `out` receives the `n/2 + 1` packed spectrum values.
    /// Heap-free given a matching workspace.
    pub fn forward(&self, input: &[f64], out: &mut [c64], ws: &mut RealFftWorkspace) {
        assert_eq!(input.len(), self.n, "RealFft1d::forward: input length");
        assert_eq!(
            out.len(),
            self.packed_len(),
            "RealFft1d::forward: output length"
        );
        self.record_lines(1);
        match &self.kind {
            RKind::Trivial => out[0] = c64::real(input[0]),
            RKind::Packed { inner, twiddles } => {
                let m = self.n / 2;
                // Pack x into z[j] = x[2j] + i·x[2j+1] in out[0..m] and
                // transform in place (out has the extra slot for X[m]).
                for j in 0..m {
                    out[j] = c64::new(input[2 * j], input[2 * j + 1]);
                }
                inner.run_line(&mut out[..m], Direction::Forward, &mut ws.inner_ws.scratch);
                unpack_forward(out, m, twiddles);
            }
            RKind::Odd { inner } => {
                for (b, &x) in ws.buf.iter_mut().zip(input) {
                    *b = c64::real(x);
                }
                inner.run_line(&mut ws.buf, Direction::Forward, &mut ws.inner_ws.scratch);
                out.copy_from_slice(&ws.buf[..self.packed_len()]);
            }
        }
    }

    /// Inverse c2r transform (includes the full `1/n`): `spec` holds the
    /// `n/2 + 1` packed spectrum, `out` receives n real samples. The
    /// redundant conjugate half is implied, never read. Heap-free given
    /// a matching workspace.
    pub fn inverse(&self, spec: &[c64], out: &mut [f64], ws: &mut RealFftWorkspace) {
        assert_eq!(
            spec.len(),
            self.packed_len(),
            "RealFft1d::inverse: spectrum length"
        );
        assert_eq!(out.len(), self.n, "RealFft1d::inverse: output length");
        self.record_lines(1);
        match &self.kind {
            RKind::Trivial => out[0] = spec[0].re,
            RKind::Packed { inner, twiddles } => {
                let m = self.n / 2;
                pack_inverse(spec, &mut ws.buf, m, twiddles);
                // The inner inverse's 1/m is exactly the 1/n the real
                // line needs (each packed sample carries two reals).
                inner.run_line(&mut ws.buf, Direction::Inverse, &mut ws.inner_ws.scratch);
                for j in 0..m {
                    out[2 * j] = ws.buf[j].re;
                    out[2 * j + 1] = ws.buf[j].im;
                }
            }
            RKind::Odd { inner } => {
                let p = self.packed_len();
                ws.buf[..p].copy_from_slice(spec);
                // Mirror the implied Hermitian half.
                for k in 1..p {
                    ws.buf[self.n - k] = spec[k].conj();
                }
                inner.run_line(&mut ws.buf, Direction::Inverse, &mut ws.inner_ws.scratch);
                for (o, b) in out.iter_mut().zip(&ws.buf) {
                    *o = b.re;
                }
            }
        }
    }
}

/// Hermitian unpack after the half-size complex FFT: turns `Z[0..m]`
/// (stored in `data[0..m]`) into the packed real spectrum
/// `X[0..m]` in place, filling the extra `data[m]` slot.
fn unpack_forward(data: &mut [c64], m: usize, twiddles: &[c64]) {
    let z0 = data[0];
    data[0] = c64::real(z0.re + z0.im);
    data[m] = c64::real(z0.re - z0.im);
    for k in 1..m.div_ceil(2) {
        let kk = m - k;
        let zk = data[k];
        let zc = data[kk].conj();
        let e = (zk + zc).scale(0.5);
        let d = zk - zc;
        // o = −i·d/2 = (im, −re)/2
        let o = c64::new(d.im, -d.re).scale(0.5);
        let wo = twiddles[k] * o;
        data[k] = e + wo;
        // X[m−k] = conj(E[k] − w_k·O[k]) (w_{m−k} = −conj(w_k) and
        // E, O are conjugated at the mirrored index).
        data[kk] = (e - wo).conj();
    }
    if m >= 2 && m.is_multiple_of(2) {
        // Middle bin: w = −i exactly, X[m/2] = conj(Z[m/2]).
        data[m / 2] = data[m / 2].conj();
    }
}

/// Inverse of [`unpack_forward`]: rebuilds the half-size complex
/// spectrum `Z[0..m]` in `buf` from the packed real spectrum
/// `spec[0..m]` (the conjugate-symmetric half stays implicit).
fn pack_inverse(spec: &[c64], buf: &mut [c64], m: usize, twiddles: &[c64]) {
    let x0 = spec[0].re;
    let xm = spec[m].re;
    buf[0] = c64::new(x0 + xm, x0 - xm).scale(0.5);
    for k in 1..m.div_ceil(2) {
        let kk = m - k;
        let xk = spec[k];
        let xc = spec[kk].conj();
        let e = (xk + xc).scale(0.5);
        let wo = (xk - xc).scale(0.5);
        let o = twiddles[k].conj() * wo;
        // Z[k] = E[k] + i·O[k]; Z[m−k] = conj(E[k]) + i·conj(O[k]).
        buf[k] = e + c64::new(-o.im, o.re);
        let ec = e.conj();
        let oc = o.conj();
        buf[kk] = ec + c64::new(-oc.im, oc.re);
    }
    if m >= 2 && m.is_multiple_of(2) {
        buf[m / 2] = spec[m / 2].conj();
    }
}

/// Packed 3-D r2c/c2r transform for real fields on an x-fastest grid.
///
/// Forward: one r2c pass over the `n2·n3` x-lines packs the grid to
/// `h1 = n1/2 + 1` complex values per line, then the y and z passes are
/// plain complex strided transforms on the packed array (the same
/// batched kernels [`crate::Fft3`] uses, on ~half the lines). The
/// packed layout is x-fastest: `idx = (iz·n2 + iy)·h1 + ix`.
pub struct Fft3r {
    dims: [usize; 3],
    plan_x: RealFft1d,
    plan_y: Fft1d,
    plan_z: Fft1d,
    h1: usize,
}

/// Reusable scratch for one [`Fft3r`]; build with [`Fft3r::workspace`].
pub struct Fft3rWorkspace {
    wx: RealFftWorkspace,
    wy: Fft1dWorkspace,
    wz: Fft1dWorkspace,
}

impl Fft3r {
    /// Builds packed 3-D plans for a real `dims` grid.
    pub fn new(dims: [usize; 3]) -> Self {
        Self::new_with(dims, KernelPolicy::Fast)
    }

    /// [`Fft3r::new`] with an explicit [`KernelPolicy`].
    pub fn new_with(dims: [usize; 3], policy: KernelPolicy) -> Self {
        let plan_x = RealFft1d::new_with(dims[0], policy);
        let h1 = plan_x.packed_len();
        Fft3r {
            dims,
            plan_x,
            plan_y: Fft1d::new_with(dims[1], policy),
            plan_z: Fft1d::new_with(dims[2], policy),
            h1,
        }
    }

    /// Grid dimensions of the real field.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Real-grid length `n1·n2·n3`.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Always false.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Packed x-extent `n1/2 + 1`.
    #[inline]
    pub fn packed_nx(&self) -> usize {
        self.h1
    }

    /// Packed spectrum length `(n1/2 + 1)·n2·n3`.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.h1 * self.dims[1] * self.dims[2]
    }

    /// Builds a scratch workspace sized for these plans.
    pub fn workspace(&self) -> Fft3rWorkspace {
        Fft3rWorkspace {
            wx: self.plan_x.workspace(),
            wy: self.plan_y.workspace(),
            wz: self.plan_z.workspace(),
        }
    }

    /// Forward r2c transform (unnormalized): real `input` of the full
    /// grid length into the packed spectrum `out` of [`Fft3r::packed_len`].
    /// Heap-free given a matching workspace.
    pub fn forward(&self, input: &[f64], out: &mut [c64], ws: &mut Fft3rWorkspace) {
        let [n1, n2, n3] = self.dims;
        let h1 = self.h1;
        assert_eq!(input.len(), n1 * n2 * n3, "Fft3r::forward: input length");
        assert_eq!(
            out.len(),
            self.packed_len(),
            "Fft3r::forward: output length"
        );
        counter_add(Counter::Fft3Transforms, 1);
        // x pass: r2c per line, full line → packed line.
        for l in 0..n2 * n3 {
            self.plan_x.forward(
                &input[l * n1..(l + 1) * n1],
                &mut out[l * h1..(l + 1) * h1],
                &mut ws.wx,
            );
        }
        // y pass: per z-plane, h1 interleaved lines of length n2.
        let plane = h1 * n2;
        for iz in 0..n3 {
            self.plan_y
                .forward_strided(&mut out[iz * plane..(iz + 1) * plane], h1, h1, &mut ws.wy);
        }
        // z pass: the whole packed grid is one strided batch.
        self.plan_z.forward_strided(out, plane, plane, &mut ws.wz);
    }

    /// Inverse c2r transform (includes the full `1/(n1·n2·n3)`): packed
    /// `spec` into the real grid `out`. `spec` is consumed as scratch
    /// (the y/z passes run in place on it). Heap-free given a matching
    /// workspace.
    pub fn inverse(&self, spec: &mut [c64], out: &mut [f64], ws: &mut Fft3rWorkspace) {
        let [n1, n2, n3] = self.dims;
        let h1 = self.h1;
        assert_eq!(
            spec.len(),
            self.packed_len(),
            "Fft3r::inverse: spectrum length"
        );
        assert_eq!(out.len(), n1 * n2 * n3, "Fft3r::inverse: output length");
        counter_add(Counter::Fft3Transforms, 1);
        let plane = h1 * n2;
        self.plan_z.inverse_strided(spec, plane, plane, &mut ws.wz);
        for iz in 0..n3 {
            self.plan_y.inverse_strided(
                &mut spec[iz * plane..(iz + 1) * plane],
                h1,
                h1,
                &mut ws.wy,
            );
        }
        for l in 0..n2 * n3 {
            self.plan_x.inverse(
                &spec[l * h1..(l + 1) * h1],
                &mut out[l * n1..(l + 1) * n1],
                &mut ws.wx,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    fn rand_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        (0..n).map(|_| next()).collect()
    }

    fn packed_reference(x: &[f64]) -> Vec<c64> {
        let z: Vec<c64> = x.iter().map(|&v| c64::real(v)).collect();
        let spec = dft_forward(&z);
        spec[..x.len() / 2 + 1].to_vec()
    }

    #[test]
    fn r2c_matches_complex_reference_all_parities() {
        for &n in &[1usize, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 40, 64, 81] {
            for policy in [KernelPolicy::Fast, KernelPolicy::Reference] {
                let x = rand_real(n, 11 + n as u64);
                let plan = RealFft1d::new_with(n, policy);
                let mut ws = plan.workspace();
                let mut got = vec![c64::ZERO; plan.packed_len()];
                plan.forward(&x, &mut got, &mut ws);
                let expect = packed_reference(&x);
                for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (*g - *e).abs() < 1e-10 * n as f64,
                        "n={n} {policy:?} bin {k}: {g:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn c2r_roundtrips() {
        for &n in &[1usize, 2, 4, 6, 8, 14, 16, 40, 64, 81, 128] {
            for policy in [KernelPolicy::Fast, KernelPolicy::Reference] {
                let x = rand_real(n, 1000 + n as u64);
                let plan = RealFft1d::new_with(n, policy);
                let mut ws = plan.workspace();
                let mut spec = vec![c64::ZERO; plan.packed_len()];
                plan.forward(&x, &mut spec, &mut ws);
                let mut back = vec![0.0; n];
                plan.inverse(&spec, &mut back, &mut ws);
                for (j, (a, b)) in x.iter().zip(&back).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-11 * n as f64,
                        "n={n} {policy:?} sample {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_bins_are_real() {
        for &n in &[8usize, 40, 64] {
            let x = rand_real(n, n as u64);
            let plan = RealFft1d::new(n);
            let mut ws = plan.workspace();
            let mut spec = vec![c64::ZERO; plan.packed_len()];
            plan.forward(&x, &mut spec, &mut ws);
            assert_eq!(spec[0].im, 0.0, "DC bin must be exactly real");
            assert_eq!(spec[n / 2].im, 0.0, "Nyquist bin must be exactly real");
        }
    }

    #[test]
    fn fft3r_roundtrips_and_matches_complex() {
        use crate::Fft3;
        for dims in [[4usize, 4, 4], [8, 6, 4], [5, 4, 3], [1, 4, 4], [40, 2, 2]] {
            let n = dims[0] * dims[1] * dims[2];
            let x = rand_real(n, n as u64);
            let plan = Fft3r::new(dims);
            let mut ws = plan.workspace();
            let mut spec = vec![c64::ZERO; plan.packed_len()];
            plan.forward(&x, &mut spec, &mut ws);

            // Complex reference over the same grid.
            let cplan = Fft3::new(dims[0], dims[1], dims[2]);
            let mut cws = cplan.workspace();
            let mut cdata: Vec<c64> = x.iter().map(|&v| c64::real(v)).collect();
            cplan.forward_with(&mut cdata, &mut cws);
            let h1 = plan.packed_nx();
            for iz in 0..dims[2] {
                for iy in 0..dims[1] {
                    for ix in 0..h1 {
                        let p = spec[(iz * dims[1] + iy) * h1 + ix];
                        let c = cdata[(iz * dims[1] + iy) * dims[0] + ix];
                        assert!(
                            (p - c).abs() < 1e-9 * n as f64,
                            "dims={dims:?} ({ix},{iy},{iz}): {p:?} vs {c:?}"
                        );
                    }
                }
            }

            let mut back = vec![0.0; n];
            plan.inverse(&mut spec, &mut back, &mut ws);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-10 * n as f64, "roundtrip {dims:?}");
            }
        }
    }
}
