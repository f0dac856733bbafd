//! One-dimensional FFT plans.
//!
//! Plan selection depends only on the factorisation of `n` and the
//! [`KernelPolicy`]:
//!
//! * under the production `Fast` policy, every length n ≥ 2 whose prime
//!   factors are ≤ 13 — the fragment box edges 12, 14, 18, 22, the
//!   paper's 40-point cell, the 16³ global grid, the half-lengths 6 and 8
//!   inside the packed real transform — runs the mixed-radix Stockham
//!   kernel of [`crate::mixed`] (powers of two as radix-4 stages plus at
//!   most one radix-2), batched across lines on the strided passes;
//! * under the `Reference` oracle, power-of-two lengths run an iterative
//!   radix-2 Cooley–Tukey kernel with precomputed twiddles and a
//!   bit-reversal table;
//! * everything else (a prime factor above 13, or any non-power-of-two
//!   under `Reference`) goes through Bluestein's chirp-z algorithm,
//!   which re-expresses an arbitrary-n DFT as a cyclic convolution of
//!   power-of-two size, transformed by the radix-2 kernel.
//!
//! Conventions: `forward` is unnormalized (`Σ x_j e^{-2πi jk/n}`);
//! `inverse` carries the full `1/n`.

use crate::mixed::Mixed;
use ls3df_math::{c64, KernelPolicy};
use ls3df_obs::{counter_add, Counter};
use std::f64::consts::PI;

/// Lines gathered per block by the strided batch API of the in-place
/// kernels (radix-2, Bluestein): big enough that the strided gather
/// reads [`LINE_BLOCK`] consecutive elements per touched cache line,
/// small enough that a block (`LINE_BLOCK·n` complex values) stays
/// L1-resident for typical grid edges.
const LINE_BLOCK: usize = 8;

/// Reusable scratch for one [`Fft1d`] plan, sized at construction so the
/// transform methods taking a workspace never touch the heap.
///
/// Build one per thread with [`Fft1d::workspace`] and reuse it across
/// calls; a workspace is tied to the plan length it was built for.
pub struct Fft1dWorkspace {
    /// Kernel scratch: the Bluestein convolution buffer (length `m`) or
    /// the mixed-radix ping-pong rows; empty for trivial and radix-2
    /// plans, which transform fully in place.
    pub(crate) scratch: Vec<c64>,
    /// Gather buffer for the blocked strided API of the in-place kernels
    /// (`LINE_BLOCK · n`; empty for mixed-radix plans, which run on the
    /// strided rows directly).
    batch: Vec<c64>,
}

/// A reusable 1-D FFT plan for a fixed length.
pub struct Fft1d {
    n: usize,
    kind: Kind,
    /// Estimated flops per transformed line, fixed at plan build so the
    /// metrics probe in the hot path is a single multiply-add.
    line_flops: u64,
}

enum Kind {
    /// n == 1.
    Trivial,
    /// Powers of two under `Reference` (the oracle).
    Radix2(Radix2),
    /// Every 13-smooth n ≥ 2 under `Fast`.
    Mixed(Mixed),
    Bluestein(Box<Bluestein>),
}

struct Radix2 {
    /// Bit-reversal permutation table.
    rev: Vec<u32>,
    /// Twiddles for the forward direction, grouped by stage.
    twiddles_fwd: Vec<c64>,
    /// Twiddles for the inverse direction.
    twiddles_inv: Vec<c64>,
}

struct Bluestein {
    /// Forward chirp `a_j = e^{-iπ j²/n}`.
    chirp_fwd: Vec<c64>,
    /// FFT (size m) of the forward-direction filter `b_j = e^{+iπ j²/n}`.
    filter_fwd: Vec<c64>,
    /// Inner radix-2 plan of size m ≥ 2n−1.
    inner: Radix2,
    m: usize,
}

/// Transform direction; the inverse comes with (`Inverse`) or without
/// (`InverseRaw`) the `1/n` normalization — callers that fold the
/// normalization into a later pass over the data ask for the raw one.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    Forward,
    Inverse,
    InverseRaw,
}

impl Fft1d {
    /// Builds a plan for transforms of length `n` (n ≥ 1).
    pub fn new(n: usize) -> Self {
        Self::new_with(n, KernelPolicy::Fast)
    }

    /// [`Fft1d::new`] with an explicit [`KernelPolicy`] — lets tests and
    /// benches hold the reference oracle beside the production plan.
    pub fn new_with(n: usize, policy: KernelPolicy) -> Self {
        assert!(n >= 1, "Fft1d::new: length must be ≥ 1");
        let bluestein = || Kind::Bluestein(Box::new(Bluestein::new(n)));
        let kind = match policy {
            _ if n == 1 => Kind::Trivial,
            KernelPolicy::Fast => Mixed::new(n).map_or_else(bluestein, Kind::Mixed),
            KernelPolicy::Reference if n.is_power_of_two() => Kind::Radix2(Radix2::new(n)),
            KernelPolicy::Reference => bluestein(),
        };
        let line_flops = estimated_line_flops(n, &kind);
        Fft1d {
            n,
            kind,
            line_flops,
        }
    }

    /// Records `lines` transformed lines in the metrics registry (plan
    /// kind + estimated flops). Const-folds to nothing when collection
    /// is off.
    #[inline(always)]
    fn record_lines(&self, lines: u64) {
        if ls3df_obs::ENABLED {
            let counter = match &self.kind {
                Kind::Trivial => Counter::FftLinesTrivial,
                Kind::Radix2(_) => Counter::FftLinesRadix2,
                Kind::Mixed(_) => Counter::FftLinesMixed,
                Kind::Bluestein(_) => Counter::FftLinesBluestein,
            };
            counter_add(counter, lines);
            counter_add(Counter::FftFlops, lines * self.line_flops);
        }
    }

    /// Estimated flops for one transformed line (exposed so the real
    /// transform layer can report its packed lines at true cost).
    #[inline]
    pub(crate) fn line_flops(&self) -> u64 {
        self.line_flops
    }

    /// The one place a contiguous line meets its kernel: dispatch on the
    /// plan kind, then the `1/n` of a normalized inverse. Touches no
    /// counter — the public entry points record their lines, and
    /// [`crate::real::RealFft1d`] accounts for its inner complex
    /// transform inside its own per-line cost instead.
    #[inline]
    pub(crate) fn run_line(&self, data: &mut [c64], dir: Direction, scratch: &mut [c64]) {
        assert_eq!(data.len(), self.n, "Fft1d: line length mismatch");
        let fwd = dir == Direction::Forward;
        match &self.kind {
            Kind::Trivial => {}
            Kind::Radix2(r) => r.run(data, fwd),
            Kind::Mixed(mx) => mx.run(data, 1, 1, fwd, scratch),
            Kind::Bluestein(b) => {
                assert_eq!(scratch.len(), b.m, "Fft1d: workspace plan mismatch");
                b.run(data, fwd, scratch);
            }
        }
        if let Some(inv) = self.scale(dir) {
            for v in data {
                *v = v.scale(inv);
            }
        }
    }

    /// Transforms the contiguous lines `data[l·n..(l+1)·n]` for `l` in
    /// `lines`, recording them as one batch. Mixed-radix plans take them
    /// a block at a time through the line-innermost kernel; each line
    /// still sees exactly the arithmetic of [`Fft1d::run_line`].
    pub(crate) fn run_lines(
        &self,
        data: &mut [c64],
        lines: impl ExactSizeIterator<Item = usize>,
        dir: Direction,
        ws: &mut Fft1dWorkspace,
    ) {
        let n = self.n;
        self.record_lines(lines.len() as u64);
        if let Kind::Mixed(mx) = &self.kind {
            // The blocked transpose in and out is staging traffic like
            // the in-place kernels' strided gather/scatter.
            counter_add(
                Counter::FftGatherScatterBytes,
                2 * (lines.len() * n * size_of::<c64>()) as u64,
            );
            let fwd = dir == Direction::Forward;
            mx.run_contiguous(data, lines, fwd, self.scale(dir), &mut ws.scratch);
        } else {
            for l in lines {
                self.run_line(&mut data[l * n..(l + 1) * n], dir, &mut ws.scratch);
            }
        }
    }

    /// The `1/n` a normalized inverse multiplies in, `None` otherwise.
    #[inline]
    fn scale(&self, dir: Direction) -> Option<f64> {
        (dir == Direction::Inverse).then(|| 1.0 / self.n as f64)
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (a plan has length ≥ 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Builds a scratch workspace sized for this plan (see
    /// [`Fft1dWorkspace`]). Do this once per thread, not per transform.
    pub fn workspace(&self) -> Fft1dWorkspace {
        self.workspace_for(true)
    }

    /// Scratch for single contiguous lines only (`strided == false`, what
    /// the one-shot wrappers build per call) or for the strided batch
    /// API as well.
    fn workspace_for(&self, strided: bool) -> Fft1dWorkspace {
        let (scratch, batch) = match &self.kind {
            Kind::Trivial => (0, 0),
            Kind::Radix2(_) => (0, LINE_BLOCK * self.n),
            Kind::Mixed(mx) if strided => (mx.block_scratch_len(), 0),
            Kind::Mixed(mx) => (mx.line_scratch_len(), 0),
            Kind::Bluestein(b) => (b.m, LINE_BLOCK * self.n),
        };
        Fft1dWorkspace {
            // alloc-audit: workspace construction is the one-time setup
            // that makes every later *_with / *_strided call heap-free.
            scratch: vec![c64::ZERO; scratch],
            batch: vec![c64::ZERO; if strided { batch } else { 0 }],
        }
    }

    /// In-place forward transform (unnormalized).
    ///
    /// Convenience wrapper: allocates the line scratch its plan needs
    /// per call. Hot loops should hold a workspace and use
    /// [`Fft1d::forward_with`].
    pub fn forward(&self, data: &mut [c64]) {
        // alloc-audit: one-shot path; reuse a workspace in hot loops.
        self.forward_with(data, &mut self.workspace_for(false));
    }

    /// In-place inverse transform (includes the `1/n` factor).
    ///
    /// Convenience wrapper over [`Fft1d::inverse_with`]; see
    /// [`Fft1d::forward`] for the allocation caveat.
    pub fn inverse(&self, data: &mut [c64]) {
        // alloc-audit: one-shot path; reuse a workspace in hot loops.
        self.inverse_with(data, &mut self.workspace_for(false));
    }

    /// [`Fft1d::forward`] using caller-provided scratch — no heap traffic.
    pub fn forward_with(&self, data: &mut [c64], ws: &mut Fft1dWorkspace) {
        self.record_lines(1);
        self.run_line(data, Direction::Forward, &mut ws.scratch);
    }

    /// [`Fft1d::inverse`] using caller-provided scratch — no heap traffic.
    pub fn inverse_with(&self, data: &mut [c64], ws: &mut Fft1dWorkspace) {
        self.record_lines(1);
        self.run_line(data, Direction::Inverse, &mut ws.scratch);
    }

    /// Batched forward transform of `n_lines` interleaved lines.
    ///
    /// Line `l` (`l < n_lines`) occupies elements `data[i·stride + l]` for
    /// `i` in `0..n` — the natural layout of the y/z pencils of a 3-D grid
    /// with x fastest. Mixed-radix plans run their butterflies on those
    /// rows directly, the line index innermost; the in-place kernels
    /// (radix-2, Bluestein) process lines in blocks of
    /// `LINE_BLOCK` through the workspace gather buffer. Either way
    /// each line sees exactly the arithmetic of [`Fft1d::forward`], so
    /// the result is bit-identical to a line-by-line loop.
    pub fn forward_strided(
        &self,
        data: &mut [c64],
        n_lines: usize,
        stride: usize,
        ws: &mut Fft1dWorkspace,
    ) {
        self.run_strided(data, n_lines, stride, ws, Direction::Forward);
    }

    /// Batched inverse counterpart of [`Fft1d::forward_strided`]
    /// (includes the `1/n` factor, applied per line exactly as
    /// [`Fft1d::inverse`] does).
    pub fn inverse_strided(
        &self,
        data: &mut [c64],
        n_lines: usize,
        stride: usize,
        ws: &mut Fft1dWorkspace,
    ) {
        self.run_strided(data, n_lines, stride, ws, Direction::Inverse);
    }

    pub(crate) fn run_strided(
        &self,
        data: &mut [c64],
        n_lines: usize,
        stride: usize,
        ws: &mut Fft1dWorkspace,
        dir: Direction,
    ) {
        let n = self.n;
        assert!(n_lines <= stride, "Fft1d: lines overlap (n_lines > stride)");
        assert_eq!(data.len(), n * stride, "Fft1d: strided buffer mismatch");
        self.record_lines(n_lines as u64);
        match &self.kind {
            // Length-1 lines are identity (1/n = 1 for the inverse).
            Kind::Trivial => {}
            Kind::Mixed(mx) => {
                let fwd = dir == Direction::Forward;
                mx.run_strided(data, n_lines, stride, fwd, self.scale(dir), &mut ws.scratch);
            }
            Kind::Radix2(_) | Kind::Bluestein(_) => {
                self.run_gathered(data, n_lines, stride, ws, dir)
            }
        }
    }

    /// Strided batch for the in-place kernels: gather [`LINE_BLOCK`]
    /// lines, transform each with [`Fft1d::run_line`], scatter back.
    fn run_gathered(
        &self,
        data: &mut [c64],
        n_lines: usize,
        stride: usize,
        ws: &mut Fft1dWorkspace,
        dir: Direction,
    ) {
        let n = self.n;
        let Fft1dWorkspace { scratch, batch } = ws;
        assert_eq!(batch.len(), LINE_BLOCK * n, "Fft1d: workspace mismatch");
        // Each line is gathered into the batch buffer and scattered back:
        // 2 · 16 bytes per complex element through the strided staging.
        counter_add(
            Counter::FftGatherScatterBytes,
            2 * (n_lines * n * size_of::<c64>()) as u64,
        );
        let mut l0 = 0;
        while l0 < n_lines {
            let nb = LINE_BLOCK.min(n_lines - l0);
            // Gather nb lines: the inner copy reads nb consecutive source
            // elements per grid row (cache-friendly on the strided side).
            for i in 0..n {
                let row = &data[i * stride + l0..i * stride + l0 + nb];
                for (j, &v) in row.iter().enumerate() {
                    batch[j * n + i] = v;
                }
            }
            // Transform each gathered line with the identical in-place
            // kernel the unbatched path uses (bit-for-bit equivalence).
            for line in batch[..nb * n].chunks_exact_mut(n) {
                self.run_line(line, dir, scratch);
            }
            // Scatter back, same blocked access pattern.
            for i in 0..n {
                let row = &mut data[i * stride + l0..i * stride + l0 + nb];
                for (j, o) in row.iter_mut().enumerate() {
                    *o = batch[j * n + i];
                }
            }
            l0 += nb;
        }
    }
}

/// Flop estimate for one transformed line, fixed at plan build.
///
/// Radix-2 uses the standard `5·n·log2 n` complex-FFT count. The
/// mixed-radix plan counts its *actual* arithmetic — its stages'
/// butterflies and non-trivial twiddle multiplies
/// ([`Mixed::line_flops`]) — so the Gflop/s the obs layer derives never
/// credits a faster kernel with work it did not do. Bluestein runs two
/// inner radix-2 transforms of size
/// `m = (2n−1).next_power_of_two()` (the size-m filter FFT is amortized
/// into the plan) plus the chirp multiply, filter multiply, and
/// de-chirp — `O(m + n)` complex multiplies at 6 flops each, with the
/// final de-chirp also scaling.
fn estimated_line_flops(n: usize, kind: &Kind) -> u64 {
    match kind {
        Kind::Trivial => 0,
        Kind::Radix2(_) => radix2_line_flops(n),
        Kind::Mixed(mx) => mx.line_flops(),
        Kind::Bluestein(b) => {
            let m = b.m as u64;
            2 * radix2_line_flops(b.m) + 6 * m + 14 * n as u64
        }
    }
}

fn radix2_line_flops(n: usize) -> u64 {
    5 * n as u64 * u64::from(n.trailing_zeros())
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        // Stage `s` (half-size h = 2^s) uses h twiddles; total n−1.
        // alloc-audit: plan construction (once per geometry, not per call).
        let mut twiddles_fwd = Vec::with_capacity(n - 1);
        let mut twiddles_inv = Vec::with_capacity(n - 1);
        let mut h = 1;
        while h < n {
            for k in 0..h {
                let angle = PI * k as f64 / h as f64;
                twiddles_fwd.push(c64::cis(-angle));
                twiddles_inv.push(c64::cis(angle));
            }
            h *= 2;
        }
        Radix2 {
            rev,
            twiddles_fwd,
            twiddles_inv,
        }
    }

    fn run(&self, data: &mut [c64], forward: bool) {
        let n = data.len();
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let tw = if forward {
            &self.twiddles_fwd
        } else {
            &self.twiddles_inv
        };
        // Iterative butterflies.
        let mut h = 1;
        let mut tw_off = 0;
        while h < n {
            let step = 2 * h;
            for start in (0..n).step_by(step) {
                for k in 0..h {
                    let w = tw[tw_off + k];
                    let a = data[start + k];
                    let b = data[start + k + h] * w;
                    data[start + k] = a + b;
                    data[start + k + h] = a - b;
                }
            }
            tw_off += h;
            h = step;
        }
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2::new(m);
        // Chirp with the squared index reduced mod 2n for angle accuracy.
        let chirp = |j: usize, sign: f64| -> c64 {
            let q = ((j as u128 * j as u128) % (2 * n as u128)) as f64;
            c64::cis(sign * PI * q / n as f64)
        };
        let chirp_fwd: Vec<c64> = (0..n).map(|j| chirp(j, -1.0)).collect();
        // Filter b_j = conj(a_j) = e^{+iπ j²/n}, wrapped cyclically into m.
        // alloc-audit: plan construction (once per geometry, not per call).
        let mut filter = vec![c64::ZERO; m];
        for j in 0..n {
            let v = chirp(j, 1.0);
            filter[j] = v;
            if j != 0 {
                filter[m - j] = v;
            }
        }
        inner.run(&mut filter, true);
        Bluestein {
            chirp_fwd,
            filter_fwd: filter,
            inner,
            m,
        }
    }

    /// Runs one chirp-z transform through caller-provided scratch of
    /// length `m` (zeroed here — callers may hand over dirty buffers).
    fn run(&self, data: &mut [c64], forward: bool, buf: &mut [c64]) {
        let n = data.len();
        debug_assert_eq!(buf.len(), self.m);
        // Inverse transform = conj ∘ forward ∘ conj (the 1/n is applied by
        // the caller).
        if !forward {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
        for j in 0..n {
            buf[j] = data[j] * self.chirp_fwd[j];
        }
        buf[n..].fill(c64::ZERO);
        self.inner.run(buf, true);
        for (v, &f) in buf.iter_mut().zip(&self.filter_fwd) {
            *v *= f;
        }
        self.inner.run(buf, false);
        let inv_m = 1.0 / self.m as f64;
        for k in 0..n {
            data[k] = (buf[k] * self.chirp_fwd[k]).scale(inv_m);
        }
        if !forward {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_forward, dft_inverse};

    fn rand_signal(n: usize, seed: u64) -> Vec<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        (0..n).map(|_| c64::new(next(), next())).collect()
    }

    fn max_err(a: &[c64], b: &[c64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for &n in &[2usize, 4, 8, 16, 64, 256] {
            let x = rand_signal(n, n as u64);
            let expect = dft_forward(&x);
            let mut got = x.clone();
            Fft1d::new_with(n, KernelPolicy::Reference).forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        // Bluestein serves every non-power-of-two under `Reference` and
        // the lengths with a prime factor above 13 under `Fast`.
        let cases = [3usize, 5, 6, 7, 9, 10, 12, 15, 20, 40, 81, 100]
            .map(|n| (n, KernelPolicy::Reference))
            .into_iter()
            .chain([17usize, 19, 23, 34, 38, 51].map(|n| (n, KernelPolicy::Fast)));
        for (n, policy) in cases {
            let plan = Fft1d::new_with(n, policy);
            assert!(matches!(plan.kind, Kind::Bluestein(_)), "n={n} {policy:?}");
            let x = rand_signal(n, 1000 + n as u64);
            let expect = dft_forward(&x);
            let mut got = x.clone();
            plan.forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn plan_kind_follows_factorisation_and_policy() {
        let kind = |n, policy| match Fft1d::new_with(n, policy).kind {
            Kind::Trivial => "trivial",
            Kind::Radix2(_) => "radix2",
            Kind::Mixed(_) => "mixed",
            Kind::Bluestein(_) => "bluestein",
        };
        for n in [6usize, 12, 14, 18, 22, 40, 1001] {
            assert_eq!(kind(n, KernelPolicy::Fast), "mixed", "n={n}");
            assert_eq!(kind(n, KernelPolicy::Reference), "bluestein", "n={n}");
        }
        for n in [2usize, 4, 8, 16, 32, 64, 1024] {
            assert_eq!(kind(n, KernelPolicy::Fast), "mixed", "n={n}");
            assert_eq!(kind(n, KernelPolicy::Reference), "radix2", "n={n}");
        }
        assert_eq!(kind(1, KernelPolicy::Fast), "trivial");
        assert_eq!(kind(1, KernelPolicy::Reference), "trivial");
        assert_eq!(kind(34, KernelPolicy::Fast), "bluestein");
    }

    #[test]
    fn mixed_matches_naive_dft_and_bluestein() {
        for &n in &[3usize, 5, 6, 7, 9, 10, 12, 14, 15, 18, 20, 22, 40, 81, 100] {
            let x = rand_signal(n, 2000 + n as u64);
            let expect = dft_forward(&x);
            let mut got = x.clone();
            Fft1d::new_with(n, KernelPolicy::Fast).forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-12 * n as f64, "n={n}");
            let mut reference = x.clone();
            Fft1d::new_with(n, KernelPolicy::Reference).forward(&mut reference);
            assert!(max_err(&got, &reference) < 1e-11 * n as f64, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_naive_and_roundtrips() {
        for &n in &[8usize, 12, 40, 128] {
            let x = rand_signal(n, 7 + n as u64);
            let plan = Fft1d::new(n);

            let mut spec = x.clone();
            plan.forward(&mut spec);
            let expect_inv = dft_inverse(&spec);
            let mut got = spec.clone();
            plan.inverse(&mut got);
            assert!(max_err(&got, &expect_inv) < 1e-10 * n as f64);
            assert!(max_err(&got, &x) < 1e-10 * n as f64, "roundtrip n={n}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        for &n in &[16usize, 30] {
            let x = rand_signal(n, 99 + n as u64);
            let energy_t: f64 = x.iter().map(|v| v.norm_sqr()).sum();
            let mut spec = x.clone();
            Fft1d::new(n).forward(&mut spec);
            let energy_f: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
            assert!((energy_t - energy_f).abs() < 1e-10 * energy_t.max(1.0));
        }
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![c64::new(2.5, -1.0)];
        let plan = Fft1d::new(1);
        plan.forward(&mut x);
        assert_eq!(x[0], c64::new(2.5, -1.0));
        plan.inverse(&mut x);
        assert_eq!(x[0], c64::new(2.5, -1.0));
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 32;
        let k0 = 5;
        let x: Vec<c64> = (0..n)
            .map(|j| c64::cis(2.0 * PI * (j * k0) as f64 / n as f64))
            .collect();
        let mut spec = x.clone();
        Fft1d::new(n).forward(&mut spec);
        for (k, v) in spec.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leak at bin {k}");
            }
        }
    }
}
