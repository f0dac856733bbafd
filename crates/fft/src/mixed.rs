//! Mixed-radix Stockham kernel for smooth lengths (prime factors ≤ 13).
//!
//! The LS3DF fragment boxes are `n·piece_pts + 2·buffer_pts` points per
//! axis — 12/18 or 14/22 in the committed workloads — and the global
//! grids are 12³ or 16³: every production length is 13-smooth, powers of
//! two included. This kernel factors such an `n` into radices from
//! {13, 11, 7, 5, 4, 3, 2} and runs one decimation-in-frequency Stockham
//! stage per factor: a stage of radix `r` on sub-length `n_cur = r·m`
//! with `s` = the product of the earlier radices maps
//!
//! ```text
//! a_j = x[q + s·(p + m·j)]                       j = 0..r
//! y[q + s·(r·p + k)] = ω_{n_cur}^{p·k} · Σ_j a_j·ω_r^{j·k}
//! ```
//!
//! for `p` in `0..m`, `q` in `0..s` — out of place, naturally ordered
//! after the last stage (no digit-reversal pass), twiddle-free at
//! `p = 0` (so the whole last stage, where `m = 1`, multiplies nothing).
//!
//! **Lines are the innermost loop.** Every "element" above is a *row* of
//! `w` interleaved lines (`data[e·pitch + l]`, the layout of the y/z
//! pencils of an x-fastest grid), so the butterflies stream over `w`
//! contiguous values with constant twiddles: no gather/scatter staging,
//! and a loop shape the autovectorizer can work on. A batch of `w` lines
//! is exactly a Stockham transform started at stride `w`; where both
//! sides of a stage are compact (`pitch == w`) the `(q, l)` loops fuse
//! into one contiguous run of `s·w` values. A single contiguous line is
//! the `w = 1` case of the same code, which is why strided and
//! line-by-line results are bit-identical.
//!
//! Radix 2 and 4 are written out; the odd radices share one
//! const-generic butterfly (instantiated — and fully unrolled — at 3, 5,
//! 7, 11, 13) that pairs `a_j ± a_{r−j}` so each output pair costs one
//! cosine and one sine sum.

use ls3df_math::c64;
use std::array::from_fn;
use std::f64::consts::PI;

/// Largest radix (and largest prime factor of a plannable length).
const MAX_RADIX: usize = 13;
/// `(MAX_RADIX − 1)/2`: paired terms of the largest odd butterfly.
const MAX_HALF: usize = (MAX_RADIX - 1) / 2;

/// Lines per block of the blocked entry points: a block's rows (`n` rows
/// of `LINE_BLOCK` values on the data side plus the compact ping-pong
/// scratch) stay L1-resident across all stages for the fragment box
/// edges (12–22), and a 16-value row is four cache lines of contiguous
/// traffic per touched grid row. Measured on 12³–40³ round trips, 16
/// beats 8 and 32 or ties them; the scratch it sizes also rides in every
/// pooled workspace, so wider is not free.
pub(crate) const LINE_BLOCK: usize = 16;

/// `(cos, sin)(2πt/r)` for `t` in `0..r` (unused tail zero).
type Trig = [(f64, f64); MAX_RADIX];

/// A mixed-radix plan for one smooth length.
pub(crate) struct Mixed {
    n: usize,
    /// Stages in execution order (radices descending, so the single-line
    /// case spends its stride-1 first stage on the widest butterfly).
    stages: Vec<Stage>,
}

struct Stage {
    radix: usize,
    /// Sub-transforms merged per butterfly group: `n_cur / radix`.
    m: usize,
    /// Row stride of this stage: product of the earlier radices.
    s: usize,
    /// `tw[p·(radix−1) + k−1] = e^{∓2πi·p·k/n_cur}` (forward / inverse).
    tw_fwd: Vec<c64>,
    tw_inv: Vec<c64>,
    trig: Trig,
}

/// Loop geometry of one stage call (see [`Stage::pass`]).
struct Geom {
    m: usize,
    /// Rows per (p, j) segment walked by the `q` loop.
    s: usize,
    /// Row pitch on the source / destination side.
    sp: usize,
    dp: usize,
    /// Contiguous values per row segment.
    len: usize,
}

/// The radices of `n` in execution order, or `None` when `n` has a prime
/// factor above [`MAX_RADIX`].
fn radices(mut n: usize) -> Option<Vec<usize>> {
    // alloc-audit: plan construction (once per geometry, not per call).
    let mut out = Vec::new();
    for r in [13, 11, 7, 5, 4, 3, 2] {
        while n.is_multiple_of(r) {
            out.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(out)
}

/// Real flops of one radix-`r` butterfly as [`butterfly`] computes it:
/// radix 2 is one complex add + sub, radix 4 eight complex adds (the
/// ±i rotation is a swap), and an odd radix with `h = (r−1)/2` pairs
/// spends `6h` on the pair sums/differences and DC term plus `8h + 2`
/// per output pair.
fn butterfly_flops(r: usize) -> u64 {
    match r {
        2 => 4,
        4 => 16,
        _ => {
            let h = (r as u64 - 1) / 2;
            8 * h * h + 8 * h
        }
    }
}

impl Mixed {
    /// Plans length `n ≥ 2`; `None` when a prime factor exceeds 13.
    pub(crate) fn new(n: usize) -> Option<Self> {
        debug_assert!(n >= 2);
        let mut n_cur = n;
        let mut s = 1;
        let stages = radices(n)?
            .into_iter()
            .map(|radix| {
                let m = n_cur / radix;
                let angle = |p: usize, k: usize| 2.0 * PI * (p * k) as f64 / n_cur as f64;
                let pk = || (0..m).flat_map(|p| (1..radix).map(move |k| (p, k)));
                let stage = Stage {
                    radix,
                    m,
                    s,
                    tw_fwd: pk().map(|(p, k)| c64::cis(-angle(p, k))).collect(),
                    tw_inv: pk().map(|(p, k)| c64::cis(angle(p, k))).collect(),
                    trig: from_fn(|t| {
                        if t < radix {
                            let (sin, cos) = (2.0 * PI * t as f64 / radix as f64).sin_cos();
                            (cos, sin)
                        } else {
                            (0.0, 0.0)
                        }
                    }),
                };
                n_cur = m;
                s *= radix;
                stage
            })
            .collect();
        Some(Mixed { n, stages })
    }

    /// Ping-pong scratch [`Mixed::run`] needs for `w` lines: one compact
    /// `n × w` buffer, two once a middle stage has to bounce between them.
    fn pingpong_len(&self, w: usize) -> usize {
        self.n * w * if self.stages.len() > 2 { 2 } else { 1 }
    }

    /// Scratch values the blocked entry points need: the ping-pong
    /// buffers at [`LINE_BLOCK`] lines plus the transposed block of
    /// [`Mixed::run_contiguous`].
    pub(crate) fn block_scratch_len(&self) -> usize {
        self.pingpong_len(LINE_BLOCK) + self.n * LINE_BLOCK
    }

    /// Arithmetic one transformed line really costs: every butterfly plus
    /// the `(m−1)·s·(r−1)` non-trivial twiddle multiplies (6 flops each)
    /// per stage.
    pub(crate) fn line_flops(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| {
                let butterflies = (self.n / st.radix) as u64;
                let twiddles = ((st.m - 1) * st.s * (st.radix - 1)) as u64;
                butterflies * butterfly_flops(st.radix) + 6 * twiddles
            })
            .sum()
    }

    /// Transforms `n_lines` interleaved lines (`data[e·stride + l]`) in
    /// place, [`LINE_BLOCK`] columns at a time, directly on the strided
    /// rows; `scale` (the `1/n` of a normalized inverse) multiplies the
    /// result when given. `scratch` holds [`Mixed::block_scratch_len`]
    /// values.
    pub(crate) fn run_strided(
        &self,
        data: &mut [c64],
        n_lines: usize,
        stride: usize,
        fwd: bool,
        scale: Option<f64>,
        scratch: &mut [c64],
    ) {
        for l0 in (0..n_lines).step_by(LINE_BLOCK) {
            let w = LINE_BLOCK.min(n_lines - l0);
            let rows = &mut data[l0..];
            self.run(rows, stride, w, fwd, scratch);
            if let Some(f) = scale {
                for row in rows.chunks_mut(stride) {
                    for v in &mut row[..w] {
                        *v = v.scale(f);
                    }
                }
            }
        }
    }

    /// Transforms the contiguous lines `data[l·n..(l+1)·n]`, `l` from
    /// `lines`, in place: each block of [`LINE_BLOCK`] lines is
    /// transposed into the line-innermost layout, transformed there, and
    /// transposed back (scaled by `scale` when given) — two copy passes
    /// over cache-resident data buy the batched butterflies, which run
    /// two to three times faster per line than the `w = 1` case.
    /// `scratch` holds [`Mixed::block_scratch_len`] values.
    pub(crate) fn run_contiguous(
        &self,
        data: &mut [c64],
        mut lines: impl Iterator<Item = usize>,
        fwd: bool,
        scale: Option<f64>,
        scratch: &mut [c64],
    ) {
        let n = self.n;
        let (block, scratch) = scratch.split_at_mut(n * LINE_BLOCK);
        let mut starts = [0usize; LINE_BLOCK];
        loop {
            let mut w = 0;
            for (slot, l) in starts.iter_mut().zip(&mut lines) {
                *slot = l * n;
                w += 1;
            }
            if w == 0 {
                return;
            }
            let starts = &starts[..w];
            for (j, &start) in starts.iter().enumerate() {
                for (e, &v) in data[start..start + n].iter().enumerate() {
                    block[e * w + j] = v;
                }
            }
            self.run(&mut block[..n * w], w, w, fwd, scratch);
            for (j, &start) in starts.iter().enumerate() {
                for (e, v) in data[start..start + n].iter_mut().enumerate() {
                    let t = block[e * w + j];
                    *v = scale.map_or(t, |f| t.scale(f));
                }
            }
        }
    }

    /// Transforms `w` interleaved lines in place (unnormalized in both
    /// directions): element `e` of line `l` is `data[e·pitch + l]`,
    /// `l < w ≤ pitch`. `scratch` holds at least `pingpong_len(w)` values;
    /// its contents are irrelevant.
    pub(crate) fn run(
        &self,
        data: &mut [c64],
        pitch: usize,
        w: usize,
        fwd: bool,
        scratch: &mut [c64],
    ) {
        let (a, b) = scratch.split_at_mut(self.n * w);
        let Some((first, rest)) = self.stages.split_first() else {
            return;
        };
        first.pass(data, pitch, a, w, w, fwd);
        let Some((last, mid)) = rest.split_last() else {
            // Single stage (n itself is a radix): copy the rows back.
            for (row, src) in a.chunks_exact(w).enumerate() {
                data[row * pitch..row * pitch + w].copy_from_slice(src);
            }
            return;
        };
        // data → a → b → a → … → data: the first stage reads the data
        // rows and the last one writes them, so no copy pass is needed.
        let (mut src, mut dst) = (a, b);
        for stage in mid {
            stage.pass(src, w, dst, w, w, fwd);
            std::mem::swap(&mut src, &mut dst);
        }
        last.pass(src, w, data, pitch, w, fwd);
    }
}

impl Stage {
    /// Runs this stage from `src` (row pitch `sp`) into `dst` (row pitch
    /// `dp`) over `w` lines.
    fn pass(&self, src: &[c64], sp: usize, dst: &mut [c64], dp: usize, w: usize, fwd: bool) {
        let (m, s) = (self.m, self.s);
        // Compact on both sides: rows q = 0..s of a segment are adjacent,
        // so (q, l) collapse into one contiguous run of s·w values.
        let g = if sp == w && dp == w {
            let len = s * w;
            Geom {
                m,
                s: 1,
                sp: len,
                dp: len,
                len,
            }
        } else {
            Geom {
                m,
                s,
                sp,
                dp,
                len: w,
            }
        };
        macro_rules! run {
            ($r:literal) => {
                if fwd {
                    radix_pass::<$r, true>(&g, &self.tw_fwd, &self.trig, src, dst)
                } else {
                    radix_pass::<$r, false>(&g, &self.tw_inv, &self.trig, src, dst)
                }
            };
        }
        match self.radix {
            2 => run!(2),
            3 => run!(3),
            4 => run!(4),
            5 => run!(5),
            7 => run!(7),
            11 => run!(11),
            13 => run!(13),
            r => unreachable!("radices() never yields {r}"),
        }
    }
}

/// One Stockham stage of radix `R` over the geometry `g`.
fn radix_pass<const R: usize, const FWD: bool>(
    g: &Geom,
    tw: &[c64],
    trig: &Trig,
    src: &[c64],
    dst: &mut [c64],
) {
    let Geom { m, s, sp, dp, len } = *g;
    for p in 0..m {
        let wk: [c64; R] = from_fn(|k| {
            if k == 0 {
                c64::ONE
            } else {
                tw[p * (R - 1) + k - 1]
            }
        });
        for q in 0..s {
            let ins: [&[c64]; R] = from_fn(|j| {
                let o = ((p + m * j) * s + q) * sp;
                &src[o..o + len]
            });
            // Output rows k = 0..R sit s·dp apart; peel them off as
            // disjoint mutable segments.
            let mut rest = &mut dst[(R * p * s + q) * dp..];
            let outs: [&mut [c64]; R] = from_fn(|k| {
                let step = if k + 1 < R { s * dp } else { len };
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(step);
                rest = tail;
                &mut row[..len]
            });
            if p == 0 {
                butterflies::<R, FWD, false>(&ins, outs, &wk, trig, len);
            } else {
                butterflies::<R, FWD, true>(&ins, outs, &wk, trig, len);
            }
        }
    }
}

/// The innermost loop: `len` independent butterflies over contiguous
/// values, twiddled by the per-`p` constants `wk` when `TW`.
#[inline(always)]
fn butterflies<const R: usize, const FWD: bool, const TW: bool>(
    ins: &[&[c64]; R],
    mut outs: [&mut [c64]; R],
    wk: &[c64; R],
    trig: &Trig,
    len: usize,
) {
    let mut one = |l: usize| {
        let a: [c64; R] = from_fn(|j| ins[j][l]);
        let b = butterfly::<R, FWD>(&a, trig);
        outs[0][l] = b[0];
        for k in 1..R {
            outs[k][l] = if TW { b[k] * wk[k] } else { b[k] };
        }
    };
    // A single line's first stage has one value per row: keep that case
    // straight-line, clear of the vectorized loop's entry checks.
    if len == 1 {
        one(0);
    } else {
        for l in 0..len {
            one(l);
        }
    }
}

/// `b_k = Σ_j a_j·ω_R^{±j·k}` (minus sign forward), `R` a compile-time
/// constant so every loop below unrolls.
#[inline(always)]
fn butterfly<const R: usize, const FWD: bool>(a: &[c64; R], trig: &Trig) -> [c64; R] {
    // ∓i·z: the forward transform rotates by −i = (im, −re).
    let rot = |z: c64| {
        if FWD {
            c64::new(z.im, -z.re)
        } else {
            c64::new(-z.im, z.re)
        }
    };
    let mut b = [c64::ZERO; R];
    match R {
        2 => {
            b[0] = a[0] + a[1];
            b[1] = a[0] - a[1];
        }
        4 => {
            let (t0, t1) = (a[0] + a[2], a[0] - a[2]);
            let (t2, t3) = (a[1] + a[3], rot(a[1] - a[3]));
            b[0] = t0 + t2;
            b[1] = t1 + t3;
            b[2] = t0 - t2;
            b[3] = t1 - t3;
        }
        _ => {
            // Odd R: with t±_j = a_j ± a_{R−j},
            //   b_k, b_{R−k} = (a_0 + Σ_j cos(θjk)·t+_j) ∓ i·Σ_j sin(θjk)·t−_j.
            let h = (R - 1) / 2;
            let mut tp = [c64::ZERO; MAX_HALF];
            let mut tm = [c64::ZERO; MAX_HALF];
            b[0] = a[0];
            for j in 0..h {
                tp[j] = a[j + 1] + a[R - 1 - j];
                tm[j] = a[j + 1] - a[R - 1 - j];
                b[0] += tp[j];
            }
            for k in 1..=h {
                let (c, s) = trig[k % R];
                let mut even = a[0] + tp[0].scale(c);
                let mut odd = tm[0].scale(s);
                for j in 1..h {
                    let (c, s) = trig[((j + 1) * k) % R];
                    even += tp[j].scale(c);
                    odd += tm[j].scale(s);
                }
                let odd = rot(odd);
                b[k] = even + odd;
                b[R - k] = even - odd;
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward;

    #[test]
    fn factorisation_covers_exactly_the_13_smooth_lengths() {
        assert_eq!(radices(12), Some(vec![4, 3]));
        assert_eq!(radices(14), Some(vec![7, 2]));
        assert_eq!(radices(18), Some(vec![3, 3, 2]));
        assert_eq!(radices(22), Some(vec![11, 2]));
        assert_eq!(radices(40), Some(vec![5, 4, 2]));
        assert_eq!(radices(6), Some(vec![3, 2]));
        assert_eq!(radices(16), Some(vec![4, 4]));
        assert_eq!(radices(32), Some(vec![4, 4, 2]));
        assert_eq!(radices(13 * 11 * 7), Some(vec![13, 11, 7]));
        for n in [17, 19, 23, 34, 46, 51] {
            assert!(radices(n).is_none(), "n={n}");
        }
    }

    #[test]
    fn every_radix_matches_the_naive_dft_alone_and_composed() {
        // Each radix as a single stage, then pairwise products so every
        // butterfly runs both twiddled (first stage) and at stride > 1.
        let radix = [2usize, 3, 4, 5, 7, 11, 13];
        let mut lengths: Vec<usize> = radix.to_vec();
        for &r1 in &radix {
            for &r2 in &radix {
                lengths.push(r1 * r2);
            }
        }
        for n in lengths {
            let plan = Mixed::new(n).unwrap();
            let x: Vec<c64> = (0..n)
                .map(|i| c64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let expect = dft_forward(&x);
            let mut got = x.clone();
            let mut scratch = vec![c64::ZERO; plan.pingpong_len(1)];
            plan.run(&mut got, 1, 1, true, &mut scratch);
            let err = got
                .iter()
                .zip(&expect)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-12 * n as f64, "n={n} err={err:e}");
            // Unnormalized inverse of the spectrum is n·x.
            plan.run(&mut got, 1, 1, false, &mut scratch);
            for (g, v) in got.iter().zip(&x) {
                assert!((*g - v.scale(n as f64)).abs() < 1e-11 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn flop_count_matches_hand_count_for_22() {
        // 22 = 11·2: two radix-11 butterflies (8·25 + 8·5 = 240 each) with
        // 10 twiddle multiplies at p = 1, then eleven twiddle-free
        // radix-2 butterflies.
        let plan = Mixed::new(22).unwrap();
        assert_eq!(plan.line_flops(), 2 * 240 + 6 * 10 + 11 * 4);
    }
}
