//! Packed register-tile GEMM microkernel and lane-split inner products —
//! the `KernelPolicy::Fast` arithmetic for the BLAS-3/BLAS-1 hot paths.
//!
//! ## SIMD strategy: safe wide-lane code, compiled per CPU tier
//!
//! The kernels are written as fixed-width lane loops over `Copy` scalars
//! — shapes LLVM's autovectorizer reliably lowers to packed vector
//! multiply-adds at `opt-level=3`, with no `core::arch` intrinsics:
//!
//! * all lane counts are `const`, so every inner loop fully unrolls;
//! * accumulators live in fixed-size arrays (`[[S; NR]; MR]`), small
//!   enough to stay in registers;
//! * operands are packed into contiguous panels first, so the unrolled
//!   loops see unit-stride loads with no bounds checks after the
//!   `chunks_exact` split.
//!
//! **Tier rule.** The workspace is built for baseline x86-64 (SSE2, two
//! `f64` lanes) so the binary starts on any x86-64. The packed kernel's
//! body ([`packed_body`]) is `#[inline(always)]` generic code instantiated
//! three times: as is (baseline), inside a
//! `#[target_feature(enable = "avx2,fma")]` function (four lanes), and
//! inside a `#[target_feature(enable = "avx512f")]` one (eight lanes, on
//! a `MR × 16` `f64` tile; the AVX-512 tier's narrow `c64` tile runs the
//! AVX2 code). [`Tier::host`] picks the widest one this CPU
//! runs ([`Tier::supported`]), once per process, from cached
//! `is_x86_feature_detected!` answers; other architectures compile the
//! baseline only. There is no build flag, env var or option.
//!
//! **FMA on every tier, bit identity across tiers.** The register tile
//! accumulates with [`Scalar::acc_fused`]: for `f64` that is
//! `f64::mul_add`, one correctly rounded operation, which the AVX2 and
//! AVX-512 instantiations lower to FMA instructions and the baseline one
//! to a call of libm's `fma` (correctly rounded too, so it is the slow
//! path, not a different result). Rust never contracts or re-associates
//! anything else, so every instantiation executes the same IEEE-754
//! operations in the same order on every element — wider registers only
//! run more *independent* lanes at once — and the tiers are
//! bit-identical (`tests/kernel_tol.rs` and the unit tests below compare
//! every tier this CPU runs with the baseline, for every `Op` pair on
//! ragged shapes).
//! Thread/group/schedule/resume digests stay machine-independent.
//!
//! The call into the feature-gated instantiations is the crate's single
//! `unsafe` ([`run`]); everything else in `ls3df-math` stays safe code
//! under `#![deny(unsafe_code)]` (audited by the `forbid-unsafe` lint).
//!
//! That the body actually vectorizes is asserted empirically, not
//! structurally: the `fft_kernels` bench times every tier at the fragment
//! shapes and `EXPERIMENTS.md` records the numbers (see DESIGN.md "Kernel
//! architecture").
//!
//! ## Determinism
//!
//! Lane-split sums change *which* order terms combine in, but the order
//! is a pure function of the slice length — never of thread count or
//! schedule. The packed kernel runs on the calling thread and walks `k`
//! in fixed [`KC`]-blocks in ascending order, each block summed from zero
//! in a register tile and then added to `C`; the `MC`/`NC` cache blocking
//! only changes which tile is computed when. Only the reference oracle's
//! bit patterns differ (gated by `tests/kernel_tol.rs`).

use crate::gemm::Op;
use crate::policy::KernelPolicy;
use crate::{Matrix, Scalar};
use std::sync::OnceLock;

/// Rows of `C` per register tile.
const MR: usize = 4;
/// Columns of `C` per register tile for 16-byte scalars (`c64`): 4×4
/// complex accumulators are 8 AVX2 registers.
const NR_NARROW: usize = 4;
/// Columns of `C` per register tile for 8-byte scalars (`f64`): a 4×4
/// real tile is 4 AVX2 registers — four independent add chains cannot
/// hide the add latency — so the real tile is wider (EXPERIMENTS.md,
/// "Γ-point real block algebra (PR 19)"). The width never changes a bit of
/// any `C` element: each element's `k`-order is the same in every tile.
const NR_WIDE: usize = 8;
/// The `f64` tile width on the AVX-512 tier: `MR × 16` is 8 zmm
/// accumulators. An 8-row tile spills; a 32-column one is slower on the
/// `Ψ·Dᵀ` overlaps.
const NR_WIDE_512: usize = 16;
/// `k`-extent of one packed block: an `MR·KC` A-strip and a `KC·NR`
/// B-panel are 16 KiB each for `c64` — both stay in L1 while a tile runs.
const KC: usize = 256;
/// Rows of `op(A)` packed per block (`MC·KC` scalars, 256 KiB for `c64`:
/// L2-resident while the B panels stream past it).
const MC: usize = 64;
/// Columns of `op(B)` packed per block (`KC·NC` scalars, 1 MiB for `c64`).
const NC: usize = 256;
/// Lanes for the split-accumulator inner products.
const LANES: usize = 4;

/// `Σ aᵢ·conj(bᵢ)` with [`LANES`] independent accumulators (breaks the
/// serial FMA dependency chain of the naive loop). Combination order is
/// fixed: `(l0+l2)+(l1+l3)`.
#[inline]
pub(crate) fn dot_conj_wide<S: Scalar>(a: &[S], b: &[S]) -> S {
    let mut lanes = [S::ZERO; LANES];
    let (a_main, a_tail) = a.split_at(a.len() - a.len() % LANES);
    let (b_main, b_tail) = b.split_at(a_main.len());
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for l in 0..LANES {
            lanes[l] = lanes[l].acc(ca[l], cb[l].conj());
        }
    }
    for (l, (&x, &y)) in a_tail.iter().zip(b_tail).enumerate() {
        lanes[l] = lanes[l].acc(x, y.conj());
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// `Σ conj(aᵢ)·bᵢ` — the [`crate::vec_ops::dotc`] convention — with the
/// same lane split and fixed combination order as [`dot_conj_wide`].
#[inline]
pub(crate) fn dotc_wide<S: Scalar>(a: &[S], b: &[S]) -> S {
    let mut lanes = [S::ZERO; LANES];
    let (a_main, a_tail) = a.split_at(a.len() - a.len() % LANES);
    let (b_main, b_tail) = b.split_at(a_main.len());
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for l in 0..LANES {
            lanes[l] = lanes[l].acc_conj(ca[l], cb[l]);
        }
    }
    for (l, (&x, &y)) in a_tail.iter().zip(b_tail).enumerate() {
        lanes[l] = lanes[l].acc_conj(x, y);
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// `m·k·n` from which a block product leaves the plain sequential scalar
/// loops: under [`KernelPolicy::Fast`] it goes to the packed kernel, and
/// the allocating entry points may spread the scalar kernels' rows over
/// the pool. The `fft_kernels` bench (`gemm_crossover` in
/// `BENCH_fft_kernels.json`, EXPERIMENTS.md) measures it on the `f64`
/// blocks production runs: the AVX2 + FMA and AVX-512 instantiations
/// beat the scalar loops at every size (1.4–3.6× and 1.5–4.1×); the
/// baseline one, whose multiply-adds are libm `fma` calls, runs at
/// 0.06–0.11× of them at every size, so on a host without FMA block
/// products are the slow path. From 2¹⁸ a product is long enough to
/// amortize a pool dispatch, and a 10-band × 500-planewave fragment
/// block (5·10⁴) stays one sequential loop. One constant for every tier:
/// the kernel choice changes rounding, and results must not depend on
/// the host.
pub(crate) const BLOCK_MIN_WORK: usize = 1 << 18;

/// Whether a product of this shape is block-sized (see [`BLOCK_MIN_WORK`]).
/// Decided by `m·k·n` alone.
#[inline]
pub(crate) fn block_sized(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= BLOCK_MIN_WORK
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
}

/// Which compilation of the packed kernel runs. A tier other than
/// [`Tier::BASELINE`] can only be obtained from [`Tier::supported`] (or
/// [`Tier::host`]) on a CPU that reports its features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tier(Isa);

static HOST_TIER: OnceLock<Tier> = OnceLock::new();

impl Tier {
    /// The build-target instantiation (SSE2 on x86-64); runs anywhere.
    pub const BASELINE: Tier = Tier(Isa::Baseline);

    /// The widest tier this CPU supports, detected once per process.
    pub fn host() -> Tier {
        *HOST_TIER.get_or_init(|| Tier::supported().pop().unwrap_or(Tier::BASELINE))
    }

    /// Every tier this CPU runs, baseline first, widest last — what the
    /// tier bit-identity tests and the `fft_kernels` bench iterate over.
    #[doc(hidden)]
    pub fn supported() -> Vec<Tier> {
        #[allow(unused_mut)]
        let mut tiers = vec![Tier::BASELINE];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                tiers.push(Tier(Isa::Avx2));
                if has!("avx512f") {
                    tiers.push(Tier(Isa::Avx512));
                }
            }
        }
        tiers
    }

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Baseline => "baseline",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx2 => "avx2",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx512 => "avx512",
        }
    }
}

/// Test hook: makes [`Tier::host`] answer [`Tier::BASELINE`] for the rest
/// of the process, so a whole run can be compared against the dispatched
/// one. Returns `false` if another tier was already latched.
#[doc(hidden)]
pub fn force_baseline_tier() -> bool {
    *HOST_TIER.get_or_init(|| Tier::BASELINE) == Tier::BASELINE
}

/// Caller-owned state of the block products: which arithmetic
/// ([`KernelPolicy`]) and which [`Tier`] they run, plus the packed
/// kernel's A/B pack buffers. The buffers are sized on the first
/// block-sized product (1.25 MiB for `c64`) and reused afterwards, so a
/// steady-state call allocates nothing and a caller that only ever sees
/// small shapes never pays for them. One per thread; never shared.
pub struct GemmScratch<S: Scalar> {
    policy: KernelPolicy,
    tier: Tier,
    /// Whether the register tile is [`NR_WIDE`] columns (8-byte scalars)
    /// rather than [`NR_NARROW`].
    wide_tile: bool,
    a_pack: Vec<S>,
    b_pack: Vec<S>,
}

impl<S: Scalar> GemmScratch<S> {
    /// Scratch for the production ([`KernelPolicy::Fast`]) arithmetic on
    /// [`Tier::host`].
    pub fn new() -> Self {
        Self::with(KernelPolicy::Fast, Tier::host())
    }

    /// Scratch with an explicit policy and tier — lets tests and benches
    /// compare the reference oracle and the tiers inside one process.
    pub fn with(policy: KernelPolicy, tier: Tier) -> Self {
        GemmScratch {
            policy,
            tier,
            wide_tile: size_of::<S>() <= 8,
            a_pack: Vec::new(),
            b_pack: Vec::new(),
        }
    }

    /// Test hook: the packed kernel on the narrow (4-column) register tile
    /// whatever the scalar — the other side of the tile-width
    /// bit-identity tests.
    #[doc(hidden)]
    pub fn narrow_tile(mut self) -> Self {
        self.wide_tile = false;
        self
    }

    /// The arithmetic policy products through this scratch use.
    pub(crate) fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Whether a product of this shape runs on the packed kernel.
    #[inline]
    pub(crate) fn packs(&self, m: usize, k: usize, n: usize) -> bool {
        self.policy == KernelPolicy::Fast && block_sized(m, k, n)
    }
}

impl<S: Scalar> Default for GemmScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// A stored row-major operand: `rows × cols` elements, consecutive rows
/// `ld ≥ cols` apart — a whole [`Matrix`] or a sub-block of one.
#[derive(Clone, Copy)]
pub(crate) struct View<'a, S: Scalar> {
    data: &'a [S],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, S: Scalar> View<'a, S> {
    /// The `rows × cols` block whose first element is `data[0]`.
    pub(crate) fn new(data: &'a [S], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(cols <= ld && (rows == 0 || (rows - 1) * ld + cols <= data.len()));
        View {
            data,
            rows,
            cols,
            ld,
        }
    }

    #[inline(always)]
    fn row(&self, i: usize) -> &'a [S] {
        &self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// Shape of `op(self)`.
    pub(crate) fn dims(&self, op: Op) -> (usize, usize) {
        match op {
            Op::None => (self.rows, self.cols),
            _ => (self.cols, self.rows),
        }
    }
}

impl<'a, S: Scalar> From<&'a Matrix<S>> for View<'a, S> {
    fn from(m: &'a Matrix<S>) -> Self {
        View::new(m.as_slice(), m.rows(), m.cols(), m.cols())
    }
}

/// One `C += α·op(A)·op(B)` for the packed kernel. `c` is the contiguous
/// row-major `m × n` output (already scaled by β), `n = op(B)` columns.
pub(crate) struct Product<'a, S: Scalar> {
    pub alpha: S,
    pub a: View<'a, S>,
    pub op_a: Op,
    pub b: View<'a, S>,
    pub op_b: Op,
    pub c: &'a mut [S],
    /// Only `C[i][j]` with `j ≤ i` is wanted (a Hermitian result): tiles
    /// strictly above the diagonal are skipped.
    pub lower_only: bool,
}

/// Runs `job` on the packed kernel compiled for the scratch's tier.
#[allow(unsafe_code)]
pub(crate) fn run<S: Scalar>(scratch: &mut GemmScratch<S>, job: Product<'_, S>) {
    // alloc-audit: first block-sized product through this scratch only.
    scratch.a_pack.resize(MC * KC, S::ZERO);
    scratch.b_pack.resize(KC * NC, S::ZERO);
    let (a_pack, b_pack) = (&mut scratch.a_pack[..], &mut scratch.b_pack[..]);
    let wide = scratch.wide_tile;
    match scratch.tier.0 {
        Isa::Baseline if wide => packed_body::<S, NR_WIDE>(a_pack, b_pack, job),
        Isa::Baseline => packed_body::<S, NR_NARROW>(a_pack, b_pack, job),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        isa => {
            // SAFETY: the callees need only the features they enable; the
            // private `Isa::Avx2`/`Avx512` are built solely in `supported`,
            // once `avx2` + `fma` (and for `Avx512` `avx512f`) were detected.
            unsafe {
                if isa == Isa::Avx512 && wide {
                    packed_avx512(a_pack, b_pack, job)
                } else {
                    packed_avx2(wide, a_pack, b_pack, job)
                }
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
fn packed_avx2<S: Scalar>(wide: bool, a_pack: &mut [S], b_pack: &mut [S], job: Product<'_, S>) {
    if wide {
        packed_body::<S, NR_WIDE>(a_pack, b_pack, job);
    } else {
        packed_body::<S, NR_NARROW>(a_pack, b_pack, job);
    }
}

/// The AVX-512 tier's wide (`f64`) tile. Its narrow tile (`c64`, and the
/// tile-width test hook) runs the AVX2 + FMA code: a 512-bit `c64`
/// instantiation measured 10–30 % slower than the 256-bit one.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn packed_avx512<S: Scalar>(a_pack: &mut [S], b_pack: &mut [S], job: Product<'_, S>) {
    packed_body::<S, NR_WIDE_512>(a_pack, b_pack, job);
}

/// The packed product: `op(B)` in `KC×NC` blocks of `NR`-wide panels,
/// `α·op(A)` in `MC×KC` blocks of `MR`-tall strips — both read straight
/// from the stored operand, conjugating/transposing while packing — and
/// one `MR×NR` register tile per (strip, panel) pair.
#[inline(always)]
fn packed_body<S: Scalar, const NR: usize>(
    a_pack: &mut [S],
    b_pack: &mut [S],
    job: Product<'_, S>,
) {
    const { assert!(NC.is_multiple_of(NR)) };
    let Product {
        alpha,
        a,
        op_a,
        b,
        op_b,
        c,
        lower_only,
    } = job;
    let (m, k) = a.dims(op_a);
    let n = b.dims(op_b).1;
    assert!(b.dims(op_b).0 == k && c.len() == m * n);
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b::<S, NR>(b_pack, b, op_b, (pc, kc), (jc, nc));
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                pack_a(a_pack, alpha, a, op_a, (ic, mc), (pc, kc));
                for (jp, b_panel) in b_pack[..nc.div_ceil(NR) * kc * NR]
                    .chunks_exact(kc * NR)
                    .enumerate()
                {
                    let j0 = jc + jp * NR;
                    let w = (n - j0).min(NR);
                    for (ip, a_strip) in a_pack[..mc.div_ceil(MR) * kc * MR]
                        .chunks_exact(kc * MR)
                        .enumerate()
                    {
                        let i0 = ic + ip * MR;
                        let h = (m - i0).min(MR);
                        if lower_only && j0 >= i0 + h {
                            continue;
                        }
                        let acc = tile::<S, NR>(a_strip, b_panel);
                        for r in 0..h {
                            let c_row = &mut c[(i0 + r) * n + j0..][..w];
                            for q in 0..w {
                                c_row[q] += acc[r][q];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `Σ_p a_strip[p]ᵀ·b_panel[p]` — the `MR×NR` register tile, accumulated
/// with [`Scalar::acc_fused`] in ascending `p`.
#[inline(always)]
fn tile<S: Scalar, const NR: usize>(a_strip: &[S], b_panel: &[S]) -> [[S; NR]; MR] {
    let mut acc = [[S::ZERO; NR]; MR];
    for (pa, pb) in a_strip.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = pa[r];
            for q in 0..NR {
                acc[r][q] = acc[r][q].acc_fused(ar, pb[q]);
            }
        }
    }
    acc
}

#[inline(always)]
pub(crate) fn conj_if<S: Scalar>(conj: bool, v: S) -> S {
    if conj {
        v.conj()
    } else {
        v
    }
}

/// Packs rows `pc..pc+kc`, columns `jc..jc+nc` of `op(B)` panel-major:
/// panel `jp` holds its `NR` columns for every `p`, contiguous in `p`,
/// zero-padded past `nc`.
#[inline(always)]
fn pack_b<S: Scalar, const NR: usize>(
    dst: &mut [S],
    b: View<'_, S>,
    op_b: Op,
    (pc, kc): (usize, usize),
    (jc, nc): (usize, usize),
) {
    if !nc.is_multiple_of(NR) {
        dst[(nc / NR) * kc * NR..nc.div_ceil(NR) * kc * NR].fill(S::ZERO);
    }
    if op_b == Op::None {
        for p in 0..kc {
            let src = &b.row(pc + p)[jc..jc + nc];
            for (jp, cols) in src.chunks(NR).enumerate() {
                dst[jp * kc * NR + p * NR..][..cols.len()].copy_from_slice(cols);
            }
        }
    } else {
        // op(B)[p][j] = B[j][p] (conjugated): one stored row per column.
        let conj = op_b == Op::ConjTrans;
        for j in 0..nc {
            let src = &b.row(jc + j)[pc..pc + kc];
            let panel = &mut dst[(j / NR) * kc * NR..][..kc * NR];
            for (p, &v) in src.iter().enumerate() {
                panel[p * NR + j % NR] = conj_if(conj, v);
            }
        }
    }
}

/// Packs `α·op(A)` rows `ic..ic+mc`, columns `pc..pc+kc` strip-major:
/// strip `ip` holds its `MR` rows for every `p`, contiguous in `p`,
/// zero-padded past `mc` (padding rows contribute nothing).
#[inline(always)]
fn pack_a<S: Scalar>(
    dst: &mut [S],
    alpha: S,
    a: View<'_, S>,
    op_a: Op,
    (ic, mc): (usize, usize),
    (pc, kc): (usize, usize),
) {
    if !mc.is_multiple_of(MR) {
        dst[(mc / MR) * kc * MR..mc.div_ceil(MR) * kc * MR].fill(S::ZERO);
    }
    if op_a == Op::None {
        for i in 0..mc {
            let src = &a.row(ic + i)[pc..pc + kc];
            let strip = &mut dst[(i / MR) * kc * MR..][..kc * MR];
            for (p, &v) in src.iter().enumerate() {
                strip[p * MR + i % MR] = alpha * v;
            }
        }
    } else {
        // op(A)[i][p] = A[p][i] (conjugated): one stored row per `p`.
        let conj = op_a == Op::ConjTrans;
        for p in 0..kc {
            let src = &a.row(pc + p)[ic..ic + mc];
            for (ip, rows) in src.chunks(MR).enumerate() {
                let out = &mut dst[ip * kc * MR + p * MR..][..rows.len()];
                for (o, &v) in out.iter_mut().zip(rows) {
                    *o = alpha * conj_if(conj, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Matrix::from_fn(rows, cols, |_, _| c64::new(next(), next()))
    }

    fn op_of(m: &Matrix<c64>, op: Op) -> Matrix<c64> {
        match op {
            Op::None => m.clone(),
            Op::Trans => m.transpose(),
            Op::ConjTrans => m.hermitian(),
        }
    }

    fn same_bits(x: &Matrix<c64>, y: &Matrix<c64>) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(u, v)| u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits())
    }

    /// `C += α·op(A)·op(B)` through the packed kernel on `tier`.
    fn packed<S: Scalar>(
        tier: Tier,
        alpha: S,
        (a, op_a): (&Matrix<S>, Op),
        (b, op_b): (&Matrix<S>, Op),
        c: &mut Matrix<S>,
        lower_only: bool,
    ) {
        packed_on(
            GemmScratch::with(KernelPolicy::Fast, tier),
            alpha,
            (a, op_a),
            (b, op_b),
            c,
            lower_only,
        );
    }

    fn packed_on<S: Scalar>(
        mut scratch: GemmScratch<S>,
        alpha: S,
        (a, op_a): (&Matrix<S>, Op),
        (b, op_b): (&Matrix<S>, Op),
        c: &mut Matrix<S>,
        lower_only: bool,
    ) {
        let job = Product {
            alpha,
            a: a.into(),
            op_a,
            b: b.into(),
            op_b,
            c: c.as_mut_slice(),
            lower_only,
        };
        run(&mut scratch, job);
    }

    const OPS: [Op; 3] = [Op::None, Op::Trans, Op::ConjTrans];

    /// The test shapes; Miri (`cargo xtask miri`, ~100× slower) keeps
    /// only the small ones.
    fn shapes(all: &[(usize, usize, usize)]) -> Vec<(usize, usize, usize)> {
        all.iter()
            .copied()
            .filter(|&(m, k, n)| !cfg!(miri) || m * k * n < 2000)
            .collect()
    }

    #[test]
    fn packed_matches_naive_every_op_ragged_shapes() {
        // Ragged in every dimension: edge panels, partial bottom strip,
        // several KC/MC/NC blocks (k > KC, m > MC, n > NC).
        for (m, k, n) in shapes(&[(4, 4, 4), (7, 13, 9), (66, 300, 35), (70, 5, 261)]) {
            for op_a in OPS {
                for op_b in OPS {
                    let a = op_of(&rand_matrix(m, k, 100 + m as u64), op_a);
                    let b = op_of(&rand_matrix(k, n, 200 + n as u64), op_b);
                    let alpha = c64::new(0.7, -0.3);
                    let c0 = rand_matrix(m, n, 300);
                    let mut c = c0.clone();
                    packed(Tier::host(), alpha, (&a, op_a), (&b, op_b), &mut c, false);
                    let expect = crate::gemm::matmul_naive(&op_of(&a, op_a), &op_of(&b, op_b));
                    for i in 0..m {
                        for j in 0..n {
                            let want = expect[(i, j)] * alpha + c0[(i, j)];
                            assert!(
                                (c[(i, j)] - want).abs() < 1e-11,
                                "({i},{j}) for {m}x{k}x{n} {op_a:?}/{op_b:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_is_bit_identical_to_baseline() {
        // The one property the `unsafe` call must preserve: each
        // feature-gated instantiation computes exactly what the baseline
        // one does. (Under Miri this is also the interpreted call.)
        for (m, k, n) in shapes(&[(5, 9, 6), (33, 70, 21), (66, 300, 35)]) {
            for op_a in OPS {
                for op_b in OPS {
                    let a = op_of(&rand_matrix(m, k, 7), op_a);
                    let b = op_of(&rand_matrix(k, n, 8), op_b);
                    let alpha = c64::new(-0.4, 1.1);
                    let c0 = rand_matrix(m, n, 9);
                    let (aa, bb) = ((&a, op_a), (&b, op_b));
                    let mut base = c0.clone();
                    packed(Tier::BASELINE, alpha, aa, bb, &mut base, false);
                    for tier in Tier::supported() {
                        let mut other = c0.clone();
                        packed(tier, alpha, aa, bb, &mut other, false);
                        assert!(
                            same_bits(&base, &other),
                            "{}: {m}x{k}x{n} {op_a:?}/{op_b:?}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    fn real(m: &Matrix<c64>) -> Matrix<f64> {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)].re)
    }

    fn bits(m: &Matrix<f64>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn real_tile_matches_naive_and_is_bit_identical_across_tiers_and_widths() {
        // The `f64` instantiation runs the wide register tile (16 columns
        // on AVX-512, 8 elsewhere). Against the naive product for value;
        // against the baseline tier's wide tile for bits — neither the CPU
        // tier nor the tile width may change the order any element of `C`
        // is summed in. Ragged: n and m not multiples of any tile, k past
        // one KC block.
        for (m, k, n) in shapes(&[(5, 9, 6), (7, 13, 19), (66, 300, 35), (33, 70, 261)]) {
            for op_a in OPS {
                for op_b in OPS {
                    let a = real(&op_of(&rand_matrix(m, k, 17), op_a));
                    let b = real(&op_of(&rand_matrix(k, n, 18), op_b));
                    let c0 = real(&rand_matrix(m, n, 19));
                    let (aa, bb) = ((&a, op_a), (&b, op_b));
                    let alpha = -0.7;
                    let mut base = c0.clone();
                    packed(Tier::BASELINE, alpha, aa, bb, &mut base, false);
                    let plain = |x: &Matrix<f64>, op: Op| match op {
                        Op::None => x.clone(),
                        _ => x.transpose(),
                    };
                    let expect = crate::gemm::matmul_naive(&plain(&a, op_a), &plain(&b, op_b));
                    for i in 0..m {
                        for j in 0..n {
                            let want = expect[(i, j)] * alpha + c0[(i, j)];
                            assert!((base[(i, j)] - want).abs() < 1e-11, "({i},{j}) {m}x{k}x{n}");
                        }
                    }
                    for tier in Tier::supported() {
                        let what = format!("{}: {m}x{k}x{n} {op_a:?}/{op_b:?}", tier.name());
                        let mut wide = c0.clone();
                        packed(tier, alpha, aa, bb, &mut wide, false);
                        assert!(bits(&wide) == bits(&base), "tier: {what}");
                        let mut narrow = c0.clone();
                        let scratch = GemmScratch::with(KernelPolicy::Fast, tier).narrow_tile();
                        packed_on(scratch, alpha, aa, bb, &mut narrow, false);
                        assert!(bits(&narrow) == bits(&base), "tile width: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn real_tile_is_a_fused_chain_in_kc_blocked_order() {
        // Each `C` element is `c + Σ_blocks (fma chain over the block,
        // from zero)`: α·a rounded once (packing), then one correctly
        // rounded multiply-add per `k`, ascending, restarted at every
        // `KC` boundary. Spelled out with `f64::mul_add` here, it must
        // match every tier and tile width bit for bit.
        for (m, k, n) in shapes(&[(3, 300, 2), (7, 600, 19)]) {
            let a = real(&rand_matrix(m, k, 27));
            let b = real(&rand_matrix(k, n, 28));
            let c0 = real(&rand_matrix(m, n, 29));
            let alpha = 0.3;
            let want = Matrix::from_fn(m, n, |i, j| {
                let mut c = c0[(i, j)];
                for pc in (0..k).step_by(KC) {
                    let mut acc = 0.0_f64;
                    for p in pc..k.min(pc + KC) {
                        acc = (alpha * a[(i, p)]).mul_add(b[(p, j)], acc);
                    }
                    c += acc;
                }
                c
            });
            for tier in Tier::supported() {
                for narrow in [false, true] {
                    let mut scratch = GemmScratch::with(KernelPolicy::Fast, tier);
                    if narrow {
                        scratch = scratch.narrow_tile();
                    }
                    let mut c = c0.clone();
                    packed_on(
                        scratch,
                        alpha,
                        (&a, Op::None),
                        (&b, Op::None),
                        &mut c,
                        false,
                    );
                    assert!(
                        bits(&c) == bits(&want),
                        "{} (narrow: {narrow}): {m}x{k}x{n}",
                        tier.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sub_block_operands_and_lower_only_output() {
        // A as a sub-block with ld > cols (the blocked triangular solve's
        // operand) gives the same bits as the copied-out block.
        let big = rand_matrix(40, 50, 11);
        let sub = Matrix::from_fn(17, 23, |i, j| big[(5 + i, j)]);
        let x = rand_matrix(23, 300, 12);
        let (mut from_view, mut from_copy) = (Matrix::zeros(17, 300), Matrix::zeros(17, 300));
        let mut scratch = GemmScratch::with(KernelPolicy::Fast, Tier::host());
        let job = Product {
            alpha: c64::ONE,
            a: View::new(&big.as_slice()[5 * 50..], 17, 23, 50),
            op_a: Op::None,
            b: (&x).into(),
            op_b: Op::None,
            c: from_view.as_mut_slice(),
            lower_only: false,
        };
        run(&mut scratch, job);
        let (sa, xb) = ((&sub, Op::None), (&x, Op::None));
        packed(Tier::host(), c64::ONE, sa, xb, &mut from_copy, false);
        assert!(same_bits(&from_view, &from_copy));

        // lower_only: the lower triangle (diagonal included) is complete.
        let n = 70;
        let psi = rand_matrix(n, 300, 13);
        let (mut full, mut lower) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        let (pa, pb) = ((&psi, Op::None), (&psi, Op::ConjTrans));
        packed(Tier::host(), c64::ONE, pa, pb, &mut full, false);
        packed(Tier::host(), c64::ONE, pa, pb, &mut lower, true);
        for i in 0..n {
            for j in 0..=i {
                assert!(full[(i, j)] == lower[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn wide_dots_match_sequential() {
        for len in [0usize, 1, 3, 4, 5, 17, 128, 1001] {
            let x: Vec<c64> = (0..len)
                .map(|i| c64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
                .collect();
            let y: Vec<c64> = (0..len)
                .map(|i| c64::new((i as f64 * 1.3).cos(), -(i as f64).sin()))
                .collect();
            let seq_conj = x
                .iter()
                .zip(&y)
                .fold(c64::ZERO, |s, (&a, &b)| s.acc(a, b.conj()));
            assert!((dot_conj_wide(&x, &y) - seq_conj).abs() < 1e-12 * (len.max(1) as f64));
            let seq_c = x
                .iter()
                .zip(&y)
                .fold(c64::ZERO, |s, (&a, &b)| s.acc_conj(a, b));
            assert!((dotc_wide(&x, &y) - seq_c).abs() < 1e-12 * (len.max(1) as f64));
        }
    }
}
