//! GEMM kernels — the computational core of the all-band optimization.
//!
//! Optimization #1 in the paper replaced BLAS-2 band-by-band operations with
//! DGEMM calls on `~3000 × 200` matrices, lifting PEtot from 15% to 56% of
//! peak. This module is the pure-Rust equivalent, and every heavy step of
//! the all-band solver goes through it.
//!
//! * [`gemm_into`] is the hot-path entry: `C ← α·op(A)·op(B) + β·C` for
//!   any [`Op`] pair through a caller-owned [`GemmScratch`], on the calling
//!   thread, with no heap allocation in steady state.
//! * [`gemm`], [`gemm_with`] and the `matmul*` family are allocating shims
//!   over the same code for one-shot callers; they may spread the scalar
//!   kernels' rows over the pool.
//! * [`overlap_hermitian`] is the half-work Gram kernel `S = w·Ψ·Ψᴴ`.
//!
//! Which kernel runs is decided by `m·k·n` alone (one constant, see
//! `BLOCK_MIN_WORK` in `microkernel.rs`): block-sized products under
//! [`KernelPolicy::Fast`] go to the packed register-tile kernel, which
//! packs `op(A)`/`op(B)` straight from the stored operands; everything
//! else runs one of two scalar loops — a row-`axpy` form when `op(B)` is
//! stored row-wise, a row-dot form when it is transposed. The scalar
//! loops accumulate in ascending `k` directly into `C`: the summation
//! order of the solver's `dotc`/`axpy` row loops, which
//! [`KernelPolicy::Reference`] keeps at every shape as the oracle.
//! [`matmul_naive`] stays as the unit tests' oracle for every GEMM path.

use crate::microkernel::{self, block_sized, conj_if, Product, View};
use crate::policy::KernelPolicy;
use crate::{Matrix, Scalar};
use rayon::prelude::*;

pub use crate::microkernel::{GemmScratch, Tier};

/// How an operand participates in a product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose.
    ConjTrans,
}

/// `k`-block edge of the scalar row-`axpy` kernel (rows of `B` reused
/// across the rows of one task while they are cache-hot).
const BLOCK: usize = 64;
/// Rows of `C` per pool task in the scalar kernels. A fixed granule —
/// never derived from `current_num_threads()` — so the *partition* of the
/// output, not just the result, is identical at every `LS3DF_THREADS`.
const ROWS_PER_TASK: usize = 16;

/// General matrix-matrix product `C ← α·op(A)·op(B) + β·C` (allocating
/// shim over [`gemm_into`]). Panics on shape mismatch.
pub fn gemm<S: Scalar>(
    alpha: S,
    a: &Matrix<S>,
    op_a: Op,
    b: &Matrix<S>,
    op_b: Op,
    beta: S,
    c: &mut Matrix<S>,
) {
    gemm_with(KernelPolicy::Fast, alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm`] with an explicit [`KernelPolicy`] — lets tests and benches
/// compare the production arithmetic with the reference oracle.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with<S: Scalar>(
    policy: KernelPolicy,
    alpha: S,
    a: &Matrix<S>,
    op_a: Op,
    b: &Matrix<S>,
    op_b: Op,
    beta: S,
    c: &mut Matrix<S>,
) {
    let mut scratch = GemmScratch::with(policy, Tier::host());
    product(
        &mut scratch,
        Route::Pooled,
        alpha,
        (a, op_a),
        (b, op_b),
        beta,
        c,
    );
}

/// `C ← α·op(A)·op(B) + β·C` through caller-owned scratch: the policy and
/// tier are the scratch's, the work runs on the calling thread, and once
/// the scratch has seen one block-sized product nothing allocates.
/// Panics on shape mismatch.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into<S: Scalar>(
    scratch: &mut GemmScratch<S>,
    alpha: S,
    a: &Matrix<S>,
    op_a: Op,
    b: &Matrix<S>,
    op_b: Op,
    beta: S,
    c: &mut Matrix<S>,
) {
    product(scratch, Route::Inline, alpha, (a, op_a), (b, op_b), beta, c);
}

/// Bench hook: [`gemm_into`] forced onto the packed kernel whatever the
/// shape and policy — how the `fft_kernels` bench measures the crossover
/// behind the block-size constant.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_into<S: Scalar>(
    scratch: &mut GemmScratch<S>,
    alpha: S,
    a: &Matrix<S>,
    op_a: Op,
    b: &Matrix<S>,
    op_b: Op,
    beta: S,
    c: &mut Matrix<S>,
) {
    product(scratch, Route::Packed, alpha, (a, op_a), (b, op_b), beta, c);
}

/// Who may run a product besides the shape rule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Kernel by shape; everything on the calling thread.
    Inline,
    /// Kernel by shape; block-sized scalar products go to the pool.
    Pooled,
    /// The packed kernel unconditionally.
    Packed,
}

fn product<S: Scalar>(
    scratch: &mut GemmScratch<S>,
    route: Route,
    alpha: S,
    (a, op_a): (&Matrix<S>, Op),
    (b, op_b): (&Matrix<S>, Op),
    beta: S,
    c: &mut Matrix<S>,
) {
    let (m, ka) = View::from(a).dims(op_a);
    let (kb, n) = View::from(b).dims(op_b);
    assert_eq!(ka, kb, "gemm: inner dimension mismatch ({ka} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm: output shape mismatch");
    if route == Route::Packed || scratch.packs(m, ka, n) {
        scale_or_zero(beta, c.as_mut_slice());
        let job = Product {
            alpha,
            a: a.into(),
            op_a,
            b: b.into(),
            op_b,
            c: c.as_mut_slice(),
            lower_only: false,
        };
        microkernel::run(scratch, job);
        return;
    }
    let pool = route == Route::Pooled && m > 1 && block_sized(m, ka, n);
    if op_b == Op::None {
        scalar_axpy(pool, alpha, (a, op_a), b, beta, c);
    } else {
        scalar_dot(scratch.policy(), pool, alpha, (a, op_a), (b, op_b), beta, c);
    }
}

/// `C = A·B` (allocating convenience wrapper).
pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(S::ONE, a, Op::None, b, Op::None, S::ZERO, &mut c);
    c
}

/// `C = A·Bᴴ` — the overlap-matrix shape `S = Ψ·Ψᴴ` used by the all-band
/// orthogonalization (paper optimization #1).
pub fn matmul_nh<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm(S::ONE, a, Op::None, b, Op::ConjTrans, S::ZERO, &mut c);
    c
}

/// `C = Aᴴ·B`.
pub fn matmul_hn<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm(S::ONE, a, Op::ConjTrans, b, Op::None, S::ZERO, &mut c);
    c
}

#[inline]
fn scale_or_zero<S: Scalar>(beta: S, values: &mut [S]) {
    if beta == S::ZERO {
        values.fill(S::ZERO);
    } else if beta != S::ONE {
        for v in values {
            *v *= beta;
        }
    }
}

/// Runs `body(first_row, rows)` over `C` — in one piece on the calling
/// thread, or in [`ROWS_PER_TASK`] granules on the pool.
fn for_row_blocks<S: Scalar>(c: &mut Matrix<S>, pool: bool, body: impl Fn(usize, &mut [S]) + Sync) {
    let n = c.cols();
    if c.rows() == 0 || n == 0 {
        return;
    }
    if pool {
        // reduce-audit: rows of C are grouped into fixed ROWS_PER_TASK
        // granules (thread-count-independent partition); each output row
        // is written by exactly one closure as the same sequential
        // k-loop in the same order regardless of which worker runs it,
        // so the result is bit-identical across thread counts and
        // schedules.
        c.as_mut_slice()
            .par_chunks_mut(ROWS_PER_TASK * n)
            .enumerate()
            .for_each(|(ci, rows)| body(ci * ROWS_PER_TASK, rows));
    } else {
        body(0, c.as_mut_slice());
    }
}

/// Scalar `C ← α·op(A)·B + β·C`: every row of `C` is a sequence of
/// `axpy`s of contiguous rows of `B`, in ascending `k`. This is the loop
/// the subspace rotations `Uᵀ·Ψ` and the projections `Oᴴ·Ψ` take below
/// block size and under [`KernelPolicy::Reference`].
fn scalar_axpy<S: Scalar>(
    pool: bool,
    alpha: S,
    (a, op_a): (&Matrix<S>, Op),
    b: &Matrix<S>,
    beta: S,
    c: &mut Matrix<S>,
) {
    let (k, n) = b.shape();
    let a_at = |i: usize, p: usize| match op_a {
        Op::None => a[(i, p)],
        Op::Trans => a[(p, i)],
        Op::ConjTrans => a[(p, i)].conj(),
    };
    for_row_blocks(c, pool, |i0, rows| {
        scale_or_zero(beta, rows);
        for kk in (0..k).step_by(BLOCK) {
            let k_hi = (kk + BLOCK).min(k);
            for (r, c_row) in rows.chunks_exact_mut(n).enumerate() {
                for p in kk..k_hi {
                    let aip = alpha * a_at(i0 + r, p);
                    if aip == S::ZERO {
                        continue;
                    }
                    let b_row = b.row(p);
                    for j in 0..n {
                        c_row[j] = c_row[j].acc(aip, b_row[j]);
                    }
                }
            }
        }
    });
}

/// `Σ xᵢ·yᵢ` or `Σ xᵢ·conj(yᵢ)` over two contiguous rows. The conjugated
/// sum under [`KernelPolicy::Fast`] uses the lane-split accumulator.
#[inline]
fn row_dot<S: Scalar>(policy: KernelPolicy, x: &[S], y: &[S], conj_y: bool) -> S {
    if conj_y && policy == KernelPolicy::Fast {
        return microkernel::dot_conj_wide(x, y);
    }
    x.iter()
        .zip(y)
        .fold(S::ZERO, |acc, (&u, &v)| acc.acc(u, conj_if(conj_y, v)))
}

/// Scalar `C ← α·op(A)·op(B) + β·C` for a transposed `op(B)`: every
/// element of `C` is one inner product against a contiguous row of `B` —
/// the overlap shape `(n_bands × n_pw)·(n_bands × n_pw)ᴴ`.
fn scalar_dot<S: Scalar>(
    policy: KernelPolicy,
    pool: bool,
    alpha: S,
    (a, op_a): (&Matrix<S>, Op),
    (b, op_b): (&Matrix<S>, Op),
    beta: S,
    c: &mut Matrix<S>,
) {
    let n = c.cols();
    let conj_b = op_b == Op::ConjTrans;
    for_row_blocks(c, pool, |i0, rows| {
        scale_or_zero(beta, rows);
        for (r, c_row) in rows.chunks_exact_mut(n).enumerate() {
            let i = i0 + r;
            for (j, cij) in c_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let acc = if op_a == Op::None {
                    row_dot(policy, a.row(i), b_row, conj_b)
                } else {
                    // Column `i` of the stored `A`, strided.
                    let conj_a = op_a == Op::ConjTrans;
                    b_row.iter().enumerate().fold(S::ZERO, |acc, (p, &v)| {
                        acc.acc(conj_if(conj_a, a[(p, i)]), conj_if(conj_b, v))
                    })
                };
                *cij = cij.acc(alpha, acc);
            }
        }
    });
}

/// Specialized Hermitian Gram kernel: `S = w·Ψ·Ψᴴ` computed on the lower
/// triangle only and mirrored — half the flops of the general
/// [`matmul_nh`] for the overlap-matrix shape.
///
/// This is an instance of the paper's §IV *future work* item #2
/// ("replacing DGEMM with a custom routine specialized for PEtot_F"): the
/// overlap matrix is Hermitian by construction, so the general product
/// wastes a factor of two.
pub fn overlap_hermitian<S: Scalar>(psi: &Matrix<S>, weight: f64) -> Matrix<S> {
    overlap_hermitian_with(KernelPolicy::Fast, psi, weight)
}

/// [`overlap_hermitian`] with an explicit [`KernelPolicy`].
pub fn overlap_hermitian_with<S: Scalar>(
    policy: KernelPolicy,
    psi: &Matrix<S>,
    weight: f64,
) -> Matrix<S> {
    let mut s = Matrix::zeros(psi.rows(), psi.rows());
    let mut scratch = GemmScratch::with(policy, Tier::host());
    overlap(&mut scratch, Route::Pooled, psi, weight, &mut s);
    s
}

/// [`overlap_hermitian`] into a caller-owned `(n_b × n_b)` matrix through
/// caller-owned scratch, on the calling thread.
pub(crate) fn overlap_hermitian_into<S: Scalar>(
    scratch: &mut GemmScratch<S>,
    psi: &Matrix<S>,
    weight: f64,
    s: &mut Matrix<S>,
) {
    overlap(scratch, Route::Inline, psi, weight, s);
}

fn overlap<S: Scalar>(
    scratch: &mut GemmScratch<S>,
    route: Route,
    psi: &Matrix<S>,
    weight: f64,
    s: &mut Matrix<S>,
) {
    let (nb, k) = psi.shape();
    assert_eq!(s.shape(), (nb, nb), "overlap: output shape mismatch");
    if scratch.packs(nb, k, nb) {
        s.as_mut_slice().fill(S::ZERO);
        let job = Product {
            alpha: S::from_re(weight),
            a: psi.into(),
            op_a: Op::None,
            b: psi.into(),
            op_b: Op::ConjTrans,
            c: s.as_mut_slice(),
            lower_only: true,
        };
        microkernel::run(scratch, job);
    } else {
        let policy = scratch.policy();
        let pool = route == Route::Pooled && nb > 1 && block_sized(nb, k, nb);
        for_row_blocks(s, pool, |i0, rows| {
            for (r, row) in rows.chunks_exact_mut(nb).enumerate() {
                let i = i0 + r;
                for j in 0..=i {
                    row[j] = row_dot(policy, psi.row(i), psi.row(j), true).scale(weight);
                }
            }
        });
    }
    // Mirror the strict lower triangle; force real diagonal.
    for i in 0..nb {
        s[(i, i)] = S::from_re(s[(i, i)].re());
        for j in 0..i {
            s[(j, i)] = s[(i, j)].conj();
        }
    }
}

/// Reference triple-loop product, kept as the correctness oracle of the
/// GEMM unit tests.
pub fn matmul_naive<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    assert_eq!(a.cols(), b.rows());
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = S::ZERO;
            for p in 0..a.cols() {
                acc = acc.acc(a[(i, p)], b[(p, j)]);
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<c64> {
        // Simple deterministic LCG so tests need no RNG dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Matrix::from_fn(rows, cols, |_, _| c64::new(next(), next()))
    }

    fn assert_close(a: &Matrix<c64>, b: &Matrix<c64>, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {:?} vs {:?}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn blocked_matches_naive_nn() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 4),
            (17, 33, 9),
            (70, 70, 70),
            (128, 40, 65),
        ] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-11);
        }
    }

    #[test]
    fn nh_matches_explicit_hermitian() {
        let a = rand_matrix(13, 37, 3);
        let b = rand_matrix(11, 37, 4);
        assert_close(&matmul_nh(&a, &b), &matmul_naive(&a, &b.hermitian()), 1e-11);
    }

    #[test]
    fn hn_matches_explicit_hermitian() {
        let a = rand_matrix(37, 13, 5);
        let b = rand_matrix(37, 11, 6);
        assert_close(&matmul_hn(&a, &b), &matmul_naive(&a.hermitian(), &b), 1e-11);
    }

    #[test]
    fn trans_ops_match() {
        let a = rand_matrix(8, 6, 7);
        let b = rand_matrix(5, 6, 8);
        let mut c = Matrix::zeros(8, 5);
        gemm(c64::ONE, &a, Op::None, &b, Op::Trans, c64::ZERO, &mut c);
        assert_close(&c, &matmul_naive(&a, &b.transpose()), 1e-11);

        let a2 = rand_matrix(6, 8, 9);
        let mut c2 = Matrix::zeros(8, 5);
        gemm(c64::ONE, &a2, Op::Trans, &b, Op::Trans, c64::ZERO, &mut c2);
        assert_close(&c2, &matmul_naive(&a2.transpose(), &b.transpose()), 1e-11);
    }

    #[test]
    fn every_op_pair_matches_naive_on_every_path() {
        // Scalar loops (small shape; `Reference` at any shape), the packed
        // kernel (`Fast`, block-sized), with and without the pool: the
        // allocating shim may spread rows over it, `gemm_into` never does,
        // and both must agree bit for bit.
        let op_of = |m: &Matrix<c64>, op: Op| match op {
            Op::None => m.clone(),
            Op::Trans => m.transpose(),
            Op::ConjTrans => m.hermitian(),
        };
        let (alpha, beta) = (c64::new(0.5, -1.0), c64::new(-2.0, 0.25));
        for &(m, k, n) in &[(6, 9, 5), (70, 90, 70)] {
            assert_eq!(block_sized(m, k, n), m == 70);
            for op_a in [Op::None, Op::Trans, Op::ConjTrans] {
                for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                    let a = op_of(&rand_matrix(m, k, 31), op_a);
                    let b = op_of(&rand_matrix(k, n, 32), op_b);
                    let c0 = rand_matrix(m, n, 33);
                    let mut expect = matmul_naive(&op_of(&a, op_a), &op_of(&b, op_b));
                    for (e, &c) in expect.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                        *e = *e * alpha + c * beta;
                    }
                    for policy in [KernelPolicy::Fast, KernelPolicy::Reference] {
                        let mut pooled = c0.clone();
                        gemm_with(policy, alpha, &a, op_a, &b, op_b, beta, &mut pooled);
                        assert_close(&pooled, &expect, 1e-10);
                        let mut inline = c0.clone();
                        let mut scratch = GemmScratch::with(policy, Tier::host());
                        gemm_into(&mut scratch, alpha, &a, op_a, &b, op_b, beta, &mut inline);
                        assert!(pooled == inline, "{op_a:?}/{op_b:?} {policy:?} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_and_packed_kernel_share_one_crossover() {
        // A crystal8 overlap (10 bands × 500 planewaves) stays one
        // sequential loop; the 8-piece ZnTeO fragment block does not.
        assert!(!block_sized(10, 500, 10));
        assert!(block_sized(130, 2550, 130));
        assert!(block_sized(64, 64, 64) && !block_sized(64, 64, 63));
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = rand_matrix(6, 6, 10);
        let b = rand_matrix(6, 6, 11);
        let c0 = rand_matrix(6, 6, 12);
        let mut c = c0.clone();
        let alpha = c64::new(0.5, -1.0);
        let beta = c64::new(-2.0, 0.25);
        gemm(alpha, &a, Op::None, &b, Op::None, beta, &mut c);
        let mut expect = matmul_naive(&a, &b);
        for i in 0..6 {
            for j in 0..6 {
                expect[(i, j)] = expect[(i, j)] * alpha + c0[(i, j)] * beta;
            }
        }
        assert_close(&c, &expect, 1e-11);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_matrix(20, 20, 13);
        let id = Matrix::<c64>::identity(20);
        assert_close(&matmul(&a, &id), &a, 1e-12);
        assert_close(&matmul(&id, &a), &a, 1e-12);
    }

    #[test]
    fn large_parallel_path_is_exercised() {
        // Block-sized, so the shims leave the sequential scalar loops.
        let a = rand_matrix(90, 120, 14);
        let b = rand_matrix(120, 90, 15);
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-10);
        let bh = rand_matrix(90, 120, 16);
        assert_close(
            &matmul_nh(&a, &bh),
            &matmul_naive(&a, &bh.hermitian()),
            1e-10,
        );
        let ah = rand_matrix(120, 90, 17);
        assert_close(
            &matmul_hn(&ah, &b),
            &matmul_naive(&ah.hermitian(), &b),
            1e-10,
        );
    }

    #[test]
    fn overlap_hermitian_matches_general_product() {
        for &(nb, k) in &[(1usize, 7usize), (5, 33), (17, 90), (70, 80)] {
            let psi = rand_matrix(nb, k, 21);
            let w = 0.37;
            let mut expect = matmul_nh(&psi, &psi);
            expect.scale_real(w);
            let got = overlap_hermitian(&psi, w);
            for i in 0..nb {
                for j in 0..nb {
                    assert!(
                        (got[(i, j)] - expect[(i, j)]).abs() < 1e-11,
                        "({i},{j}): {:?} vs {:?}",
                        got[(i, j)],
                        expect[(i, j)]
                    );
                }
            }
            assert_eq!(
                got.hermiticity_error(),
                0.0,
                "exact Hermiticity by construction"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn shape_mismatch_panics() {
        let a = rand_matrix(3, 4, 18);
        let b = rand_matrix(5, 3, 19);
        let _ = matmul(&a, &b);
    }
}
