//! Conjugate-gradient eigensolvers for the Kohn–Sham problem.
//!
//! Two implementations, mirroring the paper's §IV optimization story:
//!
//! * [`solve_all_band`] — the optimized scheme: all bands advance together,
//!   orthonormality is imposed through the overlap matrix (Cholesky) every
//!   few steps, and every `O(n_b²·n_pw)` operation is a GEMM on the whole
//!   `(n_bands × n_pw)` block through [`gemm_into`] on the workspace's
//!   pack scratch: subspace projection (`O = Ψ·Dᴴ`, `D −= Oᴴ·Ψ`), the
//!   Rayleigh–Ritz matrix `Ψ·(HΨ)ᴴ` and the three rotations `Uᵀ·X`, the
//!   block Kleinman–Bylander apply inside `H·ψ`, and the overlap +
//!   `L⁻¹` products of the re-orthonormalizations. What stays per band is
//!   `O(n_b·n_pw)`: FFTs, preconditioning, norms, line minimization.
//!   This path took PEtot from 15% to 45–56% of peak.
//! * [`try_solve_band_by_band`] — the original scheme: one band at a time
//!   with Gram–Schmidt after every step; all BLAS-1/2 shaped operations.
//!   Kept as the unit tests' independent oracle for the all-band solve,
//!   and, packed ([`try_solve_band_by_band_packed`]), as a rung of
//!   `ls3df-core`'s fragment retry ladder.
//!
//! Both use the Teter–Payne–Allan kinetic preconditioner and Rayleigh–Ritz
//! subspace rotations, and converge to the same eigenpairs.
//!
//! ## Γ-point real representation
//!
//! Both solvers (and the Hamiltonian under them) are written once, generic
//! over the row representation [`Coeff`], and production runs the `f64`
//! instantiation on Γ-point packed real rows ([`crate::PwBasis::pack`]):
//! every block product a real GEMM (a quarter of the flops, half the
//! bytes), a real-symmetric subspace matrix, real Cholesky, BLAS-1 on half
//! the data. The packed entries — [`try_solve_all_band_packed`],
//! [`solve_all_band_packed_with`] and [`try_solve_band_by_band_packed`] —
//! solve the caller's packed block in place: no pack, no unpack, no copy.
//! On error the block is left part-way; callers that must keep their
//! state solve a candidate copy (`ls3df-core`'s supervised solve does).
//!
//! The `Matrix<c64>` entries ([`solve_all_band`], [`try_solve_all_band_with`],
//! [`try_solve_band_by_band`], …) are façades over the packed ones: they
//! pack the caller's full-sphere block, solve, and unpack on success; on
//! error the caller's block is untouched. A start block that is not
//! conjugate-symmetric (a complex random start) is packed as `Re ψ(r)`;
//! one whose real part vanishes fails the entry orthonormalization as
//! [`SolverError::DependentStartVectors`] like any other degenerate start.
//! The `c64` instantiation itself is the complex-arithmetic oracle the unit
//! tests hold the real one to; [`cg_init`]/[`cg_residual`]/[`cg_step`] run
//! whichever instantiation they are handed.

use crate::hamiltonian::count_block_product;
use crate::{Coeff, HamWorkspace, Hamiltonian, PwBasis};
use ls3df_math::cholesky::FactorError;
use ls3df_math::gemm::{self, gemm_into, GemmScratch, Op};
use ls3df_math::ortho;
use ls3df_math::vec_ops::{axpy, dotc, dscal, nrm2};
use ls3df_math::{c64, eigh_fast as eigh, Matrix, Scalar};
use ls3df_obs::{counter_add, Counter};

/// Options controlling the iterative eigensolvers.
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// Maximum outer iterations (per SCF call).
    pub max_iter: usize,
    /// Residual tolerance `max_b ‖H·ψ_b − ε_b·ψ_b‖` for convergence.
    pub tol: f64,
    /// Re-impose orthonormality (Cholesky overlap) every this many steps
    /// in the all-band scheme — the paper imposes it "after a few
    /// conjugate gradient steps".
    pub ortho_every: usize,
    /// Reset conjugate-gradient memory every this many steps.
    pub cg_reset: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iter: 40,
            tol: 1e-6,
            ortho_every: 3,
            cg_reset: 10,
        }
    }
}

/// Convergence report from an eigensolve.
#[derive(Clone, Debug)]
pub struct SolveStats {
    /// Final eigenvalue estimates (ascending).
    pub eigenvalues: Vec<f64>,
    /// Final maximum residual norm.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether `residual ≤ tol` was reached.
    pub converged: bool,
}

/// Pathological eigensolver failure.
///
/// Running out of the iteration budget is *not* an error — fragment solves
/// are deliberately step-limited and report that through
/// [`SolveStats::converged`]. These variants are the cases where the block
/// itself is poisoned and continuing would propagate garbage into the
/// density: exactly what the fragment supervision layer in `ls3df-core`
/// catches and retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The starting block could not be orthonormalized — its rows are
    /// numerically linearly dependent.
    DependentStartVectors {
        /// Rendered factorization failure.
        detail: String,
    },
    /// The overlap matrix lost positive definiteness during periodic
    /// re-orthonormalization (the block collapsed mid-solve).
    OverlapNotPositiveDefinite {
        /// Outer iteration (1-based) at which the factorization failed.
        iteration: usize,
        /// Rendered factorization failure.
        detail: String,
    },
    /// A NaN/Inf residual appeared — the wavefunction block is poisoned.
    NonFiniteResidual {
        /// Outer iteration (1-based) at which it was detected.
        iteration: usize,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::DependentStartVectors { detail } => {
                write!(f, "start vectors are linearly dependent: {detail}")
            }
            SolverError::OverlapNotPositiveDefinite { iteration, detail } => write!(
                f,
                "overlap matrix not positive definite at iteration {iteration}: {detail}"
            ),
            SolverError::NonFiniteResidual { iteration } => {
                write!(f, "non-finite residual at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Teter–Payne–Allan preconditioner value for `x = ½G²/E_kin`.
#[inline]
fn tpa(x: f64) -> f64 {
    let x2 = x * x;
    let x3 = x2 * x;
    let num = 27.0 + 18.0 * x + 12.0 * x2 + 8.0 * x3;
    num / (num + 16.0 * x3 * x)
}

fn precondition<S: Coeff>(basis: &PwBasis, residual: &[S], e_kin: f64, out: &mut [S]) {
    let ek = e_kin.max(1e-6);
    for ((o, &r), &g2) in out.iter_mut().zip(residual).zip(S::g2(basis)) {
        *o = r.scale(tpa(0.5 * g2 / ek));
    }
}

/// Minimizes along `ψ' = cosθ·ψ + sinθ·d` (`d ⊥ ψ`, both normalized) and
/// applies the optimal rotation to `(ψ, Hψ)` using the precomputed `(d, Hd)`,
/// which are read only — the caller keeps `d` as its CG memory.
/// Returns the new Rayleigh quotient.
fn line_minimize<S: Scalar>(psi: &mut [S], hpsi: &mut [S], d: &[S], hd: &[S], a: f64) -> f64 {
    let c = dotc(d, hd).re();
    let w = dotc(psi, hd);
    let wabs = w.abs();
    // Absorb the phase (a sign, for real rows) so that
    // Re⟨ψ|H|d⟩ = −|w| (steepest descent direction along the circle).
    let phase = (wabs > 1e-300).then(|| -(w.conj()).scale(1.0 / wabs));
    let w_re = -wabs;
    // E(θ) = (a+c)/2 + (a−c)/2·cos2θ + w_re·sin2θ.
    let theta0 = 0.5 * (2.0 * w_re).atan2(a - c);
    let energy = |t: f64| 0.5 * (a + c) + 0.5 * (a - c) * (2.0 * t).cos() + w_re * (2.0 * t).sin();
    let (t1, t2) = (theta0, theta0 + std::f64::consts::FRAC_PI_2);
    let theta = if energy(t1) <= energy(t2) { t1 } else { t2 };
    let (s, co) = theta.sin_cos();
    // Two loops, not `phase.unwrap_or(ONE)`: a multiply by one would turn
    // a −0.0 imaginary part into +0.0.
    match phase {
        Some(u) => {
            for i in 0..psi.len() {
                psi[i] = psi[i].scale(co) + (d[i] * u).scale(s);
                hpsi[i] = hpsi[i].scale(co) + (hd[i] * u).scale(s);
            }
        }
        None => {
            for i in 0..psi.len() {
                psi[i] = psi[i].scale(co) + d[i].scale(s);
                hpsi[i] = hpsi[i].scale(co) + hd[i].scale(s);
            }
        }
    }
    energy(theta)
}

/// Preallocated scratch for the all-band CG solver: every per-iteration
/// temporary the loop needs for an `(n_bands × n_pw)` block in the row
/// representation `S`.
///
/// Holding one of these across [`solve_all_band_with`] calls (or driving
/// [`cg_residual`]/[`cg_step`] directly) keeps the steady-state inner
/// loop free of heap allocations — the property the `alloc-count` test
/// asserts. The `(n_bands × n_pw)` blocks are allocated by the first
/// [`cg_init`], so a `c64` workspace that only ever serves the `c64` solve
/// façades holds the packed real blocks and no complex ones. A workspace
/// is tied to the block shape and grid it was built for; never share one
/// between threads.
pub struct CgWorkspace<S: Coeff = c64> {
    /// `H·ψ` for the current block (kept in sync with `psi` by the steps).
    hpsi: Matrix<S>,
    /// Residual block `R_b = Hψ_b − ε_b·ψ_b`.
    resid: Matrix<S>,
    /// The search block under construction: preconditioned residuals,
    /// then the β-combined, projected, normalized directions. Swapped
    /// into `d_prev` once complete, so between steps it is scratch.
    d: Matrix<S>,
    /// The latest complete search block — what `H·d` and the line
    /// minimization read, and the next step's CG memory.
    d_prev: Matrix<S>,
    /// `H·d` for the search block.
    hd: Matrix<S>,
    /// Rotation output scratch (swapped with `psi`/`hpsi` during RR).
    rot: Matrix<S>,
    /// `(n_bands × n_bands)` product scratch: the projection overlaps
    /// `Ψ·Dᴴ` and the unsymmetrized Rayleigh–Ritz product.
    overlap: Matrix<S>,
    /// `(n_bands × n_bands)` subspace Hamiltonian.
    subspace: Matrix<S>,
    /// Per-band `⟨R|P·R⟩` of the current step.
    rkr: Vec<f64>,
    /// Per-band `⟨R|P·R⟩` of the previous step.
    rkr_prev: Vec<f64>,
    /// Current per-band Rayleigh quotients / eigenvalue estimates.
    eigenvalues: Vec<f64>,
    /// Whether `d_prev` holds a valid direction from the previous step.
    have_dir: bool,
    /// Scratch for the `H·ψ` applications; its pack scratch (`ham.gemm`)
    /// serves every block product of the solver.
    ham: HamWorkspace<S>,
    /// The packed copy of the caller's block and its workspace, built by
    /// the first `c64` [`try_solve_all_band_with`].
    packed: Option<Box<(Matrix<f64>, CgWorkspace<f64>)>>,
}

impl<S: Coeff> CgWorkspace<S> {
    /// Builds scratch for `n_bands` bands on the Hamiltonian's basis.
    pub fn new(h: &Hamiltonian<'_>, n_bands: usize) -> Self {
        let empty = || Matrix::zeros(0, 0);
        // alloc-audit: workspace construction — with the block sizing in
        // cg_init, the one-time setup that makes every later
        // cg_residual/cg_step call heap-free.
        CgWorkspace {
            hpsi: empty(),
            resid: empty(),
            d: empty(),
            d_prev: empty(),
            hd: empty(),
            rot: empty(),
            overlap: Matrix::zeros(n_bands, n_bands),
            subspace: Matrix::zeros(n_bands, n_bands),
            rkr: vec![0.0; n_bands], // alloc-audit: once per workspace
            rkr_prev: vec![0.0; n_bands],
            eigenvalues: vec![0.0; n_bands],
            have_dir: false,
            ham: h.workspace(),
            packed: None,
        }
    }

    /// Current per-band eigenvalue estimates (Rayleigh quotients).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }
}

/// Heap bytes of the `(n_bands × n_pw)` blocks one supervised packed
/// solve holds while it runs: the six real blocks [`cg_init`] sizes plus
/// the candidate block it solves in place. The `n_bands²` matrices, FFT
/// buffers and GEMM pack scratch come on top — a few MiB whatever the
/// block.
pub fn solve_workspace_bytes(n_bands: usize, n_pw: usize) -> usize {
    7 * n_bands * n_pw * size_of::<f64>()
}

/// Initializes the CG state for a (new) block: computes `H·ψ` and the
/// per-band Rayleigh quotients. Call once before a sequence of
/// [`cg_residual`]/[`cg_step`] pairs; allocation-free once the workspace
/// has seen the block shape.
pub fn cg_init<S: Coeff>(h: &Hamiltonian<'_>, psi: &Matrix<S>, ws: &mut CgWorkspace<S>) {
    let (nb, npw) = psi.shape();
    assert_eq!(nb, ws.eigenvalues.len(), "cg_init: band count mismatch");
    for block in [
        &mut ws.hpsi,
        &mut ws.resid,
        &mut ws.d,
        &mut ws.d_prev,
        &mut ws.hd,
        &mut ws.rot,
    ] {
        if block.shape() != (nb, npw) {
            // alloc-audit: first cg_init of this block shape only.
            *block = Matrix::zeros(nb, npw);
        }
    }
    h.apply_block_with(psi, &mut ws.hpsi, &mut ws.ham);
    for b in 0..nb {
        ws.eigenvalues[b] = dotc(psi.row(b), ws.hpsi.row(b)).re();
    }
    ws.have_dir = false;
}

/// Rayleigh–Ritz housekeeping: diagonalizes the subspace Hamiltonian and
/// rotates `psi`, `H·ψ`, and the CG memory into the eigenbasis
/// (`X ← Uᵀ·X` through the rotation swap buffer).
///
/// This is the once-per-outer-iteration step that owns the (small, `n_b²`)
/// eigensolve — the only part of the loop allowed to allocate.
fn rr_rotate<S: Coeff>(psi: &mut Matrix<S>, ws: &mut CgWorkspace<S>) {
    let (nb, npw) = psi.shape();
    let scratch = &mut ws.ham.gemm;
    Hamiltonian::subspace_matrix_into(psi, &ws.hpsi, &mut ws.overlap, &mut ws.subspace, scratch);
    let eig = eigh(&ws.subspace);
    ws.eigenvalues.copy_from_slice(&eig.values);
    let (u, rot) = (&eig.vectors, &mut ws.rot);
    let n_blocks = if ws.have_dir { 3 } else { 2 };
    for x in [psi, &mut ws.hpsi, &mut ws.d_prev]
        .into_iter()
        .take(n_blocks)
    {
        gemm_into(scratch, S::ONE, u, Op::Trans, x, Op::None, S::ZERO, rot);
        std::mem::swap(x, rot);
        count_block_product::<S>(nb, nb, npw);
    }
}

/// Overlap-matrix (Cholesky) orthonormalization `Ψ ← L⁻¹·Ψ` with
/// `L·Lᴴ = Ψ·Ψᴴ`. `hpsi`, when given, receives the same `L⁻¹` — by
/// linearity it stays `H·Ψ`, so no extra `H·ψ` is needed.
fn orthonormalize<S: Scalar>(
    psi: &mut Matrix<S>,
    hpsi: Option<&mut Matrix<S>>,
    scratch: &mut GemmScratch<S>,
) -> Result<(), FactorError> {
    let (nb, npw) = psi.shape();
    // The overlap and each L⁻¹ apply touch one triangle: half a block
    // product apiece.
    let products = 2 + u64::from(hpsi.is_some());
    let half_product = S::MADD_FLOPS / 2 * (nb * nb * npw) as u64;
    counter_add(Counter::GemmFlops, products * half_product);
    ortho::cholesky_orthonormalize_into(psi, hpsi, 1.0, scratch)
}

/// [`orthonormalize`] once the iteration is under way: a block that lost
/// positive definiteness is the typed mid-solve collapse.
fn reorthonormalize<S: Scalar>(
    psi: &mut Matrix<S>,
    hpsi: Option<&mut Matrix<S>>,
    scratch: &mut GemmScratch<S>,
    iteration: usize,
) -> Result<(), SolverError> {
    orthonormalize(psi, hpsi, scratch).map_err(|e| SolverError::OverlapNotPositiveDefinite {
        iteration,
        detail: e.to_string(),
    })
}

/// Computes the residual block `R_b = Hψ_b − ε_b·ψ_b` into the workspace
/// and returns the worst band residual norm. Allocation-free.
pub fn cg_residual<S: Coeff>(psi: &Matrix<S>, ws: &mut CgWorkspace<S>) -> f64 {
    let nb = psi.rows();
    let mut worst = 0.0_f64;
    for b in 0..nb {
        let eps = ws.eigenvalues[b];
        let hp = ws.hpsi.row(b).iter().zip(psi.row(b));
        for (r, (&h, &p)) in ws.resid.row_mut(b).iter_mut().zip(hp) {
            *r = h - p.scale(eps);
        }
        worst = worst.max(nrm2(ws.resid.row(b)));
    }
    worst
}

/// Advances the whole block one preconditioned CG + line-minimization
/// step, in place. Requires the residuals from [`cg_residual`]; pass
/// `reset = true` to drop the CG memory (periodic restart).
/// Allocation-free — the steady-state hot path of PEtot_F.
pub fn cg_step<S: Coeff>(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<S>,
    ws: &mut CgWorkspace<S>,
    reset: bool,
) {
    let nb = psi.rows();

    // Preconditioned steepest-descent block + CG memory.
    let combine = ws.have_dir && !reset;
    for b in 0..nb {
        let ekin = h.kinetic_expectation(psi.row(b));
        precondition(h.basis(), ws.resid.row(b), ekin, ws.d.row_mut(b));
        ws.rkr[b] = dotc(ws.resid.row(b), ws.d.row(b)).re().max(1e-300);
        if combine {
            let beta = S::from_re(ws.rkr[b] / ws.rkr_prev[b].max(1e-300));
            for (x, &p) in ws.d.row_mut(b).iter_mut().zip(ws.d_prev.row(b)) {
                *x = x.acc(beta, p);
            }
        }
    }
    ws.rkr_prev.copy_from_slice(&ws.rkr);

    // Project the search block out of the occupied subspace and normalize
    // rows. Overlaps are taken against the unmodified block first (classic
    // Gram–Schmidt): O[j][b] = Σ_G ψ_j·conj(d_b) is the conjugate of the
    // ψ_j coefficient in d_b, so D −= Oᴴ·Ψ removes it.
    let (one, zero) = (S::ONE, S::ZERO);
    let (scratch, o, d) = (&mut ws.ham.gemm, &mut ws.overlap, &mut ws.d);
    gemm_into(scratch, one, psi, Op::None, d, Op::ConjTrans, zero, o);
    gemm_into(scratch, -one, o, Op::ConjTrans, psi, Op::None, one, d);
    count_block_product::<S>(nb, 2 * nb, psi.cols());
    for b in 0..nb {
        let n = nrm2(ws.d.row(b));
        if n > 1e-300 {
            dscal(1.0 / n, ws.d.row_mut(b));
        }
    }
    // The finished block becomes the CG memory by name, not by copy; the
    // one it replaces is the next step's scratch.
    std::mem::swap(&mut ws.d, &mut ws.d_prev);
    ws.have_dir = true;

    // One H application for the whole search block, then per-band line
    // minimization.
    h.apply_block_with(&ws.d_prev, &mut ws.hd, &mut ws.ham);
    for b in 0..nb {
        let a = ws.eigenvalues[b];
        ws.eigenvalues[b] = line_minimize(
            psi.row_mut(b),
            ws.hpsi.row_mut(b),
            ws.d_prev.row(b),
            ws.hd.row(b),
            a,
        );
    }
}

/// All-band preconditioned conjugate gradient with Rayleigh–Ritz subspace
/// rotation and overlap-matrix (Cholesky) orthonormalization.
///
/// `psi` holds the starting guess `(n_bands × n_pw)` and is overwritten by
/// the converged eigenvectors (ascending eigenvalue order).
#[expect(
    clippy::expect_used,
    reason = "start blocks are full-rank and the iterate overlap stays positive definite by construction; documented invariant expect"
)]
pub fn solve_all_band(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<c64>,
    opts: &SolverOptions,
) -> SolveStats {
    try_solve_all_band(h, psi, opts).expect("all-band eigensolve failed")
}

/// Panicking façade over [`try_solve_all_band_with`] for callers with no
/// recovery path (benches, tests, one-shot tools). The supervised fragment
/// loop in `ls3df-core` uses the `try_` form instead.
#[expect(
    clippy::expect_used,
    reason = "start blocks are full-rank and the iterate overlap stays positive definite by construction; documented invariant expect"
)]
pub fn solve_all_band_with(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<c64>,
    opts: &SolverOptions,
    ws: &mut CgWorkspace,
) -> SolveStats {
    try_solve_all_band_with(h, psi, opts, ws).expect("all-band eigensolve failed")
}

/// The all-band solve on a packed real block, in place, through
/// caller-owned scratch so repeated solves reuse one set of block
/// temporaries; panics on a [`SolverError`], for callers with no recovery
/// path (the direct SCF).
#[expect(
    clippy::expect_used,
    reason = "start blocks are full-rank and the iterate overlap stays positive definite by construction; documented invariant expect"
)]
pub fn solve_all_band_packed_with(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<f64>,
    opts: &SolverOptions,
    ws: &mut CgWorkspace<f64>,
) -> SolveStats {
    all_band(h, psi, opts, ws).expect("all-band eigensolve failed")
}

/// Fallible all-band solve (see [`solve_all_band`]); allocates its own
/// workspace.
pub fn try_solve_all_band(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<c64>,
    opts: &SolverOptions,
) -> Result<SolveStats, SolverError> {
    // alloc-audit: once per solve — the CG loop itself reuses this scratch.
    let mut ws = CgWorkspace::new(h, psi.rows());
    try_solve_all_band_with(h, psi, opts, &mut ws)
}

/// [`solve_all_band`] driving caller-owned scratch, so repeated solves
/// (one per SCF iteration) reuse one set of block temporaries.
///
/// A façade over the packed solve (module docs): `psi` is packed into the
/// workspace's copy on entry, unpacked on success and left untouched on
/// error.
pub fn try_solve_all_band_with(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<c64>,
    opts: &SolverOptions,
    ws: &mut CgWorkspace,
) -> Result<SolveStats, SolverError> {
    let (nb, npw) = psi.shape();
    let (block, real_ws) = &mut **ws.packed.get_or_insert_with(|| {
        // alloc-audit: first packed solve through this workspace only.
        Box::new((Matrix::zeros(nb, npw), CgWorkspace::new(h, nb)))
    });
    assert_eq!(
        block.shape(),
        (nb, npw),
        "workspace built for another block"
    );
    pack_block(h.basis(), psi, block);
    let stats = all_band(h, block, opts, real_ws)?;
    unpack_block(h.basis(), block, psi);
    Ok(stats)
}

/// The all-band solve on a packed real block, in place, on a workspace of
/// its own — what every PEtot_F fragment solve runs.
///
/// Pathological states (dependent start vectors, an indefinite overlap,
/// NaN residuals) return a typed [`SolverError`] instead of panicking, so
/// the caller can retry from a fresh start block; `psi` is then left
/// part-way. Budgeted non-convergence is still reported through
/// [`SolveStats::converged`].
pub fn try_solve_all_band_packed(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<f64>,
    opts: &SolverOptions,
) -> Result<SolveStats, SolverError> {
    // alloc-audit: once per solve — the CG loop itself reuses this scratch.
    let mut ws = CgWorkspace::new(h, psi.rows());
    all_band(h, psi, opts, &mut ws)
}

/// Packs every row of a full-sphere block ([`PwBasis::pack`]).
fn pack_block(basis: &PwBasis, full: &Matrix<c64>, packed: &mut Matrix<f64>) {
    for b in 0..full.rows() {
        basis.pack(full.row(b), packed.row_mut(b));
    }
}

/// Unpacks every row of a packed real block ([`PwBasis::unpack`]).
fn unpack_block(basis: &PwBasis, packed: &Matrix<f64>, full: &mut Matrix<c64>) {
    for b in 0..packed.rows() {
        basis.unpack(packed.row(b), full.row_mut(b));
    }
}

/// The all-band solve in the row representation `S`.
fn all_band<S: Coeff>(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<S>,
    opts: &SolverOptions,
    ws: &mut CgWorkspace<S>,
) -> Result<SolveStats, SolverError> {
    let nb = psi.rows();
    let npw = psi.cols();
    assert!(nb >= 1 && npw == h.basis().len());
    orthonormalize(psi, None, &mut ws.ham.gemm).map_err(|e| {
        SolverError::DependentStartVectors {
            detail: e.to_string(),
        }
    })?;
    cg_init(h, psi, ws);
    let mut residual = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        // Rayleigh–Ritz rotation (housekeeping; owns the small eigensolve).
        rr_rotate(psi, ws);

        // Residuals R_b = Hψ_b − ε_b ψ_b. NaN eigenvalues must be caught
        // explicitly: `f64::max` in the residual reduction ignores NaN, so
        // a poisoned block would otherwise report residual 0 ("converged").
        residual = cg_residual(psi, ws);
        if !residual.is_finite() || ws.eigenvalues.iter().any(|e| !e.is_finite()) {
            return Err(SolverError::NonFiniteResidual {
                iteration: iterations,
            });
        }
        if residual <= opts.tol {
            break;
        }

        // The allocation-free hot path: precondition, β-combine, project,
        // normalize, one H·d application, per-band line minimization.
        cg_step(h, psi, ws, iter % opts.cg_reset == 0);
        counter_add(Counter::CgBandIterations, nb as u64);

        // Re-impose exact orthonormality every few steps via the overlap
        // matrix; L⁻¹ is applied to Hψ too (linearity) so no extra H·ψ.
        if (iter + 1) % opts.ortho_every == 0 {
            reorthonormalize(psi, Some(&mut ws.hpsi), &mut ws.ham.gemm, iterations)?;
            ws.have_dir = false; // search directions are stale after re-orthonormalization
        }
    }
    // Leave the block exactly orthonormal for downstream consumers (density
    // accumulation, invariant checks): line minimization drifts the rows at
    // the residual level between the periodic re-orthonormalizations above.
    // The eigenvalues stay accurate to O(residual²). A block that collapsed
    // on the last step fails here and must not reach Gen_dens as `Ok`.
    reorthonormalize(psi, None, &mut ws.ham.gemm, iterations)?;
    Ok(SolveStats {
        // alloc-audit: result reporting, once per solve.
        eigenvalues: ws.eigenvalues.clone(),
        residual,
        iterations,
        converged: residual <= opts.tol,
    })
}

/// Band-by-band preconditioned conjugate gradient with Gram–Schmidt
/// orthogonalization after every step (the pre-optimization PEtot scheme);
/// a façade over [`try_solve_band_by_band_packed`] with the error contract
/// of [`try_solve_all_band_with`].
pub fn try_solve_band_by_band(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<c64>,
    opts: &SolverOptions,
) -> Result<SolveStats, SolverError> {
    let mut block = h.basis().pack_block(psi);
    let stats = band_by_band(h, &mut block, opts)?;
    unpack_block(h.basis(), &block, psi);
    Ok(stats)
}

/// The band-by-band solve on a packed real block, in place (the error
/// contract of [`try_solve_all_band_packed`]).
pub fn try_solve_band_by_band_packed(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<f64>,
    opts: &SolverOptions,
) -> Result<SolveStats, SolverError> {
    band_by_band(h, psi, opts)
}

/// The band-by-band solve in the row representation `S`.
fn band_by_band<S: Coeff>(
    h: &Hamiltonian<'_>,
    psi: &mut Matrix<S>,
    opts: &SolverOptions,
) -> Result<SolveStats, SolverError> {
    let nb = psi.rows();
    let npw = psi.cols();
    assert!(npw == h.basis().len());
    ortho::gram_schmidt(psi, 1.0).map_err(|e| SolverError::DependentStartVectors {
        detail: e.to_string(),
    })?;
    // Per-band working vectors, allocated once and reused across every
    // band and CG step (the per-step loop below is heap-free).
    // alloc-audit: once per solve, not per step.
    let mut eigenvalues = vec![0.0_f64; nb];
    let mut v = vec![S::ZERO; npw];
    let mut hv = vec![S::ZERO; npw];
    let mut r = vec![S::ZERO; npw]; // alloc-audit: once per solve
    let mut pr = vec![S::ZERO; npw];
    let mut d = vec![S::ZERO; npw];
    let mut d_prev = vec![S::ZERO; npw]; // alloc-audit: once per solve
    let mut hd = vec![S::ZERO; npw];
    let mut ham_ws = h.workspace();
    let mut worst_residual = 0.0_f64;
    let mut iterations = 0;

    for b in 0..nb {
        // Work on band b, keeping it orthogonal to converged bands 0..b.
        v.copy_from_slice(psi.row(b));
        h.apply_vec_with(&v, &mut hv, &mut ham_ws);
        let mut eps = dotc(&v, &hv).re();
        let mut have_prev = false;
        let mut rkr_prev = 0.0_f64;
        let mut res = f64::INFINITY;
        for step in 0..opts.max_iter {
            iterations = iterations.max(step + 1);
            // Residual.
            r.copy_from_slice(&hv);
            axpy(S::from_re(-eps), &v, &mut r);
            res = nrm2(&r);
            if !res.is_finite() {
                return Err(SolverError::NonFiniteResidual {
                    iteration: step + 1,
                });
            }
            if res <= opts.tol {
                break;
            }
            // Precondition + project against bands ≤ b (BLAS-1/2 work).
            precondition(h.basis(), &r, h.kinetic_expectation(&v), &mut pr);
            for j in 0..b {
                let o = dotc(psi.row(j), &pr);
                axpy(-o, psi.row(j), &mut pr);
            }
            let o = dotc(&v, &pr);
            axpy(-o, &v, &mut pr);
            let rkr = dotc(&r, &pr).re().max(1e-300);
            d.copy_from_slice(&pr);
            if have_prev && step % opts.cg_reset != 0 {
                let beta = rkr / rkr_prev.max(1e-300);
                axpy(S::from_re(beta), &d_prev, &mut d);
                // Re-project the combined direction.
                for j in 0..b {
                    let o = dotc(psi.row(j), &d);
                    axpy(-o, psi.row(j), &mut d);
                }
                let o = dotc(&v, &d);
                axpy(-o, &v, &mut d);
            }
            rkr_prev = rkr;
            let n = nrm2(&d);
            if n < 1e-300 {
                break;
            }
            dscal(1.0 / n, &mut d);
            d_prev.copy_from_slice(&d);
            have_prev = true;
            counter_add(Counter::CgBandIterations, 1);
            h.apply_vec_with(&d, &mut hd, &mut ham_ws);
            eps = line_minimize(&mut v, &mut hv, &d, &hd, eps);
        }
        worst_residual = worst_residual.max(res);
        eigenvalues[b] = eps;
        psi.row_mut(b).copy_from_slice(&v);
        // Gram–Schmidt the *following* bands against this one so their
        // guesses stay independent (original PEtot behavior).
        for j in (b + 1)..nb {
            let (rj, rb) = psi.rows_mut2(j, b);
            let o = dotc(rb, rj);
            axpy(-o, rb, rj);
            let n = nrm2(rj);
            if n > 1e-300 {
                dscal(1.0 / n, rj);
            }
        }
    }

    // Clean up the per-band drift before the final subspace rotation so the
    // rotation is applied to an exactly orthonormal block (and stays
    // orthonormality-preserving). A block that collapsed is an error, not
    // an `Ok` handed to Gen_dens.
    reorthonormalize(psi, None, &mut ham_ws.gemm, iterations)?;
    // Final subspace rotation to disentangle near-degenerate bands.
    // alloc-audit: once per solve (post-loop reporting, not the hot path).
    let mut hpsi = h.apply_block(psi);
    let m = Hamiltonian::subspace_matrix(psi, &hpsi);
    let eig = eigh(&m);
    // alloc-audit: once per solve.
    let mut rotated = Matrix::zeros(nb, npw);
    gemm::gemm(
        S::ONE,
        &eig.vectors,
        Op::Trans,
        psi,
        Op::None,
        S::ZERO,
        &mut rotated,
    );
    *psi = rotated;
    hpsi = h.apply_block(psi);
    let mut worst = 0.0_f64;
    for b in 0..nb {
        r.copy_from_slice(hpsi.row(b));
        axpy(S::from_re(-eig.values[b]), psi.row(b), &mut r);
        worst = worst.max(nrm2(&r));
    }
    Ok(SolveStats {
        eigenvalues: eig.values,
        residual: worst,
        iterations,
        converged: worst <= opts.tol * 10.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::NonlocalPotential;
    use ls3df_grid::{Grid3, RealField};
    use ls3df_math::vec_ops::scal;

    fn rand_block(nb: usize, npw: usize, seed: u64) -> Matrix<c64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Matrix::from_fn(nb, npw, |_, _| c64::new(next(), next()))
    }

    #[test]
    fn free_electron_spectrum_recovered() {
        let grid = Grid3::cubic(10, 9.0);
        let basis = PwBasis::new(grid.clone(), 1.2);
        let v = RealField::zeros(grid);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        // Exact spectrum = sorted |G|²/2.
        let mut exact: Vec<f64> = basis.g2().iter().map(|&g2| 0.5 * g2).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let nb = 6;
        let mut psi = rand_block(nb, basis.len(), 1);
        let stats = solve_all_band(
            &h,
            &mut psi,
            &SolverOptions {
                max_iter: 120,
                tol: 1e-8,
                ..Default::default()
            },
        );
        assert!(stats.converged, "residual = {}", stats.residual);
        for b in 0..nb {
            assert!(
                (stats.eigenvalues[b] - exact[b]).abs() < 1e-6,
                "band {b}: {} vs exact {}",
                stats.eigenvalues[b],
                exact[b]
            );
        }
    }

    #[test]
    fn both_solvers_agree_on_nontrivial_potential() {
        let grid = Grid3::cubic(10, 8.0);
        let basis = PwBasis::new(grid.clone(), 1.4);
        let v = RealField::from_fn(grid, |r| {
            let d2 = (r[0] - 4.0).powi(2) + (r[1] - 4.0).powi(2) + (r[2] - 4.0).powi(2);
            -0.8 * (-d2 / 6.0).exp()
        });
        let nl = NonlocalPotential::new(
            &basis,
            &[[4.0, 4.0, 4.0]],
            |_, q| (-q * q / 2.0).exp(),
            &[0.8],
        );
        let h = Hamiltonian::new(&basis, v, &nl);

        let nb = 4;
        let opts = SolverOptions {
            max_iter: 200,
            tol: 1e-7,
            ..Default::default()
        };
        let mut psi_a = rand_block(nb, basis.len(), 2);
        let a = solve_all_band(&h, &mut psi_a, &opts);
        let mut psi_b = rand_block(nb, basis.len(), 99);
        let b = try_solve_band_by_band(&h, &mut psi_b, &opts).unwrap();
        assert!(a.converged, "all-band residual {}", a.residual);
        for band in 0..nb {
            assert!(
                (a.eigenvalues[band] - b.eigenvalues[band]).abs() < 1e-4,
                "band {band}: all-band {} vs band-by-band {}",
                a.eigenvalues[band],
                b.eigenvalues[band]
            );
        }
    }

    #[test]
    fn gaussian_well_bound_state_below_zero() {
        // A single attractive Gaussian well must produce a bound ground
        // state with ε < 0 and a localized wavefunction.
        let l = 12.0;
        let grid = Grid3::cubic(14, l);
        let basis = PwBasis::new(grid.clone(), 1.3);
        let depth = 1.5;
        let v = RealField::from_fn(grid, |r| {
            let d2 = (r[0] - 6.0).powi(2) + (r[1] - 6.0).powi(2) + (r[2] - 6.0).powi(2);
            -depth * (-d2 / 4.0).exp()
        });
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let mut psi = rand_block(3, basis.len(), 7);
        let stats = solve_all_band(
            &h,
            &mut psi,
            &SolverOptions {
                max_iter: 150,
                tol: 1e-7,
                ..Default::default()
            },
        );
        assert!(stats.converged);
        assert!(
            stats.eigenvalues[0] < -0.3,
            "ground state {} not bound",
            stats.eigenvalues[0]
        );
        assert!(
            stats.eigenvalues[0] > -depth,
            "cannot be deeper than the well"
        );
        // Orthonormality preserved.
        assert!(ortho::orthonormality_residual(&psi, 1.0) < 1e-8);
    }

    #[test]
    fn dependent_start_vectors_are_typed_errors() {
        let grid = Grid3::cubic(8, 7.0);
        let basis = PwBasis::new(grid.clone(), 1.0);
        let v = RealField::zeros(grid);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let mut psi = rand_block(3, basis.len(), 11);
        let dup = psi.row(0).to_vec();
        psi.row_mut(1).copy_from_slice(&dup);
        let opts = SolverOptions::default();
        match try_solve_all_band(&h, &mut psi.clone(), &opts) {
            Err(SolverError::DependentStartVectors { .. }) => {}
            other => panic!("expected DependentStartVectors, got {other:?}"),
        }
        match try_solve_band_by_band(&h, &mut psi, &opts) {
            Err(SolverError::DependentStartVectors { .. }) => {}
            other => panic!("expected DependentStartVectors, got {other:?}"),
        }
    }

    /// A fragment-like Hamiltonian: a 14³ box at the benchmark cutoff, a
    /// smooth well and eight Kleinman–Bylander projectors.
    fn fragment_like(basis: &PwBasis) -> (RealField, NonlocalPotential) {
        let edge = basis.grid().lengths[0];
        let v = RealField::from_fn(basis.grid().clone(), |r| {
            let d2: f64 = r.iter().map(|x| (x - 0.5 * edge).powi(2)).sum();
            -0.9 * (-d2 / 9.0).exp() + 0.05 * (r[0] * 0.6).cos()
        });
        let sites: Vec<[f64; 3]> = (0..8)
            .map(|a| {
                let t = a as f64;
                [
                    1.0 + 1.2 * t,
                    edge - 1.5 - 1.1 * t,
                    2.0 + 0.8 * ((a * 3) % 8) as f64,
                ]
            })
            .collect();
        let e_kb: Vec<f64> = (0..8).map(|a| 0.65 - 0.15 * a as f64).collect();
        let nl = NonlocalPotential::new(basis, &sites, |_, q| (-0.6 * q * q).exp(), &e_kb);
        assert_eq!(nl.len(), 8);
        (v, nl)
    }

    #[test]
    fn real_and_complex_instantiations_agree_on_a_fragment_like_hamiltonian() {
        // Both instantiations of both schemes called directly: the complex
        // one on the unpacked start block, the real one on the packed
        // block, the same 40 steps each (a fragment solve is step-limited,
        // not converged). The real trajectory must shadow the complex one:
        // same eigenvalues, same density.
        let basis = PwBasis::new(Grid3::cubic(14, 11.375), 1.5);
        let (v, nl) = fragment_like(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let nb = 6;
        let opts = SolverOptions {
            max_iter: 40,
            tol: 1e-12,
            ..Default::default()
        };
        let mut start = Matrix::zeros(nb, basis.len());
        pack_block(&basis, &rand_block(nb, basis.len(), 41), &mut start);
        let mut start_full = Matrix::zeros(nb, basis.len());
        unpack_block(&basis, &start, &mut start_full);

        for scheme in ["all-band", "band-by-band"] {
            let (mut packed, mut full) = (start.clone(), start_full.clone());
            let (real, complex) = if scheme == "all-band" {
                (
                    all_band(&h, &mut packed, &opts, &mut CgWorkspace::new(&h, nb)).unwrap(),
                    all_band(&h, &mut full, &opts, &mut CgWorkspace::new(&h, nb)).unwrap(),
                )
            } else {
                (
                    band_by_band::<f64>(&h, &mut packed, &opts).unwrap(),
                    band_by_band::<c64>(&h, &mut full, &opts).unwrap(),
                )
            };
            assert_eq!(real.iterations, 40, "{scheme}");
            assert_eq!(complex.iterations, 40, "{scheme}");
            assert!(real.residual < 0.1, "{scheme}: {real:?}");
            for b in 0..nb {
                let (r, c) = (real.eigenvalues[b], complex.eigenvalues[b]);
                assert!(
                    (r - c).abs() <= 1e-9,
                    "{scheme}, band {b}: real {r} vs complex {c}"
                );
            }
            // Fully occupied, so the density is a property of the subspace.
            let occupations = vec![2.0; nb];
            let mut unpacked = Matrix::zeros(nb, basis.len());
            unpack_block(&basis, &packed, &mut unpacked);
            assert!(ortho::orthonormality_residual(&unpacked, 1.0) < 1e-12);
            let rho_r = crate::density::compute_density(&basis, &unpacked, &occupations);
            let rho_c = crate::density::compute_density(&basis, &full, &occupations);
            let per_electron = rho_r.diff(&rho_c).integrate_abs() / (2.0 * nb as f64);
            assert!(
                per_electron <= 1e-8,
                "{scheme}: density differs by {per_electron:e} per e⁻"
            );
        }
    }

    #[test]
    fn collapsed_block_at_solver_exit_is_a_typed_error() {
        // The exit re-orthonormalization used to swallow its failure: a
        // block that lost positive definiteness on the last step went out
        // `Ok`. Both instantiations must map it to the typed collapse.
        fn collapsed<S: Scalar>(mut psi: Matrix<S>) {
            let dup = psi.row(0).to_vec();
            psi.row_mut(2).copy_from_slice(&dup);
            match reorthonormalize(&mut psi, None, &mut GemmScratch::new(), 7) {
                Err(SolverError::OverlapNotPositiveDefinite { iteration: 7, .. }) => {}
                other => panic!("expected OverlapNotPositiveDefinite, got {other:?}"),
            }
        }
        let complex = rand_block(4, 60, 23);
        collapsed(Matrix::from_fn(4, 60, |i, j| complex[(i, j)].re));
        collapsed(complex);
        // The success path leaves an orthonormal block.
        let mut psi = rand_block(4, 60, 29);
        reorthonormalize(&mut psi, None, &mut GemmScratch::new(), 1).unwrap();
        assert!(ortho::orthonormality_residual(&psi, 1.0) < 1e-12);
    }

    #[test]
    fn phase_rotated_start_block_packs_or_is_dependent() {
        // e^{iφ}·(real orbitals): the packed block is cos φ times the real
        // one, so any φ short of π/2 solves to the same spectrum; at π/2
        // the real part vanishes and the packed start block is degenerate.
        let basis = PwBasis::new(Grid3::cubic(10, 8.0), 1.4);
        let v = RealField::from_fn(basis.grid().clone(), |r| 0.3 * (r[0] * 0.7).cos());
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let nb = 3;
        let mut packed = Matrix::zeros(nb, basis.len());
        pack_block(&basis, &rand_block(nb, basis.len(), 31), &mut packed);
        let mut real_orbitals = Matrix::zeros(nb, basis.len());
        unpack_block(&basis, &packed, &mut real_orbitals);
        let rotated = |phi: f64| {
            let mut m = real_orbitals.clone();
            scal(c64::cis(phi), m.as_mut_slice());
            m
        };
        let opts = SolverOptions {
            max_iter: 200,
            tol: 1e-8,
            ..Default::default()
        };
        let straight = try_solve_all_band(&h, &mut rotated(0.0), &opts).unwrap();
        let tilted = try_solve_all_band(&h, &mut rotated(1.0), &opts).unwrap();
        for b in 0..nb {
            assert!((straight.eigenvalues[b] - tilted.eigenvalues[b]).abs() < 1e-7);
        }
        // Exactly imaginary rows (a rotated block's real part is only
        // rounding-small, not zero).
        let mut imaginary = real_orbitals.clone();
        scal(c64::I, imaginary.as_mut_slice());
        let before = imaginary.clone();
        for solve in [try_solve_all_band, try_solve_band_by_band] {
            match solve(&h, &mut imaginary, &opts) {
                Err(SolverError::DependentStartVectors { .. }) => {}
                other => panic!("expected DependentStartVectors, got {other:?}"),
            }
            assert!(
                imaginary == before,
                "the caller's block was modified on error"
            );
        }
    }

    #[test]
    fn nan_potential_reports_non_finite_residual() {
        let grid = Grid3::cubic(8, 7.0);
        let basis = PwBasis::new(grid.clone(), 1.0);
        let v = RealField::from_fn(grid, |_| f64::NAN);
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let opts = SolverOptions::default();
        let mut psi = rand_block(3, basis.len(), 13);
        match try_solve_all_band(&h, &mut psi, &opts) {
            Err(SolverError::NonFiniteResidual { iteration }) => assert!(iteration >= 1),
            other => panic!("expected NonFiniteResidual, got {other:?}"),
        }
        let mut psi2 = rand_block(3, basis.len(), 17);
        match try_solve_band_by_band(&h, &mut psi2, &opts) {
            Err(SolverError::NonFiniteResidual { .. }) => {}
            other => panic!("expected NonFiniteResidual, got {other:?}"),
        }
    }

    #[test]
    fn eigenvalues_ascend_and_residuals_small() {
        let grid = Grid3::cubic(8, 7.0);
        let basis = PwBasis::new(grid.clone(), 1.0);
        let v = RealField::from_fn(grid, |r| 0.3 * (r[0] - 3.5).signum());
        let nl = NonlocalPotential::none(&basis);
        let h = Hamiltonian::new(&basis, v, &nl);
        let mut psi = rand_block(5, basis.len(), 21);
        let stats = solve_all_band(
            &h,
            &mut psi,
            &SolverOptions {
                max_iter: 150,
                tol: 1e-6,
                ..Default::default()
            },
        );
        for w in stats.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        let hpsi = h.apply_block(&psi);
        for b in 0..5 {
            let mut r = hpsi.row(b).to_vec();
            axpy(c64::real(-stats.eigenvalues[b]), psi.row(b), &mut r);
            assert!(nrm2(&r) < 1e-4, "band {b} residual {}", nrm2(&r));
        }
    }
}
