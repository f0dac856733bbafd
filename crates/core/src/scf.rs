//! The LS3DF self-consistent loop: Gen_VF → PEtot_F → Gen_dens → GENPOT
//! (paper Fig. 2), with potential mixing between outer iterations.
//!
//! The run is the paper's §III two-level hierarchy: the communicator's
//! `M` ranks are the processor groups, each solving the fragments
//! `crate::groups::plan_groups` assigned to it — fanned out over the
//! rank's thread pool, the `Np` cores of a group — and rank 0 doubles as
//! the thin global layer that patches ρ and shares the GENPOT potential.
//! Every rank runs the same stage sequence ([`Ls3df::try_scf_with`]); a
//! single-process run is its `M = 1` world, not a separate code path.
//!
//! Each fragment keeps its wavefunctions between outer iterations (warm
//! start), as Γ-point packed real rows (`ls3df_pw::PwBasis::pack`): the
//! representation its solves, Gen_dens, the energy and snapshots all read
//! directly. Per-step wall-clock timings are recorded so the machine-model
//! calibration in `ls3df-hpc` can use measured constants.

use crate::check;
use crate::ckpt;
use crate::classes::{self, ClassKey};
use crate::distrib::{self, PetotReport};
use crate::fragment::{Fragment, FragmentError, FragmentGrid};
use crate::groups::{plan_class_groups, GroupPlan};
use crate::observer::{ScfObserver, ScfStage, SilentObserver};
use crate::passivate::{boundary_wall, fragment_atoms, Passivation};
use crate::supervise::{
    panic_detail, FragmentFault, InjectedFault, QuarantineRecord, RetryAction, ATTEMPT_LADDER,
};
use ls3df_atoms::{topology_cutoff, Structure};
use ls3df_ckpt::{read_bytes, write_rotated, CheckpointConfig, CkptError, Fingerprint, Snapshot};
use ls3df_dist::{CommError, Communicator};
use ls3df_grid::{Grid3, RealField};
use ls3df_math::Matrix;
use ls3df_obs::{counter_add, span, Counter, MemoryReport, Stopwatch};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::{
    density, effective_potential_with, initial_density, ionic_potential, solver, Hamiltonian,
    HartreeSolver, Mixer, MixerState, NonlocalPotential, PwAtom, PwBasis, SolverOptions,
};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Options for an LS3DF run.
#[derive(Clone, Debug)]
pub struct Ls3dfOptions {
    /// Planewave cutoff (Hartree), shared by fragments and GENPOT.
    pub ecut: f64,
    /// Grid points per piece per dimension.
    pub piece_pts: [usize; 3],
    /// Buffer width around each fragment region (grid points).
    pub buffer_pts: [usize; 3],
    /// Surface passivation scheme.
    pub passivation: Passivation,
    /// Confining-wall height (Hartree) of the ΔV_F boundary potential.
    pub wall_height: f64,
    /// Extra empty bands per fragment.
    pub n_extra_bands: usize,
    /// Eigensolver steps per fragment per outer iteration.
    pub cg_steps: usize,
    /// Eigensolver steps on the *first* outer iteration (burn-in): the
    /// fragment wavefunctions start from random vectors, and patching
    /// unconverged fragment densities destabilizes the outer loop for
    /// many-band fragments.
    pub initial_cg_steps: usize,
    /// Per-fragment residual target: each outer iteration runs the
    /// eigensolver until this residual (or the step cap). Patching
    /// fragments with wildly different convergence levels destabilizes
    /// the outer loop; a tolerance equalizes them.
    pub fragment_tol: f64,
    /// Potential mixing scheme for the outer loop.
    pub mixer: Mixer,
    /// Maximum outer (SCF) iterations.
    pub max_scf: usize,
    /// Convergence threshold on `∫|V_out − V_in| d³r` (paper Fig. 6).
    pub tol: f64,
    /// Pseudopotential table (defaults to the ZnTeO model database).
    pub pseudo: PseudoTable,
}

impl Default for Ls3dfOptions {
    fn default() -> Self {
        Ls3dfOptions {
            ecut: 2.0,
            piece_pts: [12, 12, 12],
            buffer_pts: [4, 4, 4],
            passivation: Passivation::PseudoH,
            wall_height: 1.5,
            n_extra_bands: 4,
            cg_steps: 5,
            initial_cg_steps: 30,
            fragment_tol: 5e-2,
            mixer: Mixer::Kerker {
                alpha: 0.7,
                q0: 1.0,
            },
            max_scf: 40,
            tol: 1e-3,
            pseudo: PseudoTable::default(),
        }
    }
}

impl Ls3dfOptions {
    /// Single-machine parameters: reduced cutoff and grids sized so that
    /// a 2×2×2-cell ZnTeO run completes in minutes per outer iteration on
    /// one core.
    pub fn laptop() -> Self {
        Ls3dfOptions {
            ecut: 2.0,
            piece_pts: [8, 8, 8],
            buffer_pts: [3, 3, 3],
            n_extra_bands: 2,
            cg_steps: 6,
            mixer: Mixer::Kerker {
                alpha: 0.5,
                q0: 0.8,
            },
            ..Default::default()
        }
    }
}

/// Wall-clock breakdown of one outer iteration (paper §IV reports exactly
/// these four numbers).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// Gen_VF: global potential → fragment potentials (seconds).
    pub gen_vf: f64,
    /// PEtot_F: all fragment eigensolves (seconds).
    pub petot_f: f64,
    /// Gen_dens: fragment densities → global density (seconds).
    pub gen_dens: f64,
    /// GENPOT: global Poisson + XC + mixing (seconds).
    pub genpot: f64,
}

/// One outer-iteration record.
#[derive(Clone, Copy, Debug)]
pub struct Ls3dfStep {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// `∫|V_out − V_in| d³r` (Hartree·Bohr³) — the Fig. 6 metric.
    pub dv_integral: f64,
    /// Worst fragment eigensolver residual this iteration.
    pub worst_residual: f64,
    /// Gen_dens' patched charge over the electron count, `q/N_e` with
    /// `q = ∫ρ_patched` *before* the renormalization `ρ ← ρ·N_e/q`: how
    /// far the patch is from conserving charge on its own (1 when exact).
    pub charge_ratio: f64,
    /// The worst fragment's charge retention, [`Patch::retention_min`]:
    /// the minimum `q_region / z_region` (NaN if no region holds an atom).
    pub retention_min: f64,
    /// Timing breakdown.
    pub timings: StepTimings,
}

/// How hard [`Ls3df::respond`] works the fragment eigenproblems. The
/// default, zero rounds, solves nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Effort {
    /// Eigensolver steps per fragment per PEtot_F round.
    pub cg_steps: usize,
    /// PEtot_F rounds at most, stopping once the worst residual is below
    /// `Ls3dfOptions::fragment_tol`; `0` patches the current ψ unsolved.
    pub rounds: usize,
}

/// One fragment's charge in a [`Patch`].
#[derive(Clone, Copy, Debug)]
pub struct RegionCharge {
    /// `∫_region ρ_F`: the fragment's charge inside its patched region.
    pub q_region: f64,
    /// Valence charge of the region's own atoms (passivants excluded).
    pub z_region: f64,
    /// The fragment's electron count `n_e(F)` (passivants included).
    pub n_e: f64,
}

impl RegionCharge {
    /// Charge retention `r_F = q_region / z_region` (1: all of it kept).
    pub fn retention(&self) -> f64 {
        self.q_region / self.z_region
    }
}

/// What [`Ls3df::respond`] returns: the patched density at the current
/// input potential, before the renormalization to the electron count.
pub struct Patch {
    /// `Σ_F α_F ρ_F|region`, not renormalized.
    pub rho: RealField,
    /// `∫ρ` of the patch (equal to `Σ_F α_F q_region`).
    pub q: f64,
    /// Worst residual after the last round (quarantined excluded).
    pub worst_residual: f64,
    /// The last round's failed solve attempts, fragment order.
    pub faults: Vec<FragmentFault>,
    /// Fragments whose whole retry ladder failed in the last round.
    pub quarantined: Vec<QuarantineRecord>,
    /// Gen_VF, PEtot_F and Gen_dens seconds (`genpot` is 0).
    pub timings: StepTimings,
    /// PEtot_F seconds per processor group (index = group rank).
    pub group_petot_seconds: Vec<f64>,
    /// Per-fragment charges, in fragment order.
    pub fragments: Vec<RegionCharge>,
}

impl Patch {
    /// The minimum [`RegionCharge::retention`] over the fragments whose
    /// region holds an atom (`z_region > 0`); NaN if none does.
    pub fn retention_min(&self) -> f64 {
        self.fragments
            .iter()
            .filter(|f| f.z_region > 0.0)
            .map(RegionCharge::retention)
            .fold(f64::NAN, f64::min)
    }
}

/// Pending injected failures for one fragment (validation hook: consumed
/// one per solve attempt by the supervision layer).
#[derive(Clone, Copy, Debug, Default)]
struct InjectedCounters {
    panics: usize,
    solver_errors: usize,
}

/// Per-fragment solver state (persists across outer iterations).
pub(crate) struct FragmentState {
    fragment: Fragment,
    /// Shared by every fragment with this box shape.
    basis: Arc<PwBasis>,
    nonlocal: NonlocalPotential,
    /// Fixed ΔV_F: confining wall + passivant ionic potentials.
    delta_v: RealField,
    /// The fragment's one wavefunction block, as packed real rows: the
    /// last *committed* solve (or the start guess). Solves work on a
    /// transient candidate and replace this only on success
    /// ([`supervised_solve`]).
    psi: Matrix<f64>,
    occupations: Vec<f64>,
    /// Valence charge of the region's own atoms ([`RegionCharge::z_region`]).
    z_region: f64,
    injected: InjectedCounters,
    /// True while the fragment carries stale (previous-iteration)
    /// wavefunctions because its last supervised solve exhausted the
    /// retry ladder;
    /// cleared by the next successful solve. Gen_dens consults this: a
    /// stale fragment density legitimately breaks the patching-
    /// cancellation charge diagnostic, so the check is suspended (the
    /// post-check renormalization still pins the exact electron count).
    quarantined: bool,
}

impl FragmentState {
    pub(crate) fn basis(&self) -> &PwBasis {
        &self.basis
    }
    pub(crate) fn nonlocal(&self) -> &NonlocalPotential {
        &self.nonlocal
    }
    pub(crate) fn psi(&self) -> &Matrix<f64> {
        &self.psi
    }
    pub(crate) fn occupations(&self) -> &[f64] {
        &self.occupations
    }
    pub(crate) fn fragment(&self) -> &Fragment {
        &self.fragment
    }
}

/// The assembled LS3DF calculation.
pub struct Ls3df {
    /// Fragment decomposition.
    pub fg: FragmentGrid,
    /// Global grid.
    pub global_grid: Grid3,
    global_basis: PwBasis,
    v_ion_global: RealField,
    fragments: Vec<FragmentState>,
    n_electrons: f64,
    opts: Ls3dfOptions,
    /// Current global input potential.
    v_in: RealField,
    /// Latest patched density.
    rho: RealField,
    /// Ion–ion Ewald energy of the real structure (fixed geometry).
    ewald: f64,
    /// Cached GENPOT Poisson solver (FFT plan + reciprocal kernel), built
    /// once per geometry rather than once per outer iteration.
    hartree: HartreeSolver,
    /// FNV-1a fingerprint of the physical options (snapshot resume guard).
    fingerprint: u64,
    /// Checkpoint cadence + destination, if any.
    ckpt: Option<CheckpointConfig>,
    /// Restored-snapshot state the next `scf_with` call continues from.
    resume: Option<ScfRun>,
    /// Processor-group transport (the one-rank world by default).
    comm: Arc<dyn Communicator>,
    /// Fragment→group assignment for `comm.size()` groups.
    plan: GroupPlan,
    /// `rep_of[i]`: the representative of fragment `i`'s translation
    /// class ([`crate::classes`]), `i` itself for a representative.
    rep_of: Vec<usize>,
}

/// Result of an LS3DF SCF run.
pub struct Ls3dfResult {
    /// Outer-iteration history.
    pub history: Vec<Ls3dfStep>,
    /// Whether the ΔV tolerance was reached.
    pub converged: bool,
    /// Final patched density.
    pub rho: RealField,
    /// Final self-consistent global potential.
    pub v_eff: RealField,
    /// Fragments whose whole retry ladder failed in some iteration (their
    /// previous-iteration density was reused; empty on a healthy run).
    /// In a multi-group run only the global rank (0) holds the list.
    pub quarantined: Vec<QuarantineRecord>,
    /// PEtot_F wall seconds accumulated per processor group over the
    /// whole run (index = group rank; one entry for a single-process
    /// run) — the per-group load report. Only the global rank (0) fills
    /// it; a worker's entries stay 0.
    pub group_petot_seconds: Vec<f64>,
}

impl Ls3dfResult {
    /// One number for the physically meaningful outputs of a run: FNV-1a
    /// over the raw bit patterns of the final density, then each step's
    /// `dv_integral` and `worst_residual`. Any single-bit divergence in
    /// the answer or the convergence trajectory changes it, so two runs
    /// (other thread counts, group counts, kernel tiers, processes) are
    /// bit-identical exactly when their digests agree.
    pub fn digest(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for &x in self.rho.as_slice() {
            fp.push_f64(x);
        }
        for step in &self.history {
            fp.push_f64(step.dv_integral).push_f64(step.worst_residual);
        }
        fp.finish()
    }
}

/// Why an [`Ls3dfBuilder`] refused to assemble a calculation.
///
/// Every variant is a geometry/input problem detectable before any heavy
/// work starts; [`Ls3dfBuilder::build`] returns these instead of
/// panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ls3dfError {
    /// [`Ls3dfBuilder::fragments`] was never called: the piece counts
    /// have no meaningful default (they are the problem size).
    FragmentsNotSet,
    /// The piece decomposition is invalid (too few pieces or an
    /// indivisible grid — see [`FragmentError`]).
    Fragmentation(FragmentError),
    /// `piece_pts` is zero along `axis`: the global grid would be empty.
    EmptyPiece {
        /// Offending dimension (0 = x, 1 = y, 2 = z).
        axis: usize,
    },
    /// The initial potential's grid does not match the global grid
    /// implied by `m × piece_pts`.
    PotentialGridMismatch {
        /// Global grid dimensions the decomposition defines.
        expected: [usize; 3],
        /// Dimensions of the supplied potential's grid.
        got: [usize; 3],
    },
    /// [`Ls3dfBuilder::resume_from`] could not restore the snapshot
    /// (corrupt file, wrong physics fingerprint, I/O failure…).
    Resume(CkptError),
    /// The processor-group communicator failed (worker process down,
    /// bounded receive timed out, malformed traffic, bootstrap failure).
    /// The error names the rank involved. [`Ls3df::scf`] treats this as
    /// fatal (the `MPI_ERRORS_ARE_FATAL` analogue); use
    /// [`Ls3df::try_scf`] to handle it.
    Comm(CommError),
}

impl std::fmt::Display for Ls3dfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ls3dfError::FragmentsNotSet => {
                write!(f, "Ls3dfBuilder: fragments([m1, m2, m3]) was never set")
            }
            Ls3dfError::Fragmentation(e) => write!(f, "Ls3dfBuilder: {e}"),
            Ls3dfError::EmptyPiece { axis } => write!(
                f,
                "Ls3dfBuilder: options.piece_pts is 0 along axis {axis} — \
                 the global grid would be empty"
            ),
            Ls3dfError::PotentialGridMismatch { expected, got } => write!(
                f,
                "Ls3dfBuilder: initial potential grid {got:?} does not match \
                 the global grid {expected:?} implied by fragments × piece_pts"
            ),
            Ls3dfError::Resume(e) => write!(f, "Ls3dfBuilder: resume failed: {e}"),
            Ls3dfError::Comm(e) => write!(f, "Ls3df: {e}"),
        }
    }
}

impl std::error::Error for Ls3dfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Ls3dfError::Resume(e) => Some(e),
            Ls3dfError::Fragmentation(e) => Some(e),
            Ls3dfError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for Ls3dfError {
    fn from(e: CkptError) -> Self {
        Ls3dfError::Resume(e)
    }
}

impl From<FragmentError> for Ls3dfError {
    fn from(e: FragmentError) -> Self {
        Ls3dfError::Fragmentation(e)
    }
}

impl From<CommError> for Ls3dfError {
    fn from(e: CommError) -> Self {
        Ls3dfError::Comm(e)
    }
}

/// Fluent constructor for [`Ls3df`].
///
/// ```ignore
/// let calc = Ls3df::builder(&structure)
///     .fragments([2, 2, 2])
///     .options(Ls3dfOptions::laptop())
///     .build()?;
/// ```
///
/// [`build`](Ls3dfBuilder::build) reports bad geometry as a typed
/// [`Ls3dfError`] (never a panic), and an initial potential can be
/// supplied up front
/// ([`initial_potential`](Ls3dfBuilder::initial_potential)) rather than
/// patched in afterwards with a mutable setter.
pub struct Ls3dfBuilder<'a> {
    structure: &'a Structure,
    m: Option<[usize; 3]>,
    opts: Ls3dfOptions,
    initial_potential: Option<RealField>,
    ckpt: Option<CheckpointConfig>,
    resume_from: Option<PathBuf>,
    groups: Option<usize>,
}

impl<'a> Ls3dfBuilder<'a> {
    /// Sets the piece decomposition `m = [m1, m2, m3]` (required;
    /// `m[d] ≥ 2`, so no size-2 fragment wraps onto itself).
    pub fn fragments(mut self, m: [usize; 3]) -> Self {
        self.m = Some(m);
        self
    }

    /// Replaces the default [`Ls3dfOptions`].
    pub fn options(mut self, opts: Ls3dfOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Starts the SCF from this global input potential instead of the
    /// superposed-atomic-density guess (diagnostics: e.g. patching a
    /// converged direct-DFT potential through one LS3DF cycle). Its grid
    /// must match the global grid `m × piece_pts`.
    pub fn initial_potential(mut self, v: RealField) -> Self {
        self.initial_potential = Some(v);
        self
    }

    /// Enables checkpointing: the SCF loop writes rotated, checksummed
    /// snapshots into `config.dir` on the cadence `config.policy`.
    pub fn checkpoint(mut self, config: CheckpointConfig) -> Self {
        self.ckpt = Some(config);
        self
    }

    /// Resumes the run from a snapshot written by a previous process.
    ///
    /// [`build`](Ls3dfBuilder::build) restores the global potential,
    /// patched density, mixer history, convergence history and every
    /// fragment's wavefunctions, then verifies the snapshot's options
    /// fingerprint against this builder's physics — resuming under
    /// different physics is refused with
    /// [`Ls3dfError::Resume`]`(`[`CkptError::FingerprintMismatch`]`)`.
    /// The subsequent [`scf`](Ls3df::scf) continues at the snapshot's
    /// iteration and is bit-identical to a run that was never interrupted.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Requests `n` processor groups (the paper's two-level hierarchy,
    /// §III): fragments are assigned to groups by the space-filling-curve
    /// cost-model scheduler ([`crate::groups`]), each group solves its
    /// own fragments, and the global layer patches the density and
    /// broadcasts the GENPOT potential over the `ls3df-dist`
    /// communicator.
    ///
    /// `n ≤ 1` (the default) is the `M = 1` world: one process that is
    /// the only group and the global layer at once. With `n > 1` the
    /// build spawns `n - 1` worker processes that re-exec
    /// this executable (`mpirun` semantics — the program must be SPMD:
    /// every process reaches the same `build()`/`scf()` calls). When not
    /// set, the `LS3DF_GROUPS` environment variable is consulted. The
    /// patched density is bit-identical at any group count.
    pub fn groups(mut self, n: usize) -> Self {
        self.groups = Some(n);
        self
    }

    /// Validates the geometry and assembles the calculation (fragment
    /// bases, projectors, ΔV_F potentials — the expensive part, fanned
    /// out over the worker pool).
    pub fn build(self) -> Result<Ls3df, Ls3dfError> {
        let m = self.m.ok_or(Ls3dfError::FragmentsNotSet)?;
        FragmentGrid::check_pieces(m)?;
        for axis in 0..3 {
            if self.opts.piece_pts[axis] == 0 {
                return Err(Ls3dfError::EmptyPiece { axis });
            }
        }
        if let Some(v) = &self.initial_potential {
            let expected: [usize; 3] = std::array::from_fn(|d| m[d] * self.opts.piece_pts[d]);
            if v.grid().dims != expected {
                return Err(Ls3dfError::PotentialGridMismatch {
                    expected,
                    got: v.grid().dims,
                });
            }
        }
        // Processor groups: explicit builder setting, then the env knob.
        let groups = self
            .groups
            .or_else(|| {
                std::env::var("LS3DF_GROUPS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(1);
        let mut calc = Ls3df::assemble(self.structure, m, self.opts, groups)?;
        if let Some(v) = self.initial_potential {
            calc.v_in = v;
        }
        calc.ckpt = self.ckpt;
        if let Some(path) = self.resume_from {
            calc.restore_from(&path)?;
        }
        Ok(calc)
    }
}

/// Occupations allowing a fractional last band (passivated fragments can
/// carry non-integer electron counts).
pub fn fragment_occupations(n_bands: usize, n_electrons: f64) -> Vec<f64> {
    let mut occ = vec![0.0; n_bands];
    let mut remaining = n_electrons;
    for o in occ.iter_mut() {
        let fill = remaining.min(2.0);
        *o = fill;
        remaining -= fill;
        if remaining <= 0.0 {
            break;
        }
    }
    assert!(
        remaining <= 1e-9,
        "fragment_occupations: {n_bands} bands cannot hold {n_electrons} electrons"
    );
    occ
}

/// `(bands, planewaves)` of every fragment's wavefunction block — what a
/// decoded snapshot or gathered block must match.
fn psi_shapes(fragments: &[FragmentState]) -> Vec<(usize, usize)> {
    fragments
        .iter()
        .map(|f| (f.psi.rows(), f.psi.cols()))
        .collect()
}

/// Loop-carried state of one SCF run: what `try_scf_with` threads through
/// the iterations, snapshots save and restore (the fields `Ls3df` holds
/// itself — `v_in`, `rho`, `psi` — are not repeated), and the
/// [`Ls3dfResult`] is made of.
struct ScfRun {
    /// Last completed outer iteration.
    iteration: usize,
    mixer: MixerState,
    history: Vec<Ls3dfStep>,
    converged: bool,
    quarantined: Vec<QuarantineRecord>,
    group_petot_seconds: Vec<f64>,
}

/// One fragment's supervised-solve result.
struct FragmentOutcome {
    residual: f64,
    faults: Vec<FragmentFault>,
    quarantined: bool,
}

/// Integer cost of one all-band solve of `psi`, from the block shape
/// alone: the `O(n_b²·n_pw)` block products that dominate it. Orders the
/// PEtot_F queue; only the order matters.
fn solve_cost(psi: &Matrix<f64>) -> usize {
    psi.rows() * psi.rows() * psi.cols()
}

/// Start-block seed for retry rung `attempt` on fragment `index` — a pure
/// function of both, so a rerun that hits the same failure retries from
/// bit-identical vectors.
fn retry_seed(index: usize, attempt: usize) -> u64 {
    0x5EED_F00D ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48)
}

/// Runs one fragment's solve under supervision: the primary warm-started
/// attempt, then the retry ladder, then quarantine.
///
/// Every rung solves a transient *candidate* block — a copy of `fs.psi`
/// for the primary rung, a fresh deterministic start for the others — and
/// `fs.psi` is replaced only by a candidate that solved and passed the
/// invariant checks. A rung that errors or panics, however far it got,
/// never touches `fs.psi`, so quarantine is simply "leave ψ as it is":
/// Gen_dens patches the previous iteration's density for this fragment.
/// One candidate exists per in-flight solve, not per fragment.
fn supervised_solve(
    fs: &mut FragmentState,
    vf: &RealField,
    index: usize,
    base: &SolverOptions,
    fresh_steps: usize,
) -> FragmentOutcome {
    let _frag_span = span!("frag", index);
    counter_add(Counter::FragmentSolves, 1);
    let mut faults = Vec::new();
    for (attempt, &action) in ATTEMPT_LADDER.iter().enumerate() {
        let (mut candidate, opts) = if action == RetryAction::Primary {
            // alloc-audit: the one transient ψ copy of a fragment solve,
            // live only while this solve is in flight.
            (fs.psi.clone(), base.clone())
        } else {
            // Escalation rungs discard the (possibly poisoned) warm start
            // for a fresh deterministic one, and get the burn-in budget.
            let start = ls3df_pw::scf::random_start_packed(
                fs.psi.rows(),
                &fs.basis,
                retry_seed(index, attempt),
            );
            let opts = SolverOptions {
                max_iter: fresh_steps,
                ..base.clone()
            };
            (start, opts)
        };
        match catch_unwind(AssertUnwindSafe(|| {
            run_attempt(fs, &mut candidate, vf, index, attempt, action, &opts)
        })) {
            Ok(Ok(residual)) => {
                fs.psi = candidate;
                fs.quarantined = false;
                return FragmentOutcome {
                    residual,
                    faults,
                    quarantined: false,
                };
            }
            Ok(Err(detail)) => faults.push(FragmentFault {
                fragment: index,
                attempt,
                action,
                detail,
            }),
            Err(payload) => faults.push(FragmentFault {
                fragment: index,
                attempt,
                action,
                detail: panic_detail(payload.as_ref()),
            }),
        }
    }
    fs.quarantined = true;
    FragmentOutcome {
        residual: 0.0,
        faults,
        quarantined: true,
    }
}

/// One solve attempt on the candidate block `psi`: consumes a pending
/// injected fault if any, runs the rung's solver flavor, and re-checks the
/// numeric invariants *inside* the supervised scope so a violation is
/// retried rather than aborting.
#[expect(
    clippy::panic,
    reason = "fault injection: the supervision layer must catch a real panic with an arbitrary payload"
)]
fn run_attempt(
    fs: &mut FragmentState,
    psi: &mut Matrix<f64>,
    vf: &RealField,
    index: usize,
    attempt: usize,
    action: RetryAction,
    base: &SolverOptions,
) -> Result<f64, String> {
    if fs.injected.panics > 0 {
        fs.injected.panics -= 1;
        // A panic that strikes mid-solve leaves a half-written block
        // behind; the injected one does too, so tests see that the
        // candidate — not the fragment's ψ — took the damage.
        psi.row_mut(0).fill(f64::NAN);
        // panic_any, not panic!: the supervision layer must handle
        // arbitrary payloads.
        std::panic::panic_any(format!(
            "injected panic (fragment {index}, attempt {attempt})"
        ));
    }
    if fs.injected.solver_errors > 0 {
        fs.injected.solver_errors -= 1;
        return Err(format!(
            "injected solver error (fragment {index}, attempt {attempt})"
        ));
    }
    let h = Hamiltonian::new(&fs.basis, vf.clone(), &fs.nonlocal);
    let stats = match action {
        RetryAction::BandByBand => solver::try_solve_band_by_band_packed(&h, psi, base),
        RetryAction::ReducedCg => {
            let reduced = SolverOptions {
                max_iter: (base.max_iter / 2).max(1),
                ortho_every: 1,
                cg_reset: 1,
                ..*base
            };
            solver::try_solve_all_band_packed(&h, psi, &reduced)
        }
        RetryAction::Primary | RetryAction::FreshRandomStart => {
            solver::try_solve_all_band_packed(&h, psi, base)
        }
    }
    .map_err(|e| e.to_string())?;
    if check::ENABLED {
        check::orthonormal("PEtot_F", psi, 1.0).map_err(|v| v.for_fragment(index).to_string())?;
        check::finite_scalar("PEtot_F", "residual", stats.residual)
            .map_err(|v| v.for_fragment(index).to_string())?;
    }
    Ok(stats.residual)
}

impl Ls3df {
    /// Starts a fluent [`Ls3dfBuilder`] for `structure` (the non-panicking
    /// construction path; see the builder docs).
    pub fn builder(structure: &Structure) -> Ls3dfBuilder<'_> {
        Ls3dfBuilder {
            structure,
            m: None,
            opts: Ls3dfOptions::default(),
            initial_potential: None,
            ckpt: None,
            resume_from: None,
            groups: None,
        }
    }

    /// Construction body behind [`Ls3dfBuilder::build`]; bad geometry
    /// the builder didn't pre-validate surfaces as a typed
    /// [`FragmentError`]. Joins (or, for `groups > 1`, launches) the
    /// processor-group world once the calculation is assembled; in a
    /// spawned worker process `communicator` ignores the count and joins
    /// the launcher's world (`LS3DF_DIST_RANK` is set).
    fn assemble(
        structure: &Structure,
        m: [usize; 3],
        opts: Ls3dfOptions,
        groups: usize,
    ) -> Result<Self, Ls3dfError> {
        let global_dims: [usize; 3] = std::array::from_fn(|d| m[d] * opts.piece_pts[d]);
        let global_grid = Grid3::new(global_dims, structure.lengths);
        let fg = FragmentGrid::new(m, &global_grid, opts.buffer_pts)?;
        if check::ENABLED {
            check::enforce(check::patching_weights(&fg, &global_grid));
        }
        let neighbors = structure.neighbor_list_within(topology_cutoff(structure));

        let global_basis = PwBasis::new(global_grid.clone(), opts.ecut);
        let global_atoms = PwAtom::of_structure(structure, &opts.pseudo);
        let v_ion_global = ionic_potential(&global_basis, &global_atoms);
        let rho0 = initial_density(&global_basis, &global_atoms, 1.4);
        let hartree = HartreeSolver::new(global_grid.clone());
        let (v_in, _) = effective_potential_with(&global_basis, &v_ion_global, &rho0, &hartree);

        // The planewave basis and the confining wall depend on the box
        // grid alone: one of each per box shape, shared by its fragments.
        // `shape_of[i]` indexes fragment i's shape in `shapes`.
        let mut shapes: Vec<(Grid3, Fragment)> = Vec::new();
        let mut shape_of = Vec::with_capacity(fg.fragments().len());
        for &f in fg.fragments() {
            let box_grid = fg.box_grid(&f);
            let known = shapes.iter().position(|(grid, _)| *grid == box_grid);
            shape_of.push(known.unwrap_or(shapes.len()));
            if known.is_none() {
                shapes.push((box_grid, f));
            }
        }
        let shapes: Vec<(Arc<PwBasis>, RealField)> = shapes
            .into_par_iter()
            .map(|(box_grid, f)| {
                let wall = boundary_wall(&fg, &f, opts.wall_height);
                (Arc::new(PwBasis::new(box_grid, opts.ecut)), wall)
            })
            .collect();

        // Build fragment states in parallel (projectors + ΔV_F), each with
        // the key of its translation class.
        let built: Vec<(FragmentState, ClassKey)> = fg
            .fragments()
            .par_iter()
            .enumerate()
            .map(|(i, &f)| {
                let fa = fragment_atoms(
                    structure,
                    &neighbors,
                    &fg,
                    &f,
                    opts.passivation,
                    &opts.pseudo,
                );
                let (basis, wall) = &shapes[shape_of[i]];
                let basis = Arc::clone(basis);
                let positions: Vec<[f64; 3]> = fa.atoms.iter().map(|a| a.pos).collect();
                let e_kb: Vec<f64> = fa.atoms.iter().map(|a| a.kb_energy).collect();
                let widths: Vec<f64> = fa.atoms.iter().map(|a| a.kb_rb).collect();
                let nonlocal = NonlocalPotential::new_batched(
                    &basis,
                    &positions,
                    |a, qs, out| {
                        ls3df_pseudo::KbProjector {
                            rb: widths[a],
                            e_kb: e_kb[a],
                        }
                        .fourier_batch(qs, out)
                    },
                    &e_kb,
                );
                // ΔV_F = confining wall + passivant ionic potentials.
                let mut delta_v = wall.clone();
                let passivants: Vec<PwAtom> = fa.atoms[fa.n_real..].to_vec();
                if !passivants.is_empty() {
                    let v_h = ionic_potential(&basis, &passivants);
                    delta_v.add_scaled(1.0, &v_h);
                }
                let n_occ = (fa.n_electrons / 2.0).ceil() as usize;
                let n_bands = (n_occ + opts.n_extra_bands).max(1);
                let occupations = fragment_occupations(n_bands, fa.n_electrons);
                let z_region = fa
                    .global_indices
                    .iter()
                    .map(|&g| structure.atoms[g].species.valence())
                    .sum();
                // Seed by fragment size: the members of a translation class
                // start from their representative's guess, and PEtot_F hands
                // them its solution (`Ls3df::representatives`).
                let psi = ls3df_pw::scf::random_start_packed(
                    n_bands,
                    &basis,
                    0xF00D ^ (f.size[0] * 31 + f.size[1] * 37 + f.size[2] * 41) as u64,
                );
                let key = ClassKey::new(f.size, &occupations, &fa.atoms);
                let state = FragmentState {
                    fragment: f,
                    basis,
                    nonlocal,
                    delta_v,
                    psi,
                    occupations,
                    z_region,
                    injected: InjectedCounters::default(),
                    quarantined: false,
                };
                (state, key)
            })
            .collect();
        let (fragments, keys): (Vec<FragmentState>, Vec<ClassKey>) = built.into_iter().unzip();
        let rep_of = classes::representatives(&keys);

        let n_electrons = structure.num_electrons();
        let positions: Vec<[f64; 3]> = structure.atoms.iter().map(|a| a.pos).collect();
        let charges: Vec<f64> = structure
            .atoms
            .iter()
            .map(|a| a.species.valence())
            .collect();
        let ewald = ls3df_pw::ewald::ewald_energy(&positions, &charges, structure.lengths);
        let fingerprint = ckpt::options_fingerprint(structure, m, &opts);
        let comm = ls3df_dist::communicator(groups)?;
        let plan = plan_class_groups(&fg, structure, &rep_of, comm.size());
        Ok(Ls3df {
            fg,
            global_grid,
            global_basis,
            v_ion_global,
            fragments,
            n_electrons,
            opts,
            v_in,
            rho: rho0,
            ewald,
            hartree,
            fingerprint,
            ckpt: None,
            resume: None,
            comm,
            plan,
            rep_of,
        })
    }

    /// Ion–ion Ewald energy of the structure.
    pub fn ewald_energy(&self) -> f64 {
        self.ewald
    }

    /// The processor-group communicator this calculation runs over (the
    /// one-rank [`ls3df_dist::SingleProcess`] world unless
    /// [`Ls3dfBuilder::groups`] / `LS3DF_GROUPS` asked for more).
    pub fn comm(&self) -> &Arc<dyn Communicator> {
        &self.comm
    }

    /// The fragment→group assignment ([`plan_class_groups`] over the
    /// communicator's size; one group owns everything in a one-rank world).
    /// A translation class never spans groups.
    pub fn group_plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// Each fragment's representative: the lowest-index fragment whose box
    /// holds the same atoms at the same box-frame positions (to
    /// 1e-9 Bohr) with the same occupations — the fragment itself when no
    /// earlier one does. PEtot_F solves the representatives; a member
    /// takes its representative's solution while their Gen_VF potentials
    /// agree to `fragment_tol`.
    pub fn representatives(&self) -> &[usize] {
        &self.rep_of
    }

    /// The latest patched density.
    pub fn rho_ref(&self) -> &RealField {
        &self.rho
    }

    pub(crate) fn fragment_states(&self) -> &[FragmentState] {
        &self.fragments
    }

    /// Number of fragments.
    pub fn n_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Total electrons of the real (global) system.
    pub fn n_electrons(&self) -> f64 {
        self.n_electrons
    }

    /// Current global input potential.
    pub fn v_in(&self) -> &RealField {
        &self.v_in
    }

    /// Where this calculation's memory is, in bytes by category, beside
    /// the process' peak resident set so far — call it after
    /// [`scf`](Ls3df::scf) and the peak is the run's. Each rank accounts
    /// for the state it holds (every rank assembles every fragment).
    ///
    /// * `psi_at_rest` — the fragments' packed wavefunction blocks, the
    ///   state kept between outer iterations (one block per fragment).
    /// * `projectors` — the fragments' packed Kleinman–Bylander projector
    ///   blocks.
    /// * `bases_and_fields` — the planewave index tables (one per
    ///   fragment box shape), each fragment's ΔV_F, and the global basis,
    ///   potentials and density.
    /// * `solve_workspace` — what the in-flight fragment solves hold at
    ///   worst: the largest fragment's candidate and solver blocks
    ///   ([`solver::solve_workspace_bytes`]), times the threads that solve
    ///   concurrently.
    pub fn memory_footprint(&self) -> MemoryReport {
        let field = |f: &RealField| size_of_val(f.as_slice());
        let (mut psi, mut projectors, mut largest_solve) = (0, 0, 0);
        let mut bases_and_fields = self.global_basis.heap_bytes()
            + field(&self.v_ion_global)
            + field(&self.v_in)
            + field(&self.rho);
        let mut counted_bases: Vec<&Arc<PwBasis>> = Vec::new();
        for fs in &self.fragments {
            let (nb, npw) = fs.psi.shape();
            psi += size_of_val(fs.psi.as_slice());
            projectors += fs.nonlocal.heap_bytes();
            bases_and_fields += field(&fs.delta_v);
            if !counted_bases.iter().any(|b| Arc::ptr_eq(b, &fs.basis)) {
                bases_and_fields += fs.basis.heap_bytes();
                counted_bases.push(&fs.basis);
            }
            largest_solve = largest_solve.max(solver::solve_workspace_bytes(nb, npw));
        }
        let categories = [
            ("psi_at_rest", psi),
            ("projectors", projectors),
            ("bases_and_fields", bases_and_fields),
            (
                "solve_workspace",
                largest_solve * rayon::current_num_threads(),
            ),
        ];
        MemoryReport {
            categories: categories
                .into_iter()
                .map(|(name, bytes)| (name.to_string(), bytes as u64))
                .collect(),
            peak_rss_bytes: ls3df_obs::peak_rss_bytes(),
        }
    }

    /// `(bands, planewaves, projectors)` of fragment `index`: the shape of
    /// its packed wavefunction block and of its projector block — what
    /// [`Ls3df::memory_footprint`] accounts, for tests that recount it.
    pub fn fragment_block_shape(&self, index: usize) -> (usize, usize, usize) {
        let fs = &self.fragments[index];
        let (nb, npw) = fs.psi.shape();
        (nb, npw, fs.nonlocal.len())
    }

    /// Scales every coefficient of fragment `index`'s wavefunction block.
    ///
    /// Validation-support hook: deliberately corrupting one fragment lets
    /// tests (and operators chasing a bad node) confirm that the Gen_dens
    /// charge-conservation invariant catches a fragment whose density has
    /// gone wrong, instead of letting the renormalization silently absorb
    /// it.
    pub fn scale_fragment_psi(&mut self, index: usize, factor: f64) {
        self.fragments[index].psi.scale_real(factor);
    }

    /// FNV-1a over the bit patterns of fragment `index`'s (packed)
    /// wavefunction block. Validation-support hook: equal digests before
    /// and after a run mean the block was not touched — what a quarantine
    /// promises.
    pub fn fragment_psi_digest(&self, index: usize) -> u64 {
        let mut fp = Fingerprint::new();
        for &x in self.fragments[index].psi.as_slice() {
            fp.push_f64(x);
        }
        fp.finish()
    }

    /// **Gen_VF**: slices the global potential into per-fragment
    /// `V_F = V_in|ΩF + ΔV_F`.
    pub fn gen_vf(&self) -> Vec<RealField> {
        self.fragments
            .par_iter()
            .enumerate()
            .map(|(i, fs)| {
                let origin = self.fg.box_origin(&fs.fragment);
                let mut vf = self.v_in.extract_subbox(origin, fs.basis.grid());
                vf.add_scaled(1.0, &fs.delta_v);
                if check::ENABLED {
                    check::enforce(
                        check::finite_field("Gen_VF", &vf).map_err(|v| v.for_fragment(i)),
                    );
                }
                vf
            })
            .collect()
    }

    /// The fixed-potential map the SCF iterates: **Gen_VF** at the current
    /// input potential, [`Effort`]'s **PEtot_F** rounds, then
    /// **Gen_dens**'s patch, *not* renormalized to the electron count. The
    /// input potential and stored density stay as they are; the fragments
    /// keep the wavefunctions solved here.
    ///
    /// Every rank must call it (each solves its group's fragments and
    /// stops its rounds on their worst residual); only the global rank
    /// (0), which holds every region, gets `Some`.
    pub fn respond(&mut self, effort: Effort) -> Result<Option<Patch>, CommError> {
        self.respond_observed(0, effort, &mut SilentObserver)
    }

    /// [`Ls3df::respond`], sending the Gen_VF and PEtot_F stage events of
    /// outer iteration `iteration` (its gather tag) to `observer`.
    fn respond_observed<O: ScfObserver>(
        &mut self,
        iteration: usize,
        effort: Effort,
        observer: &mut O,
    ) -> Result<Option<Patch>, CommError> {
        let mut timings = StepTimings::default();
        let t = Stopwatch::start();
        let vfs = {
            let _s = span!("gen_vf");
            self.gen_vf()
        };
        timings.gen_vf = t.seconds();
        observer.on_stage(iteration, ScfStage::GenVf, timings.gen_vf);

        let t = Stopwatch::start();
        let mut report = PetotReport::default();
        for _ in 0..effort.rounds {
            report = self.petot_f_supervised(&vfs, effort.cg_steps);
            if report.worst_residual < self.opts.fragment_tol {
                break;
            }
        }
        report.petot_seconds = t.seconds();

        // Region densities travel bit-exact: the group count cannot change ρ.
        let t = Stopwatch::start();
        report.regions = self.gen_dens_parts(&self.plan.groups[self.comm.rank()]);
        timings.gen_dens = t.seconds();

        // The PEtot_F stage time includes the gather: on rank 0 that is the
        // barrier wait (the paper reports the stage, not a rank).
        let t = Stopwatch::start();
        timings.petot_f = report.petot_seconds;
        let reports = distrib::gather_reports(&*self.comm, iteration, report, self.n_fragments())?;
        timings.petot_f += t.seconds();
        observer.on_stage(iteration, ScfStage::PetotF, timings.petot_f);

        // Fold the reports this rank holds (rank 0: every group's) into
        // ascending fragment order, the order a one-group run produces them in.
        let mut folded = PetotReport::default();
        let mut group_petot_seconds = vec![0.0; self.plan.n_groups];
        for (r, report) in reports {
            folded.worst_residual = folded.worst_residual.max(report.worst_residual);
            group_petot_seconds[r] += report.petot_seconds;
            // Quarantine flags drive the Gen_dens check suspension.
            for (i, quarantined) in report.flags {
                self.fragments[i].quarantined = quarantined;
            }
            folded.faults.extend(report.faults);
            folded.quarantined.extend(report.quarantined);
            folded.regions.extend(report.regions);
        }
        folded.faults.sort_by_key(|f| (f.fragment, f.attempt));
        folded.quarantined.sort_by_key(|r| r.fragment);

        distrib::on_root(&*self.comm, || {
            let t = Stopwatch::start();
            let (rho, q, fragments) = self.patch_density(folded.regions)?;
            timings.gen_dens += t.seconds();
            Ok(Patch {
                rho,
                q,
                worst_residual: folded.worst_residual,
                faults: folded.faults,
                quarantined: folded.quarantined,
                timings,
                group_petot_seconds,
                fragments,
            })
        })
        .transpose()
    }

    /// Whether member `i` takes its representative's solution this round
    /// instead of solving: it has a representative other than itself, no
    /// pending injected fault, was not quarantined in the previous round,
    /// and its V_F is within `fragment_tol` (max-abs) of the
    /// representative's. Then the representative's ψ solves its problem
    /// within the solver's own tolerance, since ‖δV·ψ‖ ≤ max|δV|.
    fn shares_solution(&self, i: usize, vfs: &[RealField]) -> bool {
        let (fs, rep) = (&self.fragments[i], self.rep_of[i]);
        rep != i
            && fs.injected.panics + fs.injected.solver_errors == 0
            && !fs.quarantined
            && vfs[i]
                .as_slice()
                .iter()
                .zip(vfs[rep].as_slice())
                .all(|(a, b)| (a - b).abs() <= self.opts.fragment_tol)
    }

    /// The supervised PEtot_F stage: every fragment solve runs under
    /// `catch_unwind` with the deterministic retry ladder
    /// ([`ATTEMPT_LADDER`]); fragments that exhaust it are quarantined
    /// (their wavefunctions left as the previous iteration's) instead of
    /// aborting the run. A member that [shares](Ls3df::shares_solution)
    /// does not solve: it gets a copy of its representative's ψ, residual
    /// and quarantine outcome. Returns the solve half of this group's
    /// report: worst residual (quarantined fragments excluded), quarantine
    /// flags, faults and quarantine records, all in fragment order.
    fn petot_f_supervised(&mut self, vfs: &[RealField], steps: usize) -> PetotReport {
        let _s = span!("petot_f");
        let solver_opts = SolverOptions {
            max_iter: steps,
            tol: self.opts.fragment_tol,
            ..Default::default()
        };
        // Escalation rungs discard the warm start, so they get at least
        // the burn-in budget — a fresh random block under the warm-start's
        // few steps would patch an unconverged density into Gen_dens.
        let fresh_steps = steps.max(self.opts.initial_cg_steps);
        // Each rank solves only the fragments its group owns; the others
        // keep their state untouched (the global layer never reads it, and
        // snapshot iterations gather the owners' blocks explicitly).
        let my_group = self.comm.rank();
        let (shared, solved): (Vec<usize>, Vec<usize>) = self.plan.groups[my_group]
            .iter()
            .partition(|&&index| self.shares_solution(index, vfs));
        let mut queue: Vec<(usize, &mut FragmentState, &RealField)> = self
            .fragments
            .iter_mut()
            .zip(vfs)
            .enumerate()
            .filter(|&(index, _)| solved.binary_search(&index).is_ok())
            .map(|(index, (fs, vf))| (index, fs, vf))
            .collect();
        // Fragment costs span ~70× on the alloy, so the queue is worked
        // largest-first, one fragment per free thread: the small solves
        // fill the tail instead of one thread finishing a large one alone.
        queue.sort_by_key(|&(index, ref fs, _)| (std::cmp::Reverse(solve_cost(&fs.psi)), index));
        let mut outcomes: Vec<(usize, FragmentOutcome)> = queue
            .into_par_iter()
            .map(|(index, fs, vf)| {
                let outcome = supervised_solve(fs, vf, index, &solver_opts, fresh_steps);
                (index, outcome)
            })
            .collect_queued();
        // reduce-audit: back in fragment order no matter what the cost
        // order or the pool did, so the max below is a fixed left-to-right
        // scan and the fault/quarantine lists are in fragment order — the
        // event stream a ScfObserver sees depends only on the fragment
        // list, never on LS3DF_THREADS.
        outcomes.sort_by_key(|&(index, _)| index);
        let mut out = PetotReport::default();
        for (index, o) in outcomes {
            out.worst_residual = out.worst_residual.max(o.residual);
            out.flags.push((index, o.quarantined));
            if o.quarantined {
                out.quarantined.push(QuarantineRecord {
                    fragment: index,
                    faults: o.faults.clone(),
                });
            }
            out.faults.extend(o.faults);
        }
        // A class never spans groups, so each sharing member's
        // representative was solved above. The member copies its committed
        // ψ in place and takes its quarantine outcome; its residual is the
        // representative's, so the worst residual stands.
        counter_add(Counter::FragmentShares, shared.len() as u64);
        for &index in &shared {
            let (head, tail) = self.fragments.split_at_mut(index);
            let (rep, member) = (&head[self.rep_of[index]], &mut tail[0]);
            member
                .psi
                .as_mut_slice()
                .copy_from_slice(rep.psi.as_slice());
            member.quarantined = rep.quarantined;
            out.flags.push((index, rep.quarantined));
        }
        out.flags.sort_unstable_by_key(|&(index, _)| index);
        out
    }

    /// Whether fragment `i` is a class member holding its representative's
    /// ψ bit for bit (it shared the last solve): its region part is then
    /// the representative's, bit for bit.
    fn holds_representative_psi(&self, i: usize) -> bool {
        let rep = self.rep_of[i];
        rep != i
            && self.fragments[i]
                .psi
                .as_slice()
                .iter()
                .zip(self.fragments[rep].psi.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The parallel half of **Gen_dens**, restricted to `indices`: each
    /// listed fragment's box density reduced to its region, once per solved
    /// class — a member that holds its representative's ψ sends no part of
    /// its own. Every rank computes this for its owned fragments and the
    /// global layer merges the parts.
    fn gen_dens_parts(&self, indices: &[usize]) -> Vec<(usize, RealField)> {
        let _s = span!("gen_dens");
        let own_psi: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| !self.holds_representative_psi(i))
            .collect();
        own_psi
            .par_iter()
            .map(|&i| {
                let fs = &self.fragments[i];
                let rho_f = density::compute_density(&fs.basis, &fs.psi, &fs.occupations);
                // Extract the region part of the box density.
                let off = self.fg.region_offset_in_box();
                let rd = self.fg.region_dims(&fs.fragment);
                let region_grid = {
                    let h = fs.basis.grid().spacing();
                    Grid3::new(
                        rd,
                        [
                            rd[0] as f64 * h[0],
                            rd[1] as f64 * h[1],
                            rd[2] as f64 * h[2],
                        ],
                    )
                };
                let region = rho_f
                    .extract_subbox([off[0] as i64, off[1] as i64, off[2] as i64], &region_grid);
                if check::ENABLED {
                    check::enforce(
                        check::finite_field("Gen_dens", &region).map_err(|v| v.for_fragment(i)),
                    );
                }
                (i, region)
            })
            .collect()
    }

    /// The sequential half of **Gen_dens**: accumulates every fragment's
    /// region part — its own, or else its representative's — in fixed
    /// ascending fragment order (the global-array reduction) and verifies
    /// the patching invariants, returning the patch with its charge
    /// `q = ∫ρ` and each fragment's [`RegionCharge`] — the renormalization
    /// to the electron count is the SCF's global layer's. The summation
    /// tree is a function of the fragment list alone, so the patched
    /// density is bit-identical from run to run, across LS3DF_THREADS
    /// settings, and across group counts. A fragment with neither part is
    /// a protocol error: some group's report left it out.
    fn patch_density(
        &self,
        parts: Vec<(usize, RealField)>,
    ) -> Result<(RealField, f64, Vec<RegionCharge>), CommError> {
        let _s = span!("gen_dens");
        let mut slot = vec![None; self.fragments.len()];
        for (k, &(i, _)) in parts.iter().enumerate() {
            slot[i] = Some(k);
        }
        let part_charge: Vec<f64> = parts.iter().map(|(_, region)| region.integrate()).collect();
        let mut rho = RealField::zeros(self.global_grid.clone());
        let mut signed_region_charge = 0.0;
        let mut gross_patch_scale = 0.0;
        let mut charges = Vec::with_capacity(self.fragments.len());
        for (i, fs) in self.fragments.iter().enumerate() {
            let k = slot[i]
                .or(slot[self.rep_of[i]])
                .ok_or_else(|| CommError::Protocol {
                    detail: format!("Gen_dens: no region part for fragment {i} or its class"),
                })?;
            let origin = self.fg.region_origin(&fs.fragment);
            rho.accumulate_subbox(origin, &parts[k].1, fs.fragment.alpha());
            let charge = RegionCharge {
                q_region: part_charge[k],
                z_region: fs.z_region,
                n_e: fs.occupations.iter().sum(),
            };
            charges.push(charge);
            if check::ENABLED {
                let (region_q, n_e_f) = (charge.q_region, charge.n_e);
                // Structural per-fragment bound: the box density
                // integrates to the fragment's own electron count and is
                // nonnegative, so the region part lives in [0, n_e(F)]
                // at any solver state — the sharp detector for a
                // corrupted fragment density. A quarantined fragment
                // patches the density of its untouched ψ, which may predate
                // orthonormalization, so the bound holds only for
                // fragments the solver actually produced.
                if !fs.quarantined {
                    check::enforce(
                        check::fragment_region_charge("Gen_dens", region_q, n_e_f)
                            .map_err(|v| v.for_fragment(i)),
                    );
                }
                signed_region_charge += fs.fragment.alpha() * region_q;
                gross_patch_scale += fs.fragment.alpha().abs() * n_e_f;
            }
        }
        // Global invariants, verified *before* the renormalization can hide
        // any violation. Patching linearity (∫ρ = Σ α_F ∫ρ_F|region) is
        // exact up to rounding at every iteration and catches assembly
        // bugs; the physics check against the electron count is a loose
        // measured bound relative to the gross patch scale, because the
        // signed sum is a small difference of large region charges and
        // unconverged fragments legitimately drift it by a fraction of
        // the gross sum (see check::CHARGE_TOL_REL). The charge
        // diagnostic assumes every fragment density came from the same
        // input potential; a quarantined fragment patches a stale
        // density, so while one is present only finiteness is enforced
        // (the SCF's renormalization still pins the exact electron
        // count).
        let q = rho.integrate();
        if check::ENABLED {
            check::enforce(check::patching_linearity(
                "Gen_dens",
                q,
                signed_region_charge,
            ));
            if self.fragments.iter().any(|fs| fs.quarantined) {
                check::enforce(check::finite_scalar("Gen_dens", "patched charge", q));
            } else {
                check::enforce(check::charge_conservation(
                    "Gen_dens",
                    q,
                    self.n_electrons,
                    gross_patch_scale,
                ));
            }
        }
        Ok((rho, q, charges))
    }

    /// **GENPOT**: global Poisson + XC from the patched density, through
    /// the cached per-geometry Poisson solver.
    pub fn genpot(&self, rho: &RealField) -> RealField {
        let (v_out, _) =
            effective_potential_with(&self.global_basis, &self.v_ion_global, rho, &self.hartree);
        if check::ENABLED {
            check::enforce(check::finite_field("GENPOT", &v_out));
        }
        v_out
    }

    /// Runs the full outer SCF loop.
    ///
    /// Communicator failures (a worker process dying, a bounded receive
    /// timing out) are **fatal**: the process prints the error and exits —
    /// the `MPI_ERRORS_ARE_FATAL` analogue, since a rank cannot generally
    /// recover a collective on its own. Use [`Ls3df::try_scf`] to handle
    /// them as typed [`Ls3dfError::Comm`] values instead.
    pub fn scf(&mut self) -> Ls3dfResult {
        self.scf_with(SilentObserver)
    }

    /// Fallible [`Ls3df::scf`]: communicator failures surface as
    /// [`Ls3dfError::Comm`] (naming the rank involved) instead of
    /// terminating the process. Single-process runs never return `Err`.
    pub fn try_scf(&mut self) -> Result<Ls3dfResult, Ls3dfError> {
        self.try_scf_with(SilentObserver)
    }

    /// Runs the outer SCF loop, streaming progress through an
    /// [`ScfObserver`] (stage timings, per-iteration steps, convergence).
    /// A plain `FnMut(&Ls3dfStep)` closure is accepted too — it receives
    /// the per-iteration [`ScfObserver::on_step`] events.
    ///
    /// Fatal on communicator failure, like [`Ls3df::scf`]; see
    /// [`Ls3df::try_scf_with`] for the fallible form.
    pub fn scf_with<O: ScfObserver>(&mut self, observer: O) -> Ls3dfResult {
        match self.try_scf_with(observer) {
            Ok(result) => result,
            Err(e) => {
                // The MPI_ERRORS_ARE_FATAL analogue: a dead peer leaves
                // the collective schedule unrecoverable from inside the
                // loop, so the default driver surface aborts loudly. 74 is
                // BSD's EX_IOERR, the closest sysexits code to "transport
                // failed".
                eprintln!("ls3df: fatal: {e}");
                std::process::exit(74);
            }
        }
    }

    /// Fallible [`Ls3df::scf_with`]: the full outer SCF loop over the
    /// processor-group communicator.
    ///
    /// Every rank at every world size runs the same stage sequence per
    /// iteration; a one-group run is its `M = 1` case. The patched
    /// density is bit-identical at any group count.
    pub fn try_scf_with<O: ScfObserver>(
        &mut self,
        mut observer: O,
    ) -> Result<Ls3dfResult, Ls3dfError> {
        // World coordinates and predicted cost bins for the obs report merge.
        ls3df_obs::telemetry::set_rank(self.comm.rank(), self.comm.size());
        if ls3df_obs::ENABLED {
            ls3df_obs::telemetry::set_predicted_costs(self.plan.costs.clone());
        }
        let mut run = match self.resume.take() {
            Some(run) => {
                observer.on_snapshot_restored(run.iteration);
                run
            }
            None => self.fresh_run(),
        };

        // The epilogue also runs after a mid-run communicator failure, to mark the culprit `down`.
        let loop_result = (|| {
            while !run.converged && run.iteration < self.opts.max_scf {
                run.iteration += 1;
                self.scf_iteration(&mut run, &mut observer)?;
            }
            Ok(())
        })();
        ls3df_dist::collect_rank_telemetry(&*self.comm, &loop_result);
        loop_result?;

        Ok(Ls3dfResult {
            history: run.history,
            converged: run.converged,
            rho: self.rho.clone(),
            v_eff: self.v_in.clone(),
            quarantined: run.quarantined,
            group_petot_seconds: run.group_petot_seconds,
        })
    }

    /// The state an SCF run starts from when no snapshot was restored.
    fn fresh_run(&self) -> ScfRun {
        ScfRun {
            iteration: 0,
            mixer: MixerState::new(self.opts.mixer.clone()),
            history: Vec::new(),
            converged: false,
            quarantined: Vec::new(),
            group_petot_seconds: vec![0.0; self.plan.n_groups],
        }
    }

    /// One outer iteration: the paper's §III hierarchy as one stage
    /// sequence, the same on every rank. [`Ls3df::respond`] solves each
    /// group's fragments and patches their regions on rank 0; there the
    /// thin global layer renormalizes ρ, runs GENPOT and mixes; every rank
    /// adopts the shared result. Only the `distrib` exchanges know the
    /// world's size and who is rank 0.
    fn scf_iteration<O: ScfObserver>(
        &mut self,
        run: &mut ScfRun,
        observer: &mut O,
    ) -> Result<(), CommError> {
        let iteration = run.iteration;
        let _iter_span = span!("scf_iter", iteration);
        let cg_steps = match iteration {
            1 => self.opts.initial_cg_steps.max(self.opts.cg_steps),
            _ => self.opts.cg_steps,
        };
        let effort = Effort {
            cg_steps,
            rounds: 1,
        };
        let patch = self.respond_observed(iteration, effort, observer)?;

        // Every rank finishes the iteration with identical state and history.
        // V_in becomes the *next* iteration's input before any snapshot is
        // cut: a resumed run starts from the potential it would have used.
        let msg = distrib::share_vnext(&*self.comm, patch, |patch| {
            self.global_layer(iteration, patch, run, observer)
        })?;
        self.v_in = msg.v_in;
        self.rho = msg.rho;
        run.converged = msg.converged;
        observer.on_step(&msg.step);
        run.history.push(msg.step);
        self.snapshot_hook(run, observer)?;
        if run.converged {
            observer.on_converged(&msg.step);
        }
        Ok(())
    }

    /// The global layer of one iteration (rank 0 only): replays the fault
    /// events, renormalizes the patch to the electron count, then GENPOT
    /// and mixing.
    fn global_layer<O: ScfObserver>(
        &self,
        iteration: usize,
        patch: Patch,
        run: &mut ScfRun,
        observer: &mut O,
    ) -> distrib::VnextMessage {
        counter_add(Counter::RetryRungs, patch.faults.len() as u64);
        counter_add(Counter::Quarantines, patch.quarantined.len() as u64);
        for fault in &patch.faults {
            observer.on_fragment_retry(iteration, fault);
        }
        for record in &patch.quarantined {
            observer.on_fragment_quarantined(iteration, record);
        }
        for (total, seconds) in run
            .group_petot_seconds
            .iter_mut()
            .zip(&patch.group_petot_seconds)
        {
            *total += seconds;
        }
        let retention_min = patch.retention_min();
        run.quarantined.extend(patch.quarantined);
        let (q, mut rho, mut timings) = (patch.q, patch.rho, patch.timings);

        let t = Stopwatch::start();
        if q.abs() > 1e-12 {
            rho.scale(self.n_electrons / q);
        }
        timings.gen_dens += t.seconds();
        observer.on_stage(iteration, ScfStage::GenDens, timings.gen_dens);

        let t = Stopwatch::start();
        let (v_out, dv_integral, mixed) = {
            let _s = span!("genpot");
            let v_out = self.genpot(&rho);
            let dv_integral = v_out.diff(&self.v_in).integrate_abs();
            let mixed = {
                let _m = span!("mix");
                run.mixer.mix(&self.v_in, &v_out, self.global_basis.fft())
            };
            (v_out, dv_integral, mixed)
        };
        timings.genpot = t.seconds();
        observer.on_stage(iteration, ScfStage::Genpot, timings.genpot);

        let converged = dv_integral < self.opts.tol;
        distrib::VnextMessage {
            v_in: if converged { v_out } else { mixed },
            rho,
            step: Ls3dfStep {
                iteration,
                dv_integral,
                worst_residual: patch.worst_residual,
                charge_ratio: q / self.n_electrons,
                retention_min,
                timings,
            },
            converged,
        }
    }

    /// End-of-iteration snapshot hook, on the checkpoint policy's
    /// cadence: rank 0 gathers every group's wavefunction blocks and
    /// writes the rotated snapshot. Write failures go to the observer and
    /// never abort the run.
    fn snapshot_hook<O: ScfObserver>(
        &mut self,
        run: &ScfRun,
        observer: &mut O,
    ) -> Result<(), CommError> {
        let cfg = match &self.ckpt {
            Some(cfg) if cfg.policy.wants_snapshot(run.iteration, run.converged) => cfg,
            _ => return Ok(()),
        };
        let _s = span!("snapshot");
        let own: Vec<(usize, &Matrix<f64>)> = self.plan.groups[self.comm.rank()]
            .iter()
            .map(|&i| (i, &self.fragments[i].psi))
            .collect();
        let shapes = psi_shapes(&self.fragments);
        let Some(blocks) = distrib::gather_psi(&*self.comm, run.iteration, &own, &shapes)? else {
            return Ok(());
        };
        for (i, psi) in blocks {
            self.fragments[i].psi = psi;
        }
        let written = self
            .snapshot_bytes(run)
            .and_then(|bytes| write_rotated(&cfg.dir, run.iteration, &bytes, cfg.keep_last));
        match written {
            Ok(path) => observer.on_snapshot_written(run.iteration, &path),
            Err(e) => observer.on_snapshot_failed(run.iteration, &e),
        }
        Ok(())
    }

    /// The options fingerprint snapshots are stamped with (equal
    /// fingerprints ⇒ bit-identical SCF trajectories).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Queues `attempts` injected failures on fragment `index`'s next
    /// solve attempts (each attempt consumes one).
    ///
    /// Validation-support hook, like [`Ls3df::scale_fragment_psi`]:
    /// deliberately failing a fragment lets tests and operators confirm
    /// the supervision layer retries and quarantines instead of aborting.
    pub fn inject_fragment_fault(&mut self, index: usize, fault: InjectedFault, attempts: usize) {
        match fault {
            InjectedFault::Panic => self.fragments[index].injected.panics += attempts,
            InjectedFault::SolverError => self.fragments[index].injected.solver_errors += attempts,
        }
    }

    /// Serializes the full resumable state after a completed iteration
    /// into the snapshot container (see `crate::ckpt` for the section
    /// layout).
    fn snapshot_bytes(&self, run: &ScfRun) -> Result<Vec<u8>, CkptError> {
        let mut snap = Snapshot::new();
        snap.push(ckpt::SEC_FPRINT, ckpt::encode_fingerprint(self.fingerprint))
            .push(
                ckpt::SEC_STATE,
                ckpt::encode_state(run.iteration, run.converged),
            )
            .push(ckpt::SEC_HIST, ckpt::encode_history(&run.history))
            .push(ckpt::SEC_VIN, ls3df_grid::encode_field(&self.v_in))
            .push(ckpt::SEC_RHO, ls3df_grid::encode_field(&self.rho))
            .push(
                ckpt::SEC_MIXER,
                ckpt::encode_mixer_history(run.mixer.history()),
            )
            .push(
                ckpt::SEC_PSI,
                ckpt::encode_psi_blocks(self.fragments.iter().map(|f| &f.psi)),
            );
        snap.encode()
    }

    /// Restores this calculation's resumable state from a snapshot file.
    ///
    /// Verifies the options fingerprint and every section's shape against
    /// the freshly assembled calculation before touching any state, then
    /// installs the global potential, density, mixer/convergence history
    /// and every fragment's wavefunctions. Returns the last completed
    /// iteration; the next [`scf`](Ls3df::scf) call continues after it.
    pub fn restore_from(&mut self, path: &Path) -> Result<usize, CkptError> {
        let bytes = read_bytes(path)?;
        let snap = Snapshot::decode(&bytes)?;
        let stored = ckpt::decode_fingerprint(snap.require(ckpt::SEC_FPRINT)?)?;
        if stored != self.fingerprint {
            return Err(CkptError::FingerprintMismatch {
                stored,
                current: self.fingerprint,
            });
        }
        let (start_iteration, converged) = ckpt::decode_state(snap.require(ckpt::SEC_STATE)?)?;
        let history = ckpt::decode_history(snap.require(ckpt::SEC_HIST)?)?;
        let v_in = ls3df_grid::decode_field(snap.require(ckpt::SEC_VIN)?)?;
        let rho = ls3df_grid::decode_field(snap.require(ckpt::SEC_RHO)?)?;
        for (name, field) in [("VIN", &v_in), ("RHO", &rho)] {
            if field.grid() != &self.global_grid {
                return Err(CkptError::Malformed {
                    section: name.to_string(),
                    detail: format!(
                        "snapshot grid {:?} does not match the global grid {:?}",
                        field.grid().dims,
                        self.global_grid.dims
                    ),
                });
            }
        }
        let mixer_history = ckpt::decode_mixer_history(snap.require(ckpt::SEC_MIXER)?)?;
        let shapes = psi_shapes(&self.fragments);
        let blocks = ckpt::decode_psi_blocks(snap.require(ckpt::SEC_PSI)?, &shapes)?;
        // All sections validated — now install the state.
        self.v_in = v_in;
        self.rho = rho;
        for (fs, psi) in self.fragments.iter_mut().zip(blocks) {
            fs.psi = psi;
        }
        let mut run = self.fresh_run();
        run.iteration = start_iteration;
        run.converged = converged;
        run.history = history;
        run.mixer.restore_history(mixer_history);
        self.resume = Some(run);
        Ok(start_iteration)
    }

    /// The global planewave basis (for post-processing: FSM, full-system
    /// diagonalization in the converged potential).
    pub fn global_basis(&self) -> &PwBasis {
        &self.global_basis
    }

    /// The global ionic potential.
    pub fn v_ion(&self) -> &RealField {
        &self.v_ion_global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crystal8 set on 6-point pieces with a 2-point buffer.
    fn small_crystal_opts() -> Ls3dfOptions {
        Ls3dfOptions {
            ecut: 1.5,
            piece_pts: [6, 6, 6],
            buffer_pts: [2, 2, 2],
            passivation: Passivation::WallOnly,
            wall_height: 1.5,
            n_extra_bands: 2,
            pseudo: PseudoTable::deep_well(2.0, 0.8),
            ..Default::default()
        }
    }

    #[test]
    fn fragment_occupations_fractional() {
        assert_eq!(fragment_occupations(4, 6.0), vec![2.0, 2.0, 2.0, 0.0]);
        assert_eq!(fragment_occupations(4, 5.0), vec![2.0, 2.0, 1.0, 0.0]);
        let occ = fragment_occupations(5, 7.5);
        assert_eq!(occ, vec![2.0, 2.0, 2.0, 1.5, 0.0]);
        let total: f64 = occ.iter().sum();
        assert_eq!(total, 7.5);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn too_many_electrons_rejected() {
        let _ = fragment_occupations(2, 6.0);
    }

    #[test]
    fn builder_rejects_bad_geometry_without_panicking() {
        let s = Structure::new([10.0, 10.0, 10.0], Vec::new());
        assert_eq!(
            Ls3df::builder(&s).build().err().expect("must fail"),
            Ls3dfError::FragmentsNotSet
        );
        assert_eq!(
            Ls3df::builder(&s)
                .fragments([1, 2, 2])
                .build()
                .err()
                .expect("must fail"),
            Ls3dfError::Fragmentation(FragmentError::TooFewPieces {
                axis: 0,
                m: 1,
                min: 2,
            })
        );
        assert_eq!(
            Ls3df::builder(&s)
                .fragments([2, 1, 2])
                .build()
                .err()
                .expect("must fail"),
            Ls3dfError::Fragmentation(FragmentError::TooFewPieces {
                axis: 1,
                m: 1,
                min: 2,
            })
        );
        let opts = Ls3dfOptions {
            piece_pts: [8, 0, 8],
            ..Default::default()
        };
        assert_eq!(
            Ls3df::builder(&s)
                .fragments([2, 2, 2])
                .options(opts)
                .build()
                .err()
                .expect("must fail"),
            Ls3dfError::EmptyPiece { axis: 1 }
        );
    }

    #[test]
    fn builder_rejects_mismatched_initial_potential() {
        let s = Structure::new([10.0, 10.0, 10.0], Vec::new());
        let wrong = RealField::zeros(Grid3::cubic(4, 10.0));
        let opts = Ls3dfOptions {
            piece_pts: [8, 8, 8],
            ..Default::default()
        };
        let err = Ls3df::builder(&s)
            .fragments([2, 2, 2])
            .options(opts)
            .initial_potential(wrong)
            .build()
            .err()
            .expect("must fail");
        assert_eq!(
            err,
            Ls3dfError::PotentialGridMismatch {
                expected: [16, 16, 16],
                got: [4, 4, 4],
            }
        );
        // Errors are displayable (they reach CLI users via `?`).
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn degenerate_start_block_is_retried_from_a_fresh_start() {
        // A packed start block whose rows all repeat the first: the
        // primary attempt fails its entry orthonormalization as dependent
        // start vectors — and the ladder's fresh random start must recover
        // with nothing quarantined.
        struct Retries(Vec<FragmentFault>);
        impl ScfObserver for &mut Retries {
            fn on_fragment_retry(&mut self, _iteration: usize, fault: &FragmentFault) {
                self.0.push(fault.clone());
            }
        }
        let s = ls3df_atoms::model_crystal([2, 2, 2], 6.5);
        let opts = Ls3dfOptions {
            cg_steps: 6,
            initial_cg_steps: 10,
            max_scf: 1,
            ..small_crystal_opts()
        };
        let mut calc = Ls3df::builder(&s)
            .fragments([2, 2, 2])
            .options(opts)
            .build()
            .expect("valid test geometry");
        let fs = &mut calc.fragments[3];
        let first = fs.psi.row(0).to_vec();
        for b in 1..fs.psi.rows() {
            fs.psi.row_mut(b).copy_from_slice(&first);
        }

        let mut retries = Retries(Vec::new());
        let res = calc.scf_with(&mut retries);
        assert!(res.quarantined.is_empty(), "the ladder must recover");
        assert!((res.rho.integrate() - calc.n_electrons()).abs() < 1e-8);
        assert_eq!(retries.0.len(), 1, "{:?}", retries.0);
        let fault = &retries.0[0];
        assert_eq!((fault.fragment, fault.attempt), (3, 0));
        assert_eq!(fault.action, RetryAction::Primary);
        assert!(fault.detail.contains("linearly dependent"), "{fault}");
    }

    #[test]
    fn charge_ratio_is_the_patched_charge_before_renormalization() {
        // The crystal8 set, two iterations, a snapshot after each: every
        // step's q/N_e and retention round-trip through the snapshot bit
        // for bit, the last step's equal those of an unsolved `respond`
        // (rounds 0) re-patching the fragments' final ψ, and the run digest
        // ignores both.
        let s = ls3df_atoms::model_crystal([2, 2, 2], 6.5);
        let opts = Ls3dfOptions {
            cg_steps: 4,
            initial_cg_steps: 12,
            max_scf: 2,
            tol: 1e-12,
            ..small_crystal_opts()
        };
        let dir = std::env::temp_dir().join(format!("ls3df-charge-ratio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut calc = Ls3df::builder(&s)
            .fragments([2, 2, 2])
            .options(opts.clone())
            .checkpoint(CheckpointConfig {
                dir: dir.clone(),
                policy: ls3df_ckpt::CheckpointPolicy::EveryN(1),
                keep_last: 1,
            })
            .build()
            .expect("valid test geometry");
        let mut res = calc.scf();
        assert_eq!(res.history.len(), 2);

        let patch = calc
            .respond(Effort::default())
            .expect("one rank")
            .expect("root");
        let q = patch.q / calc.n_electrons();
        let last = res.history[1].charge_ratio;
        assert_eq!(q.to_bits(), last.to_bits(), "{q} vs {last}");
        assert!((last - 1.0).abs() < 0.25, "q/N_e = {last}");
        let retention = res.history[1].retention_min;
        assert_eq!(patch.retention_min().to_bits(), retention.to_bits());
        assert!(retention > 0.5 && retention <= 1.0, "r_F min = {retention}");

        let path = ls3df_ckpt::latest_snapshot(&dir)
            .expect("list snapshots")
            .expect("a snapshot per iteration");
        let mut resumed = Ls3df::builder(&s)
            .fragments([2, 2, 2])
            .options(opts)
            .build()
            .expect("valid test geometry");
        resumed.restore_from(&path).expect("resume");
        let history = &resumed.resume.as_ref().expect("restored run").history;
        for (a, b) in history.iter().zip(&res.history) {
            assert_eq!(a.charge_ratio.to_bits(), b.charge_ratio.to_bits());
            assert_eq!(a.retention_min.to_bits(), b.retention_min.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);

        let digest = res.digest();
        for step in &mut res.history {
            step.charge_ratio = f64::NAN;
            step.retention_min = f64::NAN;
        }
        assert_eq!(res.digest(), digest, "q/N_e and r_F are not in the digest");
    }
}
