//! Self-consistent-field driver: the direct O(N³) DFT solver.
//!
//! This is the reproduction's stand-in for PEtot / PARATEC / VASP — the
//! conventional planewave codes the paper benchmarks against (§VI). LS3DF
//! reuses all the pieces (`Hamiltonian`, solvers, `effective_potential`)
//! per fragment; this module wires them into the standard global SCF loop
//! with potential mixing.

use crate::density::{compute_density, insulator_occupations};
use crate::hamiltonian::{Hamiltonian, NonlocalPotential};
use crate::hartree::HartreeSolver;
use crate::mixing::{Mixer, MixerState};
use crate::potential::{effective_potential_with, initial_density, ionic_potential, PwAtom};
use crate::solver::{solve_all_band_packed_with, CgWorkspace, SolverOptions};
use crate::{ewald, PwBasis};
use ls3df_grid::{Grid3, RealField};
use ls3df_math::{c64, Matrix};

/// Options for an SCF run.
#[derive(Clone, Debug)]
pub struct ScfOptions {
    /// Extra empty bands above the occupied manifold.
    pub n_extra_bands: usize,
    /// Inner eigensolver options (per SCF iteration).
    pub solver: SolverOptions,
    /// Potential mixing scheme.
    pub mixer: Mixer,
    /// Maximum SCF (outer) iterations.
    pub max_scf: usize,
    /// Convergence threshold on `∫|V_out − V_in| d³r` (Hartree·Bohr³ —
    /// the paper's Fig. 6 metric).
    pub tol: f64,
    /// Width (Bohr) of the Gaussian atomic charges in the initial density.
    pub init_width: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            n_extra_bands: 4,
            solver: SolverOptions {
                max_iter: 12,
                tol: 1e-6,
                ..Default::default()
            },
            mixer: Mixer::Kerker {
                alpha: 0.7,
                q0: 1.2,
            },
            max_scf: 60,
            tol: 1e-4,
            init_width: 1.4,
        }
    }
}

/// A complete planewave DFT problem specification.
pub struct DftSystem {
    /// The real-space grid / periodic cell.
    pub grid: Grid3,
    /// Planewave cutoff (Hartree).
    pub ecut: f64,
    /// Atoms (positions + pseudopotentials).
    pub atoms: Vec<PwAtom>,
}

impl DftSystem {
    /// Total valence electrons (= Σ ionic charges; neutral cell).
    pub fn n_electrons(&self) -> f64 {
        self.atoms.iter().map(|a| a.local.z).sum()
    }

    /// Number of doubly-occupied bands.
    pub fn n_occupied(&self) -> usize {
        (self.n_electrons() / 2.0).round() as usize
    }

    /// Ion–ion Ewald energy for this cell.
    pub fn ewald_energy(&self) -> f64 {
        let pos: Vec<[f64; 3]> = self.atoms.iter().map(|a| a.pos).collect();
        let q: Vec<f64> = self.atoms.iter().map(|a| a.local.z).collect();
        ewald::ewald_energy(&pos, &q, self.grid.lengths)
    }
}

/// One SCF iteration record (drives paper Fig. 6).
#[derive(Clone, Copy, Debug)]
pub struct ScfStep {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// `∫|V_out − V_in| d³r`.
    pub dv_integral: f64,
    /// Total energy estimate at this step (Hartree).
    pub total_energy: f64,
    /// Inner eigensolver residual.
    pub band_residual: f64,
}

/// Result of a converged (or stopped) SCF run.
pub struct ScfResult {
    /// Eigenvalues of the final iteration (Hartree, ascending).
    pub eigenvalues: Vec<f64>,
    /// Final wavefunctions `(n_bands × n_pw)`, as Γ-point packed real rows
    /// ([`PwBasis::pack`]; [`PwBasis::unpack_block`] gives the
    /// full-sphere block).
    pub psi: Matrix<f64>,
    /// Final (output) density.
    pub rho: RealField,
    /// Final self-consistent effective potential (the `V_in` of the last
    /// iteration — what LS3DF would hand to post-processing).
    pub v_eff: RealField,
    /// Final total energy (Hartree).
    pub total_energy: f64,
    /// Per-iteration history.
    pub history: Vec<ScfStep>,
    /// Whether the potential difference dropped below tolerance.
    pub converged: bool,
    /// Occupations used.
    pub occupations: Vec<f64>,
}

impl ScfResult {
    /// Band gap between the highest occupied and lowest unoccupied
    /// computed band, if any empty bands were requested.
    pub fn band_gap(&self) -> Option<f64> {
        let homo = self.occupations.iter().rposition(|&f| f > 0.0)?;
        let lumo = homo + 1;
        if lumo < self.eigenvalues.len() {
            Some(self.eigenvalues[lumo] - self.eigenvalues[homo])
        } else {
            None
        }
    }
}

/// Builds the basis, nonlocal projectors and starting state for a system.
/// `init_width` is the Gaussian width (Bohr) of the superposed atomic
/// charges in the starting density.
pub fn setup(
    system: &DftSystem,
    init_width: f64,
) -> (PwBasis, NonlocalPotential, RealField, RealField) {
    let basis = PwBasis::new(system.grid.clone(), system.ecut);
    let positions: Vec<[f64; 3]> = system.atoms.iter().map(|a| a.pos).collect();
    let e_kb: Vec<f64> = system.atoms.iter().map(|a| a.kb_energy).collect();
    let widths: Vec<f64> = system.atoms.iter().map(|a| a.kb_rb).collect();
    let nonlocal = NonlocalPotential::new(
        &basis,
        &positions,
        |a, q| (-q * q * widths[a] * widths[a] / 2.0).exp(),
        &e_kb,
    );
    let v_ion = ionic_potential(&basis, &system.atoms);
    let rho0 = initial_density(&basis, &system.atoms, init_width);
    (basis, nonlocal, v_ion, rho0)
}

/// Deterministic random starting wavefunctions (seeded, so runs are
/// reproducible) as full-sphere rows: [`random_start_packed`] unpacked.
/// The rows are real orbitals (conjugate-symmetric).
pub fn random_start(n_bands: usize, basis: &PwBasis, seed: u64) -> Matrix<c64> {
    basis.unpack_block(&random_start_packed(n_bands, basis, seed))
}

/// Deterministic random starting wavefunctions as Γ-point packed real
/// rows, one draw per half-sphere vector (`±G` pair): the start block of
/// every fragment and of the direct SCF.
pub fn random_start_packed(n_bands: usize, basis: &PwBasis, seed: u64) -> Matrix<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    // Weight low-G components more: better overlap with smooth low states.
    let mut draw = |g2: f64| {
        let damp = 1.0 / (1.0 + g2);
        c64::new(next() * damp, next() * damp)
    };
    // Rows staged in one buffer and appended: the block is written once,
    // never zeroed first.
    let mut row = vec![0.0; basis.len()];
    let mut data = Vec::with_capacity(n_bands * basis.len());
    for _ in 0..n_bands {
        basis.fill_packed(&mut row, &mut draw);
        data.extend_from_slice(&row);
    }
    Matrix::from_vec(n_bands, basis.len(), data)
}

/// Runs the full self-consistent loop for `system`.
pub fn scf(system: &DftSystem, opts: &ScfOptions) -> ScfResult {
    let (basis, nonlocal, v_ion, rho0) = setup(system, opts.init_width);
    let n_occ = system.n_occupied();
    let n_bands = n_occ + opts.n_extra_bands;
    let occupations = insulator_occupations(n_bands, system.n_electrons());
    let mut psi = random_start_packed(n_bands, &basis, 12345);
    let e_ii = system.ewald_energy();

    // Per-geometry caches shared by every SCF iteration: the Poisson
    // solver (FFT plan + reciprocal kernel) and the CG block scratch.
    let hartree = HartreeSolver::new(basis.grid().clone());
    let mut cg_ws: Option<CgWorkspace<f64>> = None;
    let (mut v_in, _) = effective_potential_with(&basis, &v_ion, &rho0, &hartree);
    let mut mixer = MixerState::new(opts.mixer.clone());
    let mut history: Vec<ScfStep> = Vec::new();
    let mut converged = false;
    let mut rho = rho0;
    let mut eigenvalues = Vec::new();

    for iteration in 1..=opts.max_scf {
        // Solve the bands in the current potential.
        let h = Hamiltonian::new(&basis, v_in.clone(), &nonlocal);
        let ws = cg_ws.get_or_insert_with(|| CgWorkspace::new(&h, psi.rows()));
        let stats = solve_all_band_packed_with(&h, &mut psi, &opts.solver, ws);
        eigenvalues = stats.eigenvalues.clone();

        // New density and output potential.
        rho = compute_density(&basis, &psi, &occupations);
        let (v_out, energies) = effective_potential_with(&basis, &v_ion, &rho, &hartree);

        // Total energy: E = Σfε − ∫V_in ρ + ∫V_ion ρ + E_H + E_xc + E_II.
        let band_energy: f64 = eigenvalues
            .iter()
            .zip(&occupations)
            .map(|(&e, &f)| f * e)
            .sum();
        let vin_rho: f64 = v_in
            .as_slice()
            .iter()
            .zip(rho.as_slice())
            .map(|(&v, &r)| v * r)
            .sum::<f64>()
            * basis.grid().dv();
        let total_energy =
            band_energy - vin_rho + energies.ion_rho + energies.hartree + energies.xc + e_ii;

        let dv_integral = v_out.diff(&v_in).integrate_abs();
        history.push(ScfStep {
            iteration,
            dv_integral,
            total_energy,
            band_residual: stats.residual,
        });
        if dv_integral < opts.tol {
            converged = true;
            v_in = v_out;
            break;
        }
        v_in = mixer.mix(&v_in, &v_out, basis.fft());
    }

    let total_energy = history.last().map(|s| s.total_energy).unwrap_or(0.0);
    ScfResult {
        eigenvalues,
        psi,
        rho,
        v_eff: v_in,
        total_energy,
        history,
        converged,
        occupations,
    }
}

/// Chooses a grid that supports planewaves up to `2·G_max` (density
/// resolution) for a box of the given lengths, rounding each axis up to an
/// even count.
pub fn grid_for(lengths: [f64; 3], ecut: f64) -> Grid3 {
    let g_max = (2.0 * ecut).sqrt();
    let dims: [usize; 3] = std::array::from_fn(|k| {
        let n = (2.0 * g_max * lengths[k] / std::f64::consts::PI).ceil() as usize;
        (n + n % 2).max(4)
    });
    Grid3::new(dims, lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_pseudo::LocalPotential;

    /// A tiny 2-electron "helium-like" system: one attractive Gaussian
    /// pseudo-atom in a box.
    fn tiny_system() -> DftSystem {
        let lengths = [8.0, 8.0, 8.0];
        let ecut = 1.5;
        let grid = grid_for(lengths, ecut);
        DftSystem {
            grid,
            ecut,
            atoms: vec![PwAtom {
                pos: [4.0, 4.0, 4.0],
                local: LocalPotential {
                    z: 2.0,
                    rc: 0.9,
                    a: 0.0,
                    w: 1.0,
                },
                kb_rb: 1.0,
                kb_energy: 0.0,
            }],
        }
    }

    #[test]
    fn grid_for_supports_density_resolution() {
        let g = grid_for([10.0, 5.0, 7.5], 2.0);
        let gmax = 2.0_f64;
        for ax in 0..3 {
            let nyquist = std::f64::consts::PI * g.dims[ax] as f64 / g.lengths[ax];
            assert!(nyquist >= 2.0 * gmax - 1e-9, "axis {ax}");
            assert_eq!(g.dims[ax] % 2, 0);
        }
    }

    #[test]
    fn scf_converges_on_tiny_atom() {
        let sys = tiny_system();
        let opts = ScfOptions {
            max_scf: 60,
            tol: 1e-4,
            n_extra_bands: 3,
            ..Default::default()
        };
        let res = scf(&sys, &opts);
        assert!(
            res.converged,
            "SCF did not converge: {:?}",
            res.history.last()
        );
        // Electron count preserved.
        assert!((res.rho.integrate() - 2.0).abs() < 1e-8);
        // Bound ground state.
        assert!(res.eigenvalues[0] < 0.0);
        // Convergence history decays overall.
        let first = res.history.first().unwrap().dv_integral;
        let last = res.history.last().unwrap().dv_integral;
        assert!(last < first * 0.1, "ΔV: first {first}, last {last}");
    }

    #[test]
    fn total_energy_stabilizes() {
        let sys = tiny_system();
        let res = scf(
            &sys,
            &ScfOptions {
                max_scf: 40,
                tol: 1e-6,
                ..Default::default()
            },
        );
        let n = res.history.len();
        assert!(n >= 3);
        let e_last = res.history[n - 1].total_energy;
        let e_prev = res.history[n - 2].total_energy;
        assert!(
            (e_last - e_prev).abs() < 1e-4,
            "energy still moving: {e_prev} → {e_last}"
        );
        assert!(e_last.is_finite());
    }
}
