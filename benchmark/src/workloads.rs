//! The four workloads: what runs, with which options, and why.
//!
//! All three `crystal8_*` workloads share identical physics options and
//! differ only in stop rule and parallel decomposition, so their SCF
//! trajectories agree bit for bit over any common iteration prefix.

use ls3df::atoms::{self, Atom, Species, Structure};
use ls3df::core::{Ls3dfOptions, Passivation};
use ls3df::grid::Grid3;
use ls3df::pseudo::PseudoTable;
use ls3df::pw::{DftSystem, Mixer, PwAtom, ScfOptions};

/// `--seconds` at which the iteration counts below apply; other values
/// scale the steady iteration counts in proportion.
pub const NOMINAL_SECONDS: u64 = 30;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// 2×2×2 deep-well model crystal, 8 atoms / 16 electrons, 16³ grid.
    Crystal8,
    /// Fig. 6's relaxed ZnTe₁₋ₓOₓ alloy, 64 atoms / 256 electrons, 12³ grid.
    Znteo64,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub system: System,
    /// `LS3DF_THREADS` of every rank.
    pub threads: usize,
    /// `LS3DF_GROUPS`.
    pub groups: usize,
    /// Run to convergence at this tolerance instead of a fixed count.
    pub converge_tol: Option<f64>,
    /// Steady (second and later) iterations at [`NOMINAL_SECONDS`].
    pub steady_iters: usize,
    /// Snapshot every second iteration, then resume in a fresh process.
    pub checkpoint: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "crystal8_converge",
        why: "Time to a converged solution checked against direct LDA: 64 fragments of at most \
              10 bands on 14^3/22^3 Bluestein boxes, 2 threads; fft does the work, math/pseudo almost none",
        system: System::Crystal8,
        threads: 2,
        groups: 1,
        converge_tol: Some(1e-1),
        steady_iters: 0,
        checkpoint: false,
    },
    Workload {
        name: "znteo64_iter",
        why: "Cost per iteration of fig6's relaxed 64-atom alloy: up to ~130 bands per fragment on \
              12^3/18^3 boxes with KB projectors, so math GEMM/ortho and pseudo do real work; 2 threads",
        system: System::Znteo64,
        threads: 2,
        groups: 1,
        converge_tol: None,
        steady_iters: 1,
        checkpoint: false,
    },
    Workload {
        name: "crystal8_groups2",
        why: "Same crystal split over two single-thread LocalProcs ranks: dist frames, distrib \
              merge/broadcast and plan_groups balance are on the blocking path, thread scheduling is not",
        system: System::Crystal8,
        threads: 1,
        groups: 2,
        converge_tol: None,
        steady_iters: 3,
        checkpoint: false,
    },
    Workload {
        name: "crystal8_serial_ckpt",
        why: "Plain single-thread baseline of the same crystal, snapshotting every 2nd iteration and \
              resumed in a fresh process, so ckpt writes sit beside ckpt reads",
        system: System::Crystal8,
        threads: 1,
        groups: 1,
        converge_tol: None,
        steady_iters: 2,
        checkpoint: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Outer iterations of a fixed-count run measuring for `seconds`
    /// (`None` for the run-to-convergence workload). `--smoke` runs pass
    /// `seconds = 0` and get the minimum of two.
    pub fn iterations(&self, seconds: u64) -> Option<usize> {
        if self.converge_tol.is_some() && seconds > 0 {
            return None;
        }
        let scaled = (self.steady_iters as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        Some(1 + (scaled as usize).max(1))
    }

    /// Iteration whose snapshot the resumed process starts from: the last
    /// even one that leaves work to do (the final one if there is none).
    pub fn resume_iteration(iterations: usize) -> usize {
        (((iterations - 1) / 2) * 2).max(2)
    }

    /// The structure; only the alloy's O-site placement depends on `seed`.
    pub fn structure(&self, seed: u64) -> Structure {
        match self.system {
            System::Crystal8 => model_crystal([2, 2, 2], 6.5),
            System::Znteo64 => {
                let mut s = atoms::znteo_alloy([2, 2, 2], atoms::ZNTE_LATTICE, 0.03125, seed);
                atoms::relax(&mut s, 1e-4, 3000);
                s
            }
        }
    }

    /// Physics and stop rule. `iterations` caps the run; a workload that
    /// runs to convergence gets a cap it must not reach.
    pub fn options(&self, iterations: Option<usize>) -> Ls3dfOptions {
        let (max_scf, tol) = match (iterations, self.converge_tol) {
            (Some(n), _) => (n, 1e-10),
            (None, Some(tol)) => (40, tol),
            (None, None) => unreachable!("fixed-count workload without a count"),
        };
        match self.system {
            // The `accuracy` bin's options.
            System::Crystal8 => Ls3dfOptions {
                ecut: 1.5,
                piece_pts: [8; 3],
                buffer_pts: [3; 3],
                passivation: Passivation::WallOnly,
                wall_height: 1.5,
                n_extra_bands: 2,
                cg_steps: 8,
                initial_cg_steps: 30,
                fragment_tol: 1e-8,
                mixer: Mixer::Kerker {
                    alpha: 0.6,
                    q0: 0.8,
                },
                max_scf,
                tol,
                pseudo: self.pseudo(),
                ..Default::default()
            },
            // Fig. 6's system sized to fit; damped mixing because it does
            // not converge yet (ROADMAP 1b) — cost per iteration is the point.
            System::Znteo64 => Ls3dfOptions {
                ecut: 1.2,
                piece_pts: [6; 3],
                buffer_pts: [3; 3],
                passivation: Passivation::PseudoH,
                wall_height: 1.5,
                n_extra_bands: 2,
                cg_steps: 2,
                initial_cg_steps: 4,
                fragment_tol: 1e-9,
                mixer: Mixer::Kerker {
                    alpha: 0.1,
                    q0: 1.0,
                },
                max_scf,
                tol,
                pseudo: self.pseudo(),
                ..Default::default()
            },
        }
    }

    pub fn pseudo(&self) -> PseudoTable {
        match self.system {
            System::Crystal8 => PseudoTable::deep_well(2.0, 0.8),
            System::Znteo64 => PseudoTable::default(),
        }
    }

    pub const PIECES: [usize; 3] = [2, 2, 2];

    /// The direct (whole-system) LDA problem LS3DF is checked against, on
    /// the workload's own global grid, and the options it converges with:
    /// it needs 71 iterations on crystal8 — the `accuracy` bin's cap of 60
    /// stops it short.
    pub fn direct_reference(&self, s: &Structure, grid: Grid3) -> (DftSystem, ScfOptions) {
        let table = self.pseudo();
        let atoms = s
            .atoms
            .iter()
            .map(|a| {
                let p = table.get(a.species);
                PwAtom {
                    pos: a.pos,
                    local: p.local,
                    kb_rb: p.kb.rb,
                    kb_energy: p.kb.e_kb,
                }
            })
            .collect();
        let system = DftSystem {
            grid,
            ecut: self.options(Some(2)).ecut,
            atoms,
        };
        let options = ScfOptions {
            max_scf: 200,
            tol: 1e-5,
            n_extra_bands: 4,
            ..Default::default()
        };
        (system, options)
    }
}

/// Simple-cubic crystal of one closed-shell model atom per piece (the
/// `ls3df-bench` helper of the same name, which this package cannot
/// depend on without joining the root workspace).
fn model_crystal(m: [usize; 3], a: f64) -> Structure {
    let mut atoms = Vec::new();
    for k in 0..m[2] {
        for j in 0..m[1] {
            for i in 0..m[0] {
                atoms.push(Atom {
                    species: Species::Zn,
                    pos: [
                        (i as f64 + 0.5) * a,
                        (j as f64 + 0.5) * a,
                        (k as f64 + 0.5) * a,
                    ],
                });
            }
        }
    }
    Structure::new([m[0] as f64 * a, m[1] as f64 * a, m[2] as f64 * a], atoms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_counts_scale_with_seconds() {
        let groups2 = by_name("crystal8_groups2").unwrap();
        assert_eq!(groups2.iterations(30), Some(4));
        assert_eq!(groups2.iterations(60), Some(7));
        assert_eq!(groups2.iterations(1), Some(2));
        assert_eq!(groups2.iterations(0), Some(2));
        let converge = by_name("crystal8_converge").unwrap();
        assert_eq!(converge.iterations(30), None);
        assert_eq!(converge.iterations(0), Some(2));
        assert_eq!(by_name("znteo64_iter").unwrap().iterations(30), Some(2));
        assert_eq!(
            by_name("crystal8_serial_ckpt").unwrap().iterations(30),
            Some(3)
        );
    }

    #[test]
    fn resume_starts_from_an_even_iteration_with_work_left() {
        assert_eq!(Workload::resume_iteration(2), 2);
        assert_eq!(Workload::resume_iteration(3), 2);
        assert_eq!(Workload::resume_iteration(4), 2);
        assert_eq!(Workload::resume_iteration(5), 4);
        assert_eq!(Workload::resume_iteration(8), 6);
    }

    #[test]
    fn crystal8_workloads_share_their_physics() {
        let opts: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.system == System::Crystal8)
            .map(|w| {
                format!(
                    "{:?}",
                    Ls3dfOptions {
                        max_scf: 0,
                        tol: 0.0,
                        ..w.options(Some(2))
                    }
                )
            })
            .collect();
        assert_eq!(opts.len(), 3);
        assert!(opts.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn names_are_unique_and_whys_fit_the_manifest() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
