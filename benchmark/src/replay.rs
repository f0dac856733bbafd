//! Per-layer metrics: timed calls into each layer's public functions,
//! replayed at the workload's own shapes, on one thread.
//!
//! `.pN` names the workload's representative fragment of N pieces
//! (N ∈ {1, 2, 4, 8}), rebuilt from public API exactly as
//! `Ls3df::assemble` builds it: `FragmentGrid::box_grid`,
//! `fragment_atoms`, `PwBasis::new`, `NonlocalPotential::new_batched`,
//! and the fragment's own potential from `Ls3df::gen_vf()`. `.global` is
//! the workload's global grid. Every timed call is also a span.

use crate::machine;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{System, Workload};
use ls3df::atoms::topology_cutoff;
use ls3df::core::{fragment_atoms, fragment_occupations, Ls3df};
use ls3df::fft::{Fft3, Fft3r};
use ls3df::grid::RealField;
use ls3df::math::ortho::cholesky_orthonormalize;
use ls3df::math::{c64, eigh_fast, gemm, overlap_hermitian, Matrix, Op};
use ls3df::obs::Json;
use ls3df::pseudo::KbProjector;
use ls3df::pw::density::compute_density;
use ls3df::pw::{
    self, cg_init, cg_residual, cg_step, solve_all_band_with, CgWorkspace, Hamiltonian,
    HartreeSolver, MixerState, NonlocalPotential, PwBasis, SolverOptions,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fragments of 1, 2, 4 and 8 pieces there are in a 2×2×2 decomposition
/// ({1,2}³ shapes at each of 8 corners): the weights that turn the four
/// representative solve times into one iteration's PEtot_F CPU time.
pub const FRAGMENTS_OF_PIECES: [(usize, f64); 4] = [(1, 8.0), (2, 24.0), (4, 24.0), (8, 8.0)];

/// Collects `(metric, value)` pairs and the span of every timed call.
struct Sink {
    metrics: Vec<(String, Json)>,
    spans: Recorder,
    root: usize,
}

impl Sink {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), Json::num(value)));
    }

    /// Median seconds of `f` over at least three calls and as many more
    /// as fit in a third of a second; one span covers the calls.
    fn time(&mut self, name: &str, mut f: impl FnMut()) -> f64 {
        let start_ns = Recorder::now();
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3
            || (started.elapsed() < Duration::from_millis(330) && samples.len() < 200)
        {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
        }
        self.spans
            .record(name, start_ns, Recorder::now(), Some(self.root));
        let secs = median(&samples);
        self.put(name, secs);
        secs
    }
}

fn fft_flops(n_points: usize) -> f64 {
    5.0 * n_points as f64 * (n_points as f64).log2()
}

/// Replays every layer at `w`'s shapes. With `solves_only`, just the four
/// representative fragment solves (what the traced build repeats so the
/// probe cost becomes a number).
pub fn replay(w: &Workload, seed: u64, solves_only: bool, trace_events: Option<&Path>) -> Json {
    let mut spans = Recorder::new(format!("{}-replay-pid{}", w.name, std::process::id()));
    let start = Recorder::now();
    let root = spans.record("replay", start, start, None);
    let mut sink = Sink {
        metrics: Vec::new(),
        spans,
        root,
    };
    let opts = w.options(Some(2));

    let mut structure = None;
    sink.time("atoms.build_s", || structure = Some(w.structure(seed)));
    let s = structure.expect("structure built");
    // One single-thread build (the run child reports the workload's own
    // set-up time as `setup_s`, over several builds).
    let t = Instant::now();
    let built = sink.spans.time("core.build_s", Some(root), || {
        Ls3df::builder(&s)
            .fragments(Workload::PIECES)
            .options(opts.clone())
            .groups(1)
            .build()
    });
    sink.put("core.build_s", t.elapsed().as_secs_f64());
    let calc = built.expect("workload geometry is valid");
    let vfs = calc.gen_vf();
    let fragments = calc.fg.fragments().to_vec();
    let neighbors = s.neighbor_list_within(topology_cutoff(&s));

    if !solves_only {
        sink.time("grid.extract_s", || {
            for f in &fragments {
                black_box(
                    calc.v_in()
                        .extract_subbox(calc.fg.box_origin(f), &calc.fg.box_grid(f)),
                );
            }
        });
    }

    for (pieces, _) in FRAGMENTS_OF_PIECES {
        let index = fragments
            .iter()
            .position(|f| f.n_pieces() == pieces)
            .expect("a 2x2x2 decomposition has every {1,2}^3 shape");
        let f = &fragments[index];
        let fa = fragment_atoms(&s, &neighbors, &calc.fg, f, opts.passivation, &opts.pseudo);
        let box_grid = calc.fg.box_grid(f);
        let tag = format!("p{pieces}");
        let detailed = !solves_only && (pieces == 1 || pieces == 8);

        let positions: Vec<[f64; 3]> = fa.atoms.iter().map(|a| a.pos).collect();
        let e_kb: Vec<f64> = fa.atoms.iter().map(|a| a.kb_energy).collect();
        let widths: Vec<f64> = fa.atoms.iter().map(|a| a.kb_rb).collect();
        let new_basis = || PwBasis::new(box_grid.clone(), opts.ecut);
        let new_nonlocal = |basis: &PwBasis| {
            NonlocalPotential::new_batched(
                basis,
                &positions,
                |a, qs, out| {
                    KbProjector {
                        rb: widths[a],
                        e_kb: e_kb[a],
                    }
                    .fourier_batch(qs, out)
                },
                &e_kb,
            )
        };
        if pieces == 8 && !solves_only {
            let [n1, n2, n3] = box_grid.dims;
            sink.time("fft.plan_s", || {
                black_box(Fft3::new(n1, n2, n3));
            });
            sink.time("pw.basis_s", || {
                black_box(new_basis());
            });
            let basis = new_basis();
            sink.time("pseudo.nl_build_s", || {
                black_box(new_nonlocal(&basis));
            });
        }
        let basis = new_basis();
        let n_occ = (fa.n_electrons / 2.0).ceil() as usize;
        let n_bands = (n_occ + opts.n_extra_bands).max(1);
        let mut psi0 = pw::scf::random_start(n_bands, &basis, 0xF00D ^ pieces as u64);
        cholesky_orthonormalize(&mut psi0, 1.0).expect("random start block is independent");
        let nonlocal = new_nonlocal(&basis);
        let occupations = fragment_occupations(n_bands, fa.n_electrons);
        let (nb, npw) = (psi0.rows(), psi0.cols());
        let h = Hamiltonian::new(&basis, vfs[index].clone(), &nonlocal);
        let mut psi = psi0.clone();
        let mut cg = CgWorkspace::new(&h, nb);

        // One steady PEtot_F solve of this fragment: `cg_steps` all-band
        // steps from the same start block every time.
        let solver = SolverOptions {
            max_iter: opts.cg_steps,
            tol: opts.fragment_tol,
            ..Default::default()
        };
        sink.time(&format!("pw.solve_s.{tag}"), || {
            psi.as_mut_slice().copy_from_slice(psi0.as_slice());
            black_box(solve_all_band_with(&h, &mut psi, &solver, &mut cg));
        });
        if solves_only {
            continue;
        }

        let mut hpsi = Matrix::<c64>::zeros(nb, npw);
        let mut ham_ws = h.workspace();
        sink.time(&format!("pw.h_apply_s.{tag}"), || {
            h.apply_block_with(&psi0, &mut hpsi, &mut ham_ws);
        });
        psi.as_mut_slice().copy_from_slice(psi0.as_slice());
        cg_init(&h, &psi, &mut cg);
        sink.time(&format!("pw.cg_step_s.{tag}"), || {
            black_box(cg_residual(&psi, &mut cg));
            cg_step(&h, &mut psi, &mut cg, false);
        });

        if !detailed {
            continue;
        }
        // math at (bands × n_pw) of this fragment.
        sink.time(&format!("math.overlap_s.{tag}"), || {
            black_box(overlap_hermitian(&psi0, 1.0));
        });
        let rotation = Matrix::<c64>::from_fn(nb, nb, |i, j| {
            c64::new(1.0 / (1 + i + j) as f64, (i as f64 - j as f64) * 1e-2)
        });
        let mut rotated = Matrix::<c64>::zeros(nb, npw);
        let (one, zero) = (c64::new(1.0, 0.0), c64::new(0.0, 0.0));
        let rotate_s = sink.time(&format!("math.rotate_s.{tag}"), || {
            gemm(
                one,
                &rotation,
                Op::None,
                &psi0,
                Op::None,
                zero,
                &mut rotated,
            );
        });
        // FFT round trips on this fragment's box.
        let fft = basis.fft();
        let mut fft_ws = fft.workspace();
        let mut field: Vec<c64> = (0..fft.len())
            .map(|i| c64::new((i % 13) as f64 - 6.0, (i % 7) as f64))
            .collect();
        let c2c_s = sink.time(&format!("fft.c2c_s.{tag}"), || {
            fft.forward_with(&mut field, &mut fft_ws);
            fft.inverse_with(&mut field, &mut fft_ws);
        });
        // Computed operation counts (5·N·log2 N per transform), never
        // measured ones.
        sink.put(
            &format!("fft.c2c_gflops.{tag}"),
            2.0 * fft_flops(fft.len()) / c2c_s * 1e-9,
        );

        if pieces != 8 {
            continue;
        }
        // A complex multiply-add is 8 real flops.
        let gemm_flops = 8.0 * (nb * nb * npw) as f64;
        sink.put("math.gemm_gflops.p8", gemm_flops / rotate_s * 1e-9);
        // Computed bytes: A, B read once, C written once (GEMM); every
        // axis pass of a transform reads and writes the whole box (FFT).
        let gemm_intensity = gemm_flops / (16.0 * (nb * nb + 2 * nb * npw) as f64);
        let fft_intensity = fft_flops(fft.len()) / (3.0 * 2.0 * 16.0 * fft.len() as f64);
        sink.put("math.gemm_flops_per_byte.p8", gemm_intensity);
        sink.put("fft.c2c_flops_per_byte.p8", fft_intensity);

        let mut ortho = psi0.clone();
        sink.time("math.chol_ortho_s.p8", || {
            ortho.as_mut_slice().copy_from_slice(psi0.as_slice());
            cholesky_orthonormalize(&mut ortho, 1.0).expect("orthonormal block stays independent");
        });
        h.apply_block_with(&psi0, &mut hpsi, &mut ham_ws);
        let subspace = Hamiltonian::subspace_matrix(&psi0, &hpsi);
        sink.time("math.eigh_s.p8", || {
            black_box(eigh_fast(&subspace));
        });
        sink.time("pseudo.nl_apply_s.p8", || {
            nonlocal.accumulate_block(&psi0, &mut hpsi);
        });
        sink.time("pw.density_s.p8", || {
            black_box(compute_density(&basis, &psi0, &occupations));
        });
    }

    if !solves_only {
        // GENPOT's pieces on the global grid.
        let grid = calc.global_grid.clone();
        let hartree = HartreeSolver::new(grid.clone());
        let mut v_h = RealField::zeros(grid.clone());
        sink.time("pw.hartree_s", || {
            hartree.solve_into(calc.rho_ref(), &mut v_h)
        });
        let v_out = calc.genpot(calc.rho_ref());
        let mut mixer = MixerState::new(opts.mixer.clone());
        sink.time("pw.mix_s", || {
            black_box(mixer.mix(calc.v_in(), &v_out, calc.global_basis().fft()));
        });
        let r2c = Fft3r::new(grid.dims);
        let mut r2c_ws = r2c.workspace();
        let mut real = calc.rho_ref().as_slice().to_vec();
        let mut packed = vec![c64::new(0.0, 0.0); r2c.packed_len()];
        sink.time("fft.r2c_s.global", || {
            r2c.forward(&real, &mut packed, &mut r2c_ws);
            r2c.inverse(&mut packed, &mut real, &mut r2c_ws);
        });

        // The direct O(N³) SCF of the same system, where it converges:
        // the honest crossover datum next to the LS3DF iteration time.
        if w.system == System::Crystal8 {
            let (sys, direct_options) = w.direct_reference(&s, grid);
            let t = Instant::now();
            let direct = sink.spans.time("pw.direct_scf_s", Some(root), || {
                pw::scf(&sys, &direct_options)
            });
            sink.put("pw.direct_scf_s", t.elapsed().as_secs_f64());
            sink.put("pw.direct_scf_iters", direct.history.len() as f64);
        }

        // Machine references, single thread, same run. Triad arrays are
        // four times the last-level cache, but at most 256 MiB each: this
        // host reports a whole socket's 260 MiB L3 to a 2-vCPU guest, and
        // first-touching 3 GiB would take longer than the workload. Both
        // sizes are reported.
        let llc = machine::last_level_cache_bytes().unwrap_or(32 << 20);
        let array_bytes = (4 * llc).min(256 << 20);
        sink.put("machine.llc_mib", llc as f64 / (1u64 << 20) as f64);
        sink.put(
            "machine.triad_array_mib",
            array_bytes as f64 / (1u64 << 20) as f64,
        );
        let triad = sink.spans.time("machine.triad_gb_s", Some(root), || {
            machine::triad_gb_s(array_bytes, 2)
        });
        sink.put("machine.triad_gb_s", triad);
        let fma = sink.spans.time("machine.fma_gflops", Some(root), || {
            machine::fma_gflops(0.3)
        });
        sink.put("machine.fma_gflops", fma);
    }

    sink.spans.close(root, Recorder::now());
    if let Some(path) = trace_events {
        let events = sink.spans.chrome_events(100, "benchmark replay");
        if let Err(e) = std::fs::write(path, Json::Arr(events).render()) {
            return Json::obj(vec![("error", Json::str(format!("trace file: {e}")))]);
        }
    }
    Json::Obj(sink.metrics)
}
