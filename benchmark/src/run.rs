//! One measured run of a workload, in a process of its own.
//!
//! The pool size, kernel policy and processor-group world are latched
//! once per process, so the harness starts every run as a fresh child of
//! itself with the workload's environment. Everything here observes the
//! program from outside: the `ScfObserver` hooks, the fields of
//! `Ls3dfResult`, and `/proc`. A `LocalProcs` worker rank re-executes
//! this same function (SPMD) and stays silent.

use crate::checks::digest;
use crate::json::{arr_f64, arr_of};
use crate::procfs;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{System, Workload};
use ls3df::ckpt::{CheckpointConfig, CkptError};
use ls3df::core::{
    FragmentFault, Ls3df, Ls3dfResult, Ls3dfStep, QuarantineRecord, ScfObserver, ScfStage,
};
use ls3df::obs::Json;
use ls3df::pw::{self, Hamiltonian, NonlocalPotential, SolverOptions};
use ls3df::Structure;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Hartree → meV.
const HARTREE_MEV: f64 = 27211.4;

/// What the harness asks of a run child.
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// `--seconds`; 0 for a `--smoke` run.
    pub seconds: u64,
    /// Record the benchmark's spans and harvest the program's counters.
    pub trace: bool,
    /// Directory the run's snapshots go to (checkpointing workloads).
    pub ckpt_dir: Option<PathBuf>,
    /// Resume from this snapshot instead of starting at iteration 1.
    pub resume_from: Option<PathBuf>,
    /// Where the traced run leaves its chrome-trace events.
    pub trace_events: Option<PathBuf>,
}

/// Set-ups per run, so `setup_s` is a median: the crystal's takes
/// milliseconds, the alloy's about a second.
fn setup_reps(system: System) -> usize {
    match system {
        System::Crystal8 => 25,
        System::Znteo64 => 9,
    }
}

/// Times of one outer iteration as seen through the hooks.
#[derive(Clone, Debug, Default)]
struct IterRecord {
    iteration: usize,
    wall_s: f64,
    cpu_s: f64,
    /// Gen_VF, PEtot_F, Gen_dens, GENPOT wall seconds.
    stages: [f64; 4],
    /// CPU seconds of the whole process tree during PEtot_F.
    petot_cpu_s: f64,
    dv_integral: f64,
    worst_residual: f64,
}

struct Snapshot {
    iteration: usize,
    path: PathBuf,
    write_s: f64,
    bytes: u64,
}

/// Everything the hooks saw.
#[derive(Default)]
struct RunLog {
    iters: Vec<IterRecord>,
    retries: u64,
    quarantines: u64,
    snapshots: Vec<Snapshot>,
    snapshot_failures: u64,
    /// Span-clock time the restored run's first stage could start.
    restored_ns: Option<u64>,
    /// Highest `VmHWM` seen per worker rank (sampled while they live).
    worker_rss_mib: Vec<f64>,
}

struct Hooks<'a> {
    log: &'a mut RunLog,
    spans: Option<(&'a mut Recorder, usize)>,
    /// This process and every worker rank.
    pids: &'a [u32],
    current: IterRecord,
    /// Wall/CPU/span time at which the current iteration started.
    cursor: (Instant, f64, u64),
    petot_cpu_start: f64,
    step_ns: u64,
    step_at: Instant,
}

fn tree_cpu_seconds(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| procfs::cpu_seconds(p)).sum()
}

impl<'a> Hooks<'a> {
    fn new(log: &'a mut RunLog, spans: Option<(&'a mut Recorder, usize)>, pids: &'a [u32]) -> Self {
        let now = Instant::now();
        Hooks {
            log,
            spans,
            pids,
            current: IterRecord::default(),
            cursor: (now, tree_cpu_seconds(pids), Recorder::now()),
            petot_cpu_start: 0.0,
            step_ns: 0,
            step_at: now,
        }
    }

    fn restart_cursor(&mut self) {
        self.cursor = (Instant::now(), tree_cpu_seconds(self.pids), Recorder::now());
    }
}

impl ScfObserver for Hooks<'_> {
    fn on_stage(&mut self, _iteration: usize, stage: ScfStage, seconds: f64) {
        let slot = match stage {
            ScfStage::GenVf => {
                self.petot_cpu_start = tree_cpu_seconds(self.pids);
                0
            }
            ScfStage::PetotF => {
                self.current.petot_cpu_s = tree_cpu_seconds(self.pids) - self.petot_cpu_start;
                1
            }
            ScfStage::GenDens => 2,
            ScfStage::Genpot => 3,
        };
        self.current.stages[slot] = seconds;
    }

    fn on_step(&mut self, step: &Ls3dfStep) {
        let (t0, cpu0, ns0) = self.cursor;
        self.step_at = Instant::now();
        self.step_ns = Recorder::now();
        let mut rec = std::mem::take(&mut self.current);
        rec.iteration = step.iteration;
        rec.wall_s = self.step_at.duration_since(t0).as_secs_f64();
        rec.cpu_s = tree_cpu_seconds(self.pids) - cpu0;
        rec.dv_integral = step.dv_integral;
        rec.worst_residual = step.worst_residual;
        if let Some((spans, scf)) = &mut self.spans {
            // Stage spans are laid end to end from the hook's durations;
            // what is left of the iteration is its self time (hand-offs,
            // broadcasts, the hooks themselves).
            let iter = spans.record(
                &format!("iter:{}", step.iteration),
                ns0,
                self.step_ns,
                Some(*scf),
            );
            let mut at = ns0;
            for (name, secs) in ["Gen_VF", "PEtot_F", "Gen_dens", "GENPOT"]
                .iter()
                .zip(rec.stages)
            {
                let end = at + (secs * 1e9) as u64;
                spans.record(name, at, end, Some(iter));
                at = end;
            }
        }
        self.log.iters.push(rec);
        self.log.worker_rss_mib.resize(self.pids.len() - 1, 0.0);
        for (peak, &pid) in self.log.worker_rss_mib.iter_mut().zip(&self.pids[1..]) {
            *peak = peak.max(procfs::peak_rss_mib(pid).unwrap_or(0.0));
        }
        self.restart_cursor();
    }

    fn on_fragment_retry(&mut self, _iteration: usize, _fault: &FragmentFault) {
        self.log.retries += 1;
    }

    fn on_fragment_quarantined(&mut self, _iteration: usize, _record: &QuarantineRecord) {
        self.log.quarantines += 1;
    }

    fn on_snapshot_written(&mut self, iteration: usize, path: &Path) {
        let write_s = self.step_at.elapsed().as_secs_f64();
        if let Some((spans, scf)) = &mut self.spans {
            spans.record("snapshot", self.step_ns, Recorder::now(), Some(*scf));
        }
        self.log.snapshots.push(Snapshot {
            iteration,
            path: path.to_path_buf(),
            write_s,
            bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
        });
        // The write belongs to no iteration.
        self.restart_cursor();
    }

    fn on_snapshot_failed(&mut self, _iteration: usize, _error: &CkptError) {
        self.log.snapshot_failures += 1;
        self.restart_cursor();
    }

    fn on_snapshot_restored(&mut self, _resumed_from_iteration: usize) {
        self.log.restored_ns = Some(Recorder::now());
        self.restart_cursor();
    }
}

/// LS3DF against direct LDA on the same grid (`accuracy.rs`'s method):
/// the Harris energy of the converged LS3DF density/potential against
/// the direct total energy, and the density difference per electron.
struct Accuracy {
    direct_converged: bool,
    direct_iters: usize,
    direct_scf_s: f64,
    energy_err_mev_per_atom: f64,
    density_err_per_electron: f64,
}

fn accuracy(w: &Workload, s: &Structure, calc: &Ls3df, res: &Ls3dfResult) -> Accuracy {
    let (sys, direct_options) = w.direct_reference(s, calc.global_grid.clone());
    let t = Instant::now();
    let direct = pw::scf(&sys, &direct_options);
    let direct_scf_s = t.elapsed().as_secs_f64();

    let basis = calc.global_basis();
    let positions: Vec<[f64; 3]> = sys.atoms.iter().map(|a| a.pos).collect();
    let widths: Vec<f64> = sys.atoms.iter().map(|a| a.kb_rb).collect();
    let e_kb: Vec<f64> = sys.atoms.iter().map(|a| a.kb_energy).collect();
    let nl = NonlocalPotential::new(
        basis,
        &positions,
        |a, q| (-q * q * widths[a] * widths[a] / 2.0).exp(),
        &e_kb,
    );
    let h = Hamiltonian::new(basis, res.v_eff.clone(), &nl);
    let mut psi = pw::scf::random_start(direct.eigenvalues.len(), basis, 5);
    let stats = pw::solve_all_band(
        &h,
        &mut psi,
        &SolverOptions {
            max_iter: 250,
            tol: 1e-7,
            ..Default::default()
        },
    );
    let n_occ = sys.n_occupied();
    let (_, energies) = pw::effective_potential(basis, calc.v_ion(), &res.rho);
    let band: f64 = stats.eigenvalues[..n_occ].iter().map(|e| 2.0 * e).sum();
    let vin_rho: f64 = res
        .v_eff
        .as_slice()
        .iter()
        .zip(res.rho.as_slice())
        .map(|(&v, &r)| v * r)
        .sum::<f64>()
        * basis.grid().dv();
    let e_ls3df =
        band - vin_rho + energies.ion_rho + energies.hartree + energies.xc + sys.ewald_energy();
    Accuracy {
        direct_converged: direct.converged,
        direct_iters: direct.history.len(),
        direct_scf_s,
        energy_err_mev_per_atom: ((e_ls3df - direct.total_energy) / s.len() as f64 * HARTREE_MEV)
            .abs(),
        density_err_per_electron: res.rho.diff(&direct.rho).integrate_abs() / s.num_electrons(),
    }
}

/// Counters and comm traffic of the traced build, summed over ranks.
fn harvest_program_trace(events: &mut Vec<Json>) -> Vec<(String, Json)> {
    let local = ls3df::obs::harvest();
    let (remote, _costs) = ls3df::obs::telemetry::take_stash();
    let mut counters: Vec<(String, u64)> = local
        .counters
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    let epoch = local.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut lanes = vec![(0usize, 0i128, local.spans, local.threads)];
    for payload in remote {
        if let ls3df::obs::RankPayload::Telemetry(t) = payload {
            for (name, value) in t.counters {
                match counters.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, total)) => *total += value,
                    None => counters.push((name, value)),
                }
            }
            // Each rank's clock starts at its own process start: line the
            // lanes up at their first span.
            let first = t.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            lanes.push((t.rank, epoch as i128 - first as i128, t.spans, t.threads));
        }
    }
    for (rank, shift, spans, threads) in lanes {
        let pid = (1 + rank) as f64;
        events.push(Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(pid)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("program rank {rank}")))]),
            ),
        ]));
        for (tid, name) in threads {
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::num(pid)),
                ("tid", Json::num(f64::from(tid))),
                ("args", Json::obj(vec![("name", Json::str(name))])),
            ]));
        }
        for span in spans {
            events.push(Json::obj(vec![
                ("name", Json::str(span.display_label())),
                ("ph", Json::str("X")),
                ("pid", Json::num(pid)),
                ("tid", Json::num(f64::from(span.tid))),
                (
                    "ts",
                    Json::num((span.start_ns as i128 + shift) as f64 * 1e-3),
                ),
                (
                    "dur",
                    Json::num(span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-3),
                ),
            ]));
        }
    }
    // Rank 0 is the hub of a hub-and-spoke transport: it sees every frame.
    let (mut frames, mut bytes) = (0u64, 0u64);
    for row in ls3df::dist::drain_telemetry() {
        frames += row.frames;
        bytes += row.bytes;
    }
    let mut out: Vec<(String, Json)> = counters
        .into_iter()
        .map(|(k, v)| (k, Json::num(v as f64)))
        .collect();
    out.push(("comm_frames".to_string(), Json::num(frames as f64)));
    out.push(("comm_bytes".to_string(), Json::num(bytes as f64)));
    out
}

/// Runs the workload once and returns the child's report; `None` on a
/// worker rank, which reports nothing.
pub fn run(args: &RunArgs) -> Option<Json> {
    let main_ns = Recorder::now();
    let w = args.workload;
    let iterations = w.iterations(args.seconds);
    let opts = w.options(iterations);
    let resuming = args.resume_from.is_some();
    let mut spans = Recorder::new(format!(
        "{}-seed{}-pid{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let root = spans.record(
        if resuming { "resume" } else { "run" },
        main_ns,
        main_ns,
        None,
    );

    // Set-up: structure generation (+VFF) through build() returning,
    // several times over; the last one is the calculation that runs.
    // A resumed process sets up once — it is timed as a whole.
    let reps = if resuming { 1 } else { setup_reps(w.system) };
    let mut setup_s = Vec::with_capacity(reps);
    let mut atoms_s = Vec::with_capacity(reps);
    let mut built: Option<(Structure, Ls3df)> = None;
    for _ in 0..reps {
        drop(built.take()); // one calculation alive at a time, as in a real run
        let start_ns = Recorder::now();
        let t = Instant::now();
        let s = w.structure(args.seed);
        atoms_s.push(t.elapsed().as_secs_f64());
        let mut builder = Ls3df::builder(&s)
            .fragments(Workload::PIECES)
            .options(opts.clone())
            .groups(w.groups);
        if let Some(dir) = &args.ckpt_dir {
            builder = builder.checkpoint(CheckpointConfig::every_n(dir, 2));
        }
        let calc = match builder.build() {
            Ok(calc) => calc,
            Err(e) => return Some(Json::obj(vec![("error", Json::str(format!("build: {e}")))])),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        spans.record("setup", start_ns, Recorder::now(), Some(root));
        built = Some((s, calc));
    }
    let (s, mut calc) = built.expect("at least one set-up");
    let rank = calc.comm().rank();

    let mut restore_s = None;
    if let Some(path) = &args.resume_from {
        let t = Instant::now();
        let restored = spans.time("restore", Some(root), || calc.restore_from(path));
        restore_s = Some(t.elapsed().as_secs_f64());
        if let Err(e) = restored {
            return Some(Json::obj(vec![(
                "error",
                Json::str(format!("restore: {e}")),
            )]));
        }
    }

    // The process tree whose CPU time and memory the run is charged.
    let workers: Vec<u32> = ls3df::dist::worker_pids()
        .into_iter()
        .map(|(_, pid)| pid)
        .collect();
    let mut pids = vec![std::process::id()];
    pids.extend(&workers);

    let mut log = RunLog::default();
    let scf_ns = Recorder::now();
    let scf_span = spans.record("scf", scf_ns, scf_ns, Some(root));
    let scf_start = Instant::now();
    let result = {
        let traced = args.trace.then_some((&mut spans, scf_span));
        calc.try_scf_with(Hooks::new(&mut log, traced, &pids))
    };
    let scf_s = scf_start.elapsed().as_secs_f64();
    spans.close(scf_span, Recorder::now());
    if rank != 0 {
        return None;
    }
    let res = match result {
        Ok(res) => res,
        Err(e) => return Some(Json::obj(vec![("error", Json::str(format!("scf: {e}")))])),
    };

    let rho = res.rho.as_slice();
    let finite = rho
        .iter()
        .chain(res.v_eff.as_slice())
        .all(|x| x.is_finite())
        && res
            .history
            .iter()
            .all(|h| h.dv_integral.is_finite() && h.worst_residual.is_finite());
    let n_electrons = calc.n_electrons();
    let charge_rel_err = ((res.rho.integrate() - n_electrons) / n_electrons).abs();

    let acc = (w.converge_tol.is_some() && iterations.is_none())
        .then(|| spans.time("reference", Some(root), || accuracy(w, &s, &calc, &res)));

    // Rank joins: every worker must have ended by itself once the run is
    // over (its own process reaps nothing; the harness's exit does).
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while workers.iter().any(|&p| procfs::is_running(p)) && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stragglers = workers.iter().filter(|&&p| procfs::is_running(p)).count();

    let peak_rss_mib = procfs::peak_rss_mib(std::process::id()).unwrap_or(0.0)
        + log.worker_rss_mib.iter().sum::<f64>();
    spans.close(root, Recorder::now());
    let mut program = Vec::new();
    if let Some(path) = &args.trace_events {
        let mut events = spans.chrome_events(0, &format!("benchmark {}", spans.spans[root].name));
        if ls3df::obs::ENABLED {
            program = harvest_program_trace(&mut events);
        }
        if let Err(e) = std::fs::write(path, Json::Arr(events).render()) {
            return Some(Json::obj(vec![(
                "error",
                Json::str(format!("trace file: {e}")),
            )]));
        }
    }

    let col = |f: &dyn Fn(&IterRecord) -> f64| arr_f64(log.iters.iter().map(f));
    let group_gap = {
        let g = &res.group_petot_seconds;
        g.iter().cloned().fold(f64::MIN, f64::max) - g.iter().cloned().fold(f64::MAX, f64::min)
    };
    let plan = calc.group_plan();
    let imbalance_pred = {
        let mean = plan.costs.iter().sum::<u64>() as f64 / plan.costs.len().max(1) as f64;
        plan.costs.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
    };
    let mut out = vec![
        ("rank_count", Json::num(pids.len() as f64)),
        ("fragments", Json::num(calc.n_fragments() as f64)),
        ("setup_s", arr_f64(setup_s.iter().copied())),
        ("atoms_build_s", Json::num(median(&atoms_s))),
        ("scf_s", Json::num(scf_s)),
        ("converged", Json::Bool(res.converged)),
        (
            "first_iteration",
            Json::num(log.iters.first().map_or(0, |r| r.iteration) as f64),
        ),
        ("iter_wall_s", col(&|r| r.wall_s)),
        ("iter_cpu_s", col(&|r| r.cpu_s)),
        ("gen_vf_s", col(&|r| r.stages[0])),
        ("petot_f_s", col(&|r| r.stages[1])),
        ("gen_dens_s", col(&|r| r.stages[2])),
        ("genpot_s", col(&|r| r.stages[3])),
        ("petot_cpu_s", col(&|r| r.petot_cpu_s)),
        // Bit patterns, so runs can be compared exactly.
        (
            "trajectory",
            arr_of(log.iters.iter().map(|r| {
                Json::str(format!(
                    "{} {:016x} {:016x}",
                    r.iteration,
                    r.dv_integral.to_bits(),
                    r.worst_residual.to_bits()
                ))
            })),
        ),
        (
            "dv_first",
            Json::num(res.history.first().map_or(0.0, |h| h.dv_integral)),
        ),
        (
            "dv_last",
            Json::num(res.history.last().map_or(0.0, |h| h.dv_integral)),
        ),
        ("density_digest", Json::str(format!("{:016x}", digest(rho)))),
        ("finite", Json::Bool(finite)),
        ("charge_rel_err", Json::num(charge_rel_err)),
        ("retries", Json::num(log.retries as f64)),
        (
            "quarantines",
            Json::num(log.quarantines.max(res.quarantined.len() as u64) as f64),
        ),
        ("snapshot_failures", Json::num(log.snapshot_failures as f64)),
        (
            "snapshots",
            arr_of(log.snapshots.iter().map(|snap| {
                Json::obj(vec![
                    ("iteration", Json::num(snap.iteration as f64)),
                    ("path", Json::str(snap.path.to_string_lossy())),
                    ("write_s", Json::num(snap.write_s)),
                    ("bytes", Json::num(snap.bytes as f64)),
                ])
            })),
        ),
        ("peak_rss_mib", Json::num(peak_rss_mib)),
        ("worker_stragglers", Json::num(stragglers as f64)),
        ("group_petot_gap_s", Json::num(group_gap)),
        ("imbalance_pred", Json::num(imbalance_pred)),
        // What is left of an iteration beside its four stages: hand-offs,
        // frames and broadcasts between ranks, the hooks themselves.
        (
            "iter_glue_s",
            col(&|r| r.wall_s - r.stages.iter().sum::<f64>()),
        ),
    ];
    if let Some(secs) = restore_s {
        out.push(("restore_s", Json::num(secs)));
        // Fresh process → first resumed stage can start.
        let ready = log.restored_ns.unwrap_or(scf_ns);
        out.push((
            "resume_s",
            Json::num(ready.saturating_sub(main_ns) as f64 * 1e-9),
        ));
    }
    if let Some(acc) = acc {
        out.push((
            "accuracy",
            Json::obj(vec![
                ("direct_converged", Json::Bool(acc.direct_converged)),
                ("direct_iters", Json::num(acc.direct_iters as f64)),
                ("direct_scf_s", Json::num(acc.direct_scf_s)),
                (
                    "energy_err_mev_per_atom",
                    Json::num(acc.energy_err_mev_per_atom),
                ),
                (
                    "density_err_per_electron",
                    Json::num(acc.density_err_per_electron),
                ),
            ]),
        ));
    }
    let mut out: Vec<(String, Json)> = out.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    if !program.is_empty() {
        out.push(("program".to_string(), Json::Obj(program)));
    }
    Some(Json::Obj(out))
}
