//! The repo benchmark: four LS3DF workloads, end-to-end and per-layer
//! metrics by name, a correctness gate, and a traced run. See README.md.
//!
//! One parent process starts one run at a time, each in a fresh child
//! process of this executable, never with more than two busy threads in
//! total. It measures the program from outside only.

mod checks;
mod json;
mod machine;
mod manifest;
mod procfs;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use checks::Gate;
use json::{num, nums, one_line, strs};
use ls3df::obs::Json;
use manifest::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, NOMINAL_SECONDS, WORKLOADS};

/// The benchmark's directory as built (the build and the run share one
/// checkout); children run with it as their working directory so every
/// path they touch is a short relative one inside the checkout.
const HOME: &str = env!("CARGO_MANIFEST_DIR");
/// Everything the benchmark writes lives here.
const OUT: &str = "out";
/// A child that has not ended by then is killed (the driver allows 180 s
/// for a whole invocation).
const CHILD_DEADLINE: Duration = Duration::from_secs(170);
/// Seconds of the fixed-work probe before and after each run.
const PROBE_SECONDS: f64 = 0.25;
/// Probe rates further apart than this mark the run `disturbed`.
const DISTURBED: f64 = 0.10;

const USAGE: &str = "\
usage: ls3df-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                       [--reps R] [--smoke] [--calibrate]

  --workload NAME  one of crystal8_converge, znteo64_iter, crystal8_groups2,
                   crystal8_serial_ckpt (default: all four, one after another)
  --seed N         workload seed (default 42; only the alloy's O sites depend on it)
  --seconds S      size of the measured work: fixed iteration counts scale with it
                   (default 30; crystal8_converge always runs to convergence)
  --trace 0|1      1: run the traced build, replay the layers, report every
                   per-layer metric and write out/trace_<workload>.json
  --reps R         measured runs per workload, samples pooled (default 1)
  --smoke          every workload at 2 iterations with all checks that apply
  --calibrate      two sets of ten seeds per workload; spreads against the bounds
  --print-manifest print BENCHMARK.json as this harness defines it";

#[derive(Clone, Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reps: usize,
    smoke: bool,
    calibrate: bool,
    /// Print `BENCHMARK.json` as this harness defines it, and stop.
    print_manifest: bool,
    /// Internal: this process is a child (`run`, `replay`, `replay-solves`).
    child: Option<String>,
    ckpt_dir: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    trace_events: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: NOMINAL_SECONDS,
        trace: false,
        reps: 1,
        smoke: false,
        calibrate: false,
        print_manifest: false,
        child: None,
        ckpt_dir: None,
        resume_from: None,
        trace_events: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--reps" => cli.reps = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--smoke" => cli.smoke = true,
            "--calibrate" => cli.calibrate = true,
            "--print-manifest" => cli.print_manifest = true,
            "--child" => cli.child = Some(value()?.clone()),
            "--ckpt-dir" => cli.ckpt_dir = Some(value()?.into()),
            "--resume-from" => cli.resume_from = Some(value()?.into()),
            "--trace-events" => cli.trace_events = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.reps == 0 || cli.seconds == 0 {
        return Err("--reps and --seconds must be at least 1".to_string());
    }
    if let Some(name) = &cli.workload {
        workloads::by_name(name).ok_or(format!("unknown workload {name}"))?;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ls3df-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_manifest {
        print!("{}", manifest::manifest().render());
        return ExitCode::SUCCESS;
    }
    if let Some(kind) = &cli.child {
        return child_main(kind, &cli);
    }
    match parent_main(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ls3df-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- children

/// A child prints exactly one JSON document (a worker rank nothing at all).
fn child_main(kind: &str, cli: &Cli) -> ExitCode {
    let w = cli
        .workload
        .as_deref()
        .and_then(workloads::by_name)
        .expect("the parent names the workload");
    let seconds = if cli.smoke { 0 } else { cli.seconds };
    let doc = match kind {
        "run" => run::run(&run::RunArgs {
            workload: w,
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            ckpt_dir: cli.ckpt_dir.clone(),
            resume_from: cli.resume_from.clone(),
            trace_events: cli.trace_events.clone(),
        }),
        "replay" => Some(replay::replay(
            w,
            cli.seed,
            false,
            cli.trace_events.as_deref(),
        )),
        "replay-solves" => Some(replay::replay(w, cli.seed, true, None)),
        other => {
            eprintln!("ls3df-benchmark: unknown child kind {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(doc) = doc {
        print!("{}", doc.render());
        if doc.get("error").is_some() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The two builds of this package: the one running now, and the one with
/// the program's own collection compiled in (`--features obs`).
struct Binaries {
    plain: PathBuf,
    traced: Option<PathBuf>,
}

impl Binaries {
    fn locate(trace: bool) -> Result<Self, String> {
        let plain = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let traced = if trace {
            // <target>/release/ls3df-benchmark → <target>/obs
            let target = plain
                .parent()
                .and_then(Path::parent)
                .ok_or("executable is not in a cargo target directory")?
                .join("obs");
            // Always ask cargo: it returns at once when the build is fresh.
            let status = Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--features",
                    "obs",
                ])
                .arg("--manifest-path")
                .arg(Path::new(HOME).join("Cargo.toml"))
                .arg("--target-dir")
                .arg(&target)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cargo build --features obs: {e}"))?;
            if !status.success() {
                return Err("the traced build (--features obs) failed".to_string());
            }
            Some(target.join("release").join("ls3df-benchmark"))
        } else {
            None
        };
        Ok(Binaries { plain, traced })
    }
}

/// Starts one child, waits for it (killing it at the deadline) and parses
/// what it printed. Children never overlap.
fn run_child(
    exe: &Path,
    w: &Workload,
    cli: &Cli,
    kind: &str,
    threads: usize,
    extra: &[(&str, &Path)],
) -> Result<Json, String> {
    let stdout_path = Path::new(HOME)
        .join(OUT)
        .join(format!("child-{}-{kind}.json", std::process::id()));
    let stdout = std::fs::File::create(&stdout_path)
        .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", w.name])
        .args([
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    for (flag, path) in extra {
        cmd.arg(flag).arg(path);
    }
    // Latched once per process: pool size and, by being absent, the
    // default (`fast`) kernel policy. The rank socket goes to a short
    // relative path inside the checkout instead of the system's /tmp.
    cmd.current_dir(HOME)
        .env("LS3DF_THREADS", threads.to_string())
        .env_remove("LS3DF_KERNELS")
        .env_remove("LS3DF_GROUPS")
        .env("TMPDIR", format!("{OUT}/tmp"))
        .stdin(Stdio::null())
        .stdout(stdout);
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                // Its worker ranks exit by themselves when the hub goes.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{kind} child of {} exceeded {CHILD_DEADLINE:?}",
                    w.name
                ));
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let text = std::fs::read_to_string(&stdout_path)
        .map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let _ = std::fs::remove_file(&stdout_path);
    let doc =
        Json::parse(&text).map_err(|e| format!("{kind} child of {} ({status}): {e}", w.name))?;
    match doc.get("error").and_then(Json::as_str) {
        Some(error) => Err(format!("{kind} child of {}: {error}", w.name)),
        None if !status.success() => Err(format!("{kind} child of {}: {status}", w.name)),
        None => Ok(doc),
    }
}

// ------------------------------------------------------------- one workload

/// What one workload's runs gave: samples of every end-to-end metric
/// (pooled over reps), one value per per-layer metric, and the gate.
struct Measured {
    workload: &'static Workload,
    end_to_end: Vec<(&'static str, Vec<f64>)>,
    per_layer: Vec<(&'static str, f64)>,
    gate: Gate,
    disturbed: usize,
    digests: Vec<String>,
}

impl Measured {
    fn value(&self, name: &str) -> f64 {
        let samples = &self
            .end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known metric")
            .1;
        stats::median(samples)
    }
}

/// Steady iterations: the second and later of a run (the first carries
/// the burn-in); a resumed run starts after its snapshot, so all of its
/// iterations are steady.
fn steady(doc: &Json, key: &str) -> Vec<f64> {
    let first = num(doc, "first_iteration").unwrap_or(1.0) as usize;
    nums(doc, key)
        .into_iter()
        .skip(usize::from(first == 1))
        .collect()
}

/// Checks the iterations of this run against every earlier run of the
/// same crystal by this executable: `∫|ΔV|` and the worst residual of
/// iteration k must agree bit for bit whatever the stop rule, thread
/// count, rank count or interruption. The first run to reach an
/// iteration records it.
fn check_trajectory(gate: &mut Gate, exe: &Path, doc: &Json) -> Result<(), String> {
    let stamp = std::fs::metadata(exe)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let path = Path::new(HOME)
        .join(OUT)
        .join(format!("crystal8-trajectory-{stamp:x}.txt"));
    let mut known: Vec<String> = std::fs::read_to_string(&path)
        .map(|t| t.lines().map(str::to_string).collect())
        .unwrap_or_default();
    let mut agree = true;
    let mut grew = false;
    for line in strs(doc, "trajectory") {
        let iteration: usize = line
            .split(' ')
            .next()
            .and_then(|i| i.parse().ok())
            .filter(|&i| i >= 1)
            .ok_or("malformed trajectory")?;
        if known.len() < iteration {
            known.resize(iteration, String::new());
        }
        let slot = &mut known[iteration - 1];
        if slot.is_empty() {
            *slot = line;
            grew = true;
        } else if *slot != line {
            agree = false;
        }
    }
    gate.check(
        "SCF trajectory bit-identical to every other crystal8 run",
        agree,
    );
    if grew {
        std::fs::write(&path, known.join("\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// What the processes of one run reported.
struct RunDocs {
    /// The run (for a checkpointing workload, the uninterrupted one).
    run: Json,
    /// The fresh process that resumed from a snapshot, if the workload has one.
    resumed: Option<Json>,
    /// Wall seconds of those processes, start to end.
    run_s: f64,
    /// Relative difference of the fixed-work probes around the run.
    probe_drift: f64,
}

/// Paths, relative to [`HOME`], of the chrome-trace events each process of
/// a traced run leaves for the parent to merge.
fn event_files() -> [PathBuf; 3] {
    ["run", "resume", "replay"]
        .map(|part| PathBuf::from(OUT).join(format!("events-{}-{part}.json", std::process::id())))
}

fn flag(doc: &Json, key: &str) -> bool {
    doc.get(key).and_then(Json::as_bool) == Some(true)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Starts the run's processes one after another, between two probes.
fn execute(w: &Workload, cli: &Cli, exe: &Path, gate: &mut Gate) -> Result<RunDocs, String> {
    let ckpt_dir = PathBuf::from(OUT).join(format!("ckpt-{}", std::process::id()));
    let [run_events, resume_events, _] = event_files();
    let probe_before = machine::fft_probe(PROBE_SECONDS);
    let started = Instant::now();
    let mut extra: Vec<(&str, &Path)> = Vec::new();
    if w.checkpoint {
        extra.push(("--ckpt-dir", &ckpt_dir));
    }
    if cli.trace {
        extra.push(("--trace-events", &run_events));
    }
    let run = run_child(exe, w, cli, "run", w.threads, &extra)?;
    let mut run_s = started.elapsed().as_secs_f64();

    // The resumed half of a checkpointing workload: a fresh process picks
    // up the snapshot of an earlier iteration and runs to the same end.
    let mut resumed = None;
    if w.checkpoint {
        let from = Workload::resume_iteration(nums(&run, "iter_wall_s").len().max(2));
        let snapshot = run
            .get("snapshots")
            .and_then(Json::as_array)
            .and_then(|snaps| {
                snaps
                    .iter()
                    .find(|s| num(s, "iteration") == Some(from as f64))
            })
            .and_then(|s| s.get("path").and_then(Json::as_str))
            .map(PathBuf::from);
        gate.check("snapshot to resume from was written", snapshot.is_some());
        if let Some(snapshot) = snapshot {
            let started = Instant::now();
            let mut extra: Vec<(&str, &Path)> = vec![("--resume-from", &snapshot)];
            if cli.trace {
                extra.push(("--trace-events", &resume_events));
            }
            resumed = Some(run_child(exe, w, cli, "run", w.threads, &extra)?);
            run_s += started.elapsed().as_secs_f64();
        }
        let _ = std::fs::remove_dir_all(Path::new(HOME).join(&ckpt_dir));
    }
    let probe_after = machine::fft_probe(PROBE_SECONDS);
    Ok(RunDocs {
        run,
        resumed,
        run_s,
        probe_drift: (probe_after - probe_before).abs() / probe_before.max(probe_after),
    })
}

/// The correctness gate over one run. `earlier_digest` is the density
/// digest of an earlier rep of the same seed, if there was one.
fn gate_run(
    w: &Workload,
    cli: &Cli,
    exe: &Path,
    docs: &RunDocs,
    earlier_digest: Option<&str>,
    gate: &mut Gate,
) -> Result<(), String> {
    let run = &docs.run;
    let fragments = num(run, "fragments").unwrap_or(0.0) as u64;
    for (label, d) in [("run", Some(run)), ("resumed run", docs.resumed.as_ref())] {
        let Some(d) = d else { continue };
        let solved = nums(d, "iter_wall_s").len() as u64 * fragments;
        let faults =
            (num(d, "retries").unwrap_or(0.0) + num(d, "quarantines").unwrap_or(0.0)) as u64;
        gate.operations(
            &format!("{label}: fragment solves retried or quarantined"),
            solved.max(1),
            faults,
        );
        gate.check(&format!("{label}: all outputs finite"), flag(d, "finite"));
        gate.check(
            &format!("{label}: integral of rho = N_e to 1e-8 relative"),
            num(d, "charge_rel_err").is_some_and(|e| e < 1e-8),
        );
        let written = d
            .get("snapshots")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len) as u64;
        let failed = num(d, "snapshot_failures").unwrap_or(0.0) as u64;
        if written + failed > 0 {
            gate.operations(
                &format!("{label}: snapshot writes"),
                written + failed,
                failed,
            );
        }
        if w.system == workloads::System::Crystal8 {
            check_trajectory(gate, exe, d)?;
        }
    }
    if w.groups > 1 {
        let joined = num(run, "rank_count") == Some(w.groups as f64)
            && num(run, "worker_stragglers") == Some(0.0);
        gate.operations("rank joins", w.groups as u64 - 1, u64::from(!joined));
    }
    if let Some(n) = w.iterations(if cli.smoke { 0 } else { cli.seconds }) {
        gate.check(
            "ran the fixed iteration count without converging",
            nums(run, "iter_wall_s").len() == n && !flag(run, "converged"),
        );
    }
    let digest = run.get("density_digest").and_then(Json::as_str);
    if let Some(r) = &docs.resumed {
        gate.operations("snapshot restores", 1, 0);
        gate.check(
            "resumed density bit-identical to the uninterrupted one",
            digest.is_some() && r.get("density_digest").and_then(Json::as_str) == digest,
        );
    }
    if let Some(earlier) = earlier_digest {
        gate.check(
            "density digest identical across reps of the same seed",
            digest == Some(earlier),
        );
    }
    if w.converge_tol.is_some() && !cli.smoke {
        gate.check("LS3DF converged", flag(run, "converged"));
        gate.check(
            "final integral |dV| below 1e-3 of the first",
            num(run, "dv_last")
                .zip(num(run, "dv_first"))
                .is_some_and(|(last, first)| last < 1e-3 * first),
        );
        let acc = run
            .get("accuracy")
            .ok_or("the converging workload reports no accuracy")?;
        gate.check(
            "direct LDA reference converged",
            flag(acc, "direct_converged"),
        );
        gate.check(
            "energy error at most 10 meV/atom",
            num(acc, "energy_err_mev_per_atom").is_some_and(|e| e <= 10.0),
        );
        // 0.122 when the benchmark was defined, +5 %.
        gate.check(
            "density error at most 0.128 per electron",
            num(acc, "density_err_per_electron").is_some_and(|e| e <= 0.128),
        );
    }
    Ok(())
}

/// Adds one run's samples of every end-to-end metric.
fn add_end_to_end(docs: &RunDocs, end_to_end: &mut [(&'static str, Vec<f64>)]) {
    let both = |key: &str| -> Vec<f64> {
        let mut v = steady(&docs.run, key);
        v.extend(docs.resumed.iter().flat_map(|r| steady(r, key)));
        v
    };
    let peak_rss = std::iter::once(&docs.run)
        .chain(&docs.resumed)
        .filter_map(|d| num(d, "peak_rss_mib"))
        .fold(0.0, f64::max);
    for (name, samples) in end_to_end.iter_mut() {
        match *name {
            "scf_iter_s" => samples.extend(both("iter_wall_s")),
            "core_s_per_iter" => samples.extend(both("iter_cpu_s")),
            "time_to_solution_s" => samples.extend(num(&docs.run, "scf_s")),
            "run_s" => samples.push(docs.run_s),
            "peak_rss_mb" => samples.push(peak_rss),
            "setup_s" => samples.extend(nums(&docs.run, "setup_s")),
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    }
}

/// Replays the layers, merges the trace file, and returns one value per
/// listed per-layer metric (0 where the workload gives it no meaning).
fn per_layer(
    w: &Workload,
    cli: &Cli,
    bins: &Binaries,
    exe: &Path,
    docs: &RunDocs,
) -> Result<Vec<(&'static str, f64)>, String> {
    let events = event_files();
    let replayed = run_child(
        &bins.plain,
        w,
        cli,
        "replay",
        1,
        &[("--trace-events", &events[2])],
    )?;
    let solves_traced = run_child(exe, w, cli, "replay-solves", 1, &[])?;
    let run = &docs.run;
    let n_iters = nums(run, "iter_wall_s").len().max(1) as f64;

    let mut layer: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| layer.push((name.to_string(), value));
    let med = |key: &str| median_or_zero(&steady(run, key));
    let petot = med("petot_f_s");
    let stage_sum: f64 = ["gen_vf_s", "petot_f_s", "gen_dens_s", "genpot_s"]
        .iter()
        .map(|k| med(k))
        .sum();
    put("core.gen_vf_s", med("gen_vf_s"));
    put("core.petot_f_s", petot);
    put("core.gen_dens_s", med("gen_dens_s"));
    put("core.genpot_s", med("genpot_s"));
    put(
        "core.petot_f_share",
        100.0 * petot / stage_sum.max(f64::MIN_POSITIVE),
    );
    put(
        "core.first_iter_s",
        nums(run, "iter_wall_s").first().copied().unwrap_or(0.0),
    );
    let busy = med("petot_cpu_s") / ((w.threads * w.groups) as f64 * petot.max(f64::MIN_POSITIVE));
    put("core.petot_f_idle_frac", (1.0 - busy).max(0.0));
    put("core.scf_iters", nums(run, "iter_wall_s").len() as f64);
    put("core.retries", num(run, "retries").unwrap_or(0.0));
    put("core.quarantines", num(run, "quarantines").unwrap_or(0.0));

    let snaps = run.get("snapshots").and_then(Json::as_array).unwrap_or(&[]);
    let snap_med =
        |key: &str| median_or_zero(&snaps.iter().filter_map(|s| num(s, key)).collect::<Vec<_>>());
    let of_resumed = |key: &str| {
        docs.resumed
            .as_ref()
            .and_then(|r| num(r, key))
            .unwrap_or(0.0)
    };
    put("ckpt.write_s", snap_med("write_s"));
    put("ckpt.bytes", snap_med("bytes"));
    put("ckpt.restore_s", of_resumed("restore_s"));
    put("ckpt.resume_s", of_resumed("resume_s"));

    // With a second rank the first set-up also starts it; the rest are
    // what every later build in that world costs.
    let setup = nums(run, "setup_s");
    let spawn_s = if w.groups > 1 && setup.len() > 1 {
        setup[0] - stats::median(&setup[1..])
    } else {
        0.0
    };
    put("dist.spawn_s", spawn_s);
    put(
        "dist.group_petot_gap_s",
        num(run, "group_petot_gap_s").unwrap_or(0.0) / n_iters,
    );
    put("dist.comm_s_per_iter", med("iter_glue_s"));
    put(
        "dist.imbalance_pred",
        num(run, "imbalance_pred").unwrap_or(0.0),
    );

    // The traced build's own counters, per iteration.
    let counter = |key: &str| run.get("program").and_then(|p| num(p, key)).unwrap_or(0.0) / n_iters;
    put("core.fragment_solves", counter("fragment_solves"));
    put("dist.bytes_per_iter", counter("comm_bytes"));
    put("dist.frames_per_iter", counter("comm_frames"));
    put("obs.fft_lines_bluestein", counter("fft_lines_bluestein"));
    put(
        "obs.fft_lines_pow2",
        counter("fft_lines_radix2") + counter("fft_lines_radix4"),
    );
    put("obs.fft_flops", counter("fft_flops"));
    put("obs.cg_band_iterations", counter("cg_band_iterations"));

    // The probe cost: the same four fragment solves, traced build against
    // plain build, weighted to one iteration's PEtot_F.
    let petot_cpu = |d: &Json| -> f64 {
        replay::FRAGMENTS_OF_PIECES
            .iter()
            .map(|(pieces, count)| count * num(d, &format!("pw.solve_s.p{pieces}")).unwrap_or(0.0))
            .sum()
    };
    let (plain_cpu, traced_cpu) = (petot_cpu(&replayed), petot_cpu(&solves_traced));
    put("pw.replay_petot_cpu_s", plain_cpu);
    put(
        "obs.overhead_frac",
        (traced_cpu - plain_cpu) / plain_cpu.max(f64::MIN_POSITIVE),
    );
    for (name, value) in replayed.as_object().unwrap_or(&[]) {
        put(name, value.as_f64().unwrap_or(0.0));
    }
    let of = |name: &str| num(&replayed, name).unwrap_or(0.0);
    for kernel in ["fft.c2c", "math.gemm"] {
        let roof = machine::roofline_gflops(
            of("machine.fma_gflops"),
            of("machine.triad_gb_s"),
            of(&format!("{kernel}_flops_per_byte.p8")),
        );
        put(
            &format!("{kernel}_roofline_frac.p8"),
            of(&format!("{kernel}_gflops.p8")) / roof.max(f64::MIN_POSITIVE),
        );
    }
    let accuracy = |key: &str| run.get("accuracy").and_then(|a| num(a, key)).unwrap_or(0.0);
    put(
        "accuracy.energy_err_mev_per_atom",
        accuracy("energy_err_mev_per_atom"),
    );
    put(
        "accuracy.density_err_per_electron",
        accuracy("density_err_per_electron"),
    );
    put("noise.probe_drift_frac", docs.probe_drift);

    // One trace file per workload: the benchmark's spans of every process
    // of the run, and the program's own beside them.
    let mut merged = Vec::new();
    for part in &events {
        let path = Path::new(HOME).join(part);
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Json::Arr(items) =
                Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
            {
                merged.extend(items);
            }
            let _ = std::fs::remove_file(&path);
        }
    }
    let spans = merged
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    put("trace.spans", spans as f64);
    let trace_path = Path::new(HOME)
        .join(OUT)
        .join(format!("trace_{}.json", w.name));
    std::fs::write(&trace_path, Json::Arr(merged).render())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    Ok(PER_LAYER
        .iter()
        .map(|p| {
            (
                p.name,
                layer
                    .iter()
                    .find(|(n, _)| n == p.name)
                    .map_or(0.0, |(_, v)| *v),
            )
        })
        .collect())
}

/// Runs `w` once (with its resumed process, if it has one) and folds the
/// result into `m`.
fn run_once(
    w: &'static Workload,
    cli: &Cli,
    bins: &Binaries,
    m: &mut Measured,
) -> Result<(), String> {
    let exe = if cli.trace {
        bins.traced.as_deref().expect("traced build located")
    } else {
        &bins.plain
    };
    let docs = execute(w, cli, exe, &mut m.gate)?;
    if docs.probe_drift > DISTURBED {
        m.disturbed += 1;
    }
    gate_run(
        w,
        cli,
        exe,
        &docs,
        m.digests.first().map(String::as_str),
        &mut m.gate,
    )?;
    let digest = docs
        .run
        .get("density_digest")
        .and_then(Json::as_str)
        .unwrap_or("");
    m.digests.push(digest.to_string());
    add_end_to_end(&docs, &mut m.end_to_end);
    if cli.trace {
        m.per_layer = per_layer(w, cli, bins, exe, &docs)?;
    }
    Ok(())
}

fn measure(w: &'static Workload, cli: &Cli, bins: &Binaries) -> Result<Measured, String> {
    let mut m = Measured {
        workload: w,
        end_to_end: END_TO_END.iter().map(|e| (e.name, Vec::new())).collect(),
        per_layer: Vec::new(),
        gate: Gate::default(),
        disturbed: 0,
        digests: Vec::new(),
    };
    // End-to-end numbers are never taken from more than one traced run.
    let reps = if cli.trace { 1 } else { cli.reps };
    for _ in 0..reps {
        let disturbed_before = m.disturbed;
        run_once(w, cli, bins, &mut m)?;
        // A disturbed run is run again, once, and both are reported —
        // where there is room for more than one run per invocation.
        if m.disturbed > disturbed_before && cli.reps > 1 {
            eprintln!(
                "{}: probes differ by more than {DISTURBED}: run marked disturbed and repeated",
                w.name
            );
            run_once(w, cli, bins, &mut m)?;
        }
    }
    Ok(m)
}

// ------------------------------------------------------------------ output

fn result_line(all: &[Measured], trace: bool) -> Json {
    let single = all.len() == 1;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for m in all {
        let key = |name: &str| {
            if single {
                name.to_string()
            } else {
                format!("{}.{name}", m.workload.name)
            }
        };
        let value = |v: f64, unit: &str| {
            Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(unit))])
        };
        if trace {
            for (p, (_, v)) in PER_LAYER.iter().zip(&m.per_layer) {
                metrics.push((key(p.name), value(*v, p.unit)));
            }
        } else {
            for e in END_TO_END {
                metrics.push((key(e.name), value(m.value(e.name), e.unit)));
            }
        }
    }
    Json::obj(vec![
        ("correct", Json::Bool(all.iter().all(|m| m.gate.passed()))),
        (
            "attempted",
            Json::num(all.iter().map(|m| m.gate.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::num(all.iter().map(|m| m.gate.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_table(m: &Measured, trace: bool) {
    println!("== {} — {}", m.workload.name, m.workload.why);
    println!(
        "{:<36} {:>14} {:<9} {:>16} {:>4} {:>7}",
        "end-to-end metric", "median", "unit", "tail", "n", "bound"
    );
    for e in END_TO_END {
        let samples = &m
            .end_to_end
            .iter()
            .find(|(n, _)| *n == e.name)
            .expect("known metric")
            .1;
        let tail = stats::tail_percentile(samples.len()).map_or("-".to_string(), |p| {
            format!("p{p} {:.6}", stats::percentile(samples, p))
        });
        println!(
            "{:<36} {:>14.6} {:<9} {:>16} {:>4} {:>6.0}%",
            e.name,
            stats::median(samples),
            e.unit,
            tail,
            samples.len(),
            e.bound * 100.0
        );
    }
    if trace {
        println!("{:<36} {:>14} {:<9}", "per-layer metric", "value", "unit");
        for (p, (_, v)) in PER_LAYER.iter().zip(&m.per_layer) {
            println!("{:<36} {:>14.6e} {:<9}", p.name, v, p.unit);
        }
    }
    println!(
        "gate: {} of {} operations and checks failed (ops_failed_frac {:.3e}){}",
        m.gate.failed,
        m.gate.attempted,
        m.gate.failed as f64 / m.gate.attempted.max(1) as f64,
        if m.disturbed > 0 {
            format!("; {} run(s) disturbed", m.disturbed)
        } else {
            String::new()
        }
    );
    for failure in &m.gate.failures {
        println!("  FAILED: {failure}");
    }
}

fn results_json(all: &[Measured], cli: &Cli) -> Json {
    let workloads = all
        .iter()
        .map(|m| {
            let end_to_end = m
                .end_to_end
                .iter()
                .map(|(name, samples)| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("median", Json::num(stats::median(samples))),
                            ("samples", json::arr_f64(samples.iter().copied())),
                        ]),
                    )
                })
                .collect();
            let per_layer = m
                .per_layer
                .iter()
                .map(|(n, v)| (n.to_string(), Json::num(*v)))
                .collect();
            Json::obj(vec![
                ("workload", Json::str(m.workload.name)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
                ("attempted", Json::num(m.gate.attempted as f64)),
                ("failed", Json::num(m.gate.failed as f64)),
                (
                    "failures",
                    Json::Arr(m.gate.failures.iter().map(Json::str).collect()),
                ),
                ("disturbed_runs", Json::num(m.disturbed as f64)),
                (
                    "density_digests",
                    Json::Arr(m.digests.iter().map(Json::str).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("seed", Json::num(cli.seed as f64)),
        ("seconds", Json::num(cli.seconds as f64)),
        ("trace", Json::Bool(cli.trace)),
        ("smoke", Json::Bool(cli.smoke)),
        ("reps", Json::num(cli.reps as f64)),
        (
            "host_parallelism",
            Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn selected(cli: &Cli) -> Vec<&'static Workload> {
    match &cli.workload {
        Some(name) => vec![workloads::by_name(name).expect("validated at parse")],
        None => WORKLOADS.iter().collect(),
    }
}

/// Runs the selected workloads; `Ok(false)` when the gate failed.
fn parent_main(cli: &Cli) -> Result<bool, String> {
    let out = Path::new(HOME).join(OUT);
    std::fs::create_dir_all(out.join("tmp")).map_err(|e| format!("{}: {e}", out.display()))?;
    // The manifest names what is printed; refuse to run without it.
    let manifest_path = Path::new(HOME).join("../BENCHMARK.json");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))
        .and_then(|t| Json::parse(&t))?;
    if manifest != manifest::manifest() {
        return Err(
            "BENCHMARK.json does not list this harness's workloads and metrics".to_string(),
        );
    }
    let bins = Binaries::locate(cli.trace)?;
    if cli.calibrate {
        return calibrate(cli, &bins);
    }
    let mut all = Vec::new();
    for w in selected(cli) {
        let m = measure(w, cli, &bins)?;
        print_table(&m, cli.trace);
        all.push(m);
    }
    let results = out.join("results.json");
    std::fs::write(&results, results_json(&all, cli).render())
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("{}", one_line(&result_line(&all, cli.trace)));
    Ok(all.iter().all(|m| m.gate.passed()))
}

/// Two sets of ten runs per workload, each run with another seed, as the
/// acceptance procedure does it: the spread of every end-to-end metric
/// (interquartile distance over median) must stay below a third of its
/// bound (`setup_s` excepted), and no second median may be worse than the
/// first by more than the bound.
fn calibrate(cli: &Cli, bins: &Binaries) -> Result<bool, String> {
    let mut ok = true;
    let mut report = Vec::new();
    for w in selected(cli) {
        let mut sets: Vec<Vec<Measured>> = Vec::new();
        for _set in 0..2 {
            let mut runs = Vec::new();
            for seed in 1..=10 {
                let cli = Cli {
                    seed,
                    reps: 1,
                    trace: false,
                    ..cli.clone()
                };
                let m = measure(w, &cli, bins)?;
                ok &= m.gate.passed();
                runs.push(m);
            }
            sets.push(runs);
        }
        println!("== {} (two sets of ten seeds)", w.name);
        println!(
            "{:<22} {:>12} {:>9} {:>12} {:>9} {:>8} {:>7}  verdict",
            "metric", "median 1", "spread 1", "median 2", "spread 2", "drift", "bound"
        );
        for e in END_TO_END {
            let values: Vec<Vec<f64>> = sets
                .iter()
                .map(|set| set.iter().map(|m| m.value(e.name)).collect())
                .collect();
            let medians: Vec<f64> = values.iter().map(|v| stats::median(v)).collect();
            let spreads: Vec<f64> = values.iter().map(|v| stats::spread(v)).collect();
            let drift = (medians[1] - medians[0]) / medians[0];
            let steady = e.name == "setup_s" || spreads.iter().all(|s| *s <= e.bound / 3.0);
            let verdict = if drift > e.bound {
                "DRIFTS"
            } else if !steady {
                "TOO WIDE"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "{:<22} {:>12.6} {:>8.2}% {:>12.6} {:>8.2}% {:>7.2}% {:>6.0}%  {verdict}",
                e.name,
                medians[0],
                spreads[0] * 100.0,
                medians[1],
                spreads[1] * 100.0,
                drift * 100.0,
                e.bound * 100.0
            );
            report.push(Json::obj(vec![
                ("workload", Json::str(w.name)),
                ("metric", Json::str(e.name)),
                ("bound", Json::num(e.bound)),
                ("medians", json::arr_f64(medians.iter().copied())),
                ("spreads", json::arr_f64(spreads.iter().copied())),
                ("drift", Json::num(drift)),
                (
                    "values",
                    Json::Arr(
                        values
                            .iter()
                            .map(|v| json::arr_f64(v.iter().copied()))
                            .collect(),
                    ),
                ),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let path = Path::new(HOME).join(OUT).join("calibration.json");
    std::fs::write(&path, Json::Arr(report).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ok)
}
