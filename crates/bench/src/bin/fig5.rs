//! Paper **Figure 5** is weak-scaling Tflop/s measured on Franklin,
//! Jaguar and Intrepid, which no single host resembles, so this bin
//! records what it can measure instead: real two-level runs on the host
//! it runs on. It re-runs a small SCF once per group count in
//! [`GROUP_COUNTS`] over the `ls3df-dist` processor-group communicator
//! and writes measured PEtot_F wall times, per-group load balance and
//! the density digest to `BENCH_fig5.json`, every point tagged
//! `provenance: "measured"`. The digest must be identical across group
//! counts (the distributed loop is pure partitioning); the bin exits
//! non-zero when it is not.
//!
//! Run: `cargo run -p ls3df-bench --bin fig5 --release`

use ls3df_atoms::model_crystal;
use ls3df_core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df_obs::{Json, Report, Stopwatch};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::Mixer;
use std::path::Path;

/// The processor-group counts measured, one fresh process each.
const GROUP_COUNTS: [usize; 2] = [1, 2];

/// One measured run over `groups` processor groups. SPMD: the launcher
/// and its spawned workers all run this same function (workers are
/// routed into the communicator bootstrap inside `build()` by
/// `LS3DF_DIST_RANK`); only rank 0's stdout reaches the parent, carrying
/// the machine-readable result line.
fn child(groups: usize) {
    let s = model_crystal([2, 2, 2], 6.5);
    let opts = Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8; 3],
        buffer_pts: [3; 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 6,
        initial_cg_steps: 10,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 2,
        tol: 1e-10, // never converges early: every group count does 2 iterations
        pseudo: PseudoTable::deep_well(2.0, 0.8),
    };
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(opts)
        .groups(groups)
        .build()
        .expect("valid measured-leg geometry");
    if calc.comm().rank() != 0 {
        // Worker rank: participate in the SCF, say nothing. (With obs
        // on, the driver's telemetry epilogue ships this rank's spans
        // and counters to rank 0 before returning.)
        let _ = calc.try_scf();
        return;
    }
    let predicted_costs = calc.group_plan().costs.clone();
    // Rank 0 collects the full observability record: with obs on, the
    // merged run report (one `ranks` section per group) and a
    // chrome://tracing file with one lane per rank land next to
    // BENCH_fig5.json.
    let mut tracer = ls3df_core::TraceObserver::new("fig5-measured");
    if ls3df_obs::ENABLED {
        tracer = tracer.with_trace_file(format!("TRACE_fig5_groups{groups}.json"));
    }
    let res = calc
        .try_scf_with(&mut tracer)
        .expect("measured fig5 SCF must complete");
    let petot: f64 = res.history.iter().map(|h| h.timings.petot_f).sum();
    let total: f64 = res
        .history
        .iter()
        .map(|h| {
            let t = h.timings;
            t.gen_vf + t.petot_f + t.gen_dens + t.genpot
        })
        .sum();
    let max_group = res
        .group_petot_seconds
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    let min_group = res
        .group_petot_seconds
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let imbalance = max_over_mean(&res.group_petot_seconds);
    let predicted: Vec<f64> = predicted_costs.iter().map(|&c| c as f64).collect();
    let predicted_imbalance = max_over_mean(&predicted);
    println!(
        "FIG5_RESULT groups={} petot={petot:.6} total={total:.6} maxgroup={max_group:.6} \
         imb={imbalance:.6} predimb={predicted_imbalance:.6} straggler={:.6} digest={:016x}",
        res.group_petot_seconds.len(),
        (max_group - min_group).max(0.0),
        res.digest()
    );
    if ls3df_obs::ENABLED {
        let report = tracer.finish();
        let path = format!("BENCH_fig5_rankreport_groups{groups}.json");
        match report.write(Path::new(&path)) {
            Ok(()) => println!("rank report -> {path}"),
            Err(e) => eprintln!("rank report write failed: {e}"),
        }
    }
}

/// Load-imbalance ratio max/mean; 1.0 for empty or all-zero input
/// (nothing measured). A single group — whose plan carries the real
/// total cost — is 1.0 by the formula.
fn max_over_mean(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    if values.is_empty() || sum <= 0.0 {
        return 1.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    max * values.len() as f64 / sum
}

struct Measured {
    groups: usize,
    petot: f64,
    total: f64,
    max_group: f64,
    imbalance: f64,
    predicted_imbalance: f64,
    straggler: f64,
    digest: String,
}

fn parse_measured(stdout: &str) -> Option<Measured> {
    let line = stdout.lines().find(|l| l.contains("FIG5_RESULT"))?;
    let field = |key: &str| -> Option<&str> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
    };
    Some(Measured {
        groups: field("groups=")?.parse().ok()?,
        petot: field("petot=")?.parse().ok()?,
        total: field("total=")?.parse().ok()?,
        max_group: field("maxgroup=")?.parse().ok()?,
        imbalance: field("imb=")?.parse().ok()?,
        predicted_imbalance: field("predimb=")?.parse().ok()?,
        straggler: field("straggler=")?.parse().ok()?,
        digest: field("digest=")?.to_string(),
    })
}

/// Runs one subprocess per group count (fresh process per point — the
/// processor-group world is bootstrapped once per process), collecting
/// the machine-readable rows.
fn run_measured() -> Vec<Measured> {
    let exe = std::env::current_exe().expect("bench binary path");
    let mut rows = Vec::new();
    for groups in GROUP_COUNTS {
        // Re-exec per group count so each measured point gets a fresh
        // communicator world; its workers inherit the count.
        let out = std::process::Command::new(&exe)
            .env("LS3DF_FIG5_CHILD", groups.to_string())
            .output()
            .expect("spawn fig5 measured child");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        if !out.status.success() {
            eprintln!(
                "measured child with {groups} group(s) failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::process::exit(1);
        }
        let Some(row) = parse_measured(&stdout) else {
            eprintln!("no FIG5_RESULT line from child (groups={groups}):\n{stdout}");
            std::process::exit(1);
        };
        rows.push(row);
    }
    rows
}

fn main() {
    if let Ok(groups) = std::env::var("LS3DF_FIG5_CHILD") {
        child(groups.parse().expect("group count in LS3DF_FIG5_CHILD"));
        return;
    }
    let sw = Stopwatch::start();
    println!("Figure 5 — measured two-level runs on this host (groups {GROUP_COUNTS:?})");
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>10} {:>14} {:>18}",
        "groups",
        "PEtot_F (s)",
        "speedup",
        "max group (s)",
        "imbalance",
        "straggler (s)",
        "density digest"
    );
    let rows = run_measured();
    let base = rows[0].petot;
    for r in &rows {
        println!(
            "{:>8} {:>12.3} {:>9.2}\u{d7} {:>14.3} {:>10.3} {:>14.3} {:>18}",
            r.groups,
            r.petot,
            base / r.petot.max(1e-12),
            r.max_group,
            r.imbalance,
            r.straggler,
            r.digest
        );
    }
    if rows.iter().any(|r| r.digest != rows[0].digest) {
        eprintln!("DETERMINISM VIOLATION: density digests differ across group counts");
        std::process::exit(1);
    }
    println!("all group counts produced bit-identical densities");
    let measured_objs = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("groups", Json::num(r.groups as f64)),
                ("petot_seconds", Json::num(r.petot)),
                ("total_seconds", Json::num(r.total)),
                ("max_group_seconds", Json::num(r.max_group)),
                ("imbalance_ratio", Json::num(r.imbalance)),
                (
                    "predicted_imbalance_ratio",
                    Json::num(r.predicted_imbalance),
                ),
                ("straggler_gap_seconds", Json::num(r.straggler)),
                ("digest", Json::str(r.digest.clone())),
                ("provenance", Json::str("measured")),
            ])
        })
        .collect();

    // Machine-readable points (EXPERIMENTS.md documents the schema).
    let mut report = Report::new("fig5", sw.seconds());
    report
        .extra
        .push(("measured_points".to_string(), Json::Arr(measured_objs)));
    let bench_path = Path::new("BENCH_fig5.json");
    match report.write(bench_path) {
        Ok(()) => println!("run report -> {}", bench_path.display()),
        Err(e) => eprintln!("run report write failed: {e}"),
    }
}
