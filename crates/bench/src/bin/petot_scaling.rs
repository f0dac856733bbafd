//! PEtot_F thread-scaling benchmark for the work-stealing pool behind the
//! rayon shim.
//!
//! The paper's scaling argument rests on PEtot_F — the independent
//! per-fragment eigensolves — dominating the outer iteration and
//! parallelizing embarrassingly. This binary measures that directly on
//! one node: it runs the same short LS3DF SCF once per thread count
//! (each in a fresh subprocess, because the pool is configured once per
//! process from `LS3DF_THREADS`) and reports the PEtot_F speedup over
//! the forced-sequential baseline.
//!
//! On a single-core host every row reports ≈1×; on a multi-core host the
//! pool should deliver >1.5× at 2+ threads (the redesign's acceptance
//! bar). The digest column doubles as a determinism check: every row
//! must print the same value.
//!
//! Run: `cargo run -p ls3df-bench --bin petot_scaling --release -- [m] [iters] [max_threads]`

use ls3df_atoms::model_crystal;
use ls3df_bench::arg;
use ls3df_core::{Ls3df, Ls3dfOptions, Passivation};
use ls3df_obs::{Json, Report, Stopwatch};
use ls3df_pseudo::PseudoTable;
use ls3df_pw::Mixer;
use std::path::Path;

/// One measured run at whatever `LS3DF_THREADS` this process was started
/// with; prints a machine-readable result line for the parent.
fn child(m: usize, iters: usize) {
    let s = model_crystal([m, m, m], 6.5);
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
        max_scf: iters,
        tol: 1e-10, // never converges early: every run does `iters` iterations
        pseudo: PseudoTable::deep_well(2.0, 0.8),
    };
    let mut calc = Ls3df::builder(&s)
        .fragments([m, m, m])
        .options(opts)
        .build()
        .expect("valid scaling geometry");
    let res = calc.scf();
    let petot: f64 = res.history.iter().map(|h| h.timings.petot_f).sum();
    let total: f64 = res
        .history
        .iter()
        .map(|h| {
            let t = h.timings;
            t.gen_vf + t.petot_f + t.gen_dens + t.genpot
        })
        .sum();
    println!(
        "PETOT_RESULT petot={petot:.6} total={total:.6} digest={:016x}",
        res.digest()
    );
}

struct Row {
    threads: usize,
    petot: f64,
    total: f64,
    digest: String,
}

fn parse_row(threads: usize, stdout: &str) -> Option<Row> {
    let line = stdout.lines().find(|l| l.contains("PETOT_RESULT"))?;
    let field = |key: &str| -> Option<&str> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
    };
    Some(Row {
        threads,
        petot: field("petot=")?.parse().ok()?,
        total: field("total=")?.parse().ok()?,
        digest: field("digest=")?.to_string(),
    })
}

fn main() {
    if std::env::var("LS3DF_PETOT_CHILD").is_ok() {
        child(arg(1, 2), arg(2, 2));
        return;
    }

    let m: usize = arg(1, 2);
    let iters: usize = arg(2, 2);
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_threads: usize = arg(3, host);

    // 1, 2, 4, … up to max_threads, always ending at max_threads.
    let mut counts = vec![1usize];
    let mut t = 2;
    while t < max_threads {
        counts.push(t);
        t *= 2;
    }
    if max_threads > 1 {
        counts.push(max_threads);
    }

    let sw = Stopwatch::start();
    let exe = std::env::current_exe().expect("bench binary path");
    println!(
        "PEtot_F scaling: {m}\u{d7}{m}\u{d7}{m} pieces, {iters} outer iterations, host parallelism {host}"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>18}",
        "threads", "PEtot_F (s)", "speedup", "iter (s)", "density digest"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &counts {
        // Re-exec per thread count so each measurement gets a fresh pool.
        let out = std::process::Command::new(&exe)
            .args([m.to_string(), iters.to_string()])
            .env("LS3DF_PETOT_CHILD", "1")
            .env("LS3DF_THREADS", threads.to_string())
            .output()
            .expect("spawn scaling child");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        if !out.status.success() {
            eprintln!(
                "child with LS3DF_THREADS={threads} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::process::exit(1);
        }
        let Some(row) = parse_row(threads, &stdout) else {
            eprintln!("no PETOT_RESULT line from child {threads}:\n{stdout}");
            std::process::exit(1);
        };
        let base = rows.first().map_or(row.petot, |r| r.petot);
        println!(
            "{:>8} {:>12.3} {:>9.2}\u{d7} {:>12.3} {:>18}",
            row.threads,
            row.petot,
            base / row.petot.max(1e-12),
            row.total,
            row.digest
        );
        rows.push(row);
    }

    let reference = &rows[0].digest;
    if rows.iter().any(|r| &r.digest != reference) {
        eprintln!("DETERMINISM VIOLATION: density digests differ across thread counts");
        std::process::exit(1);
    }
    println!("all thread counts produced bit-identical densities");
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        if last.threads > 1 {
            println!(
                "PEtot_F speedup at {} threads: {:.2}\u{d7}",
                last.threads,
                first.petot / last.petot.max(1e-12)
            );
        }
    }

    // Machine-readable trajectory (EXPERIMENTS.md documents the schema).
    // The measured rows live in `extra`: this bin times subprocesses, so
    // the span/counter sections of the schema stay empty here.
    let mut report = Report::new("petot_scaling", sw.seconds());
    report.extra.push(("m".to_string(), Json::num(m as f64)));
    report
        .extra
        .push(("iters".to_string(), Json::num(iters as f64)));
    report
        .extra
        .push(("host_parallelism".to_string(), Json::num(host as f64)));
    report
        .extra
        .push(("density_digest".to_string(), Json::str(reference.clone())));
    let row_objs = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("threads", Json::num(r.threads as f64)),
                ("petot_seconds", Json::num(r.petot)),
                ("total_seconds", Json::num(r.total)),
                ("digest", Json::str(r.digest.clone())),
            ])
        })
        .collect();
    report
        .extra
        .push(("scaling_rows".to_string(), Json::Arr(row_objs)));
    let bench_path = Path::new("BENCH_petot_scaling.json");
    match report.write(bench_path) {
        Ok(()) => println!("run report -> {}", bench_path.display()),
        Err(e) => eprintln!("run report write failed: {e}"),
    }
}
