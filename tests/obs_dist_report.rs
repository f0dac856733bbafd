//! The rank-aware observability gate (`cargo xtask ci` step
//! `obs-dist`): every obs-enabled SCF run, at any group count, must fold
//! its world's rank telemetry into **one** merged report.
//!
//! Three legs:
//!
//! * `committed_fig5_report_is_schema_valid` — the checked-in artefacts
//!   are current: `BENCH_fig5.json`, `BENCH_fig6.json` and
//!   `BENCH_fft_kernels.json` validate against the report schema,
//!   `BENCH_fft_kernels.json` holds exactly the GEMM tier and crossover
//!   tables (tiers bit-identical, every rate and time positive), and
//!   `TRACE_fig6.json` is a lane trace (one `process_name` per `pid`,
//!   every complete event placed on a lane). `BENCH_fig5.json` also has
//!   no model curves and holds at least two measured points that share
//!   one density digest and carry the imbalance/straggler columns. Runs
//!   with or without the `obs` feature.
//! * `every_bench_bin_has_a_committed_artefact_or_a_ci_step` — every
//!   `ls3df-bench` bin writes a committed `BENCH_<bin>.json` or is a
//!   `cargo xtask ci` step (`fig7` is the one named exemption). Runs with
//!   or without the `obs` feature.
//! * `merged_report_counters_sum_to_single_process_totals` — SPMD
//!   subprocess matrix at groups ∈ {1, 2, 4} (same re-exec pattern as
//!   `tests/dist_digest.rs`): every group count's merged
//!   report must carry one `up` rank section per group and the derived
//!   straggler-gap / imbalance / comm-attribution sections, and its
//!   per-rank `fragment_solves` and `fragment_shares` must sum to the
//!   *same* totals at every group count, covering every fragment in
//!   every iteration. Only meaningful with spans compiled in, so it is
//!   a no-op without the `obs` feature.

use ls3df::core::{Ls3df, Ls3dfOptions, Passivation, TraceObserver};
use ls3df::obs::Json;
use ls3df::pw::Mixer;
use ls3df_atoms::model_crystal;
use ls3df_pseudo::PseudoTable;
use std::path::Path;

/// Fixed iteration count (tol never met in 2 iterations) so every group
/// count does identical work and the `fragment_solves` and
/// `fragment_shares` totals are exact.
fn fixed_work_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [8, 8, 8],
        buffer_pts: [3, 3, 3],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 4,
        initial_cg_steps: 6,
        fragment_tol: 1e-9,
        mixer: Mixer::Kerker {
            alpha: 0.6,
            q0: 0.8,
        },
        max_scf: 2,
        tol: 1e-10,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
    }
}

fn read_committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn validate_committed(name: &str) -> Json {
    ls3df::obs::report::validate_report_str(&read_committed(name))
        .unwrap_or_else(|e| panic!("committed {name} fails schema validation: {e}"))
}

/// The deterministic fields of the kernel artefact: exactly the GEMM tier
/// and crossover tables, every tier row bit-identical with positive
/// Gflop/s on every tier measured (baseline and dispatched among them),
/// and eight crossover rows with positive times on the row loops and
/// every tier.
fn check_kernel_tables(doc: &Json) {
    let extra = doc
        .get("extra")
        .and_then(Json::as_object)
        .expect("extra object");
    let keys: Vec<&str> = extra.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "reps",
            "gemm_dispatched_tier",
            "gemm_tiers",
            "gemm_crossover"
        ],
        "BENCH_fft_kernels.json extra keys"
    );
    let rows = |key: &str| {
        doc.get("extra")
            .and_then(|e| e.get(key))
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("`{key}` array"))
    };
    let positive = |row: &Json, key: &str| {
        let v = row.get(key).and_then(Json::as_f64);
        assert!(
            v.is_some_and(|v| v > 0.0),
            "`{key}` is not positive: {}",
            row.render()
        );
    };
    // `{tier: value}` with the baseline and the dispatched tier present
    // and every value positive.
    let dispatched = doc
        .get("extra")
        .and_then(|e| e.get("gemm_dispatched_tier"))
        .and_then(Json::as_str)
        .expect("gemm_dispatched_tier string");
    let per_tier = |row: &Json, key: &str| {
        let tiers = row
            .get(key)
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("`{key}` is not a per-tier object: {}", row.render()));
        for want in ["baseline", dispatched] {
            assert!(
                tiers.iter().any(|(k, _)| k == want),
                "`{key}` lacks the {want} tier: {}",
                row.render()
            );
        }
        for (tier, v) in tiers {
            assert!(
                v.as_f64().is_some_and(|v| v > 0.0),
                "`{key}.{tier}` is not positive: {}",
                row.render()
            );
        }
    };
    let tiers = rows("gemm_tiers");
    assert_eq!(tiers.len(), 4, "gemm_tiers rows");
    for row in tiers {
        assert_eq!(
            row.get("bit_identical").and_then(Json::as_bool),
            Some(true),
            "tiers differ: {}",
            row.render()
        );
        per_tier(row, "gflops");
    }
    let crossover = rows("gemm_crossover");
    assert_eq!(crossover.len(), 8, "gemm_crossover rows");
    for row in crossover {
        positive(row, "row_loops_ms");
        per_tier(row, "packed_ms");
    }
}

#[test]
fn committed_fig5_report_is_schema_valid() {
    validate_committed("BENCH_fig6.json");
    check_kernel_tables(&validate_committed("BENCH_fft_kernels.json"));
    let trace = Json::parse(&read_committed("TRACE_fig6.json")).expect("TRACE_fig6.json parses");
    let events = trace.as_array().expect("TRACE_fig6.json is an event array");
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64);
    let mut lanes: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(|e| num(e, "pid").expect("process_name event without pid"))
        .collect();
    let n_named = lanes.len();
    lanes.sort_by(f64::total_cmp);
    lanes.dedup();
    assert!(
        !lanes.is_empty() && lanes.len() == n_named,
        "TRACE_fig6.json needs exactly one process_name event per pid, has pids {lanes:?} \
         from {n_named} events"
    );
    let mut spans = 0;
    for e in events {
        if let Some(pid) = num(e, "pid") {
            assert!(lanes.contains(&pid), "pid {pid} has no process_name lane");
        }
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            for key in ["pid", "tid", "ts", "dur"] {
                assert!(
                    num(e, key).is_some(),
                    "X event lacks `{key}`: {}",
                    e.render()
                );
            }
            spans += 1;
        }
    }
    assert!(spans > 0, "TRACE_fig6.json has no complete events");

    let doc = validate_committed("BENCH_fig5.json");
    let extra = doc
        .get("extra")
        .and_then(Json::as_object)
        .expect("extra object");
    assert!(
        extra.iter().all(|(k, _)| k != "model_curves"),
        "BENCH_fig5.json still carries model curves"
    );
    let measured = extra
        .iter()
        .find(|(k, _)| k == "measured_points")
        .and_then(|(_, v)| v.as_array())
        .expect("measured_points array");
    assert!(
        measured.len() >= 2,
        "BENCH_fig5.json needs points at two group counts, has {}",
        measured.len()
    );
    let digest = |point: &Json| {
        point
            .get("digest")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let first = digest(&measured[0]).expect("measured point lacks `digest`");
    for point in measured {
        assert_eq!(
            point.get("provenance").and_then(Json::as_str),
            Some("measured"),
            "point is not measured: {}",
            point.render()
        );
        assert_eq!(
            digest(point).as_deref(),
            Some(first.as_str()),
            "density digests differ across group counts"
        );
        for key in [
            "imbalance_ratio",
            "predicted_imbalance_ratio",
            "straggler_gap_seconds",
        ] {
            assert!(
                point.get(key).and_then(Json::as_f64).is_some(),
                "measured point lacks numeric `{key}`: {}",
                point.render()
            );
        }
    }
}

/// A bench bin stays only if it writes a committed `BENCH_<bin>.json`
/// at the repository root or `cargo xtask ci` runs it as a step; a bin
/// that only prints tables goes, its last numbers kept in EXPERIMENTS.md.
#[test]
fn every_bench_bin_has_a_committed_artefact_or_a_ci_step() {
    // fig7's artefact waits on a converged alloy (ROADMAP item 6(e)).
    const EXEMPT: &[&str] = &["fig7"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = read_committed("crates/xtask/src/ci.rs");
    let bins = root.join("crates/bench/src/bin");
    let mut idle: Vec<String> = std::fs::read_dir(&bins)
        .unwrap_or_else(|e| panic!("read {}: {e}", bins.display()))
        .map(|entry| entry.expect("bin directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .filter_map(|p| p.file_stem()?.to_str().map(str::to_owned))
        .filter(|stem| !EXEMPT.contains(&stem.as_str()))
        .filter(|stem| {
            !root.join(format!("BENCH_{stem}.json")).is_file()
                && !ci.contains(&format!("\"--bin\", \"{stem}\""))
        })
        .collect();
    idle.sort();
    assert!(
        idle.is_empty(),
        "bench bins with neither a committed BENCH_<bin>.json nor a cargo xtask ci step: {idle:?}"
    );
}

/// Child half (inert under a plain `cargo test`): one SCF at the group
/// count in `LS3DF_OBS_DIST_CHILD`, collected through a
/// [`TraceObserver`]. Rank 0 writes the merged report to the path in
/// `LS3DF_OBS_DIST_REPORT_PATH` (the document is multi-line, so it
/// travels by file, not stdout) and prints the fragment count.
#[test]
fn obs_dist_child() {
    let Ok(groups) = std::env::var("LS3DF_OBS_DIST_CHILD") else {
        return;
    };
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(fixed_work_opts())
        .groups(groups.parse().expect("group count in LS3DF_OBS_DIST_CHILD"))
        .build()
        .expect("obs-dist world must bootstrap");
    if calc.comm().rank() != 0 {
        // Worker rank: run the loop; the driver's telemetry epilogue
        // ships this rank's harvest to rank 0 before returning.
        let _ = calc.try_scf();
        return;
    }
    let n_frags = calc.n_fragments();
    let mut tracer = TraceObserver::new("obs-dist-child");
    calc.try_scf_with(&mut tracer)
        .expect("obs-dist SCF must complete");
    let report = tracer.finish();
    let path = std::env::var("LS3DF_OBS_DIST_REPORT_PATH").expect("report path env");
    report
        .write(Path::new(&path))
        .expect("write merged run report");
    println!("OBS_NFRAGS={n_frags}");
}

fn rank_counter(rank: &Json, name: &str) -> u64 {
    rank.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

/// Parent gate: re-execs the child once per group count and checks the
/// merged reports against each other.
#[test]
fn merged_report_counters_sum_to_single_process_totals() {
    if !ls3df::obs::ENABLED {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let dir = std::env::temp_dir().join(format!("ls3df_obs_dist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("report scratch dir");
    let mut totals: Vec<(usize, [u64; 2])> = Vec::new();
    for groups in [1usize, 2, 4] {
        let report_path = dir.join(format!("report_groups{groups}.json"));
        let out = std::process::Command::new(&exe)
            .args(["--exact", "obs_dist_child", "--nocapture"])
            .env("LS3DF_OBS_DIST_CHILD", groups.to_string())
            .env("LS3DF_THREADS", "2")
            .env("LS3DF_DIST_TIMEOUT_MS", "60000")
            .env("LS3DF_OBS_DIST_REPORT_PATH", &report_path)
            .output()
            .expect("spawn obs_dist_child");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            out.status.success(),
            "obs-dist child (groups={groups}) failed:\n{stdout}\n{stderr}"
        );
        let n_frags: u64 = stdout
            .lines()
            .find_map(|l| l.split("OBS_NFRAGS=").nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no OBS_NFRAGS line (groups={groups}):\n{stdout}"));
        // 2 fixed iterations solve or share every fragment exactly twice.
        let expected = 2 * n_frags;

        let text = std::fs::read_to_string(&report_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", report_path.display()));
        let doc = ls3df::obs::report::validate_report_str(&text)
            .unwrap_or_else(|e| panic!("merged report (groups={groups}) invalid: {e}"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(3.0),
            "merged report must be schema v3"
        );
        assert_eq!(
            doc.get("telemetry_incomplete").and_then(Json::as_bool),
            Some(false),
            "healthy run must not be flagged incomplete (groups={groups})"
        );
        let ranks = doc
            .get("ranks")
            .and_then(Json::as_array)
            .expect("ranks array");
        assert_eq!(ranks.len(), groups, "one rank section per group");
        let mut total = [0; 2];
        for (r, rank) in ranks.iter().enumerate() {
            assert_eq!(
                rank.get("status").and_then(Json::as_str),
                Some("up"),
                "rank {r} must be up (groups={groups})"
            );
            let solves = rank_counter(rank, "fragment_solves");
            assert!(solves > 0, "rank {r} solved nothing (groups={groups})");
            total[0] += solves;
            total[1] += rank_counter(rank, "fragment_shares");
        }
        let extra = doc
            .get("extra")
            .and_then(Json::as_object)
            .expect("extra object");
        for key in ["straggler_gap", "imbalance", "comm_attribution"] {
            assert!(
                extra.iter().any(|(k, _)| k == key),
                "merged report lacks derived `{key}` section (groups={groups})"
            );
        }
        assert_eq!(
            total[0] + total[1],
            expected,
            "fragment_solves + fragment_shares must account for every fragment (groups={groups})"
        );
        totals.push((groups, total));
    }
    let baseline = totals[0].1;
    for (groups, total) in &totals {
        assert_eq!(
            *total, baseline,
            "group count {groups} changed the amount of work accounted for"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
