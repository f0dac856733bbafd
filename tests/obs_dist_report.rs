//! The rank-aware observability gate (`cargo xtask ci` step
//! `obs-dist`): obs-enabled multi-group SCF runs must fold every rank's
//! telemetry into **one** merged schema-v2 report.
//!
//! Two legs:
//!
//! * `committed_fig5_report_is_schema_valid` — the checked-in
//!   `BENCH_fig5.json` parses, validates against the report schema, and
//!   its measured points (when present) carry the imbalance/straggler
//!   columns. Runs with or without the `obs` feature.
//! * `merged_report_counters_sum_to_single_process_totals` — SPMD
//!   subprocess matrix at `LS3DF_GROUPS ∈ {1, 2, 4}` (same re-exec
//!   pattern as `tests/dist_digest.rs`): every group count's merged
//!   report must account for the *same* totals of `fragment_solves` and
//!   `fragment_shares`, which together cover every fragment in every
//!   iteration, the multi-group reports must carry one `up` rank section
//!   per group with per-rank counters summing to the single-process
//!   totals, and
//!   the derived straggler-gap / imbalance / comm-attribution sections
//!   must be present. Only meaningful with spans compiled in, so it is
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

#[test]
fn committed_fig5_report_is_schema_valid() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_fig5.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = ls3df::obs::report::validate_report_str(&text)
        .unwrap_or_else(|e| panic!("committed BENCH_fig5.json fails schema validation: {e}"));
    let extra = doc
        .get("extra")
        .and_then(Json::as_object)
        .expect("extra object");
    let measured = extra
        .iter()
        .find(|(k, _)| k == "measured_points")
        .and_then(|(_, v)| v.as_array())
        .expect("measured_points array");
    for point in measured {
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

/// Child half (inert under a plain `cargo test`): one SCF at whatever
/// `LS3DF_GROUPS` this process carries, collected through a
/// [`TraceObserver`]. Rank 0 writes the merged report to the path in
/// `LS3DF_OBS_DIST_REPORT_PATH` (the document is multi-line, so it
/// travels by file, not stdout) and prints the fragment count.
#[test]
fn obs_dist_child() {
    if std::env::var("LS3DF_OBS_DIST_CHILD").is_err() {
        return;
    }
    let s = model_crystal([2, 2, 2], 6.5);
    let mut calc = Ls3df::builder(&s)
        .fragments([2, 2, 2])
        .options(fixed_work_opts())
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
            .env("LS3DF_OBS_DIST_CHILD", "1")
            .env("LS3DF_GROUPS", groups.to_string())
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
            Some(2.0),
            "merged report must be schema v2"
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
        let total = if groups == 1 {
            // Single-process world: no merge, the flat counter table is
            // the whole story.
            assert!(ranks.is_empty(), "no rank sections in a world of one");
            ["fragment_solves", "fragment_shares"].map(|name| {
                doc.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name} counter")) as u64
            })
        } else {
            assert_eq!(ranks.len(), groups, "one rank section per group");
            let mut sum = [0; 2];
            for (r, rank) in ranks.iter().enumerate() {
                assert_eq!(
                    rank.get("status").and_then(Json::as_str),
                    Some("up"),
                    "rank {r} must be up (groups={groups})"
                );
                let solves = rank_counter(rank, "fragment_solves");
                assert!(solves > 0, "rank {r} solved nothing (groups={groups})");
                sum[0] += solves;
                sum[1] += rank_counter(rank, "fragment_shares");
            }
            // The derived sections exist for multi-rank runs.
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
            sum
        };
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
