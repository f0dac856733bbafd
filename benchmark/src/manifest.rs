//! The metrics the benchmark reports, by name — the single list from
//! which `BENCHMARK.json` is written and against which it is checked.
//!
//! Every workload reports every metric; a per-layer metric that has no
//! meaning on a workload (a checkpoint size where nothing is
//! checkpointed) reads 0 there. README.md says which end-to-end metric
//! each per-layer metric should move, and on which workload.

use crate::workloads::{NOMINAL_SECONDS, WORKLOADS};
use ls3df::obs::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    // Wall per steady outer iteration (iterations ≥ 2): ROADMAP's headline.
    e2e("scf_iter_s", "s", 0.25),
    // CPU seconds of the run's whole process tree per steady iteration.
    e2e("core_s_per_iter", "s", 0.25),
    // scf() call → its stop rule (convergence, or the iteration count).
    e2e("time_to_solution_s", "s", 0.25),
    // Child process start → result emitted, summed over the run's processes.
    e2e("run_s", "s", 0.25),
    // VmHWM summed over ranks.
    e2e("peak_rss_mb", "MiB", 0.15),
    // Structure generation (+VFF) through build() returning.
    e2e("setup_s", "s", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // core: the four stages per steady iteration, from the observer hooks.
    lower("core.gen_vf_s", "s"),
    lower("core.petot_f_s", "s"),
    lower("core.gen_dens_s", "s"),
    lower("core.genpot_s", "s"),
    lower("core.petot_f_share", "%"),
    lower("core.first_iter_s", "s"),
    lower("core.petot_f_idle_frac", "1"),
    lower("core.scf_iters", "count"),
    lower("core.fragment_solves", "count"),
    lower("core.retries", "count"),
    lower("core.quarantines", "count"),
    // Timed public constructors.
    lower("core.build_s", "s"),
    lower("atoms.build_s", "s"),
    lower("pw.basis_s", "s"),
    lower("pseudo.nl_build_s", "s"),
    lower("fft.plan_s", "s"),
    // pw: one representative fragment per piece count.
    lower("pw.h_apply_s.p1", "s"),
    lower("pw.h_apply_s.p2", "s"),
    lower("pw.h_apply_s.p4", "s"),
    lower("pw.h_apply_s.p8", "s"),
    lower("pw.cg_step_s.p1", "s"),
    lower("pw.cg_step_s.p2", "s"),
    lower("pw.cg_step_s.p4", "s"),
    lower("pw.cg_step_s.p8", "s"),
    lower("pw.solve_s.p1", "s"),
    lower("pw.solve_s.p2", "s"),
    lower("pw.solve_s.p4", "s"),
    lower("pw.solve_s.p8", "s"),
    lower("pw.replay_petot_cpu_s", "s"),
    lower("pw.density_s.p8", "s"),
    lower("pw.hartree_s", "s"),
    lower("pw.mix_s", "s"),
    lower("pw.direct_scf_s", "s"),
    // fft: round trips on the smallest and largest fragment box and the
    // global grid; rates from computed operation counts.
    lower("fft.c2c_s.p1", "s"),
    lower("fft.c2c_s.p8", "s"),
    higher("fft.c2c_gflops.p1", "Gflop/s"),
    higher("fft.c2c_gflops.p8", "Gflop/s"),
    higher("fft.c2c_flops_per_byte.p8", "flop/B"),
    higher("fft.c2c_roofline_frac.p8", "1"),
    lower("fft.r2c_s.global", "s"),
    // math at (bands × n_pw) of the fragment.
    lower("math.overlap_s.p1", "s"),
    lower("math.overlap_s.p8", "s"),
    lower("math.rotate_s.p1", "s"),
    lower("math.rotate_s.p8", "s"),
    higher("math.gemm_gflops.p8", "Gflop/s"),
    higher("math.gemm_flops_per_byte.p8", "flop/B"),
    higher("math.gemm_roofline_frac.p8", "1"),
    lower("math.chol_ortho_s.p8", "s"),
    lower("math.eigh_s.p8", "s"),
    lower("pseudo.nl_apply_s.p8", "s"),
    lower("grid.extract_s", "s"),
    // ckpt: writes beside reads.
    lower("ckpt.write_s", "s"),
    lower("ckpt.bytes", "B"),
    lower("ckpt.restore_s", "s"),
    lower("ckpt.resume_s", "s"),
    // dist: what the second rank costs.
    lower("dist.spawn_s", "s"),
    lower("dist.group_petot_gap_s", "s"),
    lower("dist.comm_s_per_iter", "s"),
    lower("dist.imbalance_pred", "1"),
    lower("dist.bytes_per_iter", "B"),
    lower("dist.frames_per_iter", "count"),
    // obs: the traced build's own counters per iteration, and its cost.
    lower("obs.overhead_frac", "1"),
    lower("obs.fft_lines_bluestein", "count"),
    lower("obs.fft_lines_pow2", "count"),
    lower("obs.fft_flops", "count"),
    lower("obs.cg_band_iterations", "count"),
    // The machine, measured in the same run.
    higher("machine.triad_gb_s", "GB/s"),
    higher("machine.fma_gflops", "Gflop/s"),
    higher("machine.llc_mib", "MiB"),
    higher("machine.triad_array_mib", "MiB"),
    // Accuracy against direct LDA (crystal8_converge).
    lower("accuracy.energy_err_mev_per_atom", "meV/atom"),
    lower("accuracy.density_err_per_electron", "1"),
    // The harness itself.
    lower("noise.probe_drift_frac", "1"),
    lower("trace.spans", "count"),
];

/// `BENCHMARK.json` as this list of metrics and workloads defines it.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(NOMINAL_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metrics_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_this_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
    }

    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for m in END_TO_END {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README misses {}",
                m.name
            );
        }
        for m in PER_LAYER {
            // `.pN` families are documented once, as `name.pN`.
            let family = match m.name.rsplit_once(".p") {
                Some((stem, n)) if n.parse::<u32>().is_ok() => format!("{stem}.p"),
                _ => m.name.to_string(),
            };
            assert!(readme.contains(&family), "README misses {}", m.name);
        }
        for w in WORKLOADS {
            assert!(
                readme.contains(&format!("`{}`", w.name)),
                "README misses {}",
                w.name
            );
        }
    }
}
