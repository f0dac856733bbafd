//! The observability-collecting [`ScfObserver`]: assembles a
//! schema-versioned [`Report`] from one SCF run.
//!
//! [`TraceObserver`] listens to the driver's stage/step/convergence
//! hooks (always available) and, when the workspace `obs` feature is on,
//! harvests the span buffers and counter registry that the instrumented
//! kernels filled in — turning one [`Ls3df::scf_with`] call into a
//! `BENCH_*.json` document with per-stage times, per-fragment times,
//! flop rates and %-of-peak.
//!
//! ```ignore
//! let mut tracer = TraceObserver::new("fig6")
//!     .with_machine(MachineRef { name: "laptop".into(), peak_gflops: 8.0 })
//!     .with_trace_file("TRACE_fig6.json");
//! let result = calc.scf_with(&mut tracer);
//! let report = tracer.finish();
//! print!("{}", report.summary_table());
//! report.write(Path::new("BENCH_scf.json"))?;
//! ```
//!
//! [`Ls3df::scf_with`]: crate::Ls3df::scf_with

use crate::observer::{ScfObserver, ScfStage};
use crate::scf::Ls3dfStep;
use crate::supervise::{FragmentFault, QuarantineRecord};
use ls3df_obs::report::{StageRow, StepRow};
use ls3df_obs::trace::TraceLane;
use ls3df_obs::{Json, MachineRef, Report, Stopwatch};
use std::path::PathBuf;

/// Collects one SCF run's observability record; see the module docs.
///
/// Construction resets the global span/counter registries
/// ([`ls3df_obs::reset`]), so everything [`finish`](TraceObserver::finish)
/// harvests is attributable to the run between the two calls. Pass it to
/// the driver as `&mut` (`calc.scf_with(&mut tracer)`) so it stays
/// inspectable afterwards.
pub struct TraceObserver {
    stopwatch: Stopwatch,
    command: String,
    machine: Option<MachineRef>,
    trace_path: Option<PathBuf>,
    /// Aggregate (calls, seconds) per stage, indexed by [`stage_slot`].
    stage_totals: [(u64, f64); 4],
    steps: Vec<StepRow>,
    converged: bool,
    resumed_from: Option<usize>,
    retries: u64,
    quarantines: u64,
}

/// Fixed report order of the four stages (paper Fig. 2).
const STAGES: [ScfStage; 4] = [
    ScfStage::GenVf,
    ScfStage::PetotF,
    ScfStage::GenDens,
    ScfStage::Genpot,
];

fn stage_slot(stage: ScfStage) -> usize {
    match stage {
        ScfStage::GenVf => 0,
        ScfStage::PetotF => 1,
        ScfStage::GenDens => 2,
        ScfStage::Genpot => 3,
    }
}

impl TraceObserver {
    /// Starts collection for a run labeled `command` (the report's
    /// `"command"` field). Resets the global span/counter state.
    pub fn new(command: impl Into<String>) -> Self {
        ls3df_obs::reset();
        // Also drain the communicator histograms so comm rows harvested
        // at `finish` are attributable to this run alone.
        let _ = ls3df_dist::drain_telemetry();
        TraceObserver {
            stopwatch: Stopwatch::start(),
            command: command.into(),
            machine: None,
            trace_path: None,
            stage_totals: [(0, 0.0); 4],
            steps: Vec::new(),
            converged: false,
            resumed_from: None,
            retries: 0,
            quarantines: 0,
        }
    }

    /// Rates the run against a machine model (%-of-peak in the report).
    pub fn with_machine(mut self, machine: MachineRef) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Additionally writes a chrome://tracing trace-event file on
    /// [`finish`](TraceObserver::finish) (only meaningful with the `obs`
    /// feature on; without it there are no spans to draw). The write is
    /// best-effort — failures land in the report's `extra` section
    /// instead of aborting the run.
    pub fn with_trace_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Stops the clock, harvests spans and counters, and assembles the
    /// final [`Report`].
    pub fn finish(self) -> Report {
        let wall = self.stopwatch.seconds();
        let data = ls3df_obs::harvest();
        let mut report =
            Report::from_run(&self.command, wall, &data, self.machine, "frag", "scf_iter");
        report.converged = Some(self.converged);
        report.stages = STAGES
            .iter()
            .map(|&stage| {
                let (calls, seconds) = self.stage_totals[stage_slot(stage)];
                StageRow {
                    name: stage.name().to_string(),
                    calls,
                    seconds,
                }
            })
            .collect();
        report.steps = self.steps;
        if let Some(iteration) = self.resumed_from {
            report.extra.push((
                "resumed_from_iteration".to_string(),
                Json::num(iteration as f64),
            ));
        }
        if self.retries > 0 {
            report.extra.push((
                "fragment_retries".to_string(),
                Json::num(self.retries as f64),
            ));
        }
        if self.quarantines > 0 {
            report.extra.push((
                "fragment_quarantines".to_string(),
                Json::num(self.quarantines as f64),
            ));
        }
        // Rank-aware assembly: when the run was distributed, rank 0's
        // SCF epilogue stashed every worker's telemetry payload (or a
        // `Down`/`Missing` marker) for us to fold into the schema-v2
        // `ranks` section. The trace then gets one lane per rank
        // (`pid` = rank) instead of a single flat process.
        let rank = ls3df_obs::telemetry::rank();
        let multi = ls3df_obs::ENABLED && ls3df_obs::telemetry::world_size() > 1;
        let (remote, predicted_costs) = if multi && rank == 0 {
            ls3df_obs::telemetry::take_stash()
        } else {
            (Vec::new(), Vec::new())
        };
        if let Some(path) = &self.trace_path {
            let written = if multi {
                let mut lanes = vec![TraceLane {
                    pid: rank as u64,
                    name: format!("rank {rank}"),
                    spans: &data.spans,
                    threads: &data.threads,
                }];
                for payload in &remote {
                    if let ls3df_obs::RankPayload::Telemetry(t) = payload {
                        lanes.push(TraceLane {
                            pid: t.rank as u64,
                            name: format!("rank {}", t.rank),
                            spans: &t.spans,
                            threads: &t.threads,
                        });
                    }
                }
                ls3df_obs::trace::write_chrome_trace_lanes(path, &lanes)
            } else {
                ls3df_obs::trace::write_chrome_trace(path, &data.spans, &data.threads)
            };
            match written {
                Ok(()) => report.extra.push((
                    "trace_file".to_string(),
                    Json::str(path.display().to_string()),
                )),
                Err(e) => report
                    .extra
                    .push(("trace_file_error".to_string(), Json::str(e.to_string()))),
            }
        }
        if multi && rank == 0 {
            let local = ls3df_dist::rank_telemetry(data);
            ls3df_obs::telemetry::merge_ranks(&mut report, local, remote, &predicted_costs);
        }
        report
    }
}

// Implemented for `&mut TraceObserver` specifically (a generic
// forwarding impl would collide with the crate's blanket
// `impl<F: FnMut(&Ls3dfStep)> ScfObserver for F`): the driver takes the
// observer by value, and the caller needs the collector back for
// `finish`.
impl ScfObserver for &mut TraceObserver {
    fn on_step(&mut self, step: &Ls3dfStep) {
        let t = &step.timings;
        self.steps.push(StepRow {
            iteration: step.iteration as u64,
            dv_integral: step.dv_integral,
            worst_residual: step.worst_residual,
            charge_ratio: step.charge_ratio,
            stage_seconds: vec![
                (ScfStage::GenVf.name().to_string(), t.gen_vf),
                (ScfStage::PetotF.name().to_string(), t.petot_f),
                (ScfStage::GenDens.name().to_string(), t.gen_dens),
                (ScfStage::Genpot.name().to_string(), t.genpot),
            ],
        });
    }

    fn on_stage(&mut self, _iteration: usize, stage: ScfStage, seconds: f64) {
        let slot = &mut self.stage_totals[stage_slot(stage)];
        slot.0 += 1;
        slot.1 += seconds;
    }

    fn on_converged(&mut self, _step: &Ls3dfStep) {
        self.converged = true;
    }

    fn on_fragment_retry(&mut self, _iteration: usize, _fault: &FragmentFault) {
        self.retries += 1;
    }

    fn on_fragment_quarantined(&mut self, _iteration: usize, _record: &QuarantineRecord) {
        self.quarantines += 1;
    }

    fn on_snapshot_restored(&mut self, resumed_from_iteration: usize) {
        self.resumed_from = Some(resumed_from_iteration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::StepTimings;

    #[test]
    fn collects_stages_steps_and_convergence() {
        let mut tracer = TraceObserver::new("unit");
        {
            let mut obs = &mut tracer;
            obs.on_stage(1, ScfStage::GenVf, 0.5);
            obs.on_stage(1, ScfStage::PetotF, 2.0);
            obs.on_stage(2, ScfStage::PetotF, 1.0);
            let step = Ls3dfStep {
                iteration: 1,
                dv_integral: 0.25,
                worst_residual: 1e-4,
                charge_ratio: 1.0,
                retention_min: 1.0,
                timings: StepTimings {
                    gen_vf: 0.5,
                    petot_f: 2.0,
                    gen_dens: 0.0,
                    genpot: 0.0,
                },
            };
            obs.on_step(&step);
            obs.on_converged(&step);
        }
        let report = tracer.finish();
        assert_eq!(report.converged, Some(true));
        assert_eq!(report.stages.len(), 4);
        assert_eq!(report.stages[0].name, "Gen_VF");
        assert_eq!(report.stages[1].calls, 2);
        assert!((report.stages[1].seconds - 3.0).abs() < 1e-12);
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.steps[0].iteration, 1);
        // The assembled document passes its own schema validation.
        let text = report.to_json().render();
        assert!(ls3df_obs::report::validate_report_str(&text).is_ok());
    }
}
