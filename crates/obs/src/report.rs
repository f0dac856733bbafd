//! Schema-versioned run reports: the `BENCH_*.json` format.
//!
//! A [`Report`] is the machine-readable record of one run — per-stage
//! and per-fragment times, the counter registry, convergence history,
//! counter-derived Gflop/s and one section per rank of the run's world
//! — plus a paper-style per-stage summary table for stdout
//! ([`Report::summary_table`]).
//!
//! The JSON layout is versioned: every document carries
//! `"schema": "ls3df-run-report"` and `"schema_version"`; readers
//! (including the `obs-report` CI step) validate with
//! [`validate_report_str`]. Bump [`SCHEMA_VERSION`] on any
//! backwards-incompatible field change and document the delta in
//! EXPERIMENTS.md.
//!
//! Reports are *not* feature-gated: a build without the `enabled`
//! feature still writes schema-valid reports (stage timings flow
//! through the always-on [`Stopwatch`](crate::Stopwatch) plumbing);
//! its span/counter sections are simply empty and
//! `"obs_enabled": false`.

use crate::json::Json;
use crate::span::{FinishedSpan, NO_INDEX};
use crate::telemetry::{FRAGMENT_LABEL, ROOT_LABEL};
use crate::RunData;
use std::io::Write as _;
use std::path::Path;

/// Value of the `"schema"` discriminator field.
pub const SCHEMA_NAME: &str = "ls3df-run-report";

/// Current schema version; see the module docs for the bump policy.
///
/// v2 added the rank-aware sections: `ranks` (per-rank counters, span
/// aggregates, per-iteration `PEtot_F` times, comm-wait/compute split,
/// transport histograms, and an `up`/`down`/`missing` status) and the
/// `telemetry_incomplete` flag. v3 drops the machine rating (the
/// `machine` object and the flop section's peak percentage) and adds
/// `steps[].retention_min`.
/// [`validate_report_str`] accepts this version only.
pub const SCHEMA_VERSION: u64 = 3;

/// Aggregate time spent in one named stage across the whole run.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Stage name (`Gen_VF`, `PEtot_F`, `Gen_dens`, `GENPOT`).
    pub name: String,
    /// Number of times the stage ran.
    pub calls: u64,
    /// Total seconds across all calls.
    pub seconds: f64,
}

/// One SCF outer iteration of the convergence history.
#[derive(Clone, Debug)]
pub struct StepRow {
    /// 1-based outer iteration number.
    pub iteration: u64,
    /// Convergence measure `∫|V_out − V_in| d³r`.
    pub dv_integral: f64,
    /// Worst fragment residual this iteration.
    pub worst_residual: f64,
    /// Patched charge over the electron count before renormalization,
    /// `q/N_e` (LS3DF's Gen_dens; 1 when the patch conserves charge).
    pub charge_ratio: f64,
    /// The worst fragment's charge retention r_F this iteration (`null`
    /// in the JSON when not finite).
    pub retention_min: f64,
    /// Per-stage seconds for this iteration, in stage order.
    pub stage_seconds: Vec<(String, f64)>,
}

/// Aggregate of every span sharing one hierarchical path.
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// `/`-joined label path, e.g. `scf_iter/petot_f/frag`.
    pub path: String,
    /// Number of spans on this path.
    pub count: u64,
    /// Total inclusive seconds.
    pub total_seconds: f64,
    /// Seconds not covered by child spans.
    pub self_seconds: f64,
}

/// Aggregate time for one fragment across the run (from indexed spans).
#[derive(Clone, Debug)]
pub struct FragmentRow {
    /// Fragment index.
    pub index: u64,
    /// Number of supervised solves recorded.
    pub calls: u64,
    /// Total seconds inside this fragment's solve spans.
    pub seconds: f64,
}

/// Liveness of one rank in the merged report's `ranks` section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankStatus {
    /// The rank shipped a well-formed telemetry payload.
    Up,
    /// The rank is known dead; `kind` is the stable comm-error kind
    /// string (`rank_down`, `timeout`, `protocol`, `io`, `bootstrap`).
    Down {
        /// Stable comm-error kind string.
        kind: String,
    },
    /// No usable payload arrived (late, malformed, or CRC-corrupt).
    Missing,
}

/// One rank's section of a merged run report.
#[derive(Clone, Debug)]
pub struct RankSection {
    /// World rank.
    pub rank: usize,
    /// Whether the rank's telemetry arrived.
    pub status: RankStatus,
    /// The rank's counter snapshot (nonzero entries).
    pub counters: Vec<(String, u64)>,
    /// The rank's span aggregates by hierarchical path.
    pub spans: Vec<SpanRow>,
    /// `(iteration, seconds)` of `PEtot_F` time per SCF iteration —
    /// the straggler-gap series input.
    pub petot_iterations: Vec<(u64, f64)>,
    /// Seconds inside `comm_*` transport spans (blocking wait).
    pub comm_wait_seconds: f64,
    /// Seconds inside `PEtot_F` fragment-solve spans (compute).
    pub compute_seconds: f64,
    /// Transport histogram rows drained from the communicator.
    pub comm: Vec<crate::telemetry::CommRow>,
}

/// How much of the wall clock the named spans account for.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Seconds under the designated root spans.
    pub attributed_seconds: f64,
    /// `attributed_seconds / wall_seconds`, clamped to `[0, 1]`.
    pub fraction: f64,
}

/// Counter-derived flop accounting.
#[derive(Clone, Debug)]
pub struct FlopReport {
    /// Estimated Gflop spent (the `fft_flops` + `gemm_flops` counters).
    pub estimated_gflop: f64,
    /// Sustained Gflop/s over the wall clock.
    pub gflops: f64,
}

/// Where a run's memory went: the producer's own accounting of its
/// long-lived and per-thread transient state, beside what the OS saw.
/// "Why is this run larger than the last one" is the difference of two of
/// these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryReport {
    /// `(category, bytes)` in the producer's order — for an LS3DF run
    /// `psi_at_rest`, `projectors`, `bases_and_fields`, `solve_workspace`
    /// (see `Ls3df::memory_footprint`).
    pub categories: Vec<(String, u64)>,
    /// The process' peak resident set when the report was taken
    /// ([`peak_rss_bytes`]); `None` where the OS does not say.
    pub peak_rss_bytes: Option<u64>,
}

impl MemoryReport {
    /// One line per category in MiB, then the accounted total against the
    /// process peak — the block `fig6` and the quickstart print.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        const MIB: f64 = 1024.0 * 1024.0;
        let mut out = String::new();
        let _ = writeln!(out, "{:<20} {:>10}", "memory", "MiB");
        for (name, bytes) in &self.categories {
            let _ = writeln!(out, "{name:<20} {:>10.1}", *bytes as f64 / MIB);
        }
        let total: u64 = self.categories.iter().map(|&(_, b)| b).sum();
        let _ = writeln!(out, "{:<20} {:>10.1}", "accounted", total as f64 / MIB);
        if let Some(peak) = self.peak_rss_bytes {
            let _ = writeln!(
                out,
                "{:<20} {:>10.1}",
                "process peak RSS",
                peak as f64 / MIB
            );
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "categories",
                Json::Obj(
                    self.categories
                        .iter()
                        .map(|(name, bytes)| (name.clone(), Json::num(*bytes as f64)))
                        .collect(),
                ),
            ),
            (
                "peak_rss_bytes",
                self.peak_rss_bytes
                    .map_or(Json::Null, |b| Json::num(b as f64)),
            ),
        ])
    }
}

/// The calling process' peak resident set size in bytes (`VmHWM` of
/// `/proc/self/status`); `None` off Linux or when the line is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    kib.checked_mul(1024)
}

/// One run's complete observability record; renders to the
/// `BENCH_*.json` schema via [`Report::to_json`] / [`Report::write`].
#[derive(Clone, Debug)]
pub struct Report {
    /// What produced the report (`fig6`, `fig5`, a test name).
    pub command: String,
    /// Whether span/counter collection was compiled in.
    pub obs_enabled: bool,
    /// Wall-clock seconds for the reported run.
    pub wall_seconds: f64,
    /// Whether the SCF converged (`None` for non-SCF reports).
    pub converged: Option<bool>,
    /// Per-stage aggregate times.
    pub stages: Vec<StageRow>,
    /// Convergence history.
    pub steps: Vec<StepRow>,
    /// Counter registry snapshot (nonzero entries).
    pub counters: Vec<(String, u64)>,
    /// Span aggregates by hierarchical path.
    pub spans: Vec<SpanRow>,
    /// Per-fragment solve times.
    pub fragments: Vec<FragmentRow>,
    /// Wall-time attribution of the root spans.
    pub attribution: Option<Attribution>,
    /// Counter-derived flop rates.
    pub flops: Option<FlopReport>,
    /// Per-rank sections of a merged run report, one per rank of the
    /// run's world; empty when the producer never merges.
    pub ranks: Vec<RankSection>,
    /// Whether any rank's telemetry was lost (down/missing rank) —
    /// the degradation flag, never an error.
    pub telemetry_incomplete: bool,
    /// Bytes by category and the process peak, when the producer took
    /// them (an optional section: documents without it stay valid).
    pub memory: Option<MemoryReport>,
    /// Free-form producer-specific extras (digest, thread counts, …).
    pub extra: Vec<(String, Json)>,
}

impl Report {
    /// An empty report skeleton; producers fill the sections they have.
    pub fn new(command: &str, wall_seconds: f64) -> Report {
        Report {
            command: command.to_string(),
            obs_enabled: crate::ENABLED,
            wall_seconds,
            converged: None,
            stages: Vec::new(),
            steps: Vec::new(),
            counters: Vec::new(),
            spans: Vec::new(),
            fragments: Vec::new(),
            attribution: None,
            flops: None,
            ranks: Vec::new(),
            telemetry_incomplete: false,
            memory: None,
            extra: Vec::new(),
        }
    }

    /// Builds a report from harvested run data: aggregates spans into
    /// paths, extracts per-fragment rows from `frag` spans, attributes
    /// wall time to `scf_iter` spans, and derives flop rates from the
    /// `fft_flops` and `gemm_flops` counters. Stage/step/convergence
    /// sections are left for the caller (they come from the
    /// `ScfObserver` hooks, not from spans).
    pub fn from_run(command: &str, wall_seconds: f64, data: &RunData) -> Report {
        let mut report = Report::new(command, wall_seconds);
        report.counters = data
            .counters
            .iter()
            .map(|&(name, value)| (name.to_string(), value))
            .collect();
        let (spans, fragments) = aggregate_spans(&data.spans);
        report.spans = spans;
        report.fragments = fragments;
        if crate::ENABLED {
            let attributed: f64 = data
                .spans
                .iter()
                .filter(|s| s.label == ROOT_LABEL)
                .map(FinishedSpan::seconds)
                .sum();
            let fraction = if wall_seconds > 0.0 {
                (attributed / wall_seconds).clamp(0.0, 1.0)
            } else {
                0.0
            };
            report.attribution = Some(Attribution {
                attributed_seconds: attributed,
                fraction,
            });
            let flops: u64 = data
                .counters
                .iter()
                .filter(|&&(name, _)| name == "fft_flops" || name == "gemm_flops")
                .map(|&(_, v)| v)
                .sum();
            let estimated_gflop = flops as f64 * 1e-9;
            let gflops = if wall_seconds > 0.0 {
                estimated_gflop / wall_seconds
            } else {
                0.0
            };
            report.flops = Some(FlopReport {
                estimated_gflop,
                gflops,
            });
        }
        report
    }

    /// Renders the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        let stages = Json::Arr(
            self.stages
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(&*s.name)),
                        ("calls", Json::num(s.calls as f64)),
                        ("seconds", Json::num(s.seconds)),
                    ])
                })
                .collect(),
        );
        let steps = Json::Arr(
            self.steps
                .iter()
                .map(|s| {
                    let per_stage = Json::Obj(
                        s.stage_seconds
                            .iter()
                            .map(|(name, sec)| (name.clone(), Json::num(*sec)))
                            .collect(),
                    );
                    Json::obj(vec![
                        ("iteration", Json::num(s.iteration as f64)),
                        ("dv_integral", Json::num(s.dv_integral)),
                        ("worst_residual", Json::num(s.worst_residual)),
                        ("charge_ratio", Json::num(s.charge_ratio)),
                        ("retention_min", Json::num(s.retention_min)),
                        ("stages", per_stage),
                    ])
                })
                .collect(),
        );
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(name, value)| (name.clone(), Json::num(*value as f64)))
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("path", Json::str(&*s.path)),
                        ("count", Json::num(s.count as f64)),
                        ("total_seconds", Json::num(s.total_seconds)),
                        ("self_seconds", Json::num(s.self_seconds)),
                    ])
                })
                .collect(),
        );
        let fragments = Json::Arr(
            self.fragments
                .iter()
                .map(|f| {
                    Json::obj(vec![
                        ("fragment", Json::num(f.index as f64)),
                        ("calls", Json::num(f.calls as f64)),
                        ("seconds", Json::num(f.seconds)),
                    ])
                })
                .collect(),
        );
        let attribution = self.attribution.as_ref().map_or(Json::Null, |a| {
            Json::obj(vec![
                ("attributed_seconds", Json::num(a.attributed_seconds)),
                ("fraction", Json::num(a.fraction)),
            ])
        });
        let flops = self.flops.as_ref().map_or(Json::Null, |f| {
            Json::obj(vec![
                ("estimated_gflop", Json::num(f.estimated_gflop)),
                ("gflops", Json::num(f.gflops)),
            ])
        });
        let ranks = Json::Arr(self.ranks.iter().map(rank_section_json).collect());
        Json::obj(vec![
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("command", Json::str(&*self.command)),
            ("obs_enabled", Json::Bool(self.obs_enabled)),
            ("wall_seconds", Json::num(self.wall_seconds)),
            ("converged", self.converged.map_or(Json::Null, Json::Bool)),
            ("stages", stages),
            ("steps", steps),
            ("counters", counters),
            ("spans", spans),
            ("fragments", fragments),
            ("attribution", attribution),
            ("flops", flops),
            ("ranks", ranks),
            (
                "telemetry_incomplete",
                Json::Bool(self.telemetry_incomplete),
            ),
            (
                "memory",
                self.memory
                    .as_ref()
                    .map_or(Json::Null, MemoryReport::to_json),
            ),
            ("extra", Json::Obj(self.extra.to_vec())),
        ])
    }

    /// Writes the JSON document to `path` (truncating).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().render().as_bytes())
    }

    /// Paper-style per-stage summary table (Fig. 2 layout: one row per
    /// stage with its share of the wall clock), followed by flop-rate
    /// and attribution lines when available.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run report: {}", self.command);
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12} {:>8}",
            "stage", "calls", "seconds", "% wall"
        );
        for stage in &self.stages {
            let pct = if self.wall_seconds > 0.0 {
                100.0 * stage.seconds / self.wall_seconds
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>12.4} {:>8.1}",
                stage.name, stage.calls, stage.seconds, pct
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12.4} {:>8.1}",
            "wall", "", self.wall_seconds, 100.0
        );
        if let Some(flops) = &self.flops {
            let _ = writeln!(
                out,
                "flops: {:.3} Gflop estimated, {:.3} Gflop/s sustained",
                flops.estimated_gflop, flops.gflops
            );
        }
        if let Some(attr) = &self.attribution {
            let _ = writeln!(
                out,
                "span attribution: {:.1}% of wall under named spans",
                100.0 * attr.fraction
            );
        }
        if let Some(memory) = &self.memory {
            out.push_str(&memory.table());
        }
        out
    }
}

fn span_row_json(s: &SpanRow) -> Json {
    Json::obj(vec![
        ("path", Json::str(&*s.path)),
        ("count", Json::num(s.count as f64)),
        ("total_seconds", Json::num(s.total_seconds)),
        ("self_seconds", Json::num(s.self_seconds)),
    ])
}

fn bucket_json(buckets: &[u64]) -> Json {
    // Trailing zero buckets carry no information; trim them.
    let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    Json::Arr(
        buckets[..last]
            .iter()
            .map(|&b| Json::num(b as f64))
            .collect(),
    )
}

fn rank_section_json(s: &RankSection) -> Json {
    let (status, error_kind) = match &s.status {
        RankStatus::Up => ("up", Json::Null),
        RankStatus::Down { kind } => ("down", Json::str(&**kind)),
        RankStatus::Missing => ("missing", Json::Null),
    };
    let counters = Json::Obj(
        s.counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::num(*value as f64)))
            .collect(),
    );
    let spans = Json::Arr(s.spans.iter().map(span_row_json).collect());
    let petot = Json::Arr(
        s.petot_iterations
            .iter()
            .map(|&(it, sec)| {
                Json::obj(vec![
                    ("iteration", Json::num(it as f64)),
                    ("seconds", Json::num(sec)),
                ])
            })
            .collect(),
    );
    let comm = Json::Arr(
        s.comm
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("op", Json::str(&*row.op)),
                    ("kind", Json::str(&*row.kind)),
                    ("tag_class", Json::str(&*row.tag_class)),
                    ("frames", Json::num(row.frames as f64)),
                    ("bytes", Json::num(row.bytes as f64)),
                    ("latency_ns", Json::num(row.latency_ns as f64)),
                    ("size_log2", bucket_json(&row.size_buckets)),
                    ("latency_log2", bucket_json(&row.latency_buckets)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("rank", Json::num(s.rank as f64)),
        ("status", Json::str(status)),
        ("error_kind", error_kind),
        ("counters", counters),
        ("spans", spans),
        ("petot_iterations", petot),
        ("comm_wait_seconds", Json::num(s.comm_wait_seconds)),
        ("compute_seconds", Json::num(s.compute_seconds)),
        ("comm", comm),
    ])
}

/// Aggregates raw spans into per-path rows (hierarchy reconstructed per
/// thread from start times and recorded depths) and per-fragment rows
/// (`frag` spans, keyed by index).
pub fn aggregate_spans(spans: &[FinishedSpan]) -> (Vec<SpanRow>, Vec<FragmentRow>) {
    // Sort within each thread by (start, depth): ancestors precede
    // descendants, so a label stack indexed by depth yields the path.
    let mut order: Vec<&FinishedSpan> = spans.iter().collect();
    order.sort_by_key(|a| (a.tid, a.start_ns, a.depth));

    let mut rows: Vec<SpanRow> = Vec::new();
    let mut child_seconds: Vec<f64> = Vec::new();
    let mut index_of_path: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut stack: Vec<(&'static str, usize)> = Vec::new(); // (label, row index)
    let mut last_tid = None;
    for span in &order {
        if last_tid != Some(span.tid) {
            stack.clear();
            last_tid = Some(span.tid);
        }
        stack.truncate(span.depth as usize);
        let mut path = String::new();
        for (label, _) in &stack {
            path.push_str(label);
            path.push('/');
        }
        path.push_str(span.label);
        let row = match index_of_path.get(&path) {
            Some(&i) => i,
            None => {
                index_of_path.insert(path.clone(), rows.len());
                rows.push(SpanRow {
                    path,
                    count: 0,
                    total_seconds: 0.0,
                    self_seconds: 0.0,
                });
                child_seconds.push(0.0);
                rows.len() - 1
            }
        };
        rows[row].count += 1;
        rows[row].total_seconds += span.seconds();
        if let Some(&(_, parent)) = stack.last() {
            child_seconds[parent] += span.seconds();
        }
        stack.push((span.label, row));
    }
    for (row, child) in rows.iter_mut().zip(&child_seconds) {
        row.self_seconds = (row.total_seconds - child).max(0.0);
    }
    rows.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));

    let mut fragments: Vec<FragmentRow> = Vec::new();
    for span in spans {
        if span.label != FRAGMENT_LABEL || span.index == NO_INDEX {
            continue;
        }
        match fragments.iter_mut().find(|f| f.index == span.index) {
            Some(f) => {
                f.calls += 1;
                f.seconds += span.seconds();
            }
            None => fragments.push(FragmentRow {
                index: span.index,
                calls: 1,
                seconds: span.seconds(),
            }),
        }
    }
    fragments.sort_by_key(|f| f.index);
    (rows, fragments)
}

/// Parses and schema-validates a rendered report document, returning
/// the parsed JSON on success. This is what the `obs-report` CI step
/// runs against freshly emitted `BENCH_*.json` files.
pub fn validate_report_str(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text)?;
    validate_report(&doc)?;
    Ok(doc)
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn expect_num(value: &Json, what: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number"))
}

fn expect_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("{what} must be a string"))
}

fn expect_arr<'a>(value: &'a Json, what: &str) -> Result<&'a [Json], String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))
}

/// Schema-validates a parsed report document.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let schema = expect_str(field(doc, "schema")?, "schema")?;
    if schema != SCHEMA_NAME {
        return Err(format!("schema is {schema:?}, expected {SCHEMA_NAME:?}"));
    }
    let version = expect_num(field(doc, "schema_version")?, "schema_version")?;
    if version - SCHEMA_VERSION as f64 != 0.0 {
        return Err(format!(
            "schema_version is {version}, expected {SCHEMA_VERSION}"
        ));
    }
    expect_str(field(doc, "command")?, "command")?;
    field(doc, "obs_enabled")?
        .as_bool()
        .ok_or("obs_enabled must be a bool")?;
    let wall = expect_num(field(doc, "wall_seconds")?, "wall_seconds")?;
    if wall.is_nan() || wall < 0.0 {
        return Err(format!("wall_seconds {wall} out of range"));
    }
    match field(doc, "converged")? {
        Json::Null | Json::Bool(_) => {}
        _ => return Err("converged must be bool or null".to_string()),
    }
    for stage in expect_arr(field(doc, "stages")?, "stages")? {
        expect_str(field(stage, "name")?, "stages[].name")?;
        expect_num(field(stage, "calls")?, "stages[].calls")?;
        expect_num(field(stage, "seconds")?, "stages[].seconds")?;
    }
    for step in expect_arr(field(doc, "steps")?, "steps")? {
        expect_num(field(step, "iteration")?, "steps[].iteration")?;
        field(step, "dv_integral")?;
        field(step, "worst_residual")?;
        match field(step, "retention_min")? {
            Json::Null | Json::Num(_) => {}
            _ => return Err("steps[].retention_min must be number or null".to_string()),
        }
        let stages = field(step, "stages")?
            .as_object()
            .ok_or("steps[].stages must be an object")?;
        for (name, value) in stages {
            expect_num(value, name)?;
        }
    }
    let counters = field(doc, "counters")?
        .as_object()
        .ok_or("counters must be an object")?;
    for (name, value) in counters {
        expect_num(value, name)?;
    }
    for span in expect_arr(field(doc, "spans")?, "spans")? {
        expect_str(field(span, "path")?, "spans[].path")?;
        expect_num(field(span, "count")?, "spans[].count")?;
        expect_num(field(span, "total_seconds")?, "spans[].total_seconds")?;
        expect_num(field(span, "self_seconds")?, "spans[].self_seconds")?;
    }
    for frag in expect_arr(field(doc, "fragments")?, "fragments")? {
        expect_num(field(frag, "fragment")?, "fragments[].fragment")?;
        expect_num(field(frag, "calls")?, "fragments[].calls")?;
        expect_num(field(frag, "seconds")?, "fragments[].seconds")?;
    }
    match field(doc, "attribution")? {
        Json::Null => {}
        a => {
            expect_num(
                field(a, "attributed_seconds")?,
                "attribution.attributed_seconds",
            )?;
            let fraction = expect_num(field(a, "fraction")?, "attribution.fraction")?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(format!("attribution.fraction {fraction} out of [0, 1]"));
            }
        }
    }
    match field(doc, "flops")? {
        Json::Null => {}
        f => {
            expect_num(field(f, "estimated_gflop")?, "flops.estimated_gflop")?;
            expect_num(field(f, "gflops")?, "flops.gflops")?;
        }
    }
    for rank in expect_arr(field(doc, "ranks")?, "ranks")? {
        expect_num(field(rank, "rank")?, "ranks[].rank")?;
        let status = expect_str(field(rank, "status")?, "ranks[].status")?;
        if !matches!(status, "up" | "down" | "missing") {
            return Err(format!("ranks[].status {status:?} unknown"));
        }
        match field(rank, "error_kind")? {
            Json::Null if status != "down" => {}
            Json::Str(_) if status == "down" => {}
            _ => {
                return Err("ranks[].error_kind must be a string exactly for down ranks".to_string())
            }
        }
        let counters = field(rank, "counters")?
            .as_object()
            .ok_or("ranks[].counters must be an object")?;
        for (name, value) in counters {
            expect_num(value, name)?;
        }
        for span in expect_arr(field(rank, "spans")?, "ranks[].spans")? {
            expect_str(field(span, "path")?, "ranks[].spans[].path")?;
            expect_num(field(span, "count")?, "ranks[].spans[].count")?;
            expect_num(
                field(span, "total_seconds")?,
                "ranks[].spans[].total_seconds",
            )?;
            expect_num(field(span, "self_seconds")?, "ranks[].spans[].self_seconds")?;
        }
        for step in expect_arr(field(rank, "petot_iterations")?, "ranks[].petot_iterations")? {
            expect_num(field(step, "iteration")?, "petot_iterations[].iteration")?;
            expect_num(field(step, "seconds")?, "petot_iterations[].seconds")?;
        }
        expect_num(
            field(rank, "comm_wait_seconds")?,
            "ranks[].comm_wait_seconds",
        )?;
        expect_num(field(rank, "compute_seconds")?, "ranks[].compute_seconds")?;
        for row in expect_arr(field(rank, "comm")?, "ranks[].comm")? {
            expect_str(field(row, "op")?, "comm[].op")?;
            expect_str(field(row, "kind")?, "comm[].kind")?;
            expect_str(field(row, "tag_class")?, "comm[].tag_class")?;
            expect_num(field(row, "frames")?, "comm[].frames")?;
            expect_num(field(row, "bytes")?, "comm[].bytes")?;
            expect_num(field(row, "latency_ns")?, "comm[].latency_ns")?;
            expect_arr(field(row, "size_log2")?, "comm[].size_log2")?;
            expect_arr(field(row, "latency_log2")?, "comm[].latency_log2")?;
        }
    }
    field(doc, "telemetry_incomplete")?
        .as_bool()
        .ok_or("telemetry_incomplete must be a bool")?;
    // Optional: reports written before the section existed lack the key.
    match doc.get("memory") {
        None | Some(Json::Null) => {}
        Some(m) => {
            let categories = field(m, "categories")?
                .as_object()
                .ok_or("memory.categories must be an object")?;
            for (name, value) in categories {
                expect_num(value, name)?;
            }
            match field(m, "peak_rss_bytes")? {
                Json::Null | Json::Num(_) => {}
                _ => return Err("memory.peak_rss_bytes must be number or null".to_string()),
            }
        }
    }
    field(doc, "extra")?
        .as_object()
        .ok_or("extra must be an object")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        label: &'static str,
        index: u64,
        start_ns: u64,
        end_ns: u64,
        depth: u32,
        tid: u32,
    ) -> FinishedSpan {
        FinishedSpan {
            label,
            index,
            start_ns,
            end_ns,
            depth,
            tid,
        }
    }

    #[test]
    fn aggregation_builds_paths_and_self_times() {
        let spans = vec![
            span("scf_iter", 1, 0, 1000, 0, 0),
            span("petot_f", NO_INDEX, 100, 900, 1, 0),
            span("frag", 0, 120, 400, 0, 1),
            span("frag", 1, 410, 800, 0, 1),
            span("frag", 0, 120, 500, 0, 2),
        ];
        let (rows, frags) = aggregate_spans(&spans);
        let iter_row = rows
            .iter()
            .find(|r| r.path == "scf_iter")
            .expect("scf_iter");
        assert_eq!(iter_row.count, 1);
        assert!((iter_row.total_seconds - 1000e-9).abs() < 1e-15);
        // 800 ns of the 1000 are inside petot_f → 200 ns self.
        assert!((iter_row.self_seconds - 200e-9).abs() < 1e-15);
        let child = rows
            .iter()
            .find(|r| r.path == "scf_iter/petot_f")
            .expect("nested path");
        assert_eq!(child.count, 1);
        // Worker-thread roots aggregate under their bare label.
        let frag_row = rows.iter().find(|r| r.path == "frag").expect("frag row");
        assert_eq!(frag_row.count, 3);
        assert_eq!(frags.len(), 2);
        assert_eq!((frags[0].index, frags[0].calls), (0, 2));
        assert_eq!((frags[1].index, frags[1].calls), (1, 1));
    }

    #[test]
    fn report_round_trips_through_validation() {
        let mut report = Report::new("unit-test", 2.5);
        report.converged = Some(true);
        report.stages.push(StageRow {
            name: "PEtot_F".to_string(),
            calls: 3,
            seconds: 2.0,
        });
        report.steps.push(StepRow {
            iteration: 1,
            dv_integral: 0.5,
            worst_residual: 1e-6,
            charge_ratio: 0.875,
            retention_min: f64::NAN,
            stage_seconds: vec![("PEtot_F".to_string(), 0.7)],
        });
        report.counters.push(("fft_flops".to_string(), 12345));
        report.extra.push(("digest".to_string(), Json::str("abc")));
        report.memory = Some(MemoryReport {
            categories: vec![("psi_at_rest".to_string(), 3 << 20)],
            peak_rss_bytes: peak_rss_bytes(),
        });
        assert!(report.summary_table().contains("psi_at_rest"));
        let text = report.to_json().render();
        let doc = validate_report_str(&text).expect("schema-valid");
        let steps = doc.get("steps").and_then(Json::as_array).expect("steps");
        assert_eq!(
            steps[0].get("charge_ratio").and_then(Json::as_f64),
            Some(0.875)
        );
        // A non-finite retention renders as null, which v3 accepts; a
        // step without the field or with a string there is rejected.
        assert_eq!(steps[0].get("retention_min"), Some(&Json::Null));
        let bad = text.replace("\"retention_min\": null", "\"retention_min\": \"x\"");
        assert!(validate_report_str(&bad).is_err());
        let bad = text.replace("\"retention_min\": null,", "");
        assert!(validate_report_str(&bad).is_err());
        let memory = doc.get("memory").expect("memory section");
        assert_eq!(
            memory
                .get("categories")
                .and_then(|c| c.get("psi_at_rest"))
                .and_then(Json::as_f64),
            Some(f64::from(3 << 20))
        );
        let bad = text.replace("\"categories\"", "\"categoriez\"");
        assert!(validate_report_str(&bad).is_err());
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("unit-test"));
        assert_eq!(
            doc.get("extra")
                .and_then(|e| e.get("digest"))
                .and_then(Json::as_str),
            Some("abc")
        );
    }

    #[test]
    fn validation_rejects_wrong_schema_and_bad_fraction() {
        let mut report = Report::new("x", 1.0);
        report.attribution = Some(Attribution {
            attributed_seconds: 1.0,
            fraction: 0.5,
        });
        let good = report.to_json().render();
        assert!(validate_report_str(&good).is_ok());
        let bad = good.replace("ls3df-run-report", "other-schema");
        assert!(validate_report_str(&bad).is_err());
        let bad = good.replace("\"fraction\": 0.5", "\"fraction\": 1.5");
        assert!(validate_report_str(&bad).is_err());
    }

    #[test]
    fn rankless_v1_and_v2_documents_are_rejected() {
        let good = Report::new("legacy", 1.0).to_json().render();
        let rankless = good
            .replace("\"ranks\": [],\n", "")
            .replace("\"telemetry_incomplete\": false,\n", "");
        assert!(
            !rankless.contains("ranks") && !rankless.contains("telemetry_incomplete"),
            "test must exercise a genuinely rank-less document"
        );
        assert!(validate_report_str(&rankless).is_err());
        for old in [1, 2] {
            let doc = good.replace(
                "\"schema_version\": 3",
                &format!("\"schema_version\": {old}"),
            );
            assert_ne!(doc, good);
            assert!(validate_report_str(&doc).is_err(), "v{old} accepted");
        }
    }

    #[test]
    fn validation_checks_rank_sections() {
        let mut report = Report::new("ranked", 1.0);
        report.ranks.push(RankSection {
            rank: 0,
            status: RankStatus::Up,
            counters: vec![("fragment_solves".to_string(), 4)],
            spans: vec![SpanRow {
                path: "scf_iter/petot_f".to_string(),
                count: 2,
                total_seconds: 0.5,
                self_seconds: 0.5,
            }],
            petot_iterations: vec![(1, 0.25), (2, 0.25)],
            comm_wait_seconds: 0.01,
            compute_seconds: 0.5,
            comm: vec![crate::telemetry::CommRow {
                op: "recv".to_string(),
                kind: "data".to_string(),
                tag_class: "user".to_string(),
                frames: 2,
                bytes: 128,
                latency_ns: 900,
                size_buckets: vec![0, 0, 0, 2],
                latency_buckets: vec![2],
            }],
        });
        report.ranks.push(RankSection {
            rank: 1,
            status: RankStatus::Down {
                kind: "rank_down".to_string(),
            },
            counters: Vec::new(),
            spans: Vec::new(),
            petot_iterations: Vec::new(),
            comm_wait_seconds: 0.0,
            compute_seconds: 0.0,
            comm: Vec::new(),
        });
        report.telemetry_incomplete = true;
        let text = report.to_json().render();
        let doc = validate_report_str(&text).expect("ranked report valid");
        let ranks = doc.get("ranks").and_then(Json::as_array).expect("ranks");
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[1].get("status").and_then(Json::as_str), Some("down"));
        assert_eq!(
            ranks[1].get("error_kind").and_then(Json::as_str),
            Some("rank_down")
        );
        // A down rank without a kind string is a schema error.
        let bad = text.replace("\"error_kind\": \"rank_down\"", "\"error_kind\": null");
        assert!(validate_report_str(&bad).is_err());
        // An unknown status is a schema error.
        let bad = text.replace("\"status\": \"down\"", "\"status\": \"gone\"");
        assert!(validate_report_str(&bad).is_err());
    }

    #[test]
    fn from_run_derives_flops_and_attribution_when_enabled() {
        let data = RunData {
            spans: vec![span("scf_iter", 1, 0, 900_000_000, 0, 0)],
            threads: vec![(0, "main".to_string())],
            // The flop total covers FFT butterflies and block products.
            counters: vec![("fft_flops", 1_500_000_000), ("gemm_flops", 500_000_000)],
        };
        let report = Report::from_run("t", 1.0, &data);
        assert_eq!(report.obs_enabled, crate::ENABLED);
        if crate::ENABLED {
            let flops = report.flops.as_ref().expect("flops");
            assert!((flops.gflops - 2.0).abs() < 1e-12);
            let attr = report.attribution.as_ref().expect("attribution");
            assert!((attr.fraction - 0.9).abs() < 1e-9);
        } else {
            assert!(report.flops.is_none() && report.attribution.is_none());
        }
        let table = report.summary_table();
        assert!(table.contains("stage"));
    }
}
