//! Rank-aware telemetry: one rank's harvested observability state, and
//! the fold of a world's rank payloads into a single run report.
//!
//! The distributed SCF run (paper §III) solves fragments on worker
//! ranks whose processes exit right after the run — without this module
//! their spans and counters die with them and the run report describes
//! rank 0 only. The pieces here close that gap (the wire codec that
//! ships a [`RankTelemetry`] as an `OBSTELEM` section lives in
//! `ls3df-dist`, beside the transport):
//!
//! * **rank identity** — [`set_rank`] stamps the world coordinates into
//!   the sink so every later harvest knows which lane it belongs to;
//! * **merge stash** — rank 0 collects worker payloads (or their
//!   degradation markers) via [`submit_remote`] during the SCF
//!   epilogue; the report assembly later drains them with
//!   [`take_stash`];
//! * **merge** — [`merge_ranks`] folds the local harvest plus the
//!   stashed remote payloads into a [`Report`] at every world size (a
//!   one-rank world is its `M = 1` case):
//!   per-rank counter tables and span aggregates, a per-SCF-iteration
//!   `PEtot_F` straggler-gap series (max−min rank time), the measured
//!   imbalance ratio against the scheduler's predicted cost bins, and
//!   comm-wait vs compute attribution.
//!
//! Degradation contract: a missing, late, malformed, or CRC-corrupt
//! payload marks its rank `missing` (or `down` with the typed comm
//! error kind) and raises the report's `telemetry_incomplete` flag —
//! it is never an error and never a hang.

use crate::report::{RankSection, RankStatus, Report};
use crate::span::{FinishedSpan, NO_INDEX};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Span label of one fragment solve: the report's per-fragment rows.
pub(crate) const FRAGMENT_LABEL: &str = "frag";
/// Span label of one SCF iteration: the root the report attributes wall
/// time to, and the index the straggler series is keyed by.
pub(crate) const ROOT_LABEL: &str = "scf_iter";
/// Span label of the `PEtot_F` stage: a rank's compute time.
const PETOT_LABEL: &str = "petot_f";

/// Packed world coordinates: rank in the high 32 bits, size in the low
/// 32. Default (never set) decodes as rank 0 of a size-1 world.
// ORDERING: Relaxed — a single independent word; readers only need the
// last value written before harvest, which program order guarantees.
static WORLD: AtomicU64 = AtomicU64::new(1);

/// Stamps this process's world coordinates into the sink. Called by the
/// SCF driver as soon as the communicator resolves; `size` is clamped
/// to at least 1 and `rank` to below `size`.
pub fn set_rank(rank: usize, size: usize) {
    let size = (size.max(1) as u64).min(u32::MAX as u64);
    let rank = (rank as u64).min(size - 1);
    // ORDERING: Relaxed — see WORLD.
    WORLD.store((rank << 32) | size, Ordering::Relaxed);
}

/// The rank stamped by [`set_rank`] (0 when never stamped).
pub fn rank() -> usize {
    // ORDERING: Relaxed — see WORLD.
    (WORLD.load(Ordering::Relaxed) >> 32) as usize
}

/// The world size stamped by [`set_rank`] (1 when never stamped).
pub fn world_size() -> usize {
    // ORDERING: Relaxed — see WORLD.
    (WORLD.load(Ordering::Relaxed) as u32).max(1) as usize
}

/// One direction/kind/tag-class cell of the transport's histogram set,
/// as drained from `ls3df-dist` or deserialized from a shipped payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommRow {
    /// Direction: `"send"` or `"recv"`.
    pub op: String,
    /// Frame kind: `"data"`, `"bcast"` or `"hello"`.
    pub kind: String,
    /// Tag class of data frames (`"user"`, `"psi"`, `"telemetry"`);
    /// broadcast and handshake frames report as `"collective"`.
    pub tag_class: String,
    /// Frames through this cell.
    pub frames: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total per-frame transport latency in nanoseconds.
    pub latency_ns: u64,
    /// log2 histogram of payload sizes: bucket `b` counts frames of
    /// `2^(b-1) ≤ bytes < 2^b` (bucket 0 is empty payloads).
    pub size_buckets: Vec<u64>,
    /// log2 histogram of per-frame latency in nanoseconds, same
    /// bucketing rule.
    pub latency_buckets: Vec<u64>,
}

/// Everything one rank ships to rank 0 after its final iteration.
#[derive(Clone, Debug, Default)]
pub struct RankTelemetry {
    /// Originating rank.
    pub rank: usize,
    /// World size the originating rank believed in (shape-checked by
    /// the receiver).
    pub size: usize,
    /// The rank's finished spans, as harvested.
    pub spans: Vec<FinishedSpan>,
    /// `(thread id, thread name)` for every recording thread.
    pub threads: Vec<(u32, String)>,
    /// Counter snapshot (nonzero entries).
    pub counters: Vec<(String, u64)>,
    /// Transport histogram rows drained from the communicator.
    pub comm: Vec<CommRow>,
}

/// One remote rank's contribution to the merge, after degradation
/// rules are applied at the receiving side.
#[derive(Clone, Debug)]
pub enum RankPayload {
    /// The rank shipped a well-formed, shape-valid payload.
    Telemetry(RankTelemetry),
    /// The rank is known dead; `kind` is the stable [`CommError`] kind
    /// string (`rank_down`, `timeout`, `protocol`, `io`, `bootstrap`).
    ///
    /// [`CommError`]: https://docs.rs/ls3df-dist
    Down {
        /// The dead rank.
        rank: usize,
        /// Stable comm-error kind string.
        kind: String,
    },
    /// No usable payload arrived (late, malformed, or CRC-corrupt).
    Missing {
        /// The silent rank.
        rank: usize,
    },
}

impl RankPayload {
    fn rank(&self) -> usize {
        match self {
            RankPayload::Telemetry(t) => t.rank,
            RankPayload::Down { rank, .. } | RankPayload::Missing { rank } => *rank,
        }
    }
}

// ---------------------------------------------------------------------
// Merge stash
// ---------------------------------------------------------------------

#[derive(Default)]
struct Stash {
    remote: Vec<RankPayload>,
    predicted_costs: Vec<u64>,
}

static STASH: Mutex<Option<Stash>> = Mutex::new(None);

fn with_stash<T>(f: impl FnOnce(&mut Stash) -> T) -> T {
    let mut guard = STASH.lock().unwrap_or_else(|p| p.into_inner());
    f(guard.get_or_insert_with(Stash::default))
}

/// Records one remote rank's payload (or degradation marker) for the
/// next report assembly on this process. Later submissions for the
/// same rank replace earlier ones.
pub fn submit_remote(payload: RankPayload) {
    with_stash(|s| {
        s.remote.retain(|p| p.rank() != payload.rank());
        s.remote.push(payload);
    });
}

/// Records the scheduler's predicted per-group cost bins
/// (`groups::plan_groups` output), indexed by rank, for the imbalance
/// section of the next merged report.
pub fn set_predicted_costs(costs: Vec<u64>) {
    with_stash(|s| s.predicted_costs = costs);
}

/// Drains the stash: every submitted remote payload plus the predicted
/// cost bins. Called once per report assembly.
pub fn take_stash() -> (Vec<RankPayload>, Vec<u64>) {
    with_stash(|s| {
        (
            std::mem::take(&mut s.remote),
            std::mem::take(&mut s.predicted_costs),
        )
    })
}

/// Clears the stash (part of [`crate::reset`]).
pub(crate) fn clear_stash() {
    with_stash(|s| {
        s.remote.clear();
        s.predicted_costs.clear();
    });
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// Total `PEtot_F` seconds per SCF iteration on one rank, from pairing
/// [`PETOT_LABEL`] spans with the enclosing indexed [`ROOT_LABEL`] span
/// on the same thread.
fn petot_per_iteration(spans: &[FinishedSpan]) -> Vec<(u64, f64)> {
    let iters: Vec<&FinishedSpan> = spans
        .iter()
        .filter(|s| s.label == ROOT_LABEL && s.index != NO_INDEX)
        .collect();
    let mut out: Vec<(u64, f64)> = Vec::new();
    for span in spans.iter().filter(|s| s.label == PETOT_LABEL) {
        let Some(iter) = iters
            .iter()
            .find(|i| i.tid == span.tid && span.start_ns >= i.start_ns && span.end_ns <= i.end_ns)
        else {
            continue;
        };
        match out.iter_mut().find(|(it, _)| *it == iter.index) {
            Some((_, sec)) => *sec += span.seconds(),
            None => out.push((iter.index, span.seconds())),
        }
    }
    out.sort_by_key(|&(it, _)| it);
    out
}

fn label_seconds(spans: &[FinishedSpan], pred: impl Fn(&str) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| pred(s.label))
        .map(FinishedSpan::seconds)
        .sum()
}

fn section_from_telemetry(t: &RankTelemetry) -> RankSection {
    let (span_rows, _) = crate::report::aggregate_spans(&t.spans);
    RankSection {
        rank: t.rank,
        status: RankStatus::Up,
        counters: t.counters.clone(),
        spans: span_rows,
        petot_iterations: petot_per_iteration(&t.spans),
        comm_wait_seconds: label_seconds(&t.spans, |l| l.starts_with("comm_")),
        compute_seconds: label_seconds(&t.spans, |l| l == PETOT_LABEL),
        comm: t.comm.clone(),
    }
}

fn empty_section(rank: usize, status: RankStatus) -> RankSection {
    RankSection {
        rank,
        status,
        counters: Vec::new(),
        spans: Vec::new(),
        petot_iterations: Vec::new(),
        comm_wait_seconds: 0.0,
        compute_seconds: 0.0,
        comm: Vec::new(),
    }
}

/// `max / mean` of a positive series; `None` when the series is empty
/// or sums to zero (no meaningful ratio).
fn max_over_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    Some(max * values.len() as f64 / sum)
}

/// Folds the local harvest plus stashed remote payloads into `report`:
/// fills the `ranks` section (one per rank of `local.size`), sets `telemetry_incomplete`,
/// and derives the `straggler_gap`, `imbalance`, and
/// `comm_attribution` extras. `predicted_costs` are the scheduler's
/// per-group cost bins indexed by rank (empty when unknown).
pub fn merge_ranks(
    report: &mut Report,
    local: RankTelemetry,
    remote: Vec<RankPayload>,
    predicted_costs: &[u64],
) {
    use crate::json::Json;

    let size = local.size.max(1);
    let mut sections: Vec<RankSection> = Vec::with_capacity(size);
    sections.push(section_from_telemetry(&local));
    for r in 1..size {
        let payload = remote.iter().find(|p| p.rank() == r);
        sections.push(match payload {
            Some(RankPayload::Telemetry(t)) => section_from_telemetry(t),
            Some(RankPayload::Down { rank, kind }) => {
                empty_section(*rank, RankStatus::Down { kind: kind.clone() })
            }
            Some(RankPayload::Missing { rank }) => empty_section(*rank, RankStatus::Missing),
            None => empty_section(r, RankStatus::Missing),
        });
    }
    let incomplete = sections.iter().any(|s| !matches!(s.status, RankStatus::Up));

    // Per-iteration straggler gap: max−min PEtot_F seconds across the
    // ranks reporting that iteration.
    let mut iterations: Vec<u64> = sections
        .iter()
        .flat_map(|s| s.petot_iterations.iter().map(|&(it, _)| it))
        .collect();
    iterations.sort_unstable();
    iterations.dedup();
    let straggler = Json::Arr(
        iterations
            .iter()
            .map(|&it| {
                let times: Vec<f64> = sections
                    .iter()
                    .filter_map(|s| {
                        s.petot_iterations
                            .iter()
                            .find(|&&(i, _)| i == it)
                            .map(|&(_, sec)| sec)
                    })
                    .collect();
                let max = times.iter().cloned().fold(f64::MIN, f64::max);
                let min = times.iter().cloned().fold(f64::MAX, f64::min);
                Json::obj(vec![
                    ("iteration", Json::num(it as f64)),
                    ("max_seconds", Json::num(max)),
                    ("min_seconds", Json::num(min)),
                    ("gap_seconds", Json::num((max - min).max(0.0))),
                    ("ranks_reporting", Json::num(times.len() as f64)),
                ])
            })
            .collect(),
    );

    // Imbalance: measured PEtot_F totals vs the scheduler's predicted
    // cost bins, both summarized as max/mean.
    let measured: Vec<f64> = sections
        .iter()
        .map(|s| s.petot_iterations.iter().map(|&(_, sec)| sec).sum())
        .collect();
    let predicted: Vec<f64> = predicted_costs.iter().map(|&c| c as f64).collect();
    let per_rank = Json::Arr(
        sections
            .iter()
            .enumerate()
            .map(|(r, s)| {
                Json::obj(vec![
                    ("rank", Json::num(r as f64)),
                    (
                        "predicted_cost",
                        predicted.get(r).copied().map_or(Json::Null, Json::num),
                    ),
                    ("measured_petot_seconds", Json::num(measured[r])),
                    (
                        "status",
                        Json::str(match &s.status {
                            RankStatus::Up => "up",
                            RankStatus::Down { .. } => "down",
                            RankStatus::Missing => "missing",
                        }),
                    ),
                ])
            })
            .collect(),
    );
    let imbalance = Json::obj(vec![
        (
            "measured_ratio",
            max_over_mean(&measured).map_or(Json::Null, Json::num),
        ),
        (
            "predicted_ratio",
            max_over_mean(&predicted).map_or(Json::Null, Json::num),
        ),
        ("per_rank", per_rank),
    ]);

    // Comm wait vs compute: comm_* span seconds vs PEtot_F span
    // seconds, per rank and world-total.
    let comm_wait: f64 = sections.iter().map(|s| s.comm_wait_seconds).sum();
    let compute: f64 = sections.iter().map(|s| s.compute_seconds).sum();
    let fraction = if comm_wait + compute > 0.0 {
        comm_wait / (comm_wait + compute)
    } else {
        0.0
    };
    let attribution = Json::obj(vec![
        ("comm_wait_seconds", Json::num(comm_wait)),
        ("compute_seconds", Json::num(compute)),
        ("comm_fraction", Json::num(fraction)),
        (
            "per_rank",
            Json::Arr(
                sections
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("rank", Json::num(s.rank as f64)),
                            ("comm_wait_seconds", Json::num(s.comm_wait_seconds)),
                            ("compute_seconds", Json::num(s.compute_seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    report
        .extra
        .retain(|(k, _)| k != "straggler_gap" && k != "imbalance" && k != "comm_attribution");
    report.extra.push(("straggler_gap".to_string(), straggler));
    report.extra.push(("imbalance".to_string(), imbalance));
    report
        .extra
        .push(("comm_attribution".to_string(), attribution));
    report.ranks = sections;
    report.telemetry_incomplete = incomplete;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

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

    fn sample(rank: usize) -> RankTelemetry {
        RankTelemetry {
            rank,
            size: 2,
            spans: vec![
                span("scf_iter", 1, 0, 1_000_000, 0, 0),
                span("petot_f", NO_INDEX, 100, 800_000, 1, 0),
                span("comm_bcast", NO_INDEX, 850_000, 950_000, 1, 0),
                span("scf_iter", 2, 1_000_000, 2_000_000, 0, 0),
                span("petot_f", NO_INDEX, 1_000_100, 1_600_000, 1, 0),
            ],
            threads: vec![(0, "main".to_string())],
            counters: vec![
                ("fragment_solves".to_string(), 8),
                ("comm_bytes_sent".to_string(), 4096),
            ],
            comm: vec![CommRow {
                op: "send".to_string(),
                kind: "data".to_string(),
                tag_class: "user".to_string(),
                frames: 4,
                bytes: 4096,
                latency_ns: 12_000,
                size_buckets: vec![0, 0, 4],
                latency_buckets: vec![1, 3],
            }],
        }
    }

    #[test]
    fn world_identity_round_trips_and_clamps() {
        set_rank(3, 8);
        assert_eq!((rank(), world_size()), (3, 8));
        set_rank(9, 4); // clamped below size
        assert_eq!((rank(), world_size()), (3, 4));
        set_rank(0, 0); // size clamps to 1
        assert_eq!((rank(), world_size()), (0, 1));
    }

    #[test]
    fn merge_builds_ranks_straggler_and_attribution() {
        let mut report = Report::new("merge-test", 1.0);
        let local = sample(0);
        let remote = vec![RankPayload::Telemetry(sample(1))];
        merge_ranks(&mut report, local, remote, &[10, 12]);
        assert_eq!(report.ranks.len(), 2);
        assert!(!report.telemetry_incomplete);
        assert!(report
            .ranks
            .iter()
            .all(|s| matches!(s.status, RankStatus::Up)));
        // Two iterations of petot_f on each rank.
        assert_eq!(report.ranks[0].petot_iterations.len(), 2);
        let extra = |k: &str| {
            report
                .extra
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .expect(k)
        };
        let straggler = extra("straggler_gap");
        assert_eq!(straggler.as_array().map(|a| a.len()), Some(2));
        let imb = extra("imbalance");
        assert!(imb.get("measured_ratio").and_then(Json::as_f64).is_some());
        assert!(imb.get("predicted_ratio").and_then(Json::as_f64).is_some());
        let attr = extra("comm_attribution");
        let frac = attr
            .get("comm_fraction")
            .and_then(Json::as_f64)
            .expect("fraction");
        assert!((0.0..=1.0).contains(&frac));
        assert!(frac > 0.0, "comm_bcast spans must register as wait");
    }

    #[test]
    fn merge_of_a_one_rank_world_is_one_up_section_with_the_extras() {
        let mut report = Report::new("merge-test", 1.0);
        let mut local = sample(0);
        local.size = 1;
        merge_ranks(&mut report, local, Vec::new(), &[10]);
        assert_eq!(report.ranks.len(), 1);
        assert_eq!(report.ranks[0].status, RankStatus::Up);
        assert!(!report.telemetry_incomplete);
        for key in ["straggler_gap", "imbalance", "comm_attribution"] {
            assert!(report.extra.iter().any(|(k, _)| k == key), "{key}");
        }
    }

    #[test]
    fn merge_marks_down_and_missing_ranks_incomplete() {
        let mut report = Report::new("merge-test", 1.0);
        let mut local = sample(0);
        local.size = 3;
        let remote = vec![RankPayload::Down {
            rank: 1,
            kind: "rank_down".to_string(),
        }];
        merge_ranks(&mut report, local, remote, &[]);
        assert_eq!(report.ranks.len(), 3);
        assert!(report.telemetry_incomplete);
        assert!(
            matches!(&report.ranks[1].status, RankStatus::Down { kind } if kind == "rank_down")
        );
        assert!(matches!(report.ranks[2].status, RankStatus::Missing));
    }

    #[test]
    fn stash_drains_and_replaces_by_rank() {
        clear_stash();
        submit_remote(RankPayload::Missing { rank: 1 });
        submit_remote(RankPayload::Telemetry(sample(1)));
        set_predicted_costs(vec![5, 7]);
        let (remote, costs) = take_stash();
        assert_eq!(remote.len(), 1, "later submission replaces earlier");
        assert!(matches!(&remote[0], RankPayload::Telemetry(t) if t.rank == 1));
        assert_eq!(costs, vec![5, 7]);
        let (remote, costs) = take_stash();
        assert!(remote.is_empty() && costs.is_empty());
    }
}
