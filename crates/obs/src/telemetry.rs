//! Rank-aware telemetry: ship one rank's harvested observability state
//! to rank 0 and fold N rank payloads into a single schema-v2 report.
//!
//! The distributed SCF run (paper §III) solves fragments on worker
//! ranks whose processes exit right after the run — without this module
//! their spans and counters die with them and the run report describes
//! rank 0 only. The pieces here close that gap:
//!
//! * **rank identity** — [`set_rank`] stamps the world coordinates into
//!   the sink so every later harvest knows which lane it belongs to;
//! * **payload codec** — [`encode_telemetry`] / [`decode_telemetry`]
//!   are a compact little-endian binary serialization of a
//!   [`RankTelemetry`] (spans + threads + counters + transport
//!   histograms), suitable for shipping as an `OBSTELEM` section over
//!   the existing checkpoint section wire format. Decoding is fully
//!   validated and returns typed `Err(String)`, never panics;
//! * **merge stash** — rank 0 collects worker payloads (or their
//!   degradation markers) via [`submit_remote`] during the SCF
//!   epilogue; the report assembly later drains them with
//!   [`take_stash`];
//! * **merge** — [`merge_ranks`] folds the local harvest plus the
//!   stashed remote payloads into a [`Report`]:
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

/// Codec magic (`"LSOT"` little-endian) guarding [`decode_telemetry`].
const MAGIC: u32 = 0x4C53_4F54;
/// Payload format version, independent of the report schema version.
const FORMAT_VERSION: u32 = 1;

/// Decode guards against corrupt counts (a payload is at most a few
/// hundred labels / a few million spans in practice).
const MAX_LABELS: u32 = 1 << 12;
const MAX_SPANS: u64 = 1 << 26;
const MAX_LIST: u32 = 1 << 20;
const MAX_STR: u32 = 1 << 12;
const MAX_BUCKETS: u32 = 64;

/// Fewest payload bytes one entry of each list can occupy (a string is
/// at least its 4-byte length): a decoded count must fit in the bytes
/// left before anything is reserved for it.
const LABEL_WIRE: usize = 4;
/// Label id, index, start, end, depth, tid.
const SPAN_WIRE: usize = 4 + 8 + 8 + 8 + 4 + 4;
/// Tid, name.
const THREAD_WIRE: usize = 4 + 4;
/// Name, value.
const COUNTER_WIRE: usize = 4 + 8;
/// Op, kind, tag class, frames, bytes, latency, two bucket counts.
const COMM_WIRE: usize = 3 * 4 + 3 * 8 + 2 * 4;

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
    /// Frame kind: `"data"`, `"barrier"`, `"bcast"`, `"reduce"`,
    /// `"hello"`.
    pub kind: String,
    /// Tag class of data frames (`"user"`, `"psi"`, `"telemetry"`);
    /// collective-protocol kinds all report as `"collective"`.
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
// Label interning
// ---------------------------------------------------------------------

/// Deserialized span labels must become `&'static str` to fit
/// [`FinishedSpan`]. The label universe is the fixed set of `span!`
/// literals (a few dozen strings), so leaking one copy of each per
/// process is bounded; lookups reuse previously interned labels.
static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern(label: &str) -> &'static str {
    let mut table = INTERNED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&hit) = table.iter().find(|&&l| l == label) {
        return hit;
    }
    let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_STR as usize);
    put_u32(out, len as u32);
    out.extend_from_slice(&bytes[..len]);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("telemetry payload truncated at {what}"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u32` entry count, capped at `max` and by the entries of
    /// at least `wire` bytes the rest of the payload can hold.
    fn count(&mut self, max: u32, wire: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)?;
        if n > max {
            return Err(format!("telemetry {what} count {n} exceeds cap {max}"));
        }
        self.fits(u64::from(n), wire, what)
    }

    /// `n` entries of at least `wire` bytes each fit in the bytes left.
    fn fits(&self, n: u64, wire: usize, what: &str) -> Result<usize, String> {
        let left = self.buf.len() - self.pos;
        if n > (left / wire) as u64 {
            return Err(format!(
                "telemetry {what} count {n} needs {wire} bytes each, {left} left"
            ));
        }
        Ok(n as usize)
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.count(MAX_STR, 1, what)?;
        let bytes = self.take(n, what)?;
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }

    fn bucket_list(&mut self, what: &str) -> Result<Vec<u64>, String> {
        let n = self.count(MAX_BUCKETS, 8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)?);
        }
        Ok(out)
    }
}

/// Serializes a [`RankTelemetry`] into the compact binary payload
/// format. The inverse of [`decode_telemetry`].
pub fn encode_telemetry(t: &RankTelemetry) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + SPAN_WIRE * t.spans.len());
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, t.rank as u32);
    put_u32(&mut out, t.size as u32);

    // Label table: spans reference labels by table index.
    let mut labels: Vec<&'static str> = Vec::new();
    let mut label_id = Vec::with_capacity(t.spans.len());
    for span in &t.spans {
        let id = match labels.iter().position(|&l| l == span.label) {
            Some(i) => i,
            None => {
                labels.push(span.label);
                labels.len() - 1
            }
        };
        label_id.push(id as u32);
    }
    put_u32(&mut out, labels.len() as u32);
    for label in &labels {
        put_str(&mut out, label);
    }

    put_u64(&mut out, t.spans.len() as u64);
    for (span, &id) in t.spans.iter().zip(&label_id) {
        put_u32(&mut out, id);
        put_u64(&mut out, span.index);
        put_u64(&mut out, span.start_ns);
        put_u64(&mut out, span.end_ns);
        put_u32(&mut out, span.depth);
        put_u32(&mut out, span.tid);
    }

    put_u32(&mut out, t.threads.len() as u32);
    for (tid, name) in &t.threads {
        put_u32(&mut out, *tid);
        put_str(&mut out, name);
    }

    put_u32(&mut out, t.counters.len() as u32);
    for (name, value) in &t.counters {
        put_str(&mut out, name);
        put_u64(&mut out, *value);
    }

    put_u32(&mut out, t.comm.len() as u32);
    for row in &t.comm {
        put_str(&mut out, &row.op);
        put_str(&mut out, &row.kind);
        put_str(&mut out, &row.tag_class);
        put_u64(&mut out, row.frames);
        put_u64(&mut out, row.bytes);
        put_u64(&mut out, row.latency_ns);
        put_u32(
            &mut out,
            row.size_buckets.len().min(MAX_BUCKETS as usize) as u32,
        );
        for b in row.size_buckets.iter().take(MAX_BUCKETS as usize) {
            put_u64(&mut out, *b);
        }
        put_u32(
            &mut out,
            row.latency_buckets.len().min(MAX_BUCKETS as usize) as u32,
        );
        for b in row.latency_buckets.iter().take(MAX_BUCKETS as usize) {
            put_u64(&mut out, *b);
        }
    }
    out
}

/// Parses and validates a payload produced by [`encode_telemetry`].
/// Any structural problem — wrong magic, truncation, implausible
/// counts, out-of-range label references — is a typed `Err`, never a
/// panic: the receiving side degrades it to a `missing` rank.
pub fn decode_telemetry(bytes: &[u8]) -> Result<RankTelemetry, String> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.u32("magic")?;
    if magic != MAGIC {
        return Err(format!("bad telemetry magic {magic:#x}"));
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(format!("unsupported telemetry format version {version}"));
    }
    let rank = r.u32("rank")? as usize;
    let size = r.u32("size")? as usize;

    let n_labels = r.count(MAX_LABELS, LABEL_WIRE, "label")?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(intern(&r.str("label")?));
    }

    let n_spans = r.u64("span count")?;
    if n_spans > MAX_SPANS {
        return Err(format!("telemetry span count {n_spans} exceeds cap"));
    }
    let n_spans = r.fits(n_spans, SPAN_WIRE, "span")?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let id = r.u32("span label id")? as usize;
        let label = *labels
            .get(id)
            .ok_or_else(|| format!("span label id {id} out of range"))?;
        let index = r.u64("span index")?;
        let start_ns = r.u64("span start")?;
        let end_ns = r.u64("span end")?;
        let depth = r.u32("span depth")?;
        let tid = r.u32("span tid")?;
        spans.push(FinishedSpan {
            label,
            index,
            start_ns,
            end_ns,
            depth,
            tid,
        });
    }

    let n_threads = r.count(MAX_LIST, THREAD_WIRE, "thread")?;
    let mut threads = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        let tid = r.u32("thread id")?;
        threads.push((tid, r.str("thread name")?));
    }

    let n_counters = r.count(MAX_LIST, COUNTER_WIRE, "counter")?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = r.str("counter name")?;
        counters.push((name, r.u64("counter value")?));
    }

    let n_comm = r.count(MAX_LIST, COMM_WIRE, "comm row")?;
    let mut comm = Vec::with_capacity(n_comm);
    for _ in 0..n_comm {
        comm.push(CommRow {
            op: r.str("comm op")?,
            kind: r.str("comm kind")?,
            tag_class: r.str("comm tag class")?,
            frames: r.u64("comm frames")?,
            bytes: r.u64("comm bytes")?,
            latency_ns: r.u64("comm latency")?,
            size_buckets: r.bucket_list("comm size buckets")?,
            latency_buckets: r.bucket_list("comm latency buckets")?,
        });
    }
    if r.pos != bytes.len() {
        return Err(format!(
            "telemetry payload has {} trailing bytes",
            bytes.len() - r.pos
        ));
    }
    Ok(RankTelemetry {
        rank,
        size,
        spans,
        threads,
        counters,
        comm,
    })
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
/// `petot_f` spans with the enclosing indexed `scf_iter` span on the
/// same thread.
fn petot_per_iteration(spans: &[FinishedSpan]) -> Vec<(u64, f64)> {
    let iters: Vec<&FinishedSpan> = spans
        .iter()
        .filter(|s| s.label == "scf_iter" && s.index != NO_INDEX)
        .collect();
    let mut out: Vec<(u64, f64)> = Vec::new();
    for span in spans.iter().filter(|s| s.label == "petot_f") {
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
    let (span_rows, _) = crate::report::aggregate_spans(&t.spans, "frag");
    RankSection {
        rank: t.rank,
        status: RankStatus::Up,
        counters: t.counters.clone(),
        spans: span_rows,
        petot_iterations: petot_per_iteration(&t.spans),
        comm_wait_seconds: label_seconds(&t.spans, |l| l.starts_with("comm_")),
        compute_seconds: label_seconds(&t.spans, |l| l == "petot_f"),
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
/// fills the schema-v2 `ranks` section, sets `telemetry_incomplete`,
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
                // The newest (last-appended) registry name rides the
                // wire like any other: counters travel by name.
                (crate::Counter::GemmFlops.name().to_string(), 1452),
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
    fn codec_round_trips_every_field() {
        let t = sample(1);
        let bytes = encode_telemetry(&t);
        let back = decode_telemetry(&bytes).expect("round trip");
        assert_eq!((back.rank, back.size), (1, 2));
        assert_eq!(back.spans.len(), t.spans.len());
        for (a, b) in t.spans.iter().zip(&back.spans) {
            assert_eq!(a.label, b.label);
            assert_eq!(
                (a.index, a.start_ns, a.end_ns, a.depth, a.tid),
                (b.index, b.start_ns, b.end_ns, b.depth, b.tid)
            );
        }
        assert_eq!(back.threads, t.threads);
        assert_eq!(back.counters, t.counters);
        assert_eq!(back.comm, t.comm);
    }

    #[test]
    fn corrupt_payloads_fail_typed_never_panic() {
        let bytes = encode_telemetry(&sample(1));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_telemetry(&bad).is_err());
        // Truncation at every prefix length must be a typed error.
        for cut in 0..bytes.len() {
            assert!(decode_telemetry(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[1, 2, 3]);
        assert!(decode_telemetry(&bad).is_err());
    }

    #[test]
    fn span_count_beyond_the_payload_fails_before_reserving() {
        // No labels, so the span count sits right after the 16-byte
        // header and the 4-byte label count. Claiming `MAX_SPANS` spans
        // (3 GiB of `FinishedSpan`) with no span bytes behind the count
        // must fail on the count itself, not later at a span field.
        let empty = RankTelemetry {
            rank: 1,
            size: 2,
            spans: Vec::new(),
            threads: Vec::new(),
            counters: Vec::new(),
            comm: Vec::new(),
        };
        let mut bytes = encode_telemetry(&empty);
        bytes[20..28].copy_from_slice(&MAX_SPANS.to_le_bytes());
        let err = decode_telemetry(&bytes).unwrap_err();
        assert!(err.contains(&format!("span count {MAX_SPANS}")), "{err}");
    }

    /// [`decode_telemetry`] reads what worker ranks send: arbitrary and
    /// damaged payloads are a typed error or a telemetry that fits in the
    /// bytes it came from — never a panic, and never a reservation sized
    /// by a count the payload cannot hold.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        fn decode(payload: &[u8]) -> Result<(), TestCaseError> {
            if let Ok(t) = decode_telemetry(payload) {
                // Header 16, label count 4, span count 8, list counts 12.
                let least = 40
                    + SPAN_WIRE * t.spans.len()
                    + THREAD_WIRE * t.threads.len()
                    + COUNTER_WIRE * t.counters.len()
                    + COMM_WIRE * t.comm.len();
                prop_assert!(least <= payload.len());
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u32..256, 0..400)) {
                let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode(&payload)?;
            }

            #[test]
            fn damaged_genuine_payloads_never_panic(
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a count, a length, a label id
                // or a value) with anything, then maybe truncate.
                let mut payload = encode_telemetry(&sample(1));
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode(&payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode(&payload)?;
            }
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
