//! Shipping each rank's observability harvest to rank 0 after a run
//! (the frame tagged [`TELEMETRY_TAG`]): one `OBSTELEM` section in the
//! same CRC-checked container as SCF data, stashed on rank 0 for the
//! report merge.
//!
//! The section payload is the rank's spans (labels interned through a
//! per-payload table), thread names, counters and transport histogram
//! rows, written with `ls3df-ckpt`'s [`ByteWriter`]. The container
//! carries the magic, format version and per-section CRC; the decoder
//! checks every count against a cap and against the bytes left before
//! reserving anything, every label id against the table, and that no
//! bytes trail — a damaged payload is a typed [`CkptError`], never a
//! panic or an allocation sized by a corrupt count.

use crate::{CommError, Communicator, TELEMETRY_TAG};
use ls3df_ckpt::{ByteReader, ByteWriter, CkptError, SectionId, Snapshot};
use ls3df_obs::{CommRow, FinishedSpan, RankPayload, RankTelemetry};
use std::sync::Mutex;

/// Section id of a shipped per-rank observability payload.
const SEC_OBSTELEM: SectionId = SectionId::new("OBSTELEM");

/// Decode caps on corrupt counts (a payload is at most a few hundred
/// labels / a few million spans in practice).
const MAX_LABELS: u64 = 1 << 12;
const MAX_SPANS: u64 = 1 << 26;
const MAX_LIST: u64 = 1 << 20;
const MAX_STR: u64 = 1 << 12;
const MAX_BUCKETS: u64 = 64;

/// Fewest payload bytes one entry of each list can occupy (a string is
/// at least its 8-byte length): a decoded count must fit in the bytes
/// left before anything is reserved for it.
const LABEL_WIRE: usize = 8;
/// Label id, index, start, end, depth, tid.
const SPAN_WIRE: usize = 4 + 8 + 8 + 8 + 4 + 4;
/// Tid, name.
const THREAD_WIRE: usize = 4 + 8;
/// Name, value.
const COUNTER_WIRE: usize = 8 + 8;
/// Op, kind, tag class, frames, bytes, latency, two bucket counts.
const COMM_WIRE: usize = 3 * 8 + 3 * 8 + 2 * 8;

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

fn put_str(w: &mut ByteWriter, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(MAX_STR as usize)];
    w.put_u64(bytes.len() as u64).put_bytes(bytes);
}

fn put_buckets(w: &mut ByteWriter, buckets: &[u64]) {
    let buckets = &buckets[..buckets.len().min(MAX_BUCKETS as usize)];
    w.put_u64(buckets.len() as u64);
    for &b in buckets {
        w.put_u64(b);
    }
}

/// Serializes a [`RankTelemetry`] as an `OBSTELEM` payload; the inverse
/// of [`decode_telemetry`].
fn encode_telemetry(t: &RankTelemetry) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + SPAN_WIRE * t.spans.len());
    w.put_u64(t.rank as u64).put_u64(t.size as u64);

    // Label table: spans reference labels by table index.
    let mut labels: Vec<&'static str> = Vec::new();
    let label_id: Vec<u32> = t
        .spans
        .iter()
        .map(|span| match labels.iter().position(|&l| l == span.label) {
            Some(i) => i as u32,
            None => {
                labels.push(span.label);
                (labels.len() - 1) as u32
            }
        })
        .collect();
    w.put_u64(labels.len() as u64);
    for label in &labels {
        put_str(&mut w, label);
    }

    w.put_u64(t.spans.len() as u64);
    for (span, &id) in t.spans.iter().zip(&label_id) {
        w.put_u32(id)
            .put_u64(span.index)
            .put_u64(span.start_ns)
            .put_u64(span.end_ns)
            .put_u32(span.depth)
            .put_u32(span.tid);
    }

    w.put_u64(t.threads.len() as u64);
    for (tid, name) in &t.threads {
        w.put_u32(*tid);
        put_str(&mut w, name);
    }

    w.put_u64(t.counters.len() as u64);
    for (name, value) in &t.counters {
        put_str(&mut w, name);
        w.put_u64(*value);
    }

    w.put_u64(t.comm.len() as u64);
    for row in &t.comm {
        put_str(&mut w, &row.op);
        put_str(&mut w, &row.kind);
        put_str(&mut w, &row.tag_class);
        w.put_u64(row.frames)
            .put_u64(row.bytes)
            .put_u64(row.latency_ns);
        put_buckets(&mut w, &row.size_buckets);
        put_buckets(&mut w, &row.latency_buckets);
    }
    w.into_bytes()
}

fn malformed(detail: String) -> CkptError {
    CkptError::Malformed {
        section: SEC_OBSTELEM.name(),
        detail,
    }
}

/// Reads an entry count, capped at `max` and by the entries of at least
/// `wire` bytes the rest of the payload can hold.
fn get_len(r: &mut ByteReader<'_>, max: u64, wire: usize, what: &str) -> Result<usize, CkptError> {
    let n = r.get_count(max, what)?;
    if n > r.remaining() / wire {
        return Err(malformed(format!(
            "{what} count {n} needs {wire} bytes each, {} left",
            r.remaining()
        )));
    }
    Ok(n)
}

fn get_str(r: &mut ByteReader<'_>, what: &str) -> Result<String, CkptError> {
    let n = get_len(r, MAX_STR, 1, what)?;
    Ok(String::from_utf8_lossy(r.get_bytes(n, what)?).into_owned())
}

fn get_buckets(r: &mut ByteReader<'_>, what: &str) -> Result<Vec<u64>, CkptError> {
    let n = get_len(r, MAX_BUCKETS, 8, what)?;
    (0..n).map(|_| r.get_u64(what)).collect()
}

/// Parses and validates an `OBSTELEM` payload. Any structural problem —
/// truncation, implausible counts, out-of-range label references,
/// trailing bytes — is a typed `Err`, never a panic: the receiving side
/// degrades it to a `missing` rank.
fn decode_telemetry(bytes: &[u8]) -> Result<RankTelemetry, CkptError> {
    let mut r = ByteReader::new(bytes);
    let rank = r.get_u64("rank")? as usize;
    let size = r.get_u64("size")? as usize;

    let n_labels = get_len(&mut r, MAX_LABELS, LABEL_WIRE, "label")?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(intern(&get_str(&mut r, "label")?));
    }

    let n_spans = get_len(&mut r, MAX_SPANS, SPAN_WIRE, "span")?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let id = r.get_u32("span label id")? as usize;
        let label = *labels
            .get(id)
            .ok_or_else(|| malformed(format!("span label id {id} out of range")))?;
        spans.push(FinishedSpan {
            label,
            index: r.get_u64("span index")?,
            start_ns: r.get_u64("span start")?,
            end_ns: r.get_u64("span end")?,
            depth: r.get_u32("span depth")?,
            tid: r.get_u32("span tid")?,
        });
    }

    let n_threads = get_len(&mut r, MAX_LIST, THREAD_WIRE, "thread")?;
    let mut threads = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        let tid = r.get_u32("thread id")?;
        threads.push((tid, get_str(&mut r, "thread name")?));
    }

    let n_counters = get_len(&mut r, MAX_LIST, COUNTER_WIRE, "counter")?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = get_str(&mut r, "counter name")?;
        counters.push((name, r.get_u64("counter value")?));
    }

    let n_comm = get_len(&mut r, MAX_LIST, COMM_WIRE, "comm row")?;
    let mut comm = Vec::with_capacity(n_comm);
    for _ in 0..n_comm {
        comm.push(CommRow {
            op: get_str(&mut r, "comm op")?,
            kind: get_str(&mut r, "comm kind")?,
            tag_class: get_str(&mut r, "comm tag class")?,
            frames: r.get_u64("comm frames")?,
            bytes: r.get_u64("comm bytes")?,
            latency_ns: r.get_u64("comm latency")?,
            size_buckets: get_buckets(&mut r, "comm size buckets")?,
            latency_buckets: get_buckets(&mut r, "comm latency buckets")?,
        });
    }
    if r.remaining() != 0 {
        return Err(malformed(format!("{} trailing bytes", r.remaining())));
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

fn encode_obstelem(t: &RankTelemetry) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.push(SEC_OBSTELEM, encode_telemetry(t));
    snap
}

fn decode_obstelem(snap: &Snapshot) -> Result<RankTelemetry, CkptError> {
    decode_telemetry(snap.require(SEC_OBSTELEM)?)
}

/// This process's harvest plus its transport histograms, stamped with
/// the world coordinates the SCF driver set — one rank's section of a
/// merged run report.
pub fn rank_telemetry(data: ls3df_obs::RunData) -> RankTelemetry {
    RankTelemetry {
        rank: ls3df_obs::telemetry::rank(),
        size: ls3df_obs::telemetry::world_size(),
        spans: data.spans,
        threads: data.threads,
        counters: data
            .counters
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        comm: crate::drain_telemetry(),
    }
}

/// Telemetry epilogue of an obs-enabled multi-rank run that ended with
/// `run`: every other rank ships its harvested spans/counters/comm
/// histograms to rank 0, which stashes each payload for the report
/// merge. Every failure mode degrades to a `Missing`/`Down` payload
/// (⇒ `telemetry_incomplete` in the report) — it never becomes an error
/// and never hangs (receives stay bounded by the communicator's
/// timeout). Does nothing in a one-rank world or with obs compiled out.
pub fn collect_rank_telemetry(comm: &dyn Communicator, run: &Result<(), CommError>) {
    let size = comm.size();
    if !ls3df_obs::ENABLED || size == 1 {
        return;
    }
    if comm.rank() != 0 {
        if run.is_ok() {
            let t = rank_telemetry(ls3df_obs::harvest());
            // Best-effort: if rank 0 is already gone there is nobody
            // left to read the report anyway.
            let _ = comm.send_sections(0, TELEMETRY_TAG, &encode_obstelem(&t));
        }
        return;
    }
    let down = |rank: usize, e: &CommError| RankPayload::Down {
        rank,
        kind: e.kind().to_string(),
    };
    for r in 1..size {
        let payload = match run {
            Ok(()) => match comm.recv_sections(r, TELEMETRY_TAG) {
                Ok(snap) => match decode_obstelem(&snap) {
                    Ok(t) if t.rank == r && t.size == size => RankPayload::Telemetry(t),
                    // Shape mismatch or codec error: drop the payload,
                    // keep the run.
                    _ => RankPayload::Missing { rank: r },
                },
                Err(e @ CommError::RankDown { .. }) => down(r, &e),
                Err(_) => RankPayload::Missing { rank: r },
            },
            // The run died on a communicator fault: mark the culprit
            // rank down (typed by the error kind) and everyone else
            // missing — no further receives.
            Err(e) => match e {
                CommError::RankDown { rank } | CommError::Timeout { from: rank, .. }
                    if *rank == r =>
                {
                    down(r, e)
                }
                _ => RankPayload::Missing { rank: r },
            },
        };
        ls3df_obs::telemetry::submit_remote(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_ckpt::CkptErrorKind;
    use ls3df_obs::NO_INDEX;

    fn span(label: &'static str, index: u64, start_ns: u64, end_ns: u64) -> FinishedSpan {
        FinishedSpan {
            label,
            index,
            start_ns,
            end_ns,
            depth: u32::from(label != "scf_iter"),
            tid: 0,
        }
    }

    fn sample() -> RankTelemetry {
        RankTelemetry {
            rank: 1,
            size: 2,
            spans: vec![
                span("scf_iter", 1, 0, 1_000_000),
                span("petot_f", NO_INDEX, 100, 800_000),
                span("comm_bcast", NO_INDEX, 850_000, 950_000),
                span("scf_iter", 2, 1_000_000, 2_000_000),
                span("petot_f", NO_INDEX, 1_000_100, 1_600_000),
            ],
            threads: vec![(0, "main".to_string())],
            counters: vec![
                ("fragment_solves".to_string(), 8),
                ("comm_bytes_sent".to_string(), 4096),
                // The newest (last-appended) registry name rides the
                // wire like any other: counters travel by name.
                (ls3df_obs::Counter::GemmFlops.name().to_string(), 1452),
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
        let t = sample();
        let back = decode_telemetry(&encode_telemetry(&t)).expect("round trip");
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
        let bytes = encode_telemetry(&sample());
        // Truncation at every prefix length must be a typed error.
        for cut in 0..bytes.len() {
            assert!(decode_telemetry(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[1, 2, 3]);
        let err = decode_telemetry(&bad).unwrap_err();
        assert_eq!(err.kind(), CkptErrorKind::Malformed, "{err}");
    }

    #[test]
    fn span_count_beyond_the_payload_fails_before_reserving() {
        // No labels, so the span count sits right after the 16-byte
        // rank/size header and the 8-byte label count. Claiming
        // `MAX_SPANS` spans (3 GiB of `FinishedSpan`) with no span bytes
        // behind the count must fail on the count itself, not later at a
        // span field.
        let empty = RankTelemetry {
            rank: 1,
            size: 2,
            ..RankTelemetry::default()
        };
        let mut bytes = encode_telemetry(&empty);
        bytes[24..32].copy_from_slice(&MAX_SPANS.to_le_bytes());
        let err = decode_telemetry(&bytes).unwrap_err();
        assert_eq!(err.kind(), CkptErrorKind::Malformed);
        assert!(
            err.to_string().contains(&format!("span count {MAX_SPANS}")),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_label_id_is_malformed() {
        let mut bytes = encode_telemetry(&sample());
        // The first span's label id follows the rank/size header, the
        // label table and the span count.
        let table: usize = ["scf_iter", "petot_f", "comm_bcast"]
            .iter()
            .map(|l| 8 + l.len())
            .sum();
        let at = 16 + 8 + table + 8;
        bytes[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        let err = decode_telemetry(&bytes).unwrap_err();
        assert!(err.to_string().contains("label id 7"), "{err}");
    }

    #[test]
    fn obstelem_roundtrips_through_the_section_wire_format() {
        let t = sample();
        // Full path a shipped payload takes: telemetry codec →
        // OBSTELEM section → snapshot container bytes → back.
        let bytes = encode_obstelem(&t).encode().unwrap();
        let back = decode_obstelem(&Snapshot::decode(&bytes).unwrap()).unwrap();
        assert_eq!((back.rank, back.size), (1, 2));
        assert_eq!(back.counters, t.counters);
        assert_eq!(back.comm, t.comm);
    }

    #[test]
    fn corrupt_obstelem_is_an_error_never_a_panic() {
        let mut bytes = encode_obstelem(&sample()).encode().unwrap();
        // Flip a payload bit: the snapshot section CRC catches it
        // before the telemetry codec even runs.
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        match Snapshot::decode(&bytes) {
            Err(_) => {} // container-level CRC rejection
            Ok(snap) => {
                // CRC happens to pass (flipped a non-payload byte):
                // the telemetry codec must still fail typed.
                assert!(decode_obstelem(&snap).is_err());
            }
        }
        // Truncations anywhere must also be typed errors.
        let good = encode_obstelem(&sample()).encode().unwrap();
        for cut in [1, good.len() / 2, good.len() - 1] {
            match Snapshot::decode(&good[..cut]) {
                Err(_) => {}
                Ok(snap) => {
                    assert!(decode_obstelem(&snap).is_err());
                }
            }
        }
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
                // Rank/size 16, label and span counts 16, list counts 24.
                let least = 56
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
                let mut payload = encode_telemetry(&sample());
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode(&payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode(&payload)?;
            }
        }
    }
}
