//! Transport self-instrumentation: per-(direction, kind, tag-class)
//! frame counts, byte totals, and log2 latency/size histograms.
//!
//! The recording path is called from `send_frame`/`recv_frame` on
//! every message, so it must cost nothing when observability is off
//! and almost nothing when it is on:
//!
//! * storage is a fixed set of `static` atomics (~30 KiB) — no
//!   allocation, no locks, no `Drop`;
//! * every update is a relaxed `fetch_add`;
//! * when `ls3df-obs` is built without the `enabled` feature, the
//!   whole record call is behind `if ls3df_obs::ENABLED` (a `const
//!   false`), so the optimizer removes it entirely — the zero-alloc
//!   and bit-identity gates see exactly the pre-instrumentation code.
//!
//! [`drain_telemetry`] snapshots the nonzero cells as
//! [`CommRow`]s and resets them — the per-rank payload each worker
//! ships to rank 0 after its final iteration.

use crate::wire;
use ls3df_obs::telemetry::CommRow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Direction index of [`record_frame`]: outbound frames.
pub(crate) const DIR_SEND: usize = 0;
/// Direction index of [`record_frame`]: inbound frames.
pub(crate) const DIR_RECV: usize = 1;

const N_DIRS: usize = 2;
const N_KINDS: usize = 3;
const N_CLASSES: usize = 4;
const SLOTS: usize = N_DIRS * N_KINDS * N_CLASSES;
/// log2 buckets cover the full u64 range: bucket `b` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros, bucket 47 is open-ended.
const BUCKETS: usize = 48;

const DIR_LABELS: [&str; N_DIRS] = ["send", "recv"];
const KIND_LABELS: [&str; N_KINDS] = ["data", "bcast", "hello"];
const CLASS_LABELS: [&str; N_CLASSES] = ["user", "psi", "telemetry", "collective"];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static FRAMES: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static BYTES: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static LATENCY_NS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static SIZE_BUCKETS: [AtomicU64; SLOTS * BUCKETS] = [ZERO; SLOTS * BUCKETS];
static LATENCY_BUCKETS: [AtomicU64; SLOTS * BUCKETS] = [ZERO; SLOTS * BUCKETS];

fn slot(dir: usize, kind: usize, class: usize) -> usize {
    (dir * N_KINDS + kind) * N_CLASSES + class
}

/// The histogram bucket of `v`: 0 for zero, else `1 + floor(log2 v)`,
/// clamped to the top bucket.
pub(crate) fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Tag-class index of a frame. Point-to-point data frames split by the
/// tag's high-bit conventions (bit 31 = psi gather, bit 30 = telemetry
/// shipment — see `ls3df-core`'s `PSI_GATHER_TAG` and
/// [`TELEMETRY_TAG`](crate::TELEMETRY_TAG)); broadcast and handshake
/// frames report as one `collective` class.
fn tag_class(kind: u32, tag: u32) -> usize {
    if kind != wire::KIND_DATA {
        return 3;
    }
    if tag & 0x8000_0000 != 0 {
        1
    } else if tag & crate::TELEMETRY_TAG != 0 {
        2
    } else {
        0
    }
}

/// Records one frame: payload size and the blocking time of the
/// transport call that moved it. No-op (compiled out) when obs is off.
#[inline]
pub(crate) fn record_frame(dir: usize, kind: u32, tag: u32, payload_bytes: u64, latency_ns: u64) {
    if !ls3df_obs::ENABLED {
        return;
    }
    let kind_ix = (kind as usize).min(N_KINDS - 1);
    let s = slot(dir, kind_ix, tag_class(kind, tag));
    // Relaxed ordering throughout: pure event counting, same contract
    // as the ls3df-obs counter store — only per-cell totals matter.
    FRAMES[s].fetch_add(1, Ordering::Relaxed);
    BYTES[s].fetch_add(payload_bytes, Ordering::Relaxed);
    LATENCY_NS[s].fetch_add(latency_ns, Ordering::Relaxed);
    SIZE_BUCKETS[s * BUCKETS + log2_bucket(payload_bytes)].fetch_add(1, Ordering::Relaxed);
    LATENCY_BUCKETS[s * BUCKETS + log2_bucket(latency_ns)].fetch_add(1, Ordering::Relaxed);
}

/// Snapshots every nonzero histogram cell as a [`CommRow`] and resets
/// the storage. Called once per run: by the worker epilogue before
/// shipping its payload, and by the report assembly on rank 0.
pub fn drain_telemetry() -> Vec<CommRow> {
    let mut rows = Vec::new();
    for dir in 0..N_DIRS {
        for kind in 0..N_KINDS {
            for class in 0..N_CLASSES {
                let s = slot(dir, kind, class);
                let frames = FRAMES[s].swap(0, Ordering::Relaxed);
                let bytes = BYTES[s].swap(0, Ordering::Relaxed);
                let latency_ns = LATENCY_NS[s].swap(0, Ordering::Relaxed);
                let mut size_buckets = vec![0u64; BUCKETS];
                let mut latency_buckets = vec![0u64; BUCKETS];
                for b in 0..BUCKETS {
                    size_buckets[b] = SIZE_BUCKETS[s * BUCKETS + b].swap(0, Ordering::Relaxed);
                    latency_buckets[b] =
                        LATENCY_BUCKETS[s * BUCKETS + b].swap(0, Ordering::Relaxed);
                }
                if frames == 0 {
                    continue;
                }
                // Trim the all-zero tails so payloads stay compact.
                let size_len = size_buckets
                    .iter()
                    .rposition(|&b| b != 0)
                    .map_or(0, |i| i + 1);
                size_buckets.truncate(size_len);
                let lat_len = latency_buckets
                    .iter()
                    .rposition(|&b| b != 0)
                    .map_or(0, |i| i + 1);
                latency_buckets.truncate(lat_len);
                rows.push(CommRow {
                    op: DIR_LABELS[dir].to_string(),
                    kind: KIND_LABELS[kind].to_string(),
                    tag_class: CLASS_LABELS[class].to_string(),
                    frames,
                    bytes,
                    latency_ns,
                    size_buckets,
                    latency_buckets,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_are_monotone_and_clamped() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), BUCKETS - 1);
        let mut last = 0;
        for shift in 0..64 {
            let b = log2_bucket(1u64 << shift);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn data_tags_classify_by_high_bits() {
        assert_eq!(tag_class(wire::KIND_DATA, 3), 0); // user
        assert_eq!(tag_class(wire::KIND_DATA, 0x8000_0005), 1); // psi
        assert_eq!(tag_class(wire::KIND_DATA, crate::TELEMETRY_TAG), 2);
        assert_eq!(tag_class(wire::KIND_BCAST, 0), 3); // collective
        assert_eq!(tag_class(wire::KIND_HELLO, 7), 3);
    }

    #[test]
    fn record_and_drain_follow_the_obs_gate() {
        // Use the telemetry tag class: no other test traffic lands in
        // those cells, so this stays race-free under parallel tests.
        record_frame(
            DIR_SEND,
            wire::KIND_DATA,
            crate::TELEMETRY_TAG | 1,
            100,
            5_000,
        );
        record_frame(
            DIR_SEND,
            wire::KIND_DATA,
            crate::TELEMETRY_TAG | 2,
            28,
            1_000,
        );
        record_frame(DIR_RECV, wire::KIND_DATA, crate::TELEMETRY_TAG | 1, 64, 50);
        let rows = drain_telemetry();
        let telem: Vec<&CommRow> = rows.iter().filter(|r| r.tag_class == "telemetry").collect();
        if ls3df_obs::ENABLED {
            assert_eq!(telem.len(), 2);
            let send = telem.iter().find(|r| r.op == "send").expect("send row");
            assert_eq!((send.frames, send.bytes), (2, 128));
            assert_eq!(send.latency_ns, 6_000);
            assert_eq!(send.size_buckets.iter().sum::<u64>(), 2);
            let recv = telem.iter().find(|r| r.op == "recv").expect("recv row");
            assert_eq!((recv.kind.as_str(), recv.frames), ("data", 1));
            // Drained means drained.
            assert!(drain_telemetry().iter().all(|r| r.tag_class != "telemetry"));
        } else {
            assert!(rows.is_empty(), "recording must be a no-op when obs is off");
        }
    }
}
