//! Shipping each rank's observability harvest to rank 0 after a run
//! (the frame tagged [`TELEMETRY_TAG`]): one `OBSTELEM` section in the
//! same CRC-checked container as SCF data, stashed on rank 0 for the
//! report merge.

use crate::{CommError, Communicator, TELEMETRY_TAG};
use ls3df_ckpt::{SectionId, Snapshot};
use ls3df_obs::{RankPayload, RankTelemetry};

/// Section id of a shipped per-rank observability payload.
const SEC_OBSTELEM: SectionId = SectionId::new("OBSTELEM");

fn encode_obstelem(t: &RankTelemetry) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.push(SEC_OBSTELEM, ls3df_obs::telemetry::encode_telemetry(t));
    snap
}

/// Errors are plain strings because the caller never propagates them — a
/// bad payload degrades the report to `telemetry_incomplete`, nothing more.
fn decode_obstelem(snap: &Snapshot) -> Result<RankTelemetry, String> {
    let bytes = snap.require(SEC_OBSTELEM).map_err(|e| e.to_string())?;
    ls3df_obs::telemetry::decode_telemetry(bytes)
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

    fn sample_telemetry() -> RankTelemetry {
        RankTelemetry {
            rank: 1,
            size: 2,
            spans: Vec::new(),
            threads: vec![(0, "main".to_string())],
            counters: vec![("fragment_solves".to_string(), 6)],
            comm: vec![ls3df_obs::CommRow {
                op: "send".to_string(),
                kind: "data".to_string(),
                tag_class: "user".to_string(),
                frames: 3,
                bytes: 96,
                latency_ns: 1_500,
                size_buckets: vec![0, 0, 0, 0, 0, 0, 3],
                latency_buckets: vec![0, 3],
            }],
        }
    }

    #[test]
    fn obstelem_roundtrips_through_the_section_wire_format() {
        let t = sample_telemetry();
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
        let mut bytes = encode_obstelem(&sample_telemetry()).encode().unwrap();
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
        let good = encode_obstelem(&sample_telemetry()).encode().unwrap();
        for cut in [1, good.len() / 2, good.len() - 1] {
            match Snapshot::decode(&good[..cut]) {
                Err(_) => {}
                Ok(snap) => {
                    assert!(decode_obstelem(&snap).is_err());
                }
            }
        }
    }
}
