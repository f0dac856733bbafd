//! chrome://tracing export: spans as Trace Event Format JSON.
//!
//! Writes the classic array-of-events form understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! `"ph": "X"` (complete) event per span with microsecond timestamps,
//! preceded by `"ph": "M"` metadata events naming each process and
//! thread lane (the pool's `ls3df-worker-{i}` names show up as lanes).
//!
//! Every trace has one [`TraceLane`] per rank of the run's world (one
//! for a single-process run): each rank's harvest becomes one *process*
//! lane (`pid` = rank) with its own thread rows, so fragment solves,
//! collectives, and idle gaps across the whole world share a single
//! timeline. Each lane's clock is its own process-local epoch, so lanes
//! are normalized to start at t=0 — cross-rank alignment is approximate
//! (per-process epochs are taken at slightly different wall times),
//! which is fine for reading gaps and overlaps but not for
//! sub-millisecond cross-rank ordering.

use crate::json::Json;
use crate::span::FinishedSpan;
use std::io::Write as _;
use std::path::Path;

/// One rank's slice of a trace: the rank id (becomes the
/// trace `pid`), a lane label, and the rank's harvested spans/threads.
pub struct TraceLane<'a> {
    /// Rank id; rendered as the trace event `pid`.
    pub pid: u64,
    /// Lane label shown by the viewer (e.g. `"rank 1"`).
    pub name: String,
    /// The rank's finished spans.
    pub spans: &'a [FinishedSpan],
    /// The rank's `(thread id, thread name)` table.
    pub threads: &'a [(u32, String)],
}

/// Renders a trace: one process lane per [`TraceLane`] with `pid` =
/// rank, each normalized to start at t=0 (see the module docs for the
/// alignment caveat).
pub fn chrome_trace_json_lanes(lanes: &[TraceLane<'_>]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for lane in lanes {
        let pid = lane.pid as f64;
        let t0 = lane.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        events.push(Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(pid)),
            ("args", Json::obj(vec![("name", Json::str(&*lane.name))])),
        ]));
        for (tid, name) in lane.threads {
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::num(pid)),
                ("tid", Json::num(f64::from(*tid))),
                ("args", Json::obj(vec![("name", Json::str(&**name))])),
            ]));
        }
        for span in lane.spans {
            events.push(Json::obj(vec![
                ("name", Json::str(span.display_label())),
                ("ph", Json::str("X")),
                ("pid", Json::num(pid)),
                ("tid", Json::num(f64::from(span.tid))),
                (
                    "ts",
                    Json::num(span.start_ns.saturating_sub(t0) as f64 * 1e-3),
                ),
                (
                    "dur",
                    Json::num(span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-3),
                ),
            ]));
        }
    }
    Json::Arr(events)
}

/// Writes the trace-event file to `path` (truncating). Load it in
/// `chrome://tracing` or Perfetto to see the run on a timeline.
pub fn write_chrome_trace_lanes(path: &Path, lanes: &[TraceLane<'_>]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_json_lanes(lanes).render().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NO_INDEX;

    #[test]
    fn lanes_get_one_pid_per_rank_and_normalized_clocks() {
        let rank0 = [FinishedSpan {
            label: "scf_iter",
            index: 1,
            start_ns: 10_000,
            end_ns: 20_000,
            depth: 0,
            tid: 0,
        }];
        let rank1 = [FinishedSpan {
            label: "petot_f",
            index: NO_INDEX,
            start_ns: 500_000, // a later process-local epoch offset
            end_ns: 504_000,
            depth: 0,
            tid: 0,
        }];
        let threads = [(0u32, "main".to_string())];
        let lanes = [
            TraceLane {
                pid: 0,
                name: "rank 0".to_string(),
                spans: &rank0,
                threads: &threads,
            },
            TraceLane {
                pid: 1,
                name: "rank 1".to_string(),
                spans: &rank1,
                threads: &threads,
            },
        ];
        let doc = chrome_trace_json_lanes(&lanes);
        let events = doc.as_array().expect("array");
        // Per lane: process_name + thread_name + one X event.
        assert_eq!(events.len(), 6);
        let process_names: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("pid").and_then(Json::as_f64))
            .collect();
        assert_eq!(process_names, vec![0.0, 1.0]);
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        // Both lanes start at t=0 despite different local epochs.
        assert_eq!(xs[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(xs[1].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(xs[1].get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(xs[1].get("dur").and_then(Json::as_f64), Some(4.0));
    }
}
