//! # ls3df-obs
//!
//! Zero-external-dependency observability layer for the LS3DF
//! reproduction: see every flop the SCF loop spends.
//!
//! Three pieces, mirroring the paper's own reporting (per-stage times in
//! Fig. 2, sustained flop rates in the scaling tables):
//!
//! * [`span!`] — hierarchical scoped span timers with thread-local
//!   buffers, aggregated across the work-stealing pool. Compiled to true
//!   no-ops (zero-sized guard, empty inlined functions) unless the
//!   `enabled` cargo feature is on.
//! * [`metrics`] — a registry of relaxed atomic counters: FFT
//!   line-transforms by plan kind, CG iterations per band, Hartree
//!   solves, mixer applications, retry-ladder rungs and quarantines,
//!   bytes through the FFT gather/scatter, and estimated flops.
//! * [`report`] — a schema-versioned JSON run report (per-stage and
//!   per-fragment times, counters, convergence history, Gflop/s, one
//!   section per rank — [`telemetry`] merges them) plus an optional
//!   chrome://tracing trace-event file ([`trace`]) and a paper-style
//!   per-stage summary table.
//!
//! The only piece that is *not* feature-gated is [`Stopwatch`] and the
//! report plumbing: stage wall-clock timings and `BENCH_*.json` emission
//! work in every build (reports then carry `"obs_enabled": false` and
//! empty span/counter sections).
//!
//! ## Overhead contract
//!
//! With `enabled` off, every probe is an `#[inline(always)]` empty
//! function and [`SpanGuard`](span::SpanGuard) is a zero-sized type with
//! no `Drop` impl: instrumented code is bit-identical in behavior to
//! uninstrumented code (`tests/obs_report.rs::disabled_build_is_noop`
//! pins the zero-sized guard). With `enabled` on, probes may take a lock
//! only when a thread's root span closes (buffer flush); counter updates
//! are single relaxed atomic adds and span open/close is two monotonic
//! clock reads plus a `Vec` push.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod clock;
mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use clock::Stopwatch;
pub use json::Json;
pub use metrics::{counter_add, set_alloc_probe, Counter};
pub use report::{
    peak_rss_bytes, Attribution, FlopReport, MemoryReport, RankSection, RankStatus, Report,
    SCHEMA_NAME, SCHEMA_VERSION,
};
pub use span::{flush_thread, FinishedSpan, NO_INDEX};
pub use telemetry::{set_rank, CommRow, RankPayload, RankTelemetry};

/// Whether span/counter collection is compiled in (`enabled` feature).
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Everything the collection layer gathered since the last [`harvest`]:
/// finished spans (all threads), thread names, and a counter snapshot.
///
/// With collection disabled this is empty apart from any counters that
/// the alloc probe contributes.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    /// Finished spans drained from every thread's buffer, in flush order.
    pub spans: Vec<FinishedSpan>,
    /// `(thread id, thread name)` for every thread that recorded spans.
    pub threads: Vec<(u32, String)>,
    /// Counter snapshot: `(name, value)` for every nonzero counter, plus
    /// `"allocations"` when an alloc probe is installed.
    pub counters: Vec<(&'static str, u64)>,
}

/// Flushes the calling thread's span buffer and drains the global sink,
/// returning every event recorded since the last call, together with a
/// counter snapshot. Counters are *not* reset; call [`reset`] for that.
pub fn harvest() -> RunData {
    flush_thread();
    let (spans, threads) = span::drain();
    RunData {
        spans,
        threads,
        counters: metrics::snapshot(),
    }
}

/// Clears all recorded spans, zeroes every counter, and drops any
/// stashed rank telemetry. For tests and for bench bins that time
/// several independent runs in one process.
pub fn reset() {
    span::clear();
    metrics::reset();
    telemetry::clear_stash();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_matches_feature() {
        assert_eq!(ENABLED, cfg!(feature = "enabled"));
    }
}
