//! Metrics registry: relaxed atomic counters for the hot paths.
//!
//! Every counter is one slot of a static `AtomicU64` array indexed by
//! [`Counter`]; an increment is a single `fetch_add(Relaxed)` — no
//! allocation, no lock, safe inside the zero-allocation CG/GENPOT hot
//! paths. With the `enabled` feature off, [`counter_add`] is an empty
//! `#[inline(always)]` stub and every read returns zero.
//!
//! The one registry entry that is *not* an internal counter is the
//! allocation total: the facade's `alloc-count` global allocator can
//! hand its counter in via [`set_alloc_probe`], after which
//! [`snapshot`] reports `"allocations"` alongside the rest. The probe
//! works regardless of the `enabled` feature (the allocator counts on
//! its own; obs just reads it).

use std::sync::OnceLock;

/// The registered counters. Adding a variant: extend [`Counter::ALL`]
/// and [`Counter::name`]; storage sizes itself automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// 1-D line transforms through a trivial (n = 1) plan.
    FftLinesTrivial,
    /// 1-D line transforms through a radix-2 plan.
    FftLinesRadix2,
    /// 1-D line transforms through a Bluestein plan.
    FftLinesBluestein,
    /// 1-D real (r2c/c2r) line transforms through a packed plan.
    FftLinesReal,
    /// Whole 3-D transforms (forward or inverse).
    Fft3Transforms,
    /// Estimated floating-point operations spent in FFT kernels.
    FftFlops,
    /// Bytes moved through the strided-FFT gather/scatter staging.
    FftGatherScatterBytes,
    /// Band-resolved CG iterations (all-band steps count once per band).
    CgBandIterations,
    /// GENPOT Poisson solves through the cached Hartree plan.
    HartreeSolves,
    /// Potential-mixing applications (linear/Kerker/Pulay).
    MixerApplies,
    /// Retry-ladder rungs run after fragment solve failures.
    RetryRungs,
    /// Fragments quarantined after ladder exhaustion.
    Quarantines,
    /// Supervised fragment solves (one per solved fragment per PEtot_F
    /// round).
    FragmentSolves,
    /// Bytes written to communicator transports (frames + length prefixes).
    CommBytesSent,
    /// Bytes read from communicator transports (frames + length prefixes).
    CommBytesReceived,
    /// Collective allreduce operations entered on this rank.
    CommAllreduceCalls,
    /// 1-D line transforms through a mixed-radix (smooth-length) plan.
    FftLinesMixed,
    /// Floating-point operations of the all-band solver's block products
    /// (`8·m·n·k` per complex GEMM; triangular products count half).
    GemmFlops,
    /// Class members that took their representative's solution instead
    /// of solving (one per member per PEtot_F round), so
    /// `fragment_solves + fragment_shares` = fragments × rounds.
    FragmentShares,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 19] = [
        Counter::FftLinesTrivial,
        Counter::FftLinesRadix2,
        Counter::FftLinesBluestein,
        Counter::FftLinesReal,
        Counter::Fft3Transforms,
        Counter::FftFlops,
        Counter::FftGatherScatterBytes,
        Counter::CgBandIterations,
        Counter::HartreeSolves,
        Counter::MixerApplies,
        Counter::RetryRungs,
        Counter::Quarantines,
        Counter::FragmentSolves,
        Counter::CommBytesSent,
        Counter::CommBytesReceived,
        Counter::CommAllreduceCalls,
        Counter::FftLinesMixed,
        Counter::GemmFlops,
        Counter::FragmentShares,
    ];

    /// Stable snake_case identifier (JSON report key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::FftLinesTrivial => "fft_lines_trivial",
            Counter::FftLinesRadix2 => "fft_lines_radix2",
            Counter::FftLinesBluestein => "fft_lines_bluestein",
            Counter::FftLinesReal => "fft_lines_real",
            Counter::Fft3Transforms => "fft3_transforms",
            Counter::FftFlops => "fft_flops",
            Counter::FftGatherScatterBytes => "fft_gather_scatter_bytes",
            Counter::CgBandIterations => "cg_band_iterations",
            Counter::HartreeSolves => "hartree_solves",
            Counter::MixerApplies => "mixer_applies",
            Counter::RetryRungs => "retry_rungs",
            Counter::Quarantines => "quarantines",
            Counter::FragmentSolves => "fragment_solves",
            Counter::CommBytesSent => "comm_bytes_sent",
            Counter::CommBytesReceived => "comm_bytes_received",
            Counter::CommAllreduceCalls => "comm_allreduce_calls",
            Counter::FftLinesMixed => "fft_lines_mixed",
            Counter::GemmFlops => "gemm_flops",
            Counter::FragmentShares => "fragment_shares",
        }
    }
}

#[cfg(feature = "enabled")]
mod store {
    use super::Counter;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static COUNTERS: [AtomicU64; Counter::ALL.len()] = [ZERO; Counter::ALL.len()];

    #[inline(always)]
    pub(super) fn add(counter: Counter, n: u64) {
        // ORDERING: Relaxed — pure event counting; only the per-counter
        // totals matter, never cross-counter or counter-vs-data order,
        // and fetch_add's atomicity alone guarantees no lost increments.
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn get(counter: Counter) -> u64 {
        // ORDERING: Relaxed — snapshots are advisory: harvest runs after
        // the workers quiesce (report generation), so there is no
        // concurrent writer whose ordering could matter.
        COUNTERS[counter as usize].load(Ordering::Relaxed)
    }

    pub(super) fn reset() {
        for c in &COUNTERS {
            // ORDERING: Relaxed — reset happens between runs on one
            // thread; counter stores need atomicity, not ordering.
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod store {
    use super::Counter;

    #[inline(always)]
    pub(super) fn add(_counter: Counter, _n: u64) {}

    #[inline(always)]
    pub(super) fn get(_counter: Counter) -> u64 {
        0
    }

    #[inline(always)]
    pub(super) fn reset() {}
}

/// Adds `n` to a counter. Relaxed atomic; no-op when collection is off.
#[inline(always)]
pub fn counter_add(counter: Counter, n: u64) {
    store::add(counter, n);
}

/// Current value of a counter (always 0 when collection is off).
pub fn counter_value(counter: Counter) -> u64 {
    store::get(counter)
}

/// Zeroes every counter.
pub fn reset() {
    store::reset();
}

static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers the process allocation counter (the facade's `alloc-count`
/// feature calls this with its global-allocator total). First caller
/// wins; later calls are ignored.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// The installed allocation probe's current reading, if any.
pub fn alloc_total() -> Option<u64> {
    ALLOC_PROBE.get().map(|probe| probe())
}

/// `(name, value)` for every *nonzero* counter, in [`Counter::ALL`]
/// order, with `"allocations"` appended when an alloc probe is
/// installed.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Counter::ALL
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .filter(|&(_, v)| v != 0)
        .collect();
    if let Some(total) = alloc_total() {
        out.push(("allocations", total));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let names: std::collections::BTreeSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::ALL.len());
        for name in names {
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'));
        }
    }

    #[test]
    fn names_are_a_stable_golden_list() {
        // Report consumers (merged multi-rank reports, EXPERIMENTS.md
        // tooling) key on these exact strings. Renaming or reordering a
        // counter is a report-schema change: update the golden list
        // here AND document the delta in EXPERIMENTS.md. New counters
        // are appended, never inserted.
        const GOLDEN: [&str; 19] = [
            "fft_lines_trivial",
            "fft_lines_radix2",
            "fft_lines_bluestein",
            "fft_lines_real",
            "fft3_transforms",
            "fft_flops",
            "fft_gather_scatter_bytes",
            "cg_band_iterations",
            "hartree_solves",
            "mixer_applies",
            "retry_rungs",
            "quarantines",
            "fragment_solves",
            "comm_bytes_sent",
            "comm_bytes_received",
            "comm_allreduce_calls",
            "fft_lines_mixed",
            "gemm_flops",
            "fragment_shares",
        ];
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, GOLDEN);
    }

    #[test]
    fn add_is_observable_exactly_when_enabled() {
        let before = counter_value(Counter::MixerApplies);
        counter_add(Counter::MixerApplies, 5);
        let after = counter_value(Counter::MixerApplies);
        if cfg!(feature = "enabled") {
            assert_eq!(after - before, 5);
        } else {
            assert_eq!(after, 0);
        }
    }

    #[test]
    fn alloc_probe_feeds_snapshot() {
        fn probe() -> u64 {
            41
        }
        set_alloc_probe(probe);
        assert_eq!(alloc_total(), Some(41));
        let snap = snapshot();
        assert!(snap.iter().any(|&(n, v)| n == "allocations" && v == 41));
    }
}
