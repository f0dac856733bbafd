//! Counting global allocator for the zero-allocation hot-path tests.
//!
//! Compiled only under the `alloc-count` feature. A test binary installs
//! [`CountingAllocator`] as its `#[global_allocator]`, then brackets the
//! code under scrutiny with [`allocation_count`] reads: a delta of zero
//! proves the region performed no heap allocation at all (frees are not
//! counted — a free-only region is still "allocation-free").
//!
//! The counter is a relaxed [`AtomicU64`]; the guard test runs its probes
//! on one thread in one `#[test]` fn, so cross-thread noise only matters
//! if library code itself spawns threads inside the probed region — which
//! is exactly the kind of hidden cost the test exists to catch.
//!
//! The allocator also keeps the bytes currently live and their high-water
//! mark ([`live_bytes`], [`peak_live_bytes`], [`reset_peak`]) — what
//! `tests/mem_budget.rs` holds an SCF run's footprint against. Those are
//! whole-process numbers from every thread, so that test runs alone in a
//! process of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes requested from the allocator and not yet freed, process-wide.
pub fn live_bytes() -> usize {
    // ORDERING: Relaxed — a statistic read between phases of a test; it
    // publishes no other data.
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> usize {
    // ORDERING: Relaxed — as `live_bytes`.
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    // ORDERING: Relaxed — called between phases, with no allocation racing
    // it that the caller cares to attribute to either side.
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

fn grew(bytes: usize) {
    // ORDERING: Relaxed — statistics. The peak is raised to a value the
    // live counter really took (this thread's own post-add total).
    let now = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ORDERING: Relaxed — statistics, as above.
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// Number of heap allocations (`alloc`, `alloc_zeroed`, or growing
/// `realloc` — every call that can return fresh memory) since process
/// start. Subtract two reads to count allocations in a region.
pub fn allocation_count() -> u64 {
    // ORDERING: Relaxed — probe reads bracket a single-threaded region
    // (module docs); only the delta matters, not ordering against the
    // allocations themselves.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Folds the allocator total into the `ls3df-obs` metrics registry:
/// after this, [`ls3df_obs::harvest`](ls3df_obs::harvest) snapshots
/// include an `"allocations"` counter and run reports carry it. Safe to
/// call more than once (the first installed probe wins).
pub fn install_metrics_probe() {
    ls3df_obs::set_alloc_probe(allocation_count);
}

/// A [`System`]-backed allocator that counts every allocation request.
///
/// Install with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`.
pub struct CountingAllocator;

#[allow(unsafe_code)]
// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter update has no effect on the memory
// returned.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: pure forwarding to `System::alloc`; the caller upholds
    // the `GlobalAlloc` layout/pointer contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — a pure event count on the hottest possible
        // path; atomicity prevents lost increments, and no memory is
        // published through the counter.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the `GlobalAlloc::alloc` contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: pure forwarding to `System::alloc_zeroed`; the caller upholds
    // the `GlobalAlloc` layout/pointer contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — same argument as `alloc`.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the `GlobalAlloc::alloc_zeroed` contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: pure forwarding to `System::dealloc`; the caller upholds
    // the `GlobalAlloc` layout/pointer contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: caller upholds the `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pure forwarding to `System::realloc`; the caller upholds
    // the `GlobalAlloc` layout/pointer contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ORDERING: Relaxed — same argument as `alloc`.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the `GlobalAlloc::realloc` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the raw `GlobalAlloc` forwarding directly — this is the
    /// allocator leg of the `cargo xtask miri` unsafe-core filter, so the
    /// pointer round-trips below run under the interpreter's full
    /// aliasing/validity checks.
    #[test]
    #[allow(unsafe_code)]
    fn counting_allocator_roundtrips_and_counts() {
        let a = CountingAllocator;
        let layout = Layout::from_size_align(64, 8).expect("valid layout");
        let grown = Layout::from_size_align(128, 8).expect("valid layout");
        let before = allocation_count();
        // Every pointer below came from this allocator and is paired
        // with the layout its block currently has.
        // SAFETY: layouts are valid and non-zero-sized, and the pairing
        // above upholds the GlobalAlloc contract for each call.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            p.write_bytes(0xab, layout.size());
            let q = a.realloc(p, layout, grown.size());
            assert!(!q.is_null());
            // The old prefix must survive the move.
            assert_eq!(*q, 0xab);
            a.dealloc(q, grown);
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            assert_eq!(*z, 0);
            a.dealloc(z, layout);
        }
        // alloc + realloc + alloc_zeroed = three counted events (frees
        // are not counted). Other test threads may allocate concurrently,
        // so ≥ not ==.
        assert!(allocation_count() >= before + 3);
        // The realloc'd block was the most this test held at once.
        assert!(peak_live_bytes() >= grown.size());
    }
}
