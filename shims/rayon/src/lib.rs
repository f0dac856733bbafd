//! Offline stand-in for the subset of the `rayon` API the LS3DF workspace
//! uses (`par_iter`, `par_iter_mut`, `into_par_iter`, `par_chunks`,
//! `par_chunks_mut`, `join`, `current_num_threads`, and the adapters
//! `map`/`zip`/`enumerate`/`filter`/`for_each`/`fold`/`reduce`/`collect`).
//!
//! The build container has no registry access, so the real crates-io rayon
//! cannot be resolved; this path dependency keeps the workspace compiling
//! and the API call sites unchanged — but unlike the original sequential
//! placeholder it now executes on a **real work-stealing thread pool**
//! (see the `pool` module internals): persistent lazily-spawned workers with
//! per-worker deques, recursive splitting in [`join`], panic propagation,
//! and an `LS3DF_THREADS = N` env override (default: available
//! parallelism) meaning *at most `N` closures in flight, caller included*
//! — `N − 1` worker threads plus the thread that issued the operation;
//! `1` selects an exact sequential fallback with no worker threads.
//!
//! # Determinism
//!
//! Every adapter is **order-preserving by construction**: a parallel
//! pipeline is a materialized source vector plus a composed per-item
//! closure; workers split the source recursively, run the closure on
//! their halves, and the halves are concatenated back in source order.
//! Terminal reductions (`reduce`, `sum`, `fold`) then combine the ordered
//! results with thread-count-independent trees on the calling thread. The
//! schedule decides only *where* each item's closure runs — never the
//! shape of any floating-point summation — so results are bit-identical
//! across `LS3DF_THREADS` settings (the property the `ls3df-core::check`
//! invariant layer and `tests/dist_digest.rs` gate on). Heavy per-item
//! closures (`map`, `for_each`, `flat_map_iter`) execute on the workers;
//! only the cheap ordering/combining steps are sequential.

// This crate (with `ls3df::alloc_count`) is the workspace's audited
// unsafe surface: deny globally, allow per site with a SAFETY: comment.
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod pool;

pub use pool::Schedule;

/// Everything the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

/// The do-nothing pipeline stage of a freshly created [`ParIter`]
/// (a plain fn pointer, so source-only iterators need no boxing).
pub type IdentityPipe<T> = fn(T) -> T;

fn identity_pipe<T>() -> IdentityPipe<T> {
    std::convert::identity::<T>
}

/// Number of threads parallel work is spread across, the calling thread
/// included — the `N` of `LS3DF_THREADS` (`1` when the pool is disabled
/// via `LS3DF_THREADS=1` or on single-core hosts).
pub fn current_num_threads() -> usize {
    pool::global_num_threads()
}

/// Runs both closures, potentially in parallel on the pool, and returns
/// their results. A panic in either closure propagates to the caller
/// (after both have settled). With the pool disabled this is exactly
/// `(a(), b())`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::global_join(a, b)
}

/// A parallel iterator: a materialized, source-ordered item vector plus a
/// composed per-item pipeline closure. Adapters compose the closure
/// lazily; terminal operations fan the pipeline out over the worker pool
/// and reassemble results in source order (see the crate docs for the
/// determinism argument).
pub struct ParIter<S, F> {
    src: Vec<S>,
    f: F,
}

impl<T: Send> ParIter<T, IdentityPipe<T>> {
    fn from_vec(src: Vec<T>) -> Self {
        ParIter {
            src,
            f: identity_pipe(),
        }
    }
}

impl<S, T, F> ParIter<S, F>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    /// Runs the pipeline over the pool, returning items in source order.
    fn run(self) -> Vec<T> {
        pool::map_vec(self.src, &self.f)
    }

    /// Applies `f` to every item (on the workers).
    pub fn map<U, G>(self, g: G) -> ParIter<S, impl Fn(S) -> U + Sync>
    where
        U: Send,
        G: Fn(T) -> U + Sync,
    {
        let f = self.f;
        ParIter {
            src: self.src,
            f: move |s| g(f(s)),
        }
    }

    /// Pairs items with those of another parallel iterator (truncating to
    /// the shorter source, like rayon's `zip`).
    #[allow(clippy::type_complexity)] // RPIT pipe composition; no alias possible
    pub fn zip<J>(
        self,
        other: J,
    ) -> ParIter<(S, J::Source), impl Fn((S, J::Source)) -> (T, J::Item) + Sync>
    where
        J: IntoParallelIterator,
    {
        let other = other.into_par_iter();
        let f = self.f;
        let g = other.f;
        ParIter {
            src: self.src.into_iter().zip(other.src).collect(),
            f: move |(a, b)| (f(a), g(b)),
        }
    }

    /// Pairs items with their (source-order) index.
    #[allow(clippy::type_complexity)] // RPIT pipe composition; no alias possible
    pub fn enumerate(self) -> ParIter<(usize, S), impl Fn((usize, S)) -> (usize, T) + Sync> {
        let f = self.f;
        ParIter {
            src: self.src.into_iter().enumerate().collect(),
            f: move |(i, s)| (i, f(s)),
        }
    }

    /// Keeps items satisfying the predicate. The pipeline built so far
    /// runs on the workers; the (cheap) predicate itself runs on the
    /// calling thread in source order, because filtering changes the item
    /// count and would otherwise break order-preserving splitting.
    pub fn filter<P>(self, p: P) -> ParIter<T, IdentityPipe<T>>
    where
        P: FnMut(&T) -> bool,
    {
        let mut p = p;
        ParIter::from_vec(self.run().into_iter().filter(|t| p(t)).collect())
    }

    /// Maps each item to a serial iterator and concatenates the results
    /// in source order. The mapping closure (the heavy part at every
    /// workspace call site) runs on the workers; only the concatenation
    /// is sequential.
    pub fn flat_map_iter<U, G>(self, g: G) -> ParIter<U::Item, IdentityPipe<U::Item>>
    where
        U: IntoIterator + Send,
        U::Item: Send,
        G: Fn(T) -> U + Sync,
    {
        let f = self.f;
        let composed = move |s| g(f(s));
        let groups: Vec<U> = pool::map_vec(self.src, &composed);
        ParIter::from_vec(groups.into_iter().flatten().collect())
    }

    /// Consumes the iterator, applying `f` to every item on the workers.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(T) + Sync,
    {
        let f = self.f;
        let composed = move |s| g(f(s));
        let _: Vec<()> = pool::map_vec(self.src, &composed);
    }

    /// Rayon-style fold: produces a parallel iterator of per-split
    /// accumulators. This shim always uses exactly **one** split folded in
    /// source order — a fixed summation shape, so the result cannot depend
    /// on the thread count (the pipeline feeding the fold still runs on
    /// the workers).
    pub fn fold<A, ID, G>(self, identity: ID, fold_op: G) -> ParIter<A, IdentityPipe<A>>
    where
        A: Send,
        ID: Fn() -> A,
        G: FnMut(A, T) -> A,
    {
        let acc = self.run().into_iter().fold(identity(), fold_op);
        ParIter::from_vec(vec![acc])
    }

    /// Reduces all items with `op`, starting from `identity()`, in source
    /// order (fixed left fold — schedule-independent by construction).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: FnMut(T, T) -> T,
    {
        self.run().into_iter().fold(identity(), op)
    }

    /// Sums all items in source order.
    pub fn sum<Out: std::iter::Sum<T>>(self) -> Out {
        self.run().into_iter().sum()
    }

    /// Collects items in source order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.run().into_iter().collect()
    }

    /// Collects items in source order after *starting* them in source
    /// order, one item per free thread (not upstream rayon API): for a
    /// short list of heavy items sorted most expensive first, so the
    /// cheap ones fill the tail. Everything else should use
    /// [`collect`](Self::collect), whose recursive halving costs one task
    /// per leaf rather than one queue pop per item.
    pub fn collect_queued(self) -> Vec<T> {
        pool::map_queued(self.src, &self.f)
    }
}

/// Types convertible into a [`ParIter`] (`Vec`, ranges, slices, and
/// [`ParIter`] itself so `zip` accepts both).
pub trait IntoParallelIterator {
    /// Item type the resulting iterator yields.
    type Item: Send;
    /// Element type of the materialized source vector.
    type Source: Send;
    /// Pipeline closure mapping sources to items.
    type Pipe: Fn(Self::Source) -> Self::Item + Sync;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Source, Self::Pipe>;
}

impl<S, T, F> IntoParallelIterator for ParIter<S, F>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    type Item = T;
    type Source = S;
    type Pipe = F;
    fn into_par_iter(self) -> ParIter<S, F> {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Source = T;
    type Pipe = IdentityPipe<T>;
    fn into_par_iter(self) -> ParIter<T, IdentityPipe<T>> {
        ParIter::from_vec(self)
    }
}

impl<T: Send> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Source = T;
    type Pipe = IdentityPipe<T>;
    fn into_par_iter(self) -> ParIter<T, IdentityPipe<T>> {
        ParIter::from_vec(self.collect())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Source = &'a T;
    type Pipe = IdentityPipe<&'a T>;
    fn into_par_iter(self) -> ParIter<&'a T, IdentityPipe<&'a T>> {
        ParIter::from_vec(self.iter().collect())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Source = &'a T;
    type Pipe = IdentityPipe<&'a T>;
    fn into_par_iter(self) -> ParIter<&'a T, IdentityPipe<&'a T>> {
        ParIter::from_vec(self.iter().collect())
    }
}

/// `par_iter`/`par_chunks` on shared slices (and, via deref, `Vec`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel shared iteration.
    fn par_iter(&self) -> ParIter<&T, IdentityPipe<&T>>;
    /// Parallel iteration over `size`-sized chunks.
    fn par_chunks(&self, size: usize) -> ParIter<&[T], IdentityPipe<&[T]>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, IdentityPipe<&T>> {
        ParIter::from_vec(self.iter().collect())
    }
    fn par_chunks(&self, size: usize) -> ParIter<&[T], IdentityPipe<&[T]>> {
        ParIter::from_vec(self.chunks(size).collect())
    }
}

/// `par_iter_mut`/`par_chunks_mut` on mutable slices (and, via deref, `Vec`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel exclusive iteration.
    fn par_iter_mut(&mut self) -> ParIter<&mut T, IdentityPipe<&mut T>>;
    /// Parallel iteration over mutable `size`-sized chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T], IdentityPipe<&mut [T]>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T, IdentityPipe<&mut T>> {
        ParIter::from_vec(self.iter_mut().collect())
    }
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T], IdentityPipe<&mut [T]>> {
        ParIter::from_vec(self.chunks_mut(size).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_reduce_matches_sequential() {
        let v: Vec<u64> = (0..100u64).collect();
        let s: u64 = v.par_iter().map(|&x| x * x).reduce(|| 0, |a, b| a + b);
        assert_eq!(s, (0..100u64).map(|x| x * x).sum::<u64>());
    }

    #[test]
    fn fold_then_reduce_single_split() {
        let total = (0..10usize)
            .into_par_iter()
            .fold(|| 0usize, |acc, x| acc + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 45);
    }

    #[test]
    fn chunks_mut_preserves_order() {
        let mut v = vec![0usize; 12];
        v.par_chunks_mut(4).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        assert_eq!(v, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn zip_pairs_in_order() {
        let a = [1, 2, 3];
        let mut b = vec![10, 20, 30];
        b.par_iter_mut()
            .zip(a.par_iter())
            .for_each(|(x, &y)| *x += y);
        assert_eq!(b, vec![11, 22, 33]);
    }

    #[test]
    fn filter_and_flat_map_preserve_order() {
        let v: Vec<usize> = (0..20).collect();
        let out: Vec<usize> = v
            .into_par_iter()
            .map(|x| x * 3)
            .filter(|&x| x % 2 == 0)
            .flat_map_iter(|x| [x, x + 1])
            .collect();
        let expect: Vec<usize> = (0..20)
            .map(|x| x * 3)
            .filter(|&x| x % 2 == 0)
            .flat_map(|x| [x, x + 1])
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn large_map_preserves_order_and_bits() {
        // Large enough that a multi-thread pool actually splits it; the
        // result must still be the exact sequential-order concatenation.
        let src: Vec<f64> = (0..50_000).map(|i| (i as f64) * 1e-3).collect();
        let out: Vec<f64> = src.par_iter().map(|&x| (x.sin() + 1.5).ln()).collect();
        for (i, (&x, &y)) in src.iter().zip(&out).enumerate() {
            assert_eq!(
                y.to_bits(),
                (x.sin() + 1.5).ln().to_bits(),
                "item {i} diverged"
            );
        }
    }

    #[test]
    fn collect_queued_preserves_order() {
        let out = (0..37usize).into_par_iter().map(|x| x * x).collect_queued();
        assert_eq!(out, (0..37).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn join_runs_both_sides() {
        let (a, b) = super::join(|| 2 + 2, || vec![1, 2, 3].len());
        assert_eq!(a, 4);
        assert_eq!(b, 3);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
