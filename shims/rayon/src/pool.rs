//! The work-stealing thread pool behind the `rayon` stand-in.
//!
//! Architecture (a deliberately small cousin of rayon's registry):
//!
//! * **Persistent workers, and the caller is one of the `N`.**
//!   `LS3DF_THREADS = N` (default: available parallelism) means *at most
//!   `N` closures in flight, caller included*: the thread that issues a
//!   parallel operation runs its share of it (and helps while it waits),
//!   so the pool spawns `N − 1` OS threads — the first time any parallel
//!   operation runs, never at program start — and keeps them for the life
//!   of the process, parked on a condvar when idle. `N = 1` spawns
//!   nothing and every driver takes the exact sequential path.
//!   [`Pool::n_threads`] (`rayon::current_num_threads()`) and the split
//!   grain both count the caller, so per-thread scratch sized from them
//!   matches what can actually be live.
//! * **Per-worker deques + shared injector.** Each worker owns a deque:
//!   it pushes and pops split halves at the back (LIFO, cache-warm) while
//!   thieves and the injector drain from the front (FIFO, oldest = biggest
//!   task first — the chunked-injector variant of the Chase–Lev layout,
//!   with a mutex per deque instead of lock-free CAS: LS3DF tasks are
//!   fragment solves and FFT lines, microseconds to milliseconds each, so
//!   queue locking is noise).
//! * **Recursive splitting in `join`.** `join(a, b)` publishes `b` (local
//!   deque for workers, injector for external threads), runs `a` inline,
//!   then reclaims `b` if nobody took it — or *helps*, executing other
//!   queued jobs while waiting for the thief, so nested joins never
//!   deadlock the fixed-size pool.
//! * **Queued maps.** `map_queued_on` is the other driver: `N` pullers
//!   (spawned through the same `join` recursion) take items off one
//!   shared ticket counter, so items *start* strictly in source order, one
//!   per free thread — list scheduling, for a handful of heavy items of
//!   very unequal cost submitted largest-first (PEtot_F's fragments).
//!   Results still come back in source order.
//! * **Panic propagation.** A stolen job that panics is caught on the
//!   thief, carried back through its latch, and re-thrown on the owning
//!   thread via `resume_unwind` — a panic inside a `par_iter` closure
//!   (e.g. an `ls3df-core::check` invariant violation) surfaces in the
//!   caller exactly as it would sequentially, and the worker survives.
//!
//! Determinism contract: the pool only ever changes *where* a closure
//! runs, never *what* it computes or how results are ordered. All
//! reductions in the iterator layer combine materialized, source-ordered
//! results with thread-count-independent trees, so runs at
//! `LS3DF_THREADS` ∈ {1, 2, N} are bit-identical (gated by
//! `tests/dist_digest.rs`).
//!
//! That contract is additionally stress-tested by *schedule exploration*:
//! [`Schedule`] selects the order in which workers look for runnable
//! jobs, and the adversarial variants (`lifo-starve`, `all-steal`,
//! `reverse-park`) deliberately produce steal patterns the default order
//! never would. `cargo xtask schedules` re-runs the pool tests and a
//! short SCF under every variant and asserts bit-identical digests and
//! intact panic propagation — determinism that survives only on the
//! schedules the default policy happens to generate is not determinism.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Recovers the data from a poisoned lock: a panicking job is caught and
/// reported through its latch, so the guarded state is always consistent.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/// Work-selection order for the pool's workers.
///
/// [`Schedule::Default`] is the production order. The other variants are
/// *adversarial*: they are functionally equivalent (every queued job
/// still runs exactly once, panics still propagate) but force steal
/// patterns the default order never produces, so running the test suite
/// and an SCF digest under each explores genuinely different interleaved
/// executions of the same program. Fixed per pool at construction; the
/// lazily-created global pool reads `LS3DF_SCHEDULE` once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// Production order: own deque back (LIFO, cache-warm) → injector →
    /// forward steal scan from `me + 1`.
    Default,
    /// Starves the LIFO fast path: workers drain their own deque
    /// oldest-first (FIFO), maximizing the distance between a split's
    /// publish and its execution — the join owner almost never reclaims.
    LifoStarve,
    /// Workers prefer anyone else's work: injector → steal scan → own
    /// deque last, so nearly every job crosses threads.
    AllSteal,
    /// Reverses the steal scan (victims visited in descending index
    /// order), so workers waking from the park loop probe the opposite
    /// victims from Default.
    ReversePark,
}

impl Schedule {
    /// Every schedule, Default first — the exploration matrix iterated by
    /// `cargo xtask schedules` and the pool's own tests.
    pub const ALL: [Schedule; 4] = [
        Schedule::Default,
        Schedule::LifoStarve,
        Schedule::AllSteal,
        Schedule::ReversePark,
    ];

    /// The `LS3DF_SCHEDULE` value selecting this schedule.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Default => "default",
            Schedule::LifoStarve => "lifo-starve",
            Schedule::AllSteal => "all-steal",
            Schedule::ReversePark => "reverse-park",
        }
    }

    fn parse(s: &str) -> Option<Schedule> {
        Schedule::ALL.iter().copied().find(|v| v.name() == s.trim())
    }

    /// Schedule from `LS3DF_SCHEDULE`. Unset or unrecognized values fall
    /// back to [`Schedule::Default`], so a production run can never land
    /// on an adversarial order by accident.
    pub fn from_env() -> Schedule {
        std::env::var("LS3DF_SCHEDULE")
            .ok()
            .and_then(|s| Schedule::parse(&s))
            .unwrap_or(Schedule::Default)
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// A type-erased pointer to a [`StackJob`] living on some thread's stack.
///
/// The owner of the `StackJob` keeps it alive (and does not move it) until
/// the job's latch is set or the `JobRef` has been reclaimed from its
/// queue, so the pointer is always valid when `execute` runs.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    // SAFETY: callers must pass `data` (still live) as the argument.
    execute: unsafe fn(*const ()),
}

// The pointed-to StackJob is Sync (all fields lock-protected) and stays
// alive until the job completes, per the JobRef contract above.
// SAFETY: given that contract, sending the raw pointer is sound.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

/// A `FnOnce` job allocated on the owner's stack, with a latch the owner
/// blocks on when the job is stolen.
struct StackJob<F, R> {
    func: Mutex<Option<F>>,
    result: Mutex<Option<std::thread::Result<R>>>,
    latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        StackJob {
            func: Mutex::new(Some(f)),
            result: Mutex::new(None),
            latch: Latch::new(),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast::<()>(),
            execute: Self::execute,
        }
    }

    /// Entry point when a thief (or the worker loop) runs the job.
    ///
    /// SAFETY: `data` must come from [`StackJob::as_job_ref`] on a live
    /// job (the owner waits on the latch before the job can drop).
    #[allow(unsafe_code)]
    unsafe fn execute(data: *const ()) {
        // SAFETY: per the function contract, `data` points at a live
        // StackJob<F, R> created by as_job_ref on the owner's stack.
        let job = unsafe { &*data.cast::<Self>() };
        let Some(f) = lock(&job.func).take() else {
            return; // already reclaimed by the owner
        };
        let res = catch_unwind(AssertUnwindSafe(f));
        *lock(&job.result) = Some(res);
        job.latch.set();
    }

    /// Takes the closure back out (owner-side inline execution).
    fn reclaim_func(&self) -> Option<F> {
        lock(&self.func).take()
    }

    /// Takes the finished result; propagates a thief-side panic.
    fn unwrap_result(&self) -> R {
        match lock(&self.result).take() {
            Some(Ok(r)) => r,
            Some(Err(payload)) => resume_unwind(payload),
            // Unreachable by construction: the latch is only set after the
            // result slot is filled.
            None => resume_unwind(Box::new("rayon shim: latch set without result")),
        }
    }
}

/// One-shot completion flag with both a fast atomic probe (for the
/// help-while-waiting loop) and a blocking wait.
struct Latch {
    done: AtomicBool,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            done: AtomicBool::new(false),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn probe(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `set`: a
        // thread that observes `done` also observes the result slot the
        // executing thread filled just before setting the flag.
        self.done.load(Ordering::Acquire)
    }

    fn set(&self) {
        // ORDERING: Release publishes the result written immediately
        // before the flag flip; paired with the Acquire load in `probe`.
        self.done.store(true, Ordering::Release);
        // Lock/unlock pairs the store with any waiter between its probe
        // and its wait, preventing a missed wakeup.
        drop(lock(&self.mutex));
        self.cond.notify_all();
    }

    /// Blocks briefly (the caller re-probes and helps between waits).
    fn wait_brief(&self) {
        let guard = lock(&self.mutex);
        if !self.probe() {
            let _ = self
                .cond
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

thread_local! {
    /// Set once at worker startup: which pool this thread belongs to, and
    /// its queue index there.
    static WORKER: std::cell::RefCell<Option<(Arc<PoolState>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

struct PoolState {
    /// Per-worker deques. Owner end = back; steal end = front.
    queues: Vec<Mutex<VecDeque<JobRef>>>,
    /// Overflow/injection queue for jobs published by non-pool threads.
    injector: Mutex<VecDeque<JobRef>>,
    /// Idle workers park here (paired with `injector`'s mutex).
    sleep: Condvar,
    shutdown: AtomicBool,
    /// Work-selection order, fixed at pool construction.
    schedule: Schedule,
}

impl PoolState {
    /// Pops work in the pool's [`Schedule`] order (Default: own deque
    /// back, then injector, then steals). Whatever the order, a worker
    /// only ever *selects* among the same queued jobs — it never changes
    /// what any of them computes, which is exactly the independence the
    /// adversarial schedules stress.
    fn find_work(&self, me: Option<usize>) -> Option<JobRef> {
        match self.schedule {
            Schedule::Default => self
                .pop_own_back(me)
                .or_else(|| self.pop_injector())
                .or_else(|| self.steal(me, false)),
            Schedule::LifoStarve => self
                .pop_own_front(me)
                .or_else(|| self.pop_injector())
                .or_else(|| self.steal(me, false)),
            Schedule::AllSteal => self
                .pop_injector()
                .or_else(|| self.steal(me, false))
                .or_else(|| self.pop_own_back(me)),
            Schedule::ReversePark => self
                .pop_own_back(me)
                .or_else(|| self.pop_injector())
                .or_else(|| self.steal(me, true)),
        }
    }

    /// Owner end of the worker's own deque (LIFO, cache-warm).
    fn pop_own_back(&self, me: Option<usize>) -> Option<JobRef> {
        lock(&self.queues[me?]).pop_back()
    }

    /// LifoStarve's oldest-first drain of the worker's own deque.
    fn pop_own_front(&self, me: Option<usize>) -> Option<JobRef> {
        lock(&self.queues[me?]).pop_front()
    }

    fn pop_injector(&self) -> Option<JobRef> {
        lock(&self.injector).pop_front()
    }

    /// Scans the other workers' deques at the steal end (front, FIFO) —
    /// forward from `me + 1`, or in descending order when `reverse`.
    fn steal(&self, me: Option<usize>, reverse: bool) -> Option<JobRef> {
        let n = self.queues.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let victim = if reverse {
                (start + n - 1 - k) % n
            } else {
                (start + k) % n
            };
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = lock(&self.queues[victim]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Publishes a job where the current thread is allowed to: the local
    /// deque for pool workers, the injector for everyone else.
    fn push(&self, me: Option<usize>, job: JobRef) {
        match me {
            Some(i) => lock(&self.queues[i]).push_back(job),
            None => lock(&self.injector).push_back(job),
        }
        self.sleep.notify_one();
    }

    /// Removes `job` from wherever `push` put it, if still queued.
    /// Returns true when the caller now exclusively owns the job.
    fn reclaim(&self, me: Option<usize>, job: JobRef) -> bool {
        let queue = match me {
            Some(i) => &self.queues[i],
            None => &self.injector,
        };
        let mut q = lock(queue);
        match q.iter().rposition(|j| std::ptr::eq(j.data, job.data)) {
            Some(pos) => {
                q.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// A work-stealing pool. The workspace uses one lazily-created global
/// instance; unit tests build private pools with explicit thread counts.
pub(crate) struct Pool {
    state: Arc<PoolState>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    n_threads: usize,
}

impl Pool {
    /// A pool of `n` compute threads — `n − 1` spawned workers plus
    /// whichever thread calls in (`n ≥ 2`; a 1-thread "pool" is
    /// represented by no pool at all — the sequential fallback) — using
    /// the schedule from the environment.
    pub(crate) fn new(n: usize) -> Self {
        Pool::with_schedule(n, Schedule::from_env())
    }

    /// [`Pool::new`] with an explicit work-selection order — the entry
    /// point of the schedule-exploration harness.
    pub(crate) fn with_schedule(n: usize, schedule: Schedule) -> Self {
        let n = n.max(2);
        let workers = n - 1;
        let state = Arc::new(PoolState {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Condvar::new(),
            shutdown: AtomicBool::new(false),
            schedule,
        });
        let handles = (0..workers)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("ls3df-worker-{index}"))
                    .spawn(move || worker_main(state, index))
            })
            .filter_map(Result::ok)
            .collect();
        Pool {
            state,
            handles: Mutex::new(handles),
            n_threads: n,
        }
    }

    /// Threads that run closures: the workers and the calling thread.
    pub(crate) fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The queue index of the current thread, when it is a worker of
    /// *this* pool.
    fn current_index(&self) -> Option<usize> {
        WORKER.with(|w| match &*w.borrow() {
            Some((state, idx)) if Arc::ptr_eq(state, &self.state) => Some(*idx),
            _ => None,
        })
    }

    /// Runs `a` and `b`, potentially in parallel, returning both results.
    /// Either closure panicking re-raises that panic on the caller (after
    /// both have finished — a stolen `b` is never abandoned mid-flight).
    pub(crate) fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let me = self.current_index();
        let job_b = StackJob::new(b);
        let ref_b = job_b.as_job_ref();
        self.state.push(me, ref_b);

        let ra = match catch_unwind(AssertUnwindSafe(a)) {
            Ok(v) => v,
            Err(payload) => {
                // `a` panicked with `b` still published: settle `b` before
                // unwinding so its stack slot stays valid for any thief.
                if !self.state.reclaim(me, ref_b) {
                    self.wait_helping(me, &job_b.latch);
                    let _ = lock(&job_b.result).take();
                }
                resume_unwind(payload);
            }
        };

        if self.state.reclaim(me, ref_b) {
            // Nobody stole `b`: run it inline (panics propagate directly).
            match job_b.reclaim_func() {
                Some(f) => (ra, f()),
                // reclaim() returning true guarantees exclusive ownership,
                // so the closure is still present; this arm is unreachable.
                None => (ra, job_b.unwrap_result()),
            }
        } else {
            // Stolen: help with other queued work while the thief runs it.
            self.wait_helping(me, &job_b.latch);
            (ra, job_b.unwrap_result())
        }
    }

    /// Waits for `latch`, executing any other available jobs meanwhile —
    /// the mechanism that keeps nested joins deadlock-free on a
    /// fixed-size pool.
    fn wait_helping(&self, me: Option<usize>, latch: &Latch) {
        while !latch.probe() {
            match self.state.find_work(me) {
                // SAFETY: every queued JobRef upholds the StackJob
                // liveness contract (its owner is blocked on the latch).
                #[allow(unsafe_code)]
                Some(job) => unsafe { (job.execute)(job.data) },
                None => latch.wait_brief(),
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // ORDERING: Release pairs with the Acquire loads in worker_main,
        // so a worker observing shutdown also observes every write the
        // dropping thread made before it (the flag is the only signal).
        self.state.shutdown.store(true, Ordering::Release);
        self.state.sleep.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(state: Arc<PoolState>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&state), index)));
    loop {
        match state.find_work(Some(index)) {
            // SAFETY: queued JobRefs point at live StackJobs (owners wait
            // on their latches); execute catches panics internally.
            #[allow(unsafe_code)]
            Some(job) => unsafe { (job.execute)(job.data) },
            None => {
                // ORDERING: Acquire pairs with the Release store in
                // `Drop`, ordering this worker's exit after everything
                // the dropping thread did before raising the flag.
                if state.shutdown.load(Ordering::Acquire) {
                    // Push any buffered observability spans to the global
                    // sink before this worker thread (and its thread-local
                    // buffer) disappears. No-op unless `obs` is enabled.
                    ls3df_obs::flush_thread();
                    return;
                }
                // Going idle: hand buffered spans to the aggregator so a
                // report harvested while workers sleep sees all of them.
                ls3df_obs::flush_thread();
                // Park briefly on the injector condvar; the timeout
                // re-scans for steals published without a notification.
                let guard = lock(&state.injector);
                // ORDERING: Acquire, same pairing as the load above — the
                // re-check under the lock closes the race with a shutdown
                // raised between the first load and parking.
                if guard.is_empty() && !state.shutdown.load(Ordering::Acquire) {
                    let _ = state
                        .sleep
                        .wait_timeout(guard, Duration::from_millis(10))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool + drivers
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Option<Pool>> = OnceLock::new();

/// Thread count from the environment: `LS3DF_THREADS` if set, else the
/// machine's available parallelism. `1` selects the exact sequential
/// fallback (no pool, no worker threads). Panics on anything but a
/// positive integer: pool creation has no error path, and a silent
/// default would run another configuration than the one asked for.
#[expect(
    clippy::panic,
    reason = "pool creation has no error path; a bad LS3DF_THREADS must stop the run, not fall back"
)]
fn configured_threads() -> usize {
    let value = std::env::var_os("LS3DF_THREADS").map(|v| v.to_string_lossy().into_owned());
    match parse_threads(value.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Err(message) => panic!("{message}"),
    }
}

/// Parses an `LS3DF_THREADS` value: unset is `Ok(None)` (the host
/// default), a positive integer is that count, anything else is an error
/// message naming the variable and the value.
fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    match value.map(|v| (v, v.trim().parse::<usize>())) {
        None => Ok(None),
        Some((_, Ok(n))) if n >= 1 => Ok(Some(n)),
        Some((value, _)) => Err(format!(
            "LS3DF_THREADS={value:?} is not a positive number of threads"
        )),
    }
}

/// The lazily-created global pool; `None` in sequential mode.
pub(crate) fn global() -> Option<&'static Pool> {
    GLOBAL
        .get_or_init(|| {
            let n = configured_threads();
            (n > 1).then(|| Pool::new(n))
        })
        .as_ref()
}

/// Number of threads parallel work is spread across, the caller included
/// (1 = sequential).
pub(crate) fn global_num_threads() -> usize {
    global().map_or(1, Pool::n_threads)
}

/// `rayon::join` against the global pool (sequential when disabled).
pub(crate) fn global_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match global() {
        Some(pool) => pool.join(a, b),
        None => {
            let ra = a();
            let rb = b();
            (ra, rb)
        }
    }
}

/// Splitting granularity: enough splits for stealing to balance load
/// (≈4 leaves per compute thread, the caller being one of `threads`),
/// never so many that task overhead dominates.
/// Affects scheduling only — results are ordered concatenations, so the
/// grain never changes a single bit of output.
fn grain_for(len: usize, threads: usize) -> usize {
    (len / (threads * 4)).max(1)
}

/// Maps `f` over `src` preserving order, fanning out over `pool` by
/// recursive halving. The sequential path (`pool = None`) is the exact
/// natural-order loop.
pub(crate) fn map_vec_on<S, T, F>(pool: Option<&Pool>, src: Vec<S>, f: &F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    match pool {
        None => src.into_iter().map(f).collect(),
        Some(pool) => {
            let grain = grain_for(src.len(), pool.n_threads());
            map_split(pool, src, f, grain)
        }
    }
}

/// Order-preserving parallel map against the global pool.
pub(crate) fn map_vec<S, T, F>(src: Vec<S>, f: &F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    map_vec_on(global(), src, f)
}

/// Maps `f` over `src` preserving order, *starting* items strictly in
/// source order: `n_threads` pullers share one ticket counter, each takes
/// the next unstarted item when it is free. For a few heavy items of
/// unequal cost sorted largest-first this is list scheduling — no thread
/// idles while an item is unstarted, and the tail is one of the smallest
/// items — where recursive halving would hand the second thread the
/// small half of the list. The sequential path is the natural-order loop.
pub(crate) fn map_queued_on<S, T, F>(pool: Option<&Pool>, src: Vec<S>, f: &F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    let Some(pool) = pool else {
        return src.into_iter().map(f).collect();
    };
    let slots: Vec<Mutex<Option<S>>> = src.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let next = AtomicUsize::new(0);
    let puller = |_: usize| {
        let mut done = Vec::new();
        loop {
            // ORDERING: Relaxed — the counter only hands out distinct
            // tickets; the item itself is published by its slot's mutex.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            if let Some(s) = lock(slot).take() {
                done.push((i, f(s)));
            }
        }
    };
    let pullers = (0..pool.n_threads()).collect();
    // Each ticket below `slots.len()` is drawn exactly once (a panicking
    // item unwinds out of `map_split`), so sorting by ticket restores
    // source order.
    let mut done: Vec<(usize, T)> = map_split(pool, pullers, &puller, 1)
        .into_iter()
        .flatten()
        .collect();
    debug_assert_eq!(done.len(), slots.len());
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// [`map_queued_on`] against the global pool.
pub(crate) fn map_queued<S, T, F>(src: Vec<S>, f: &F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    map_queued_on(global(), src, f)
}

fn map_split<S, T, F>(pool: &Pool, mut src: Vec<S>, f: &F, grain: usize) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(S) -> T + Sync,
{
    if src.len() <= grain {
        return src.into_iter().map(f).collect();
    }
    let right = src.split_off(src.len() / 2);
    let (mut left, mut right) = pool.join(
        || map_split(pool, src, f, grain),
        || map_split(pool, right, f, grain),
    );
    left.append(&mut right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(3);
        let (a, b) = pool.join(|| 6 * 7, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_joins_complete_without_deadlock() {
        // A full binary recursion tree deeper than the worker count: only
        // help-while-waiting keeps this from deadlocking a 2-thread pool.
        let pool = Pool::new(2);
        fn sum(pool: &Pool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 4 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = pool.join(|| sum(pool, lo, mid), || sum(pool, mid, hi));
                a + b
            }
        }
        assert_eq!(sum(&pool, 0, 1000), (0..1000).sum::<u64>());
    }

    #[test]
    fn panic_in_b_propagates_to_caller() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || std::thread::sleep(Duration::from_millis(5)),
                || panic!("boom in b"),
            )
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom in b"), "payload: {msg:?}");
    }

    #[test]
    fn panic_in_a_still_settles_b() {
        let pool = Pool::new(2);
        let b_ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                || panic!("boom in a"),
                || {
                    // ORDERING: SeqCst — test bookkeeping; the strongest
                    // order keeps the count outside any doubt for free.
                    b_ran.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        assert!(result.is_err());
        // b either ran on a thief or was reclaimed-and-dropped; both are
        // legal, but the join must not leave it dangling in a queue.
        // ORDERING: SeqCst, matching the increment above.
        assert!(b_ran.load(Ordering::SeqCst) <= 1);
        // The pool must still be fully operational afterwards.
        let (x, y) = pool.join(|| 1, || 2);
        assert_eq!((x, y), (1, 2));
    }

    #[test]
    fn map_vec_on_pool_matches_sequential_bitwise() {
        let pool = Pool::new(4);
        let src: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let f = |x: f64| (x * 1.000_000_1).exp().ln_1p();
        let seq: Vec<f64> = src.clone().into_iter().map(f).collect();
        let par: Vec<f64> = map_vec_on(Some(&pool), src, &f);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn pool_shutdown_joins_workers() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!(a + b, 3);
        drop(pool); // Drop joins the worker threads; must not hang.
    }

    #[test]
    fn thread_counts_are_positive_integers_or_an_error_naming_the_value() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some(" 4 ")), Ok(Some(4)));
        // Extreme values stop at the parser: no pool is started here.
        let max = usize::MAX.to_string();
        assert_eq!(parse_threads(Some(&max)), Ok(Some(usize::MAX)));
        for bad in ["", "0", "-2", "two", "1.5", "4 threads", &format!("{max}0")] {
            let err = parse_threads(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("LS3DF_THREADS={bad:?}")), "{err}");
        }
    }

    #[test]
    fn schedule_names_round_trip_and_env_defaults() {
        for s in Schedule::ALL {
            assert_eq!(Schedule::parse(s.name()), Some(s));
        }
        assert_eq!(Schedule::parse(" all-steal "), Some(Schedule::AllSteal));
        assert_eq!(Schedule::parse("definitely-not-a-schedule"), None);
    }

    #[test]
    fn every_schedule_matches_sequential_bitwise() {
        // The determinism contract under adversarial work-selection: the
        // same map over the same source must be bit-identical no matter
        // which worker runs which half, on every explored schedule.
        let src: Vec<f64> = (0..800).map(|i| (i as f64).cos()).collect();
        let f = |x: f64| (x * 1.000_000_1).exp().ln_1p();
        let seq: Vec<f64> = src.clone().into_iter().map(f).collect();
        for schedule in Schedule::ALL {
            let pool = Pool::with_schedule(4, schedule);
            let par: Vec<f64> = map_vec_on(Some(&pool), src.clone(), &f);
            assert_eq!(seq.len(), par.len(), "schedule {}", schedule.name());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.to_bits(), p.to_bits(), "schedule {}", schedule.name());
            }
        }
    }

    #[test]
    fn nested_joins_complete_under_every_schedule() {
        // The help-while-waiting deadlock-freedom argument must not
        // depend on the work-selection order (AllSteal in particular
        // makes the owner's reclaim almost always lose the race).
        fn sum(pool: &Pool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 4 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = pool.join(|| sum(pool, lo, mid), || sum(pool, mid, hi));
                a + b
            }
        }
        for schedule in Schedule::ALL {
            let pool = Pool::with_schedule(2, schedule);
            assert_eq!(
                sum(&pool, 0, 1000),
                (0..1000).sum::<u64>(),
                "schedule {}",
                schedule.name()
            );
        }
    }

    #[test]
    fn panic_propagates_under_every_schedule() {
        for schedule in Schedule::ALL {
            let pool = Pool::with_schedule(2, schedule);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || std::thread::sleep(Duration::from_millis(2)),
                    || panic!("boom under {}", schedule.name()),
                )
            }));
            assert!(result.is_err(), "no panic under {}", schedule.name());
            // The pool survives the unwound job under every order.
            let (x, y) = pool.join(|| 1, || 2);
            assert_eq!((x, y), (1, 2), "schedule {}", schedule.name());
        }
    }

    #[test]
    fn main_thread_map_never_exceeds_n_closures_in_flight() {
        // LS3DF_THREADS = N means N closures in flight *including* the
        // caller's. Every closure holds its slot until N closures have
        // started, so the first N must overlap on N distinct threads: the
        // high-water mark is exactly N, never the N + 1 of a pool that
        // spawns N workers and lets the caller compute too.
        for schedule in Schedule::ALL {
            for n in [2, 3] {
                for queued in [false, true] {
                    let pool = Pool::with_schedule(n, schedule);
                    let (started, live, high) = (
                        AtomicUsize::new(0),
                        AtomicUsize::new(0),
                        AtomicUsize::new(0),
                    );
                    let f = |x: usize| {
                        // ORDERING: SeqCst throughout — test bookkeeping
                        // that must read as one total order of enter/leave
                        // events across threads.
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        // ORDERING: SeqCst, as above.
                        high.fetch_max(now, Ordering::SeqCst);
                        started.fetch_add(1, Ordering::SeqCst);
                        // ORDERING: SeqCst, as above.
                        while started.load(Ordering::SeqCst) < n {
                            std::thread::yield_now();
                        }
                        // ORDERING: SeqCst, as above.
                        live.fetch_sub(1, Ordering::SeqCst);
                        x + 1
                    };
                    let src: Vec<usize> = (0..64).collect();
                    let out = if queued {
                        map_queued_on(Some(&pool), src, &f)
                    } else {
                        map_vec_on(Some(&pool), src, &f)
                    };
                    assert_eq!(out, (1..=64).collect::<Vec<_>>());
                    assert_eq!(pool.n_threads(), n);
                    // ORDERING: SeqCst, as above (the pool is idle here).
                    assert_eq!(
                        high.load(Ordering::SeqCst),
                        n,
                        "schedule {} n {n} queued {queued}",
                        schedule.name()
                    );
                }
            }
        }
    }

    #[test]
    fn queued_map_starts_the_head_of_the_list_first() {
        // With the list sorted most expensive first, the expensive items
        // must be the first to start on every schedule — which recursive
        // halving does not give (its second thread starts at the middle of
        // the list). Each closure logs its item and then holds its thread
        // until n have logged, so the first n log entries are exactly the
        // first n tickets drawn.
        for schedule in Schedule::ALL {
            let pool = Pool::with_schedule(3, schedule);
            let n = pool.n_threads();
            let log = Mutex::new(Vec::new());
            let f = |i: usize| {
                lock(&log).push(i);
                while lock(&log).len() < n {
                    std::thread::yield_now();
                }
            };
            map_queued_on(Some(&pool), (0..40).collect(), &f);
            let mut head = lock(&log)[..n].to_vec();
            head.sort_unstable();
            assert_eq!(head, [0, 1, 2], "schedule {}", schedule.name());
        }
    }

    #[test]
    fn queued_map_propagates_panics_and_matches_sequential() {
        let pool = Pool::new(2);
        let f = |x: u32| f64::from(x).sqrt();
        let seq: Vec<f64> = (0..100).map(f).collect();
        assert_eq!(map_queued_on(Some(&pool), (0..100).collect(), &f), seq);
        assert_eq!(map_queued_on(None, (0..100).collect(), &f), seq);
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_queued_on(Some(&pool), (0..10).collect(), &|x: u32| {
                assert!(x != 7, "boom at seven");
                x
            })
        }));
        assert!(result.is_err());
        let (x, y) = pool.join(|| 1, || 2);
        assert_eq!((x, y), (1, 2));
    }

    #[test]
    fn grain_never_zero() {
        assert_eq!(grain_for(0, 8), 1);
        assert_eq!(grain_for(3, 8), 1);
        assert!(grain_for(1000, 4) >= 1);
    }
}
