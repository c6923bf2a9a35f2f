//! A persistent fork-join worker pool — the thread level of the paper's
//! hybrid scheme (OpenMP `parallel for`) without per-call thread spawning.
//!
//! [`crate::par`] originally spawned scoped OS threads on every parallel
//! region. That is well amortized for second-long regions, but a time step
//! runs several regions (particle pass, sort, FFT passes), and at 10⁵–10⁶
//! particles a region is tens to hundreds of microseconds — the ~10–20 µs clone+join cost
//! per spawn becomes a measurable tax, and the kernel-level page-table and
//! stack traffic pollutes the caches the whole data-structure design is
//! trying to keep warm. This module keeps `N − 1` workers parked on a
//! condvar for the life of the pool and hands them stripes of each job:
//!
//! * **Deterministic assignment**: job item `i` always runs on worker
//!   `i mod N` (the caller's thread acts as worker 0). Results that are
//!   merged in worker order are therefore bitwise reproducible run-to-run,
//!   independent of scheduling — the guarantee `sim.rs` relies on when it
//!   sums per-worker ρ arenas.
//! * **Zero steady-state allocation**: publishing a job writes an epoch and
//!   a type-erased closure pointer under a mutex; nothing is boxed, sent
//!   through channels, or reference-counted per call.
//! * **Panic propagation**: a panicking stripe is caught on the worker,
//!   parked in the shared state, and re-raised on the caller after every
//!   stripe of the job has retired (so borrowed data is never freed while a
//!   surviving worker might still touch it).
//!
//! This module is one of the crate's two `unsafe` sites (the other is the
//! sort's cache hint): the job closure is borrowed from the caller's stack
//! and handed to workers as a raw pointer. Soundness rests on a single
//! invariant — **the caller blocks until every stripe has retired** —
//! which `run` enforces unconditionally (even when a stripe panics).

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on pool width: bounds the stack-allocated per-worker tables the
/// kernels use (chunk ranges, view arrays) so the hot path never allocates.
pub const MAX_THREADS: usize = 64;

/// A type-erased job: `call(ctx, worker)` runs worker `worker`'s stripe.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: `ctx` points at a `Ctx` on the publishing thread's stack; that
// thread blocks until `remaining == 0`, so the pointer outlives every use,
// and the `F: Sync` bound on `run` makes the shared access sound.
unsafe impl Send for Job {}

struct State {
    /// Incremented once per published job; workers run each epoch once.
    epoch: u64,
    job: Option<Job>,
    /// Spawned workers still running the current epoch.
    remaining: usize,
    /// First worker panic of the current epoch, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here waiting for a new epoch (or shutdown).
    work: Condvar,
    /// The caller parks here waiting for `remaining` to hit zero.
    done: Condvar,
    /// Stall deadline in nanoseconds (0 = detection off). When set, a job
    /// whose stripes have not all retired within the deadline records a
    /// [`StallEvent`] — the caller keeps waiting regardless (abandoning a
    /// stripe would free borrowed job state under a running worker), but
    /// the hang becomes observable instead of silent.
    stall_nanos: AtomicU64,
    /// Stalls observed so far; drained by [`ThreadPool::take_stall_events`].
    stalls: Mutex<Vec<StallEvent>>,
}

/// One detected worker stall: a job exceeded the configured deadline with
/// stripes still outstanding.
#[derive(Debug, Clone)]
pub struct StallEvent {
    /// Causal sequence number (see [`minimpi::next_event_seq`]) so stalls
    /// merge into the same ledger as transport and recovery events.
    pub seq: u64,
    /// Spawned-worker stripes still running when the deadline elapsed.
    pub remaining: usize,
    /// How long the caller had been waiting when the stall was recorded.
    pub waited: Duration,
}

/// The borrowed, monomorphized context behind a [`Job`].
struct Ctx<'a, F> {
    f: &'a F,
    njobs: usize,
    stride: usize,
}

/// Run worker `worker`'s stripe: items `worker, worker + stride, …`.
///
/// # Safety
/// `ctx` must point at a live `Ctx<F>` whose `f` outlives this call — the
/// pool guarantees it by blocking the publisher until all stripes retire.
unsafe fn run_stripe<F: Fn(usize) + Sync>(ctx: *const (), worker: usize) {
    // SAFETY: this function's contract: `ctx` points at a live `Ctx<F>`,
    // and the publisher keeps it alive until this stripe retires.
    let ctx = unsafe { &*ctx.cast::<Ctx<'_, F>>() };
    let mut i = worker;
    while i < ctx.njobs {
        (ctx.f)(i);
        i += ctx.stride;
    }
}

/// A persistent fork-join pool of `nthreads` workers (the creating thread
/// counts as worker 0 and participates in every job).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
    /// Serializes concurrent `run` calls from different threads. Held for
    /// the whole fork-join, so nested `run` on the same pool deadlocks —
    /// callers must keep pool regions leaf-level (all in-tree callers do).
    leader: Mutex<()>,
}

impl ThreadPool {
    /// Create a pool of `nthreads` workers (clamped to `1..=`[`MAX_THREADS`]).
    /// `nthreads == 1` spawns nothing; every job runs inline on the caller.
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            stall_nanos: AtomicU64::new(0),
            stalls: Mutex::new(Vec::new()),
        });
        let handles = (1..nthreads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pic-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            nthreads,
            leader: Mutex::new(()),
        }
    }

    /// Workers in the pool, including the caller's thread.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Arm (or disarm, with `None`) hung-worker detection: a job whose
    /// stripes are not all retired within `deadline` records a
    /// [`StallEvent`]. The caller still waits for the job to finish —
    /// abandoning a stripe would free borrowed state under a live worker —
    /// so this turns a silent hang into a diagnosable one.
    pub fn set_stall_deadline(&self, deadline: Option<Duration>) {
        let nanos = deadline.map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        self.shared
            .stall_nanos
            .store(nanos, AtomicOrdering::Relaxed);
    }

    /// Drain the stall events recorded since the last call.
    pub fn take_stall_events(&self) -> Vec<StallEvent> {
        std::mem::take(&mut *self.shared.stalls.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Run `f(0), f(1), …, f(njobs − 1)` across the pool and return when all
    /// have finished. Item `i` runs on worker `i mod nthreads`; the caller
    /// executes worker 0's stripe itself. Panics in any item are re-raised
    /// here after the whole job has retired.
    pub fn run<F: Fn(usize) + Sync>(&self, njobs: usize, f: F) {
        if njobs == 0 {
            return;
        }
        if self.nthreads == 1 || njobs == 1 {
            for i in 0..njobs {
                f(i);
            }
            return;
        }
        // Poisoning is expected: a propagated job panic unwinds past this
        // guard. The pool's own state stays consistent (the panicking `run`
        // still retired the whole job before re-raising), so recover.
        let _leader = self.leader.lock().unwrap_or_else(|e| e.into_inner());
        let ctx = Ctx {
            f: &f,
            njobs,
            stride: self.nthreads,
        };
        let job = Job {
            call: run_stripe::<F>,
            ctx: (&raw const ctx).cast(),
        };
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.job = Some(job);
            st.epoch += 1;
            st.remaining = self.handles.len();
            self.shared.work.notify_all();
        }
        // Worker 0's stripe runs here; a panic must not unwind past the
        // wait below (workers may still hold the ctx pointer).
        let leader_result = catch_unwind(AssertUnwindSafe(|| {
            let mut i = 0;
            while i < njobs {
                f(i);
                i += self.nthreads;
            }
        }));
        let worker_panic = {
            let mut st = self.shared.state.lock().expect("pool state lock");
            let stall = self.shared.stall_nanos.load(AtomicOrdering::Relaxed);
            if stall == 0 {
                while st.remaining > 0 {
                    st = self.shared.done.wait(st).expect("pool done wait");
                }
            } else {
                let deadline = Duration::from_nanos(stall);
                let started = Instant::now();
                let mut reported = false;
                while st.remaining > 0 {
                    let (guard, timeout) = self
                        .shared
                        .done
                        .wait_timeout(st, deadline)
                        .expect("pool done wait");
                    st = guard;
                    if timeout.timed_out() && st.remaining > 0 && !reported {
                        // Record once per job, then keep waiting: the
                        // soundness invariant (caller blocks until every
                        // stripe retires) is non-negotiable.
                        reported = true;
                        self.shared
                            .stalls
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(StallEvent {
                                seq: minimpi::next_event_seq(),
                                remaining: st.remaining,
                                waited: started.elapsed(),
                            });
                    }
                }
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(p) = leader_result {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
    }

    /// Run `f(i, &mut items[i])` for every item, striped across the pool
    /// like [`run`](Self::run). With `items.len() == nthreads()` this gives
    /// each worker exactly one item — the shape the per-worker arena
    /// reductions use.
    pub fn run_items<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: F) {
        struct SendPtr<T>(*mut T);
        // SAFETY: shared across workers by reference; each index is visited
        // exactly once, so the derived `&mut` references never alias.
        unsafe impl<T> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            // A method (rather than field access) so the closure captures
            // the Sync wrapper itself, not the raw-pointer field.
            fn at(&self, i: usize) -> *mut T {
                self.0.wrapping_add(i)
            }
        }
        let ptr = SendPtr(items.as_mut_ptr());
        self.run(items.len(), |i| {
            // SAFETY: `i < items.len()` and each `i` runs exactly once
            // across all stripes (disjoint residues mod nthreads).
            let item = unsafe { &mut *ptr.at(i) };
            f(i, item);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state lock");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                st = shared.work.wait(st).expect("pool work wait");
            }
        };
        // SAFETY: the publisher blocks until `remaining == 0`, so `job.ctx`
        // is live for the duration of this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.ctx, worker) }));
        let mut st = shared.state.lock().expect("pool state lock");
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// The pool as a [`spectral::fft::RowExecutor`]: the seam through which the
/// per-step Poisson solve stripes its FFT row batches and column-band tiles
/// over the same persistent workers as the particle loops. The batch is
/// split into at most `nthreads` contiguous whole-row blocks held in a
/// stack array ([`MAX_THREADS`] slots), so the hot path stays allocation-
/// free; block `c` runs on worker `c` (deterministic striping), though the
/// result is schedule-independent because rows are transformed in place and
/// independently.
impl spectral::fft::RowExecutor for ThreadPool {
    fn width(&self) -> usize {
        self.nthreads
    }

    fn run_rows(
        &self,
        data: &mut [spectral::Complex64],
        row_len: usize,
        f: &(dyn Fn(usize, &mut [spectral::Complex64]) + Sync),
    ) {
        assert_eq!(data.len() % row_len.max(1), 0, "partial row in batch");
        let nrows = data.len() / row_len.max(1);
        let k = self.nthreads.min(nrows);
        if k <= 1 {
            if !data.is_empty() {
                f(0, data);
            }
            return;
        }
        let mut blocks: [(usize, &mut [spectral::Complex64]); MAX_THREADS] =
            std::array::from_fn(|_| (0, Default::default()));
        let mut rest = data;
        for (c, slot) in blocks.iter_mut().enumerate().take(k) {
            let (start, end) = chunk_range(nrows, k, c);
            let (head, tail) = rest.split_at_mut((end - start) * row_len);
            *slot = (start, head);
            rest = tail;
        }
        self.run_items(&mut blocks[..k], |_, (first, block)| f(*first, block));
    }
}

/// Split `n` items into `nchunks` near-equal contiguous ranges; returns the
/// half-open range of chunk `c`. Chunk sizes differ by at most one, with the
/// larger chunks first (matching [`crate::kernels::split_soa_mut_into`]).
#[inline]
pub fn chunk_range(n: usize, nchunks: usize, c: usize) -> (usize, usize) {
    let base = n / nchunks;
    let extra = n % nchunks;
    let start = c * base + c.min(extra);
    let end = start + base + usize::from(c < extra);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        for njobs in [0usize, 1, 3, 4, 5, 17, 100] {
            let hits: Vec<AtomicUsize> = (0..njobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(njobs, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "njobs={njobs}"
            );
        }
    }

    #[test]
    fn run_items_gives_disjoint_mut_access() {
        let pool = ThreadPool::new(3);
        let mut items: Vec<u64> = vec![0; 50];
        pool.run_items(&mut items, |i, v| *v = i as u64 + 1);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.nthreads(), 1);
        assert!(pool.handles.is_empty());
        let mut items = vec![0u32; 7];
        pool.run_items(&mut items, |_, v| *v += 1);
        assert!(items.iter().all(|&v| v == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(8, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1600);
    }

    #[test]
    fn deterministic_striping() {
        // Item i must land on worker i mod nthreads: with njobs == nthreads
        // each worker gets exactly one item, so per-worker arenas are a
        // stable partition of the work.
        let pool = ThreadPool::new(4);
        let mut owners = vec![usize::MAX; 4];
        pool.run_items(&mut owners, |i, slot| {
            *slot = i; // each slot written by exactly one stripe
        });
        assert_eq!(owners, vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                assert!(i != 5, "boom at {i}");
            });
        }));
        assert!(result.is_err());
        // The pool must still work after a panicked job.
        let count = AtomicUsize::new(0);
        pool.run(16, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn width_is_clamped() {
        assert_eq!(ThreadPool::new(0).nthreads(), 1);
        assert_eq!(ThreadPool::new(MAX_THREADS + 50).nthreads(), MAX_THREADS);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for nchunks in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for c in 0..nchunks {
                    let (s, e) = chunk_range(n, nchunks, c);
                    assert_eq!(s, covered, "n={n} nchunks={nchunks} c={c}");
                    covered = e;
                    assert!(e - s <= n / nchunks + 1);
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn stall_deadline_detects_slow_stripe_and_pool_survives() {
        let pool = ThreadPool::new(2);
        pool.set_stall_deadline(Some(Duration::from_millis(20)));
        // Stripe on the spawned worker (odd index) sleeps well past the
        // deadline; the job still completes, but the stall is recorded.
        pool.run(2, |i| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(120));
            }
        });
        let stalls = pool.take_stall_events();
        assert_eq!(stalls.len(), 1, "one stall per job");
        assert_eq!(stalls[0].remaining, 1);
        assert!(stalls[0].waited >= Duration::from_millis(20));
        assert!(pool.take_stall_events().is_empty(), "drained");
        // Fast jobs under the same deadline record nothing.
        pool.run(8, |_| {});
        assert!(pool.take_stall_events().is_empty());
        // Disarming returns to the untimed wait.
        pool.set_stall_deadline(None);
        pool.run(8, |_| {});
        assert!(pool.take_stall_events().is_empty());
    }

    #[test]
    fn row_executor_blocks_cover_rows_exactly_once() {
        use spectral::fft::RowExecutor;
        use spectral::Complex64;
        let pool = ThreadPool::new(3);
        for (nrows, row_len) in [(0usize, 4usize), (1, 4), (2, 4), (7, 3), (64, 1), (5, 16)] {
            let mut data = vec![Complex64::ZERO; nrows * row_len];
            pool.run_rows(&mut data, row_len, &|first, block| {
                assert_eq!(block.len() % row_len, 0, "partial row handed out");
                for (r, row) in block.chunks_exact_mut(row_len).enumerate() {
                    for z in row.iter_mut() {
                        // Stamp each element with its global row index + 1.
                        *z += Complex64::from_re((first + r + 1) as f64);
                    }
                }
            });
            for (i, z) in data.iter().enumerate() {
                let row = i / row_len;
                assert_eq!(
                    z.re,
                    (row + 1) as f64,
                    "nrows={nrows} row_len={row_len} i={i}"
                );
            }
        }
    }

    #[test]
    fn concurrent_callers_are_serialized() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..50 {
                        pool.run(4, |_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 50 * 4);
    }
}
