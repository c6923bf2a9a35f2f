//! Steady-state allocation audit: after warm-up, `Simulation::step` and
//! `EmSimulation::step` must perform ZERO heap allocations — including
//! steps that sort and steps on the pooled multi-threaded path. This pins
//! down the point of the persistent pool / arena work: per-worker ρ (and
//! **J**) arenas, the sort arenas, the spectral solve scratch, and the
//! stack-array fork-join views mean the hot loop never touches the
//! allocator once the first sort period has populated every scratch buffer.
//! Construction grows the sort arena itself (the stores are born sorted,
//! so it sorts nothing), and the first sort period after it — the first
//! in-run sort included — allocates nothing either.
//!
//! Mechanism: a counting `#[global_allocator]` that forwards to the system
//! allocator and, while the `TRACK` flag is up, counts every allocation
//! from any thread. The single test body serializes its phases so nothing
//! else in the process can allocate while tracking is on.

use pic_core::em::{EmConfig, EmSimulation};
use pic_core::sim::{PicConfig, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static TRACK: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACK.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing Vec shows up here, not in `alloc` — count it too.
        if TRACK.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SORT_PERIOD: usize = 5;

/// Warm a freshly built simulation past its first sort period, then count
/// allocator calls over two further sort periods.
fn steady_state_allocs<S>(sim: &mut S, reserve: fn(&mut S, usize), run: fn(&mut S, usize)) -> u64 {
    // Warm-up: at least one sort (fills the sort arena, per-worker deposit
    // arenas, and the spectral scratch), plus history capacity for
    // everything still to come.
    let measured = 2 * SORT_PERIOD;
    reserve(sim, measured + 16);
    run(sim, SORT_PERIOD + 2);

    ALLOC_CALLS.store(0, Ordering::SeqCst);
    TRACK.store(true, Ordering::SeqCst);
    run(sim, measured);
    TRACK.store(false, Ordering::SeqCst);
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// Count allocator calls over the first `SORT_PERIOD + 1` steps of a
/// freshly built simulation, which include its first sort.
fn first_sort_period_allocs<S>(
    sim: &mut S,
    reserve: fn(&mut S, usize),
    run: fn(&mut S, usize),
) -> u64 {
    reserve(sim, SORT_PERIOD + 16);
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    TRACK.store(true, Ordering::SeqCst);
    run(sim, SORT_PERIOD + 1);
    TRACK.store(false, Ordering::SeqCst);
    ALLOC_CALLS.load(Ordering::SeqCst)
}

#[test]
fn step_is_allocation_free_after_warmup() {
    // One test body: phases must not interleave with other allocating
    // tests, and a single #[test] in this binary guarantees that.
    for threads in [1, 2] {
        let mut cfg = PicConfig::landau_table1(20_000);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg.threads = threads;
        cfg.sort_period = SORT_PERIOD;
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        let n =
            first_sort_period_allocs(&mut sim, Simulation::reserve_diagnostics, Simulation::run);
        assert_eq!(
            n, 0,
            "first sort period allocated {n} times (threads={threads})"
        );
        let mut sim = Simulation::new(cfg).unwrap();
        let n = steady_state_allocs(&mut sim, Simulation::reserve_diagnostics, Simulation::run);
        assert_eq!(
            n, 0,
            "steady-state step allocated {n} times (threads={threads})"
        );

        // Two species, both longer than one strip of the streaming pass.
        let mut cfg = EmConfig::magnetized_two_stream(40_000);
        cfg.threads = threads;
        cfg.sort_period = SORT_PERIOD;
        let mut em = EmSimulation::new(cfg.clone()).unwrap();
        let n = first_sort_period_allocs(
            &mut em,
            EmSimulation::reserve_diagnostics,
            EmSimulation::run,
        );
        assert_eq!(
            n, 0,
            "first EM sort period allocated {n} times (threads={threads})"
        );
        let mut em = EmSimulation::new(cfg).unwrap();
        let n = steady_state_allocs(
            &mut em,
            EmSimulation::reserve_diagnostics,
            EmSimulation::run,
        );
        assert_eq!(
            n, 0,
            "steady-state EM step allocated {n} times (threads={threads})"
        );
    }
}
