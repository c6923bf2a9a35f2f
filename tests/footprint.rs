//! Resident-footprint gate: the peak live heap of a run, per particle.
//!
//! A particle of the 2d2v store is 44 bytes (`icell ix iy` as `u32`,
//! `dx dy vx vy` as `f64`), 52 with the 2d3v `vz`. The out-of-place sort
//! moves the store one column at a time, so besides it the sort owns a
//! `u32` permutation and one spare `f64` column — 12 bytes per particle,
//! where a second particle store would cost 44 (52). Each driver is built
//! on a small grid and stepped through two sort periods; the peak of its
//! live heap, less what was live before, is divided by its particle count.
//! The grid-sized buffers (fields, redundant copies, per-worker arenas,
//! per-cell sort buffers) add well under one byte per particle here. Last,
//! one checkpoint of the 2d3v run may peak at no more than its snapshot's
//! length (plus 5 %): it serializes from the live state, not from a clone.
//!
//! Mechanism: a counting `#[global_allocator]` that forwards to the system
//! allocator and keeps the live and peak byte counts. Live bytes are a
//! deterministic function of the program, so the bounds are exact gates,
//! not timings. The single test body keeps other tests from allocating
//! while a driver is measured.

use pic_core::em::{EmConfig, EmSimulation};
use pic_core::sim::{PicConfig, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the new block before releasing the old: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SORT_PERIOD: usize = 4;
const GRID: usize = 32;

/// Peak live bytes per particle while `run` builds a driver and steps it
/// through two sort periods.
fn peak_per_particle(nparticles: usize, run: impl FnOnce()) -> f64 {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    run();
    (PEAK.load(Ordering::SeqCst) - before) as f64 / nparticles as f64
}

#[test]
fn peak_heap_per_particle_is_the_store_plus_one_column_and_a_permutation() {
    // 2d2v: 44 B of store + 12 B of sort = 56 B (a second store: 88 B).
    const BOUND_2D2V: f64 = 60.0;
    // 2d3v: at most 52 + 12 = 64 B (a second store: 104 B); less with
    // species of different sizes, whose one sort arena is sized by the
    // largest.
    const BOUND_2D3V: f64 = 66.0;
    let mut readings = Vec::new();

    for threads in [1, 2] {
        let n = 300_000;
        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = GRID;
        cfg.grid_ny = GRID;
        cfg.threads = threads;
        cfg.sort_period = SORT_PERIOD;
        let b = peak_per_particle(n, || {
            let mut sim = Simulation::new(cfg).expect("valid config");
            sim.run(2 * SORT_PERIOD);
            assert_eq!(sim.particles().len(), n);
        });
        readings.push(format!("Simulation threads={threads}: {b:.2} B/particle"));
        assert!(
            b <= BOUND_2D2V,
            "Simulation (threads={threads}) peaked at {b:.2} B/particle > {BOUND_2D2V}"
        );
    }

    // Two species of different sizes (240 k electrons, 60 k ions) sharing
    // one sort arena.
    let mut cfg = EmConfig::magnetized_two_stream(240_000);
    cfg.grid_nx = GRID;
    cfg.grid_ny = GRID;
    cfg.sort_period = SORT_PERIOD;
    let n = cfg.total_particles();
    let b = peak_per_particle(n, || {
        let mut em = EmSimulation::new(cfg.clone()).expect("valid config");
        em.run(2 * SORT_PERIOD);
        assert_eq!(em.species().iter().map(|s| s.len()).sum::<usize>(), n);
    });
    readings.push(format!("EmSimulation: {b:.2} B/particle"));
    assert!(
        b <= BOUND_2D3V,
        "EmSimulation peaked at {b:.2} B/particle > {BOUND_2D3V}"
    );

    // A checkpoint serializes straight from the live stores: besides the
    // snapshot it returns, it holds no copy of the state.
    const BOUND_CHECKPOINT: f64 = 1.05;
    let mut em = EmSimulation::new(cfg).expect("valid config");
    em.run(SORT_PERIOD + 1);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let snapshot = em.checkpoint();
    let ratio = (PEAK.load(Ordering::SeqCst) - before) as f64 / snapshot.len() as f64;
    readings.push(format!(
        "EmSimulation::checkpoint: peak {ratio:.3} x the {} B snapshot",
        snapshot.len()
    ));
    assert!(
        ratio <= BOUND_CHECKPOINT,
        "EmSimulation::checkpoint peaked at {ratio:.3} x its snapshot > {BOUND_CHECKPOINT}"
    );
    println!("{}", readings.join("\n"));
}
