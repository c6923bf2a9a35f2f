//! The one particle loop of the library: a strip-mined streaming pass that
//! kicks, sums `Σ|v|²`, pushes and deposits each strip of particles while it
//! is in cache, so a particle crosses the memory bus once per step.
//!
//! The step engine ([`crate::engine`]) calls `strip_pass` once per species:
//! with a leap-frog kick over the electrostatic store, whose `vz` is empty,
//! or with the Boris kick and a `vz` column in the view. The pass deposits
//! only ρ, which is all the field solve reads; **J** is deposited on request,
//! from the end-of-step stores, by the engine.

use crate::fields::RedundantRho;
use crate::kernels::{self, deposit, simd, SoaViewMut};
use crate::particles::ParticlesSoA;
use crate::pool::{chunk_range, ThreadPool, MAX_THREADS};
use crate::sim::{AnyLayout, PhaseTimes};
use sfc::CellLayout;
use std::time::Instant;

/// Particles per strip of the streaming particle pass: a multiple of the
/// lane width, so strip edges fall on the lane-block edges of a whole-chunk
/// kernel call, and small enough (8192 × 44 B ≈ 360 KB) that a strip stays
/// in L2 from its kick to its deposit. Chosen by sweep (DESIGN.md §9), plain
/// step at 16 M particles / 2 threads: 114.8 ms as three whole-array
/// passes, then 71.3 / 67.8 / 66.1 / 67.4 / 93.7 ms at strip 512 / 2048 /
/// 8192 / 32768 / ∞; at 1 M / 1 thread every length is within noise of the
/// three-pass step (8.3–8.8 ms vs 8.4), 512 the slowest.
pub const STRIP: usize = 8192;
const _: () = assert!(STRIP.is_multiple_of(simd::LANES));

/// A kernel applied to one strip of particles.
pub(crate) type StripFn<'a> = dyn Fn(&mut SoaViewMut<'_>) + Sync + 'a;

/// The kernels one streaming pass runs on every strip, selected once per
/// step; dispatch is per strip, so it costs nothing per particle.
pub(crate) struct StripKernels<'a> {
    pub kick: &'a StripFn<'a>,
    /// The branchless push re-encodes cells in `layout`; `push_scale` takes
    /// stored velocities to cells per step.
    pub layout: &'a AnyLayout,
    pub push_scale: f64,
    pub deposit: deposit::DepositFn,
    /// Signed deposition weight.
    pub weight: f64,
    /// Stored in-plane velocity → physical factors for the in-pass `Σ|v|²`
    /// (`vz` is always stored physical).
    pub speed_scales: (f64, f64),
}

/// One worker's share of a streaming pass.
struct PassItem<'a> {
    view: SoaViewMut<'a>,
    /// Where this worker deposits ρ: its private arena (`own`), or the pass
    /// target itself when it is the only worker.
    rho: &'a mut RedundantRho,
    /// The deposit target is this worker's arena, which it clears; the
    /// pass target arrives cleared by the caller.
    own: bool,
    /// `Σ|v|²` over the view, taken after the kick.
    speed_sq: f64,
    /// Per-phase seconds as laps of `clock`: every lap starts where the
    /// previous one ended, so the three buckets add up to the worker's time
    /// in the pass.
    times: PhaseTimes,
    clock: Instant,
}

/// Close the current lap of `clock` into `bucket`.
fn lap(clock: &mut Instant, bucket: &mut f64) {
    let now = Instant::now();
    *bucket += (now - *clock).as_secs_f64();
    *clock = now;
}

/// `Σ|v|²` of one strip. A zero second scale makes the lane kernel sum the
/// single `vz` column; an empty `vz` adds `+0.0`, which changes no bit.
fn strip_speed_sq(vx: &[f64], vy: &[f64], vz: &[f64], (sx, sy): (f64, f64)) -> f64 {
    simd::sum_speed_sq_lanes(vx, vy, sx, sy) + simd::sum_speed_sq_lanes(vz, vz, 1.0, 0.0)
}

impl PassItem<'_> {
    /// Walk the view strip by strip: kick → `Σ|v|²` partial → push → ρ
    /// deposit of the pushed positions, so each particle moves between
    /// memory and cache once per step. The last strip and the `n mod LANES`
    /// remainder go through the kernels' own scalar tails.
    fn run(&mut self, k: &StripKernels<'_>) {
        // Work on locals and store once at the end: neighbouring items
        // share cache lines, and these are written several times a strip.
        let (mut clock, mut times, mut speed_sq) = (self.clock, self.times, self.speed_sq);
        if self.own {
            self.rho.clear();
        }
        lap(&mut clock, &mut times.accumulate);
        let n = self.view.len();
        let mut start = 0;
        while start < n {
            let end = (start + STRIP).min(n);
            let mut strip = self.view.range_mut(start, end);
            (k.kick)(&mut strip);
            speed_sq += strip_speed_sq(strip.vx, strip.vy, strip.vz, k.speed_scales);
            lap(&mut clock, &mut times.update_v);
            push_strip(&mut strip, k.layout, k.push_scale);
            lap(&mut clock, &mut times.update_x);
            let s = &strip;
            (k.deposit)(s.icell, s.dx, s.dy, &mut self.rho.rho4, k.weight);
            lap(&mut clock, &mut times.accumulate);
            start = end;
        }
        (self.clock, self.times, self.speed_sq) = (clock, times, speed_sq);
    }
}

/// `Σ|v|²` of a whole store (`vz` empty for a 2d2v one) in the shape
/// [`strip_pass`] sums it: one lane-blocked partial per strip, strips added
/// in order within each [`chunk_range`] chunk (over the pool when there is
/// one), chunks added in worker order — so on unchanged velocities it equals
/// the pass's return value bit for bit.
pub(crate) fn store_speed_sq(
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    scales: (f64, f64),
    pool: Option<&ThreadPool>,
) -> f64 {
    let nw = pool.map_or(1, ThreadPool::nthreads);
    let nz = vz.len();
    let mut partials = [0.0f64; MAX_THREADS];
    let chunk = |w: usize, out: &mut f64| {
        let (mut start, chunk_end) = chunk_range(vx.len(), nw, w);
        let mut sum = 0.0;
        while start < chunk_end {
            let end = (start + STRIP).min(chunk_end);
            let svz = &vz[start.min(nz)..end.min(nz)];
            sum += strip_speed_sq(&vx[start..end], &vy[start..end], svz, scales);
            start = end;
        }
        *out = sum;
    };
    match pool {
        Some(pool) => pool.run_items(&mut partials[..nw], chunk),
        None => chunk(0, &mut partials[0]),
    }
    partials[..nw].iter().sum()
}

/// Run `f` on every strip of a store (`vz` empty for a 2d2v one), each
/// worker of `pool` walking its [`chunk_range`] chunk — for per-particle
/// updates outside the step, whose result therefore does not depend on the
/// pool or its width.
pub(crate) fn for_each_strip(
    particles: &mut ParticlesSoA,
    vz: &mut [f64],
    pool: Option<&ThreadPool>,
    f: &StripFn<'_>,
) {
    let nw = pool.map_or(1, ThreadPool::nthreads);
    let mut views: [Option<SoaViewMut<'_>>; MAX_THREADS] = [const { None }; MAX_THREADS];
    let nv = kernels::split_soa_mut_into(particles, vz, nw, &mut views);
    let run = |_: usize, slot: &mut Option<SoaViewMut<'_>>| {
        let view = slot.as_mut().expect("view slot filled");
        let n = view.len();
        let mut start = 0;
        while start < n {
            let end = (start + STRIP).min(n);
            f(&mut view.range_mut(start, end));
            start = end;
        }
    };
    match pool {
        Some(pool) => pool.run_items(&mut views[..nv], run),
        None => run(0, &mut views[0]),
    }
}

/// The particle loops of one step, for one particle store, as a single
/// fan-out: worker `w` walks its [`chunk_range`] chunk in strips
/// ([`PassItem::run`]) and deposits into its own arena; the leader then
/// *adds* the arenas, in worker order, into `rho.0`, which the caller
/// cleared — so one pass per species accumulates a multi-species ρ with the
/// association of one pooled deposit per species, and the result is
/// deterministic for a given pool width. Without a pool (or with one worker)
/// the same strip loop runs on the whole store, straight into the targets.
/// Returns `Σ|v|²`, per-worker partials added in worker order.
///
/// `rho` is `(target, per-worker arenas)`. The leader's laps go to
/// `timers`; its wait at the join and the arena merge count as accumulate,
/// like the deposit fan-out they replace.
pub(crate) fn strip_pass(
    particles: &mut ParticlesSoA,
    vz: &mut [f64],
    pool: Option<&ThreadPool>,
    rho: (&mut RedundantRho, &mut [RedundantRho]),
    kernels: &StripKernels<'_>,
    timers: &mut PhaseTimes,
) -> f64 {
    let clock = Instant::now();
    let nw = pool.map_or(1, ThreadPool::nthreads);
    let own = nw > 1;
    let mut views: [Option<SoaViewMut<'_>>; MAX_THREADS] = [const { None }; MAX_THREADS];
    kernels::split_soa_mut_into(particles, vz, nw, &mut views);
    let (rho4, rho_arenas) = rho;
    let rho_targets = if own {
        &mut rho_arenas[..nw]
    } else {
        std::slice::from_mut(&mut *rho4)
    };
    // Fewer particles than workers leaves the last views empty; those
    // workers still clear their arenas.
    let mut work: [Option<PassItem<'_>>; MAX_THREADS] = [const { None }; MAX_THREADS];
    for ((slot, view), rho) in work.iter_mut().zip(&mut views).zip(rho_targets) {
        *slot = Some(PassItem {
            view: view.take().unwrap_or_default(),
            rho,
            own,
            speed_sq: 0.0,
            times: PhaseTimes::default(),
            clock,
        });
    }
    let run = |_: usize, slot: &mut Option<PassItem<'_>>| {
        slot.as_mut().expect("work slot filled").run(kernels);
    };
    match pool {
        Some(pool) => pool.run_items(&mut work[..nw], run),
        None => run(0, &mut work[0]),
    }

    let speed_sq = work[..nw].iter().flatten().map(|item| item.speed_sq).sum();
    let leader = work[0].as_ref().expect("work slot filled");
    let (mut times, mut clock) = (leader.times, leader.clock);
    if own {
        for arena in &rho_arenas[..nw] {
            rho4.add_assign(arena);
        }
    }
    lap(&mut clock, &mut times.accumulate);
    timers.update_v += times.update_v;
    timers.update_x += times.update_x;
    timers.accumulate += times.accumulate;
    speed_sq
}

/// The branchless push of one strip: the arithmetic row-major form, the
/// layout's own `encode` otherwise.
fn push_strip(v: &mut SoaViewMut<'_>, layout: &AnyLayout, scale: f64) {
    fn in_layout<L: CellLayout>(v: &mut SoaViewMut<'_>, layout: &L, scale: f64) {
        simd::update_positions_branchless_layout_lanes(
            v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, layout, scale,
        )
    }
    match layout {
        AnyLayout::RowMajor(l) => {
            let (ncx, ncy) = (l.ncx(), l.ncy());
            simd::update_positions_branchless_lanes(
                v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, ncx, ncy, scale,
            )
        }
        AnyLayout::L4D(l) => in_layout(v, l, scale),
        AnyLayout::Morton(l) => in_layout(v, l, scale),
        AnyLayout::Hilbert(l) => in_layout(v, l, scale),
    }
}
