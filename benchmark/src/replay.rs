//! The replay stage of a traced run: each layer's public entry point timed
//! on the workload's own end-of-run state, from outside the library.
//!
//! The state is taken from the finished simulation, not copied, so replaying
//! a 16 M-particle run needs no second set of particle arrays. Every layer
//! runs at the workload's thread count and in the library's own fan-out
//! shape (pool stripes for kick/push, per-worker arenas for the deposits),
//! so a layer time is comparable with the step time it is a share of.

use crate::host::Calibration;
use crate::stats::median;
use crate::workloads::Layers;
use pic_core::control;
use pic_core::fields::{Field2D, RedundantE, RedundantJ, RedundantRho};
use pic_core::grid::Grid2D;
use pic_core::kernels::boris::{select_boris, BorisCoeffs};
use pic_core::kernels::current::{pool_deposit_current, select_current_kernel};
use pic_core::kernels::deposit::{select_kernel, DepositPath};
use pic_core::kernels::{accumulate, simd};
use pic_core::particles::ParticlesSoA;
use pic_core::pool::ThreadPool;
use pic_core::sim::KernelPath;
use pic_core::sort::{self, SortArena};
use pic_core::species::split_species_mut;
use pic_core::trace::{bytes_per_particle, trace_accumulate, trace_update_velocities, MemoryMap};
use sfc::{CellLayout, Morton};
use spectral::fft::Fft2Plan;
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use spectral::Complex64;
use std::hint::black_box;
use std::time::Instant;

/// Calls per layer; the reported value is their median.
pub const CALLS: usize = 15;
/// Above this many particles the particle-side replays (kernels, sort,
/// checkpoint) make fewer calls, to keep a traced invocation under half a
/// minute: a pass over 16 M particles is its own average.
pub const LARGE_N: usize = 2_000_000;
/// Calls per particle kernel above [`LARGE_N`].
const CALLS_LARGE: usize = 3;
/// The cache simulation replays at most this many particles (a prefix of
/// the end state): exact, repeatable counts in about a second.
pub const CACHESIM_MAX: usize = 1_000_000;

/// Median seconds of `calls` runs of `f`.
pub fn time_median(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Which velocity and deposit kernels a step of the workload's driver runs;
/// the others are not on its path and read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mover {
    /// `Simulation`: the hoisted electric kick, ρ deposit.
    Kick,
    /// `EmSimulation`: the Boris rotation, ρ and **J** deposits.
    Boris,
}

/// The end-of-run state of one workload, owned by the replay.
pub struct State {
    pub particles: ParticlesSoA,
    /// Out-of-plane velocities (zeros, never written, for a 2d2v workload).
    pub vz: Vec<f64>,
    pub grid: Grid2D,
    pub field: Field2D,
    pub mover: Mover,
    /// `(scale_x, scale_y)` the redundant E view is filled with.
    pub e_scale: (f64, f64),
    /// Position-push scale: 1 for hoisted velocities, `Δt/Δx` otherwise.
    pub push_scale: f64,
    pub dt: f64,
    pub threads: usize,
    /// Steps between sorts in the run that produced the state.
    pub sort_period: usize,
}

/// Layer medians the caller needs for the attribution sum, in ms per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerMs {
    pub kick: f64,
    pub push: f64,
    pub deposit: f64,
    pub boris: f64,
    pub current: f64,
    pub sort: f64,
    pub rho_reduce: f64,
    pub j_reduce: f64,
    pub e_fill: f64,
    pub solve: f64,
    pub probe: f64,
}

struct Replay {
    s: State,
    layout: Morton,
    pool: Option<ThreadPool>,
    e8: RedundantE,
    rho4: RedundantRho,
    rho_arenas: Vec<RedundantRho>,
    j12: RedundantJ,
    j_arenas: Vec<RedundantJ>,
}

impl Replay {
    fn new(s: State) -> Self {
        let layout = Morton::new(s.grid.ncx, s.grid.ncy).expect("power-of-two grid");
        let pool = (s.threads > 1).then(|| ThreadPool::new(s.threads));
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&s.field, &layout, s.e_scale.0, s.e_scale.1);
        let nw = pool.as_ref().map_or(0, |p| p.nthreads());
        Self {
            rho4: RedundantRho::new(&layout),
            rho_arenas: (0..nw).map(|_| RedundantRho::new(&layout)).collect(),
            j12: RedundantJ::new(&layout),
            j_arenas: (0..nw).map(|_| RedundantJ::new(&layout)).collect(),
            e8,
            layout,
            pool,
            s,
        }
    }

    fn kick(&mut self) {
        let e8 = &self.e8.e8;
        let one = |icell: &[u32], dx: &[f64], dy: &[f64], vx: &mut [f64], vy: &mut [f64]| {
            simd::update_velocities_redundant_hoisted_lanes(icell, dx, dy, vx, vy, e8)
        };
        let p = &mut self.s.particles;
        match &self.pool {
            Some(pool) => {
                let mut views = split_species_mut(p, &mut self.s.vz, pool.nthreads());
                pool.run_items(&mut views, |_, v| one(v.icell, v.dx, v.dy, v.vx, v.vy));
            }
            None => one(&p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy),
        }
    }

    fn boris(&mut self, c: &BorisCoeffs) {
        let kernel = select_boris(KernelPath::Lanes);
        let e8 = &self.e8.e8;
        let p = &mut self.s.particles;
        match &self.pool {
            Some(pool) => {
                let mut views = split_species_mut(p, &mut self.s.vz, pool.nthreads());
                pool.run_items(&mut views, |_, v| {
                    kernel(v.icell, v.dx, v.dy, v.vx, v.vy, v.vz, e8, c);
                });
            }
            None => kernel(
                &p.icell,
                &p.dx,
                &p.dy,
                &mut p.vx,
                &mut p.vy,
                &mut self.s.vz,
                e8,
                c,
            ),
        }
    }

    fn push(&mut self) {
        let (l, scale) = (&self.layout, self.s.push_scale);
        let p = &mut self.s.particles;
        match &self.pool {
            Some(pool) => {
                let mut views = split_species_mut(p, &mut self.s.vz, pool.nthreads());
                pool.run_items(&mut views, |_, v| {
                    simd::update_positions_branchless_layout_lanes(
                        v.icell, v.ix, v.iy, v.dx, v.dy, v.vx, v.vy, l, scale,
                    );
                });
            }
            None => simd::update_positions_branchless_layout_lanes(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &p.vx,
                &p.vy,
                l,
                scale,
            ),
        }
    }

    fn deposit(&mut self) {
        let p = &self.s.particles;
        self.rho4.clear();
        match &self.pool {
            Some(pool) => accumulate::pool_accumulate_redundant(
                pool,
                &p.icell,
                &p.dx,
                &p.dy,
                &mut self.rho4,
                &mut self.rho_arenas,
                -1.0,
                DepositPath::LaneReduce,
                KernelPath::Lanes,
            ),
            None => select_kernel(DepositPath::LaneReduce, KernelPath::Lanes)(
                &p.icell,
                &p.dx,
                &p.dy,
                &mut self.rho4.rho4,
                -1.0,
            ),
        }
    }

    fn current(&mut self) {
        let p = &self.s.particles;
        self.j12.clear();
        match &self.pool {
            Some(pool) => pool_deposit_current(
                pool,
                &p.icell,
                &p.dx,
                &p.dy,
                &p.vx,
                &p.vy,
                &self.s.vz,
                &mut self.j12,
                &mut self.j_arenas,
                -1.0,
                DepositPath::LaneReduce,
                KernelPath::Lanes,
            ),
            None => select_current_kernel(DepositPath::LaneReduce, KernelPath::Lanes)(
                &p.icell,
                &p.dx,
                &p.dy,
                &p.vx,
                &p.vy,
                &self.s.vz,
                &mut self.j12.j12,
                -1.0,
            ),
        }
    }
}

/// Time every particle- and grid-side layer on `state` and record the
/// `core.kernels.*_ns_pp`/`*_bw_frac`, `core.sort.sort_ns_pp`, `core.fields.*`, `spectral.*`,
/// `core.pool.forkjoin_us`, `core.control.probe_us`, `sfc.*` and
/// `cachesim.*` metrics. Returns the per-call medians for the caller's
/// attribution sum.
pub fn run(state: State, calib: &Calibration, out: &mut Layers) -> LayerMs {
    let n = state.particles.len();
    let nf = n as f64;
    let threads = state.threads;
    let period = state.sort_period.clamp(4, 64);
    let ncells_grid = state.grid.ncells();
    let mut r = Replay::new(state);
    let mut ms = LayerMs::default();
    let kernel_calls = if n > LARGE_N { CALLS_LARGE } else { CALLS };

    // Read-mostly kernels first, on the end state as the run left it.
    let t_phase = Instant::now();
    let deposit_s = time_median(kernel_calls, || r.deposit());
    let (mut kick_s, mut boris_s, mut current_s) = (0.0, 0.0, 0.0);
    match r.s.mover {
        Mover::Kick => kick_s = time_median(kernel_calls, || r.kick()),
        Mover::Boris => {
            let c = BorisCoeffs::new(-1.0, 1.0, r.s.dt, [0.0, 0.0, 0.02]);
            boris_s = time_median(kernel_calls, || r.boris(&c));
            current_s = time_median(kernel_calls, || r.current());
        }
    }
    ms.kick = kick_s * 1e3;
    ms.deposit = deposit_s * 1e3;
    ms.boris = boris_s * 1e3;
    ms.current = current_s * 1e3;
    out.set("core.kernels.kick_ns_pp", kick_s * 1e9 / nf);
    out.set("core.kernels.deposit_ns_pp", deposit_s * 1e9 / nf);
    out.set("core.kernels.boris_ns_pp", boris_s * 1e9 / nf);
    out.set("core.kernels.current_ns_pp", current_s * 1e9 / nf);

    // The controller's per-step disorder probe, at its default stride.
    let icell = &r.s.particles.icell;
    let stride = control::ControllerConfig::default().stride;
    let probe_s = time_median(CALLS, || {
        black_box(control::measure_disorder(icell, stride, ncells_grid));
    });
    ms.probe = probe_s * 1e3;
    out.set("core.control.probe_us", probe_s * 1e6);

    out.note("replay_kernels_s", t_phase.elapsed().as_secs_f64().into());

    // Cache simulation (paper Table II): exact miss counts of the kick and
    // deposit address streams over a prefix of the end state.
    let t_phase = Instant::now();
    {
        let m = n.min(CACHESIM_MAX);
        let p = &r.s.particles;
        // The address streams depend on `icell` alone.
        let prefix = ParticlesSoA {
            icell: p.icell[..m].to_vec(),
            ..ParticlesSoA::default()
        };
        let map = MemoryMap::contiguous(0, m, r.layout.ncells());
        let mut h = cachesim::Hierarchy::new(cachesim::HierarchyConfig::haswell());
        trace_update_velocities(&prefix, &map, &mut h);
        trace_accumulate(&prefix, &map, &mut h);
        let st = h.stats();
        out.set(
            "cachesim.l1_miss_pp",
            st.level(0).misses() as f64 / m as f64,
        );
        out.set(
            "cachesim.l2_miss_pp",
            st.level(1).misses() as f64 / m as f64,
        );
        out.set(
            "cachesim.l3_miss_pp",
            st.level(2).misses() as f64 / m as f64,
        );
        out.note("cachesim_particles", m.into());
    }
    out.note("replay_cachesim_s", t_phase.elapsed().as_secs_f64().into());

    // Push moves the particles: after it, the state is that many steps
    // further from its last sort — about where a run is when it sorts.
    let push_s = time_median(kernel_calls, || r.push());
    ms.push = push_s * 1e3;
    out.set("core.kernels.push_ns_pp", push_s * 1e9 / nf);

    // Computed bytes (each byte counted once, no cache-line effects)
    // against the triad of matching residency.
    let (bv, bx, ba) = bytes_per_particle();
    out.set("core.kernels.bytes_pp", (bv + bx + ba) as f64);
    let tri = calib.matching(44 * n, threads);
    out.note("bw_denominator_gbps", tri.gbps.into());
    let frac = |bytes: u64, secs: f64| bytes as f64 * nf / secs / 1e9 / tri.gbps;
    if kick_s > 0.0 {
        out.set("core.kernels.kick_bw_frac", frac(bv, kick_s));
    }
    out.set("core.kernels.push_bw_frac", frac(bx, push_s));
    out.set("core.kernels.deposit_bw_frac", frac(ba, deposit_s));

    // Sort: every sample sorts a population that drifted `period` pushes
    // since the previous sort, as in the run.
    let t_phase = Instant::now();
    {
        let calls = if n > LARGE_N { 1 } else { CALLS };
        let ncells = r.layout.ncells();
        let mut scratch = ParticlesSoA::zeroed(n);
        let mut arena = SortArena::new();
        let mut t = Vec::with_capacity(calls);
        for call in 0..calls {
            let t0 = Instant::now();
            match &r.pool {
                Some(pool) => sort::pool_sort_out_of_place(
                    &mut r.s.particles,
                    &mut scratch,
                    ncells,
                    pool,
                    &mut arena,
                ),
                None => sort::sort_out_of_place_with(
                    &mut r.s.particles,
                    &mut scratch,
                    ncells,
                    &mut arena,
                ),
            }
            t.push(t0.elapsed().as_secs_f64());
            if call + 1 < calls {
                for _ in 0..period {
                    r.push();
                }
            }
        }
        let sort_s = median(&t);
        ms.sort = sort_s * 1e3;
        out.set("core.sort.sort_ns_pp", sort_s * 1e9 / nf);
        out.note("sort_replay_calls", calls.into());
        out.note("kernel_replay_calls", kernel_calls.into());
    }
    out.note("replay_sort_s", t_phase.elapsed().as_secs_f64().into());

    // Grid side: ρ₄→ρ reduction, E₈ refill, per-worker ρ₄ merge.
    r.deposit();
    let mut rho = vec![0.0; ncells_grid];
    let rho_reduce_s = time_median(CALLS, || r.rho4.reduce_to_grid(&r.layout, &mut rho));
    let j_reduce_s = if r.s.mover == Mover::Boris {
        r.current();
        let (mut jx, mut jy, mut jz) = (rho.clone(), rho.clone(), rho.clone());
        time_median(CALLS, || {
            r.j12.reduce_to_grid(&r.layout, &mut jx, &mut jy, &mut jz)
        })
    } else {
        0.0
    };
    let (sx, sy) = r.s.e_scale;
    let e_fill_s = time_median(CALLS, || r.e8.fill_from(&r.s.field, &r.layout, sx, sy));
    // The pooled deposit merges every worker's arena into the output.
    let merge_s = if r.rho_arenas.is_empty() {
        0.0
    } else {
        time_median(CALLS, || {
            for a in &r.rho_arenas {
                r.rho4.add_assign(a);
            }
        })
    };
    ms.rho_reduce = rho_reduce_s * 1e3;
    ms.j_reduce = j_reduce_s * 1e3;
    ms.e_fill = e_fill_s * 1e3;
    out.set("core.fields.rho_reduce_ms", ms.rho_reduce);
    out.set("core.fields.e_fill_ms", ms.e_fill);
    out.set("core.fields.worker_rho_reduce_ms", merge_s * 1e3);
    out.note("j_reduce_ms", ms.j_reduce.into());

    // Spectral: the solve serial and on a 2-wide pool, and a bare 2-D FFT
    // round trip, at the workload's grid.
    let g = &r.s.grid;
    let solver = PoissonSolver2D::new(g.ncx, g.ncy, g.lx, g.ly).expect("grid already validated");
    let mut scratch = SolveScratch::new();
    let (mut ex, mut ey) = (vec![0.0; ncells_grid], vec![0.0; ncells_grid]);
    let rho_in = &r.s.field.rho;
    solver.solve_e_with(rho_in, &mut ex, &mut ey, &mut scratch);
    let solve_s = time_median(CALLS, || {
        solver.solve_e_with(rho_in, &mut ex, &mut ey, &mut scratch)
    });
    let pool2 = ThreadPool::new(2);
    solver.solve_e_pooled(rho_in, &mut ex, &mut ey, &mut scratch, &pool2);
    let pooled_s = time_median(CALLS, || {
        solver.solve_e_pooled(rho_in, &mut ex, &mut ey, &mut scratch, &pool2)
    });
    let plan = Fft2Plan::new(g.ncx, g.ncy).expect("grid already validated");
    let mut data: Vec<Complex64> = rho_in.iter().map(|&x| Complex64::from_re(x)).collect();
    let fft_s = time_median(CALLS, || {
        plan.forward(&mut data);
        plan.inverse(&mut data);
    });
    black_box(&data);
    ms.solve = if threads > 1 { pooled_s } else { solve_s } * 1e3;
    out.set("spectral.solve_ms", solve_s * 1e3);
    out.set("spectral.solve_pooled_ms", pooled_s * 1e3);
    out.set("spectral.pooled_speedup", solve_s / pooled_s);
    out.set("spectral.fft2_roundtrip_ms", fft_s * 1e3);

    // Pool: one empty fork-join on the 2-wide pool.
    let mut fj = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        pool2.run(2, |i| {
            black_box(i);
        });
        fj.push(t0.elapsed().as_secs_f64());
    }
    out.set("core.pool.forkjoin_us", median(&fj) * 1e6);

    // sfc: Morton encode of every cell of the grid.
    let (ncx, ncy) = (g.ncx, g.ncy);
    let layout = r.layout;
    let enc_s = time_median(CALLS, || {
        let mut acc = 0usize;
        for ix in 0..ncx {
            for iy in 0..ncy {
                acc = acc.wrapping_add(layout.encode(black_box(ix), iy));
            }
        }
        black_box(acc);
    });
    out.set("sfc.encode_ns_per_cell", enc_s * 1e9 / (ncx * ncy) as f64);

    ms
}
