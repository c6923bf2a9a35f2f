//! The one step engine behind both drivers.
//!
//! [`Pic`] runs the leap-frog loop of the paper's Fig. 1 over a table of
//! per-species particle stores ([`SpeciesArena`], the per-species container
//! of SoAx, arXiv:1710.03462): periodic sort, one streaming pass per
//! species (`pass::strip_pass`) into one shared redundant ρ₄, its grid
//! reduction, the field solve and one diagnostics sample — with per-phase
//! timers ([`PhaseTimes`]) and the sort-cadence controller
//! ([`crate::control`]) on every run. No step reads **J**: a kind that has
//! one deposits it from the end-of-step stores on the first read.
//!
//! The configuration type picks the physics:
//! - [`crate::sim::Simulation`] is `Pic<PicConfig>`: one electron store
//!   whose `vz` column is empty, a leap-frog electric kick (hoisted or not,
//!   §IV-D), no **J** — the paper's 2d2v electrostatic code;
//! - [`crate::em::EmSimulation`] is `Pic<EmConfig>`: any number of 2d3v
//!   species under a Boris push against a static **B**, with **J** on
//!   request.
//!
//! Everything both run is written here once. Each config answers the five
//! questions of the crate-private `Kind` trait:
//! 1. are its own fields valid;
//! 2. which species does it load, and which part of each population does
//!    this rank own (`keep_range`/`keep_cells`, or `replica`);
//! 3. how is each species kicked, pushed and summed (a `Mover`), and how is
//!    the redundant field pre-scaled;
//! 4. does it have a **J**, and is E solved;
//! 5. which snapshot format and fingerprint does it write (`PIC2DCKP` or
//!    `PIC2DEMS`).
//!
//! The methods only one kind has (`particles`, `field_mut`,
//! `set_keep_cells`, … for the electrostatic store; `species`, `j_field`,
//! `moments`, … for the species table) live with each config, in
//! [`crate::sim`] and [`crate::em`].

use crate::control::{self, HotPathController, SwitchEvent};
use crate::fields::{Field2D, RedundantE, RedundantJ, RedundantRho};
use crate::grid::Grid2D;
use crate::kernels::boris::boris_push_lanes;
use crate::kernels::{accumulate, current, deposit, simd, SoaViewMut};
use crate::pass::{for_each_strip, store_speed_sq, strip_pass, StripKernels};
use crate::pool::ThreadPool;
use crate::resilience::checkpoint::{self as ckpt, EmState, StateView};
use crate::sim::{AnyLayout, DiagSample, Diagnostics, KernelPath, PhaseTimes};
use crate::sort::{is_sorted_by_cell, SortArena, MAX_PARTICLES};
use crate::species::{SpeciesArena, SpeciesDef};
use crate::PicError;
use kind::{Kick, Kind, Mover};
use sfc::CellLayout;
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What each configuration supplies to the engine. The module is
/// crate-private, so its `pub` items name nothing outside the crate: callers
/// see only the two driver aliases.
pub(crate) mod kind {
    use crate::control::ControllerConfig;
    use crate::grid::Grid2D;
    use crate::kernels::boris::BorisCoeffs;
    use crate::kernels::deposit::DepositPath;
    use crate::pool::ThreadPool;
    use crate::resilience::checkpoint::{EmState, StateView};
    use crate::species::{SpeciesArena, SpeciesDef};
    use crate::PicError;
    use sfc::{CellLayout, Ordering};

    /// The settings both configs carry under the same names.
    #[derive(Debug, Clone, Copy)]
    pub struct Settings {
        pub grid_nx: usize,
        pub grid_ny: usize,
        pub lx: f64,
        pub ly: f64,
        pub dt: f64,
        pub ordering: Ordering,
        pub threads: usize,
        pub deposit_path: DepositPath,
        pub sort_period: usize,
    }

    /// The settings a run may change after construction.
    pub struct SettingsMut<'a> {
        pub deposit_path: &'a mut DepositPath,
        pub sort_period: &'a mut usize,
        pub controller: &'a mut Option<ControllerConfig>,
    }

    /// How one species' velocities are kicked, pushed and summed.
    #[derive(Debug, Clone, Copy)]
    pub struct Mover {
        pub kick: Kick,
        /// Stored velocity → cells per step, for the branchless push.
        pub push_scale: f64,
        /// Stored in-plane velocity → physical, for `Σ|v|²` (`vz` is
        /// always stored physical).
        pub speed_scales: (f64, f64),
    }

    /// The kick of a step.
    #[derive(Debug, Clone, Copy)]
    pub enum Kick {
        /// §IV-D: velocities stored in cells per step, kicked by a field
        /// view pre-scaled by `field_scales` (the kick coefficients), so a
        /// kind that hoists has one species. `to_stored` converts the
        /// sampled physical velocities once, after the half-kick back.
        Hoisted {
            field_scales: (f64, f64),
            to_stored: (f64, f64),
        },
        /// Physical velocities kicked by `coeff·E`.
        Electric { coeff: f64 },
        /// The Boris push against the static **B**.
        Boris(BorisCoeffs),
    }

    /// The five questions (module docs of [`crate::engine`]) plus access to
    /// the shared settings ([`shared_settings!`](crate::engine::shared_settings)).
    pub trait Kind {
        /// The shared settings, by value.
        fn settings(&self) -> Settings;
        /// The shared settings a run may change.
        fn settings_mut(&mut self) -> SettingsMut<'_>;
        /// 1. Validate the fields only this kind has.
        fn validate(&self) -> Result<(), PicError> {
            Ok(())
        }
        /// 2. The species table, in loading order.
        fn species_table(&self) -> Vec<SpeciesDef>;
        /// 2. Load this rank's part of species `index`.
        fn load(
            &self,
            index: usize,
            def: SpeciesDef,
            grid: &Grid2D,
            layout: &dyn CellLayout,
            pool: Option<&ThreadPool>,
        ) -> Result<SpeciesArena, PicError>;
        /// 3. How species `def` is kicked, pushed and summed.
        fn mover(&self, def: &SpeciesDef, grid: &Grid2D) -> Mover;
        /// 4. Whether the kind has a **J** (deposited on request).
        const DEPOSITS_J: bool;
        /// 4. Whether each step solves E (else E stays as initialized).
        fn solves_e(&self) -> bool;
        /// 5. The snapshot fingerprint of this configuration.
        fn fingerprint(&self) -> u64;
        /// 5. Encode a borrowed state in this kind's wire format.
        fn encode(view: &StateView<'_>) -> Vec<u8>;
        /// 5. Decode a snapshot of this kind's wire format.
        fn decode(snapshot: &[u8]) -> Result<EmState, PicError>;
    }
}

/// `Kind::settings` and `Kind::settings_mut` for a config that carries the
/// shared settings as fields of the same names.
macro_rules! shared_settings {
    () => {
        fn settings(&self) -> Settings {
            Settings {
                grid_nx: self.grid_nx,
                grid_ny: self.grid_ny,
                lx: self.lx,
                ly: self.ly,
                dt: self.dt,
                ordering: self.ordering,
                threads: self.threads,
                deposit_path: self.deposit_path,
                sort_period: self.sort_period,
            }
        }

        fn settings_mut(&mut self) -> SettingsMut<'_> {
            SettingsMut {
                deposit_path: &mut self.deposit_path,
                sort_period: &mut self.sort_period,
                controller: &mut self.controller,
            }
        }
    };
}
pub(crate) use shared_settings;

/// A running particle-in-cell simulation over per-species stores (module
/// docs). Name it through [`crate::sim::Simulation`] or
/// [`crate::em::EmSimulation`].
pub struct Pic<C> {
    pub(crate) cfg: C,
    pub(crate) grid: Grid2D,
    pub(crate) layout: AnyLayout,
    solver: PoissonSolver2D,
    /// The particle stores, in species-table order.
    pub(crate) species: Vec<SpeciesArena>,
    /// How each species moves, index-parallel with `species`.
    movers: Vec<Mover>,
    pub(crate) field: Field2D,
    /// `(Jx, Jy, Jz)` on grid points as of the last step, filled on first
    /// read ([`j_arrays`](Self::j_arrays)) and emptied by the particle pass;
    /// its arrays are empty for a kind without **J**.
    pub(crate) j: OnceLock<[Vec<f64>; 3]>,
    /// Nanoseconds spent filling `j` (it fills behind `&self`), reported
    /// under [`PhaseTimes::accumulate`].
    j_ns: AtomicU64,
    e8: RedundantE,
    rho4: RedundantRho,
    /// Per-worker private ρ₄ copies for the pooled deposit, reused every
    /// step (zero steady-state allocation).
    rho_arenas: Vec<RedundantRho>,
    /// Persistent worker pool for the particle loops (`threads > 1`, or a
    /// shared one); workers park between steps. Shared (`Arc`) so a
    /// multi-tenant runtime can run many simulations over one pool;
    /// determinism depends only on the pool width, never on which jobs
    /// share it.
    pool: Option<Arc<ThreadPool>>,
    /// Whether the field solve runs on `pool`: decided once, from the grid
    /// size ([`POOLED_SOLVE_MIN_CELLS`]).
    pooled_solve: bool,
    /// Everything the sort owns besides the stores; the species sort one
    /// after another, so they share it.
    sort_arena: SortArena,
    /// Reusable spectral workspaces for the per-step Poisson solve.
    solve_scratch: SolveScratch,
    /// Online sort-cadence controller (present when the config sets one).
    controller: Option<HotPathController>,
    timers: PhaseTimes,
    diag: Diagnostics,
    step_count: usize,
    /// Total deposited charge right after initialization (post-reduce) —
    /// the conservation reference for the watchdog.
    charge_ref: f64,
    /// Kinetic energy summed inside the last streaming pass, kept for the
    /// diagnostics sample that ends the step. Every `&mut` route to the
    /// stores clears it, so the sample then recomputes.
    pub(crate) pass_kinetic: Option<f64>,
}

/// The checks every configuration gets: a pool of at least one worker, a
/// positive time step, and a sane species table.
fn validate<C: Kind>(cfg: &C, defs: &[SpeciesDef]) -> Result<(), PicError> {
    cfg.validate()?;
    let s = cfg.settings();
    if s.threads == 0 {
        return Err(PicError::Config("threads must be at least 1".into()));
    }
    if s.dt.is_nan() || s.dt <= 0.0 {
        return Err(PicError::Config(format!(
            "dt must be positive, got {}",
            s.dt
        )));
    }
    for d in defs {
        let bad = |what: String| Err(PicError::Config(format!("species '{}' {what}", d.name)));
        if d.n_particles == 0 {
            return bad("needs at least one particle".into());
        }
        if d.n_particles > MAX_PARTICLES {
            let n = d.n_particles;
            return bad(format!(
                "has {n} particles, more than the {MAX_PARTICLES} a store can index (u32 sort counts)"
            ));
        }
        if !d.mass.is_finite() || d.mass <= 0.0 {
            return bad("mass must be positive and finite".into());
        }
        if !d.density.is_finite() || d.density <= 0.0 {
            return bad("density must be positive and finite".into());
        }
    }
    Ok(())
}

/// Smallest grid, in cells, whose field solve runs on the pool. Below it
/// the pooled FFT passes' fork-joins cost more than they split, so the
/// solve stays serial even in a pooled run; the two solves are bit-identical
/// (DESIGN.md §12.4 has the sweep).
const POOLED_SOLVE_MIN_CELLS: usize = 128 * 128;

impl<C: Kind> Pic<C> {
    /// Build and initialize: load every species (born sorted), deposit ρ,
    /// solve the initial field, and take the leap-frog half-step back.
    pub fn new(cfg: C) -> Result<Self, PicError> {
        Self::new_with_reduce(cfg, |_| {})
    }

    /// Like [`new`](Self::new), but calls `reduce` on the initial deposited
    /// ρ before the first Poisson solve — required in distributed runs (the
    /// ranks' partial densities must be summed before the initial field and
    /// the leap-frog half-kick are computed, exactly as at every later step).
    pub fn new_with_reduce(cfg: C, reduce: impl FnOnce(&mut [f64])) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, None)?, reduce)
    }

    /// Like [`new`](Self::new), but runs the particle loops over a worker
    /// pool shared with other simulations instead of building a private one.
    /// Trajectories depend only on the pool *width* (the deterministic
    /// chunking), never on which tenants share the pool, so a run over a
    /// shared width-`n` pool is bit-identical to a private `threads = n` run.
    pub fn new_shared(cfg: C, pool: Arc<ThreadPool>) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, Some(pool))?, |_| {})
    }

    /// Rebuild a simulation directly from a checkpoint snapshot, without
    /// sampling a throwaway population first. The snapshot must carry
    /// `cfg`'s fingerprint ([`restore`](Self::restore) verifies checksum,
    /// version, fingerprint and shapes before touching anything); stepping
    /// on is bit-exact against the run that took the snapshot.
    pub fn from_snapshot(cfg: C, snapshot: &[u8]) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, None)?;
        sim.restore(snapshot).map(|()| sim)
    }

    /// [`from_snapshot`](Self::from_snapshot) over a shared pool — the
    /// resume path of a multi-tenant job runtime re-admitting a preempted
    /// job.
    pub fn from_snapshot_shared(
        cfg: C,
        snapshot: &[u8],
        pool: Arc<ThreadPool>,
    ) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, Some(pool))?;
        sim.restore(snapshot).map(|()| sim)
    }

    /// Validate `cfg` and build the chassis — grid, layout, solver, field
    /// arrays, executor, scratch — with no particle stores. The caller
    /// either initializes a fresh population ([`init`](Self::init)) or
    /// restores a snapshot into it.
    pub(crate) fn shell(mut cfg: C, shared: Option<Arc<ThreadPool>>) -> Result<Self, PicError> {
        let defs = cfg.species_table();
        validate(&cfg, &defs)?;
        let s = cfg.settings();
        let grid = Grid2D::new(s.grid_nx, s.grid_ny, s.lx, s.ly)?;
        let layout = AnyLayout::build(s.ordering, s.grid_nx, s.grid_ny)?;
        let solver = PoissonSolver2D::new(s.grid_nx, s.grid_ny, s.lx, s.ly)?;
        let field = Field2D::new(&grid);
        let movers: Vec<Mover> = defs.iter().map(|d| cfg.mover(d, &grid)).collect();
        // One push scale `Δt/Δx` serves both axes of a physical velocity.
        let physical = movers
            .iter()
            .any(|m| !matches!(m.kick, Kick::Hoisted { .. }));
        if physical && (grid.dx() - grid.dy()).abs() > 1e-12 * grid.dx() {
            return Err(PicError::Config(
                "physical (unhoisted) velocities require square cells (Δx = Δy)".into(),
            ));
        }

        // The persistent executor: a shared pool if one was handed in, else
        // a private pool for the whole lifetime (`threads > 1`), plus the
        // per-worker deposit arenas it reduces over (sized by the executing
        // pool's width, not `threads`).
        let pool = match shared {
            Some(p) => Some(p),
            None => (s.threads > 1).then(|| Arc::new(ThreadPool::new(s.threads))),
        };
        let nw = pool.as_ref().map_or(0, |p| p.nthreads());
        let l = layout.as_dyn();
        let nj = if C::DEPOSITS_J { grid.ncells() } else { 0 };
        let controller = (cfg.settings_mut().controller.clone()).map(HotPathController::new);

        Ok(Self {
            e8: RedundantE::new(l),
            rho4: RedundantRho::new(l),
            rho_arenas: (0..nw).map(|_| RedundantRho::new(l)).collect(),
            j: OnceLock::from(std::array::from_fn(|_| vec![0.0; nj])),
            j_ns: AtomicU64::new(0),
            grid,
            layout,
            solver,
            species: Vec::new(),
            movers,
            field,
            pooled_solve: pool.is_some() && grid.ncells() >= POOLED_SOLVE_MIN_CELLS,
            pool,
            sort_arena: SortArena::new(),
            solve_scratch: SolveScratch::new(),
            controller,
            timers: PhaseTimes::default(),
            diag: Diagnostics::default(),
            step_count: 0,
            charge_ref: 0.0,
            pass_kinetic: None,
            cfg,
        })
    }

    /// Initialize a [`shell`](Self::shell): load this rank's part of every
    /// species on the pool (born sorted), grow the sort arena, deposit,
    /// solve the initial field, and take the leap-frog half-step back.
    fn init(mut sim: Self, reduce: impl FnOnce(&mut [f64])) -> Result<Self, PicError> {
        let ncells = sim.layout.as_dyn().ncells();
        let pool = sim.pool.as_deref();
        for (index, def) in sim.cfg.species_table().into_iter().enumerate() {
            let arena = sim
                .cfg
                .load(index, def, &sim.grid, sim.layout.as_dyn(), pool)?;
            sim.species.push(arena);
        }
        // The paper sorts here (initialization line 1); the loader's stores
        // are born sorted. The engine's arena still grows and first-touches
        // its buffers on the pool now, so the first in-run sort allocates
        // and faults in nothing.
        debug_assert!(sim.species.iter().all(|a| is_sorted_by_cell(&a.p)));
        let largest = sim.species.iter().map(SpeciesArena::len).max();
        sim.sort_arena.reserve(ncells, largest.unwrap_or(0), pool);

        // Initial deposit + solve (line 2), with the cross-rank reduction
        // in distributed runs.
        sim.deposit_initial();
        reduce(&mut sim.field.rho);
        sim.charge_ref = sim.field.rho.iter().sum();
        if sim.cfg.solves_e() {
            sim.solve_field();
        }
        sim.half_kick_back();
        sim.refresh_field_views();
        sim.record_diag();
        Ok(sim)
    }

    // ---------------- accessors ----------------

    /// The configuration this simulation runs.
    pub fn config(&self) -> &C {
        &self.cfg
    }

    /// The grid geometry.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// The active cell layout (dynamic view).
    pub fn cell_layout(&self) -> &dyn CellLayout {
        self.layout.as_dyn()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// Per-phase cumulative timings.
    pub fn timers(&self) -> PhaseTimes {
        let mut t = self.timers;
        t.accumulate += self.j_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        t
    }

    /// Zero the phase timers (for warmup-discarding harnesses).
    pub fn reset_timers(&mut self) {
        self.timers = PhaseTimes::default();
        *self.j_ns.get_mut() = 0;
    }

    /// Physics diagnostics (one sample at init + one per step).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Pre-reserve diagnostic-history capacity for `n` further steps so
    /// steady-state stepping appends samples without reallocating.
    pub fn reserve_diagnostics(&mut self, n: usize) {
        self.diag.history.reserve(n);
    }

    /// Charge density on grid points (row-major), as of the last step.
    pub fn rho(&self) -> &[f64] {
        &self.field.rho
    }

    /// Mutable view of the deposited charge density, for in-place reduction
    /// between [`step_pre_reduce`](Self::step_pre_reduce) and
    /// [`step_post_reduce`](Self::step_post_reduce) (and fault injection).
    pub fn rho_mut(&mut self) -> &mut [f64] {
        &mut self.field.rho
    }

    /// Electric field on grid points (row-major).
    pub fn e_field(&self) -> (&[f64], &[f64]) {
        (&self.field.ex, &self.field.ey)
    }

    /// Current total deposited charge, `Σ ρ` over grid points.
    pub fn total_charge(&self) -> f64 {
        self.field.rho.iter().sum()
    }

    /// Total-charge reference captured at initialization (post-reduce).
    pub fn charge_reference(&self) -> f64 {
        self.charge_ref
    }

    // ---------------- hot-path settings ----------------

    /// Switch the deposition kernel at runtime. This changes the rounding
    /// of subsequent steps (within the per-cell FP bound of
    /// [`crate::kernels::deposit`]); checkpoints record the active value as
    /// metadata so a restored run resumes it.
    pub fn set_deposit_path(&mut self, path: crate::sim::DepositPath) {
        // The last step's **J** is the one its own path deposits.
        self.j_arrays();
        *self.cfg.settings_mut().deposit_path = path;
    }

    /// Change the fixed sort cadence at runtime (0 = never). Ignored while
    /// a controller is attached — the controller owns the sort schedule.
    pub fn set_sort_period(&mut self, period: usize) {
        *self.cfg.settings_mut().sort_period = period;
    }

    /// The attached adaptive controller, if any.
    pub fn controller(&self) -> Option<&HotPathController> {
        self.controller.as_ref()
    }

    /// Shim for `benchmark/`: always empty — no hot path is switched at
    /// run time ([`SwitchEvent`] is uninhabited). Goes with the paired
    /// `[benchmark]` change that stops calling it.
    pub fn take_hot_path_events(&mut self) -> Vec<SwitchEvent> {
        Vec::new()
    }

    /// Tell the attached controller that an external mechanism (rank
    /// migration, a live re-partition) just reordered the particle stores,
    /// so the next eligible boundary sorts. No-op without a controller.
    pub fn note_external_shuffle(&mut self) {
        if let Some(c) = self.controller.as_mut() {
            c.note_shuffle();
        }
    }

    // ---------------- stepping ----------------

    /// Advance one time step (paper Fig. 1, lines 4–13).
    pub fn step(&mut self) {
        self.step_with_reduce(|_| {});
    }

    /// Advance one step, calling `reduce` on the freshly deposited ρ
    /// *before* the field solve. This is the hook for the paper's
    /// process-level parallelism (§V-A): with particles split across ranks,
    /// `reduce` performs the `MPI_ALLREDUCE` that sums the per-rank
    /// densities, and every rank then solves over the whole grid. ρ is the
    /// only array reduced: **J** is deposited on request from this rank's
    /// stores, so a replicated run that reads it sums the ranks' reads.
    pub fn step_with_reduce(&mut self, reduce: impl FnOnce(&mut [f64])) {
        self.step_pre_reduce();
        reduce(&mut self.field.rho);
        self.step_post_reduce();
    }

    /// First half of a step: sort (periodically), then one streaming pass
    /// per species, leaving the freshly deposited per-rank ρ on the grid.
    /// Distributed drivers that cannot express their reduction as a closure
    /// (e.g. a fallible collective that may need recovery) call this,
    /// reduce themselves, then finish the step with
    /// [`step_post_reduce`](Self::step_post_reduce).
    pub fn step_pre_reduce(&mut self) {
        self.step_count += 1;

        // Periodic sort (lines 4–6): disorder-driven when a controller is
        // attached, the fixed configured cadence otherwise.
        let period = self.cfg.settings().sort_period;
        if control::sort_due(&self.controller, period, self.step_count) {
            self.sort_particles();
            if let Some(c) = self.controller.as_mut() {
                c.on_sort();
            }
        }

        // Particle loops (lines 7–12).
        self.particle_pass();
        self.observe_controller();
    }

    /// Second half of a step: field solve on the (reduced) ρ, redundant view
    /// refresh, diagnostics. Must follow a
    /// [`step_pre_reduce`](Self::step_pre_reduce).
    pub fn step_post_reduce(&mut self) {
        // ρ₄ → grid ρ happened inside the particle pass; solve (line 13).
        if self.cfg.solves_e() {
            self.solve_field();
            self.refresh_field_views();
        }
        self.record_diag();
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Feed the attached controller this step's sampled particle disorder:
    /// that of the one store, or the count-weighted mean over the species.
    fn observe_controller(&mut self) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let (stride, cells) = (c.config().stride, self.grid.ncells());
        let d = match &self.species[..] {
            [one] => control::measure_disorder(&one.p.icell, stride, cells),
            many => {
                let (mut weight, mut descent, mut jump, mut uniform) = (0.0, 0.0, 0.0, 0.0);
                for arena in many.iter().filter(|a| a.len() >= 2) {
                    let d = control::measure_disorder(&arena.p.icell, stride, cells);
                    let w = arena.len() as f64;
                    weight += w;
                    descent += w * d.descent_frac;
                    jump += w * d.jump_frac;
                    uniform += w * d.uniform_block_frac;
                }
                if weight > 0.0 {
                    control::Disorder {
                        descent_frac: descent / weight,
                        jump_frac: jump / weight,
                        uniform_block_frac: uniform / weight,
                    }
                } else {
                    control::Disorder::NONE
                }
            }
        };
        c.observe(d);
    }

    /// Stable out-of-place sort of every store, one after another through
    /// the shared arena, on the pool if any.
    fn sort_particles(&mut self) {
        let t = Instant::now();
        self.pass_kinetic = None;
        let ncells = self.layout.as_dyn().ncells();
        for arena in &mut self.species {
            arena.sort(ncells, self.pool.as_deref(), &mut self.sort_arena);
        }
        self.timers.sort += t.elapsed().as_secs_f64();
    }

    /// The particle loops of every species, one [`strip_pass`] each: kick,
    /// push and ρ deposit, strip by strip. ρ₄ is cleared once and every
    /// pass adds its species' signed contribution, in table order. The
    /// stores move, so the last step's **J** goes.
    fn particle_pass(&mut self) {
        let t = Instant::now();
        self.rho4.clear();
        self.j.take();
        self.timers.accumulate += t.elapsed().as_secs_f64();

        let path = self.cfg.settings().deposit_path;
        let deposit = deposit::select_kernel(path, KernelPath::Lanes);
        let (e8, pool) = (&self.e8.e8, self.pool.as_deref());
        let mut kinetic = 0.0;
        for (arena, mover) in self.species.iter_mut().zip(&self.movers) {
            let kick = |v: &mut SoaViewMut<'_>| match &mover.kick {
                Kick::Hoisted { .. } => simd::update_velocities_redundant_hoisted_lanes(
                    v.icell, v.dx, v.dy, v.vx, v.vy, e8,
                ),
                &Kick::Electric { coeff } => simd::update_velocities_redundant_lanes(
                    v.icell, v.dx, v.dy, v.vx, v.vy, e8, coeff, coeff,
                ),
                Kick::Boris(k) => boris_push_lanes(v.icell, v.dx, v.dy, v.vx, v.vy, v.vz, e8, k),
            };
            let kernels = StripKernels {
                kick: &kick,
                layout: &self.layout,
                push_scale: mover.push_scale,
                deposit,
                weight: arena.deposit_weight(&self.grid),
                speed_scales: mover.speed_scales,
            };
            let rho = (&mut self.rho4, &mut self.rho_arenas[..]);
            let (p, vz) = (&mut arena.p, &mut arena.vz);
            let speed_sq = strip_pass(p, vz, pool, rho, &kernels, &mut self.timers);
            kinetic += arena.kinetic(speed_sq);
        }
        self.pass_kinetic = Some(kinetic);

        let t = Instant::now();
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    /// `(Jx, Jy, Jz)` on grid points as of the last step (empty for a kind
    /// without **J**), deposited on the first read after a step.
    pub(crate) fn j_arrays(&self) -> [&[f64]; 3] {
        if !C::DEPOSITS_J {
            return [&[]; 3];
        }
        let j = self.j.get_or_init(|| self.deposit_j());
        j.each_ref().map(|j| &j[..])
    }

    /// Deposit **J** from the stores, one pooled deposit per species in
    /// table order, then onto the grid: the lane kernel of the step's
    /// path, the pass's `chunk_range` cut and worker-order merge, so the
    /// bits do not depend on when the stores are read.
    fn deposit_j(&self) -> [Vec<f64>; 3] {
        let t = Instant::now();
        let layout = self.layout.as_dyn();
        // Without a pool, a one-wide one runs the kernel inline; it spawns
        // nothing and takes no arenas.
        let inline;
        let pool = match self.pool.as_deref() {
            Some(p) => p,
            None => {
                inline = ThreadPool::new(1);
                &inline
            }
        };
        let mut j12 = RedundantJ::new(layout);
        let mut arenas = vec![j12.clone(); self.pool.as_ref().map_or(0, |p| p.nthreads())];
        let path = self.cfg.settings().deposit_path;
        for s in &self.species {
            let (p, w) = (&s.p, s.deposit_weight(&self.grid));
            current::pool_deposit_current(
                pool,
                &p.icell,
                &p.dx,
                &p.dy,
                &p.vx,
                &p.vy,
                &s.vz,
                &mut j12,
                &mut arenas,
                w,
                path,
                KernelPath::Lanes,
            );
        }
        let mut j = std::array::from_fn(|_| vec![0.0; self.grid.ncells()]);
        let [jx, jy, jz] = &mut j;
        j12.reduce_to_grid(layout, jx, jy, jz);
        let ns = t.elapsed().as_nanos() as u64;
        self.j_ns.fetch_add(ns, Ordering::Relaxed);
        j
    }

    /// Deposit the initial charge without moving particles. Always runs the
    /// scalar `Exact` kernel (off the hot path), so every deposit path
    /// starts a run from bit-identical state. It stays on one thread: its ρ
    /// feeds the half-kick back, and a pooled deposit (per-worker arenas
    /// summed) would make the constructed velocities depend on the pool's
    /// width.
    fn deposit_initial(&mut self) {
        self.rho4.clear();
        for arena in &self.species {
            let (p, w) = (&arena.p, arena.deposit_weight(&self.grid));
            accumulate::accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut self.rho4.rho4, w);
        }
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
    }

    /// Solve Poisson from `field.rho` into `field.ex/ey` ([`Field2D::solve_e`]),
    /// on the pool when the grid is large enough to pay for it.
    fn solve_field(&mut self) {
        let t = Instant::now();
        let pool = self.pool.as_deref().filter(|_| self.pooled_solve);
        self.field
            .solve_e(&self.solver, &mut self.solve_scratch, pool);
        self.timers.solve += t.elapsed().as_secs_f64();
    }

    /// Rebuild the redundant (possibly pre-scaled) field view from `field`.
    pub(crate) fn refresh_field_views(&mut self) {
        let t = Instant::now();
        let (sx, sy) = match self.movers.first().map(|m| m.kick) {
            Some(Kick::Hoisted { field_scales, .. }) => field_scales,
            _ => (1.0, 1.0),
        };
        self.e8.fill_from(&self.field, self.layout.as_dyn(), sx, sy);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    /// Shift the freshly sampled (physical) velocities of every species
    /// back Δt/2 in the solved initial field, `v(−Δt/2) = v(0) −
    /// (q/m)·E(x₀)·Δt/2`, and convert hoisted stores to grid units per step
    /// — one lane pass per species over the pool. `Ez = 0`, so `vz` is
    /// untouched, and **B** gives no impulse at t = 0 in the Boris stagger.
    /// Both updates are per particle, so the constructed velocities do not
    /// depend on the pool's width.
    fn half_kick_back(&mut self) {
        self.e8
            .fill_from(&self.field, self.layout.as_dyn(), 1.0, 1.0);
        let (e8, pool, dt) = (&self.e8.e8, self.pool.as_deref(), self.cfg.settings().dt);
        for (arena, mover) in self.species.iter_mut().zip(&self.movers) {
            let c = -0.5 * arena.def.charge * dt / arena.def.mass;
            let kick = |v: &mut SoaViewMut<'_>| {
                simd::update_velocities_redundant_lanes(v.icell, v.dx, v.dy, v.vx, v.vy, e8, c, c);
                if let Kick::Hoisted {
                    to_stored: (sx, sy),
                    ..
                } = mover.kick
                {
                    v.vx.iter_mut().for_each(|x| *x *= sx);
                    v.vy.iter_mut().for_each(|y| *y *= sy);
                }
            };
            for_each_strip(&mut arena.p, &mut [], pool, &kick);
        }
    }

    // ---------------- diagnostics ----------------

    /// Kinetic energy in physical units, `Σ_s ½·m_s·w_s·Σ|v|²` (all stored
    /// velocity components).
    ///
    /// Each species' sum has the shape of the streaming pass
    /// (`pass::store_speed_sq`), so it is deterministic for a given particle
    /// order and pool width, and right after a [`step`](Self::step) it
    /// equals the recorded sample bit for bit.
    pub fn kinetic_energy(&self) -> f64 {
        let pool = self.pool.as_deref();
        (self.species.iter().zip(&self.movers))
            .map(|(s, m)| {
                s.kinetic(store_speed_sq(
                    &s.p.vx,
                    &s.p.vy,
                    &s.vz,
                    m.speed_scales,
                    pool,
                ))
            })
            .sum()
    }

    /// Electrostatic field energy from the current grid field.
    pub fn field_energy(&self) -> f64 {
        self.solver.field_energy(&self.field.ex, &self.field.ey)
    }

    /// Amplitude of `E_x`'s Fourier mode `m` along x
    /// ([`Field2D::ex_mode_amplitude`]).
    pub fn ex_mode_amplitude(&self, mode: usize) -> f64 {
        self.field.ex_mode_amplitude(mode)
    }

    pub(crate) fn record_diag(&mut self) {
        let kinetic = (self.pass_kinetic.take()).unwrap_or_else(|| self.kinetic_energy());
        self.diag.history.push(DiagSample {
            time: self.step_count as f64 * self.cfg.settings().dt,
            kinetic,
            field: self.field_energy(),
            ex_mode: self.ex_mode_amplitude(1),
        });
    }

    // ---------------- checkpoint / restart ----------------

    /// Capture the complete restorable state as a versioned, checksummed
    /// binary snapshot in the kind's wire format. Restoring it (into a
    /// simulation built from the same configuration) and stepping on is
    /// bit-exact against an uninterrupted run. Serializes straight from the
    /// live stores: cloning a multi-megabyte particle array per coordinated
    /// checkpoint was the largest single cost of the resilient step loop.
    pub fn checkpoint(&self) -> Vec<u8> {
        let s = self.cfg.settings();
        let hot_path = ckpt::HotPathMeta {
            deposit_path: s.deposit_path,
            sort_period: s.sort_period as u64,
            controller: (self.controller.as_ref())
                .map(|c| c.encode_state())
                .unwrap_or_default(),
        };
        let [jx, jy, jz] = self.j_arrays();
        C::encode(&StateView {
            config_fingerprint: self.cfg.fingerprint(),
            step_count: self.step_count as u64,
            rng_state: [0; 4],
            charge_ref: self.charge_ref,
            hot_path: &hot_path,
            species: &self.species,
            rho: &self.field.rho,
            ex: &self.field.ex,
            ey: &self.field.ey,
            jx,
            jy,
            jz,
            diag: &self.diag.history,
        })
    }

    /// Replace the simulation state with a decoded snapshot.
    ///
    /// Rejects, without touching current state, snapshots that fail the
    /// checksum, carry another format or version, belong to a different
    /// configuration (the fingerprint covers a species table), or whose
    /// species count, array lengths or cell indices disagree with this
    /// simulation. The redundant field view is rebuilt, not restored — it
    /// is a deterministic function of the restored state — and the sort
    /// arena, being scratch, keeps its buffers.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), PicError> {
        let st = C::decode(snapshot)?;
        let expect = self.cfg.fingerprint();
        if st.config_fingerprint != expect {
            return Err(PicError::Checkpoint(format!(
                "snapshot fingerprint {:#018x} does not match the config ({expect:#018x})",
                st.config_fingerprint
            )));
        }
        self.adopt(st)
    }

    /// Adopt a decoded state whose fingerprint the caller has checked:
    /// verify its species count, array lengths and cell indices, then
    /// replace the live state — all or nothing.
    pub(crate) fn adopt(&mut self, st: EmState) -> Result<(), PicError> {
        let defs = self.cfg.species_table();
        if st.species.len() != defs.len() {
            return Err(PicError::Checkpoint(format!(
                "snapshot has {} species, config has {}",
                st.species.len(),
                defs.len()
            )));
        }
        let ng = self.grid.ncells();
        let nj = if C::DEPOSITS_J { ng } else { 0 };
        let lengths = [st.rho.len(), st.ex.len(), st.ey.len()];
        let j_lengths = [st.jx.len(), st.jy.len(), st.jz.len()];
        if lengths.iter().any(|&l| l != ng) || j_lengths.iter().any(|&l| l != nj) {
            return Err(PicError::Checkpoint(format!(
                "snapshot grid lengths {lengths:?} / J {j_lengths:?} do not match {ng} cells"
            )));
        }
        let ncells = self.layout.as_dyn().ncells();
        let cells = st.species.iter().flat_map(|s| &s.particles.icell);
        if cells.into_iter().any(|&c| (c as usize) >= ncells) {
            return Err(PicError::Checkpoint(
                "snapshot particle cell index out of range".into(),
            ));
        }
        // Resume the snapshot's controller decision state before adopting
        // anything (a bad blob must reject without touching live state). An
        // empty blob means the snapshot was taken without a controller:
        // start this one fresh.
        let restored_ctrl = match &self.controller {
            Some(c) if !st.hot_path.controller.is_empty() => {
                let mut nc = c.clone();
                nc.restore_state(&st.hot_path.controller)?;
                Some(nc)
            }
            Some(c) => Some(HotPathController::new(c.config().clone())),
            None => None,
        };

        // Adopt the hot-path metadata: a `set_*` call may have moved these
        // off the configured defaults, and a resumed run must continue from
        // the last setting, not silently revert.
        let knobs = self.cfg.settings_mut();
        *knobs.deposit_path = st.hot_path.deposit_path;
        *knobs.sort_period = st.hot_path.sort_period as usize;
        self.controller = restored_ctrl;

        self.step_count = st.step_count as usize;
        self.charge_ref = st.charge_ref;
        self.species = (st.species.into_iter().zip(defs))
            .map(|(s, def)| SpeciesArena::from_parts(def, s.particles, s.vz, &self.grid))
            .collect();
        self.pass_kinetic = None;
        (self.field.rho, self.field.ex, self.field.ey) = (st.rho, st.ex, st.ey);
        self.j = OnceLock::from([st.jx, st.jy, st.jz]);
        self.diag.history = st.diag;
        self.rho4.clear();
        self.refresh_field_views();
        Ok(())
    }

    /// Write a checkpoint to a file.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<(), PicError> {
        std::fs::write(path.as_ref(), self.checkpoint())
            .map_err(|e| PicError::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Restore from a checkpoint file written by
    /// [`save_checkpoint`](Self::save_checkpoint).
    pub fn restore_from_file(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), PicError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| PicError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        self.restore(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::{Kind, Pic};
    use crate::em::{EmConfig, EmSimulation};
    use crate::sim::{PicConfig, Simulation, STRIP};
    use std::time::Instant;

    #[test]
    fn the_solve_runs_on_the_pool_from_the_crossover_grid_up() {
        for (side, threads, pooled) in [(64, 2, false), (128, 2, true), (128, 1, false)] {
            let mut cfg = PicConfig::landau_table1(4_096);
            (cfg.grid_nx, cfg.grid_ny, cfg.threads) = (side, side, threads);
            let sim = Simulation::new(cfg).unwrap();
            assert_eq!(sim.pooled_solve, pooled, "{side}² on {threads} threads");
        }
    }

    /// Right after a step `kinetic_energy` is the recorded sample bit for
    /// bit, for either kind at any pool width, and a plain per-particle sum
    /// to rounding. A restore or a store edit between the step halves drops
    /// the in-pass sum: the sample is then the energy of the restored or
    /// edited stores.
    #[test]
    fn kinetic_energy_is_the_recorded_sample() {
        fn check<C: Kind>(name: &str, mut sim: Pic<C>) -> Pic<C> {
            let recorded = |sim: &Pic<C>| sim.diagnostics().history.last().unwrap().kinetic;
            assert_eq!(sim.kinetic_energy().to_bits(), recorded(&sim).to_bits());
            for _ in 0..3 {
                sim.step();
                let (k, r) = (sim.kinetic_energy(), recorded(&sim));
                assert_eq!(k.to_bits(), r.to_bits(), "{name}");
            }
            let plain: f64 = (sim.species.iter().zip(&sim.movers))
                .map(|(s, m)| {
                    let (sx, sy) = m.speed_scales;
                    let uv = s.p.vx.iter().zip(&s.p.vy);
                    let in_plane = uv.map(|(&ux, &uy)| (ux * sx).powi(2) + (uy * sy).powi(2));
                    s.kinetic(in_plane.sum::<f64>() + s.vz.iter().map(|v| v * v).sum::<f64>())
                })
                .sum();
            let last = recorded(&sim);
            assert!(
                (last - plain).abs() <= 1e-12 * plain,
                "{name}: {last} vs plain sum {plain}"
            );

            let snap = sim.checkpoint();
            sim.step_pre_reduce();
            sim.restore(&snap).unwrap();
            sim.step_post_reduce();
            let (k, r) = (sim.kinetic_energy(), recorded(&sim));
            assert_eq!(k.to_bits(), r.to_bits(), "{name}: after restore");
            assert_eq!(k.to_bits(), last.to_bits(), "{name}: after restore");
            sim
        }
        // Stores over three strips and one, off the lane width.
        for threads in [1, 2, 3] {
            let mut cfg = PicConfig::landau_table1(3 * STRIP + 5);
            (cfg.grid_nx, cfg.grid_ny, cfg.threads) = (32, 32, threads);
            let name = format!("electrostatic threads={threads}");
            let mut sim = check(&name, Simulation::new(cfg).unwrap());
            sim.step_pre_reduce();
            sim.particles_mut().vx[0] += 1.0;
            sim.step_post_reduce();
            let recorded = sim.diagnostics().history.last().unwrap().kinetic;
            assert_eq!(
                sim.kinetic_energy().to_bits(),
                recorded.to_bits(),
                "{name}: after the edit"
            );

            let mut cfg = EmConfig::magnetized_two_stream(3 * STRIP + 5);
            cfg.threads = threads;
            check(
                &format!("2d3v threads={threads}"),
                EmSimulation::new(cfg).unwrap(),
            );
        }
    }

    /// The per-strip laps must account for the whole pass of either kind:
    /// a phase left out of the attribution would open a gap against the
    /// wall clock.
    #[test]
    fn pass_phase_times_add_up_to_its_wall_time() {
        fn check<C: super::Kind>(name: &str, sim: &mut super::Pic<C>) {
            sim.reset_timers();
            let t = Instant::now();
            for _ in 0..5 {
                sim.particle_pass();
            }
            let wall = t.elapsed().as_secs_f64();
            let pt = sim.timers();
            let pass_wall = wall - pt.convert;
            let loops = pt.update_v + pt.update_x + pt.accumulate;
            assert!(
                (pass_wall - loops).abs() <= 0.02 * pass_wall,
                "{name}: loops {loops} s vs pass {pass_wall} s"
            );
        }
        for threads in [1, 2] {
            let mut cfg = PicConfig::landau_table1(200_000);
            cfg.threads = threads;
            let mut sim = Simulation::new(cfg).unwrap();
            check(&format!("electrostatic threads={threads}"), &mut sim);

            let mut cfg = EmConfig::magnetized_two_stream(160_000);
            cfg.threads = threads;
            let mut sim = EmSimulation::new(cfg).unwrap();
            check(&format!("2d3v threads={threads}"), &mut sim);
        }
    }
}
