//! The full PIC simulation loop on the paper's optimized data layout.
//!
//! [`Simulation`] runs the leap-frog Vlasov–Poisson loop of the paper's
//! Fig. 1 on *one* particle path — SoA particles, redundant cell-based E/ρ,
//! three split loops streamed strip by strip, branchless push (§IV, the last
//! rung of Table IV) — and records per-phase wall-clock times
//! ([`PhaseTimes`]) and physics diagnostics ([`Diagnostics`]). The layouts
//! and loop shapes the paper measures that path *against* (AoS, standard
//! grid arrays, the fused loop, the naive pushes) are reference code in
//! `pic_bench::reference`, not options here.
//!
//! [`PicConfig`] keeps the two hot-path knobs production callers set to
//! different values: `deposit_path` (`Exact` for bit-reproducible ρ,
//! `LaneReduce` for speed) and `hoisted` (§IV-D; the unhoisted form keeps
//! physical velocity units) — plus the cell `ordering`. The kick and the
//! push are the lane-blocked kernels ([`crate::kernels::simd`])
//! unconditionally; the only thing found at run time is when to sort
//! ([`crate::control`]).
//!
//! ## Units
//!
//! Normalized plasma units: ε₀ = 1, electron charge `q = −1`, mass `m = 1`,
//! thermal speed 1. With the *hoisted* convention (§IV-D, default) particle
//! velocities are stored in grid cells per time step and the redundant field
//! carries the kick coefficients, so the inner loops are multiply-free; the
//! unhoisted baseline stores physical velocities and multiplies inside the
//! loops (and requires square cells, `Δx = Δy`, as all the paper's test
//! cases have).

use crate::control::{self, ControllerConfig, HotPathController, SwitchEvent};
use crate::fields::{Field2D, RedundantE, RedundantRho};
use crate::grid::Grid2D;
use crate::kernels::{accumulate, deposit, simd, SoaViewMut};
use crate::particles::{self, InitialDistribution, Loader, ParticlesSoA};
use crate::pass::{for_each_strip, store_speed_sq, strip_pass, StripKernels};
use crate::pool::ThreadPool;
use crate::resilience::checkpoint::{self as ckpt};
use crate::sort;
use crate::PicError;
use sfc::{CellLayout, Hilbert, Morton, Ordering, RowMajor, L4D};
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::sync::Arc;
use std::time::Instant;

/// Electron charge in normalized units.
pub const QE: f64 = -1.0;
/// Electron mass in normalized units.
pub const ME: f64 = 1.0;

/// Instruction shape of the optimized inner kernels — the argument of the
/// kernel selectors ([`deposit::select_kernel`],
/// [`crate::kernels::boris::select_boris`],
/// [`crate::kernels::current::select_current_kernel`]), not a run option:
/// both drivers run `Lanes`, and `Scalar` is the reference the parity tests
/// and `pic_bench::reference` compare against.
///
/// Both paths compute the same per-particle expressions in the same order,
/// so their results are bit-identical; they differ only in how the loops
/// are presented to the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Plain per-particle scalar loops.
    Scalar,
    /// Explicit lane-blocked loops ([`crate::kernels::simd`]): fixed-width
    /// blocks of 8 particles through array-of-lanes temporaries, which
    /// removes the bounds checks that keep the scalar loops from
    /// autovectorizing.
    Lanes,
}

pub use crate::kernels::deposit::DepositPath;
pub use crate::pass::STRIP;

/// A concrete layout instance for static-dispatch kernels.
#[derive(Debug, Clone)]
pub enum AnyLayout {
    /// Row-major (scan) order.
    RowMajor(RowMajor),
    /// L4D tiling.
    L4D(L4D),
    /// Morton / Z order.
    Morton(Morton),
    /// Hilbert order.
    Hilbert(Hilbert),
}

impl AnyLayout {
    /// Build from the `sfc` ordering enum.
    pub fn build(ord: Ordering, ncx: usize, ncy: usize) -> Result<Self, PicError> {
        Ok(match ord {
            Ordering::RowMajor | Ordering::ColMajor => {
                AnyLayout::RowMajor(RowMajor::new(ncx, ncy)?)
            }
            Ordering::L4D(size) => AnyLayout::L4D(L4D::new(ncx, ncy, size)?),
            Ordering::Morton => AnyLayout::Morton(Morton::new(ncx, ncy)?),
            Ordering::Hilbert => AnyLayout::Hilbert(Hilbert::new(ncx, ncy)?),
        })
    }

    /// Dynamic view for the O(ncells) administrative loops.
    pub fn as_dyn(&self) -> &dyn CellLayout {
        match self {
            AnyLayout::RowMajor(l) => l,
            AnyLayout::L4D(l) => l,
            AnyLayout::Morton(l) => l,
            AnyLayout::Hilbert(l) => l,
        }
    }

    /// True when the layout is plain row-major (enables the cheaper
    /// position-update path that re-derives `icell` arithmetically).
    pub fn is_row_major(&self) -> bool {
        matches!(self, AnyLayout::RowMajor(_))
    }
}

/// Cumulative wall-clock seconds per phase — the rows of Tables III–V.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Update-velocities loop.
    pub update_v: f64,
    /// Update-positions loop.
    pub update_x: f64,
    /// Charge-accumulation loop.
    pub accumulate: f64,
    /// Particle sorting.
    pub sort: f64,
    /// Redundant→grid ρ reduction + redundant E refill.
    pub convert: f64,
    /// Poisson solve.
    pub solve: f64,
}

impl PhaseTimes {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.update_v + self.update_x + self.accumulate + self.sort + self.convert + self.solve
    }

    /// The paper's “push” aggregate (update-velocities + update-positions,
    /// Table V terminology).
    pub fn push(&self) -> f64 {
        self.update_v + self.update_x
    }
}

/// One recorded diagnostic sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagSample {
    /// Simulation time.
    pub time: f64,
    /// Kinetic energy (physical units).
    pub kinetic: f64,
    /// Electrostatic field energy `½∫|E|²`.
    pub field: f64,
    /// Amplitude of the fundamental `E_x` Fourier mode along x — the
    /// quantity whose exponential envelope gives the Landau damping /
    /// two-stream growth rate, free of the particle-noise floor that sits
    /// in the total field energy.
    pub ex_mode: f64,
}

impl DiagSample {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// Physics diagnostics over the run.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// One sample per step (plus the initial state).
    pub history: Vec<DiagSample>,
}

impl Diagnostics {
    /// `max |E_total(t) − E_total(0)| / E_total(0)` over the run.
    pub fn relative_energy_drift(&self) -> f64 {
        let e0 = match self.history.first() {
            Some(s) => s.total(),
            None => return 0.0,
        };
        self.history
            .iter()
            .map(|s| (s.total() - e0).abs() / e0.abs().max(1e-300))
            .fold(0.0, f64::max)
    }

    /// Fit the exponential damping/growth rate γ of the field energy:
    /// least-squares slope of `ln W_E(t)` over the samples in
    /// `[t0, t1]`, divided by 2 (since `W_E ∝ e^{2γt}` for `E ∝ e^{γt}`).
    /// Returns `None` with fewer than 3 usable samples.
    pub fn field_energy_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1 && s.field > 0.0)
            .map(|s| (s.time, s.field.ln()))
            .collect();
        linear_fit(&pts).map(|slope| 0.5 * slope)
    }

    /// Local maxima of the `|E_x|` fundamental-mode amplitude in `[t0, t1]`
    /// — the oscillation peaks whose envelope decays at the Landau rate.
    pub fn mode_peaks(&self, t0: f64, t1: f64) -> Vec<(f64, f64)> {
        let h: Vec<&DiagSample> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1)
            .collect();
        let mut peaks = Vec::new();
        for w in h.windows(3) {
            if w[1].ex_mode > w[0].ex_mode && w[1].ex_mode >= w[2].ex_mode && w[1].ex_mode > 0.0 {
                peaks.push((w[1].time, w[1].ex_mode));
            }
        }
        peaks
    }

    /// γ from the envelope of the fundamental-mode oscillation peaks —
    /// the standard Landau-damping measurement (the mode oscillates at the
    /// Langmuir frequency; only its peak envelope decays exponentially).
    /// Returns `None` with fewer than 2 peaks in the window.
    pub fn mode_envelope_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .mode_peaks(t0, t1)
            .into_iter()
            .map(|(t, a)| (t, a.ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        linear_fit(&pts)
    }

    /// γ from a direct least-squares fit of `ln |E_x mode|` over *all*
    /// samples in `[t0, t1]` — the right estimator for purely growing
    /// modes (two-stream: the unstable root has Re ω ≈ 0, so the amplitude
    /// rises monotonically and has no oscillation peaks to envelope-fit).
    pub fn mode_amplitude_rate(&self, t0: f64, t1: f64) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .history
            .iter()
            .filter(|s| s.time >= t0 && s.time <= t1 && s.ex_mode > 0.0)
            .map(|s| (s.time, s.ex_mode.ln()))
            .collect();
        if pts.len() < 3 {
            return None;
        }
        linear_fit(&pts)
    }
}

/// Least-squares slope of `y(x)`; `None` when degenerate.
fn linear_fit(pts: &[(f64, f64)]) -> Option<f64> {
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-30 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Full configuration of one PIC run.
#[derive(Debug, Clone)]
pub struct PicConfig {
    /// Cells along x (power of two).
    pub grid_nx: usize,
    /// Cells along y (power of two).
    pub grid_ny: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// Number of macro-particles.
    pub n_particles: usize,
    /// Time step.
    pub dt: f64,
    /// Initial phase-space distribution.
    pub distribution: InitialDistribution,
    /// Cell ordering for the redundant structures.
    pub ordering: Ordering,
    /// Which deposition kernel the streaming pass runs. `Exact` preserves
    /// the scalar accumulation order bit-for-bit; the reassociated
    /// [`DepositPath::LaneReduce`] stays within the per-cell FP bound of
    /// `crates/core/src/kernels/deposit.rs`. The initial deposit at
    /// construction always runs `Exact` so both start from identical state.
    pub deposit_path: DepositPath,
    /// Coefficient hoisting (§IV-D).
    pub hoisted: bool,
    /// Sort every `sort_period` steps (0 = never).
    pub sort_period: usize,
    /// Workers in the simulation's persistent thread pool (1 = sequential,
    /// no pool).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Process-parallel slice: of the `n_particles` population (deterministic
    /// in `seed`) sample and keep only indices `[start, end)` — the paper's §V-A
    /// scheme where every rank owns a fixed subset of one global particle
    /// population and the per-step allreduce of ρ (via
    /// [`Simulation::step_with_reduce`]) restores the global density.
    /// `None` keeps everything.
    pub keep_range: Option<(usize, usize)>,
    /// Spatial slice: of the `n_particles` population (deterministic in
    /// `seed`) keep only those whose initial cell index falls in `[lo, hi)`,
    /// filtered chunk by chunk as they are sampled —
    /// the domain-decomposed counterpart of `keep_range`, where a rank owns
    /// a contiguous range of the SFC cell ordering instead of a fixed index
    /// slice of the particle population. `None` keeps everything.
    pub keep_cells: Option<(u32, u32)>,
    /// Online sort-cadence control ([`crate::control`]). `Some` attaches a
    /// [`HotPathController`] that drives the sort schedule from the
    /// observed particle disorder; `None` keeps the fixed `sort_period`
    /// cadence. The profile is part of the checkpoint fingerprint (it
    /// shapes the trajectory); its decision state travels as snapshot
    /// metadata.
    pub controller: Option<crate::control::ControllerConfig>,
}

impl PicConfig {
    /// The paper's Table I test case — linear Landau damping on a 128×128
    /// grid — scaled to `n_particles` markers (the paper uses 50 million).
    pub fn landau_table1(n_particles: usize) -> Self {
        let k = 0.5;
        let l = 2.0 * std::f64::consts::PI / k; // 4π
        Self {
            grid_nx: 128,
            grid_ny: 128,
            lx: l,
            ly: l,
            n_particles,
            dt: 0.05,
            distribution: InitialDistribution::Landau { alpha: 0.01, k },
            ordering: Ordering::Morton,
            deposit_path: DepositPath::LaneReduce,
            hoisted: true,
            sort_period: 20,
            threads: 1,
            seed: 0xB1C0DE,
            keep_range: None,
            keep_cells: None,
            controller: None,
        }
    }

    /// Nonlinear Landau damping (α = 0.5).
    pub fn landau_nonlinear(n_particles: usize) -> Self {
        let mut cfg = Self::landau_table1(n_particles);
        cfg.distribution = InitialDistribution::Landau { alpha: 0.5, k: 0.5 };
        cfg
    }

    /// Two-stream instability test case.
    pub fn two_stream(n_particles: usize) -> Self {
        let k = 0.2;
        let l = 2.0 * std::f64::consts::PI / k;
        let mut cfg = Self::landau_table1(n_particles);
        cfg.lx = l;
        cfg.ly = l;
        cfg.distribution = InitialDistribution::TwoStream {
            alpha: 0.01,
            k,
            v0: 3.0,
            vt: 0.3,
        };
        cfg
    }

    fn validate(&self) -> Result<(), PicError> {
        if self.n_particles == 0 {
            return Err(PicError::Config("need at least one particle".into()));
        }
        if self.n_particles > sort::MAX_PARTICLES {
            return Err(PicError::Config(format!(
                "n_particles {} exceeds the {} a store can index (u32 sort counts)",
                self.n_particles,
                sort::MAX_PARTICLES
            )));
        }
        if self.dt.is_nan() || self.dt <= 0.0 {
            return Err(PicError::Config(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        Ok(())
    }
}

/// A running PIC simulation.
pub struct Simulation {
    cfg: PicConfig,
    grid: Grid2D,
    layout: AnyLayout,
    solver: PoissonSolver2D,
    particles: ParticlesSoA,
    field: Field2D,
    e8: RedundantE,
    rho4: RedundantRho,
    /// Macro-particle weight times |q| (deposition magnitude).
    wq: f64,
    /// Macro-particle weight (number density per marker).
    weight: f64,
    step_count: usize,
    timers: PhaseTimes,
    diag: Diagnostics,
    /// Total deposited charge right after initialization (post-reduce) —
    /// the conservation reference for the watchdog.
    charge_ref: f64,
    /// Persistent worker pool for the particle loops (`threads > 1` only);
    /// workers park between steps, so fork-join costs no thread spawns.
    /// Shared (`Arc`) so a multi-tenant runtime can run many simulations
    /// over one pool ([`new_shared`](Self::new_shared)); determinism depends
    /// only on the pool width, never on which jobs share it.
    pool: Option<Arc<ThreadPool>>,
    /// Per-worker private ρ₄ copies for the pooled deposition reduction,
    /// reused every step (zero steady-state allocation).
    rho_arenas: Vec<RedundantRho>,
    /// Everything the sort owns besides the store: per-cell buffers, the
    /// permutation and one spare column, reused every sort.
    sort_arena: sort::SortArena,
    /// Reusable spectral workspaces for the per-step Poisson solve.
    solve_scratch: SolveScratch,
    /// Online sort-cadence controller (present when `cfg.controller` is
    /// set): drives the sort schedule from observed disorder.
    controller: Option<HotPathController>,
    /// `Σ|v|²` (physical units) summed inside the last streaming pass, kept
    /// for the diagnostics sample that ends the step. Every `&mut` route to
    /// the particle store clears it, so the sample then recomputes.
    pass_speed_sq: Option<f64>,
}

impl Simulation {
    /// Build and initialize a simulation: sample particles, deposit ρ, solve
    /// the initial field, and shift velocities back half a step (leap-frog).
    pub fn new(cfg: PicConfig) -> Result<Self, PicError> {
        Self::new_with_reduce(cfg, |_| {})
    }

    /// Like [`new`](Self::new), but calls `reduce` on the initial deposited
    /// ρ before the first Poisson solve — required in distributed runs (the
    /// ranks' partial densities must be summed before the initial field and
    /// the leap-frog half-kick are computed, exactly as at every later step).
    pub fn new_with_reduce(
        cfg: PicConfig,
        reduce: impl FnOnce(&mut [f64]),
    ) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, None)?, reduce)
    }

    /// Like [`new`](Self::new), but runs the particle loops over a worker
    /// pool shared with other simulations instead of building a private one.
    /// Trajectories depend only on the pool *width* (the deterministic
    /// i-mod-n striping), never on which tenants share the pool, so a run
    /// over a shared width-`n` pool is bit-identical to a private
    /// `threads = n` run.
    pub fn new_shared(cfg: PicConfig, pool: Arc<ThreadPool>) -> Result<Self, PicError> {
        Self::init(Self::shell(cfg, Some(pool))?, |_| {})
    }

    /// Rebuild a simulation directly from a checkpoint snapshot, without
    /// sampling and initializing a throwaway particle population first.
    /// The snapshot must carry `cfg`'s fingerprint
    /// ([`restore`](Self::restore) verifies checksum, version, fingerprint,
    /// and array shapes before touching anything); derived structures are
    /// rebuilt from the restored state, and stepping on is bit-exact
    /// against the run that took the snapshot.
    pub fn from_snapshot(cfg: PicConfig, snapshot: &[u8]) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, None)?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// [`from_snapshot`](Self::from_snapshot) over a shared pool — the
    /// resume path of a multi-tenant job runtime re-admitting a preempted
    /// job.
    pub fn from_snapshot_shared(
        cfg: PicConfig,
        snapshot: &[u8],
        pool: Arc<ThreadPool>,
    ) -> Result<Self, PicError> {
        let mut sim = Self::shell(cfg, Some(pool))?;
        sim.restore(snapshot)?;
        Ok(sim)
    }

    /// Validate `cfg` and build the simulation chassis — grid, layout,
    /// solver, field arrays, executor, scratch — with an empty particle
    /// store. The caller either initializes a fresh population
    /// ([`init`](Self::init)) or restores a snapshot into it.
    fn shell(cfg: PicConfig, shared: Option<Arc<ThreadPool>>) -> Result<Self, PicError> {
        cfg.validate()?;
        let grid = Grid2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        if !cfg.hoisted && (grid.dx() - grid.dy()).abs() > 1e-12 * grid.dx() {
            return Err(PicError::Config(
                "the unhoisted baseline requires square cells (Δx = Δy)".into(),
            ));
        }
        let layout = AnyLayout::build(cfg.ordering, cfg.grid_nx, cfg.grid_ny)?;
        let solver = PoissonSolver2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
        let weight = particles::particle_weight(&grid, cfg.n_particles);
        let field = Field2D::new(&grid);
        let e8 = RedundantE::new(layout.as_dyn());
        let rho4 = RedundantRho::new(layout.as_dyn());

        // The persistent executor: a shared pool if one was handed in, else
        // a private pool for the whole simulation lifetime (`threads > 1`),
        // plus the per-worker deposition arenas it reduces over (sized by
        // the executing pool's width, not `cfg.threads`).
        let pool = match shared {
            Some(p) => Some(p),
            None => (cfg.threads > 1).then(|| Arc::new(ThreadPool::new(cfg.threads))),
        };
        let rho_arenas = match &pool {
            Some(p) => (0..p.nthreads())
                .map(|_| RedundantRho::new(layout.as_dyn()))
                .collect(),
            None => Vec::new(),
        };

        let controller = cfg.controller.clone().map(HotPathController::new);

        Ok(Self {
            // Deposition magnitude: macro-charge per unit area, so that the
            // accumulated grid values are a charge *density* (the CIC
            // weights sum to 1 per particle, and each grid point represents
            // a Δx·Δy patch).
            wq: weight * QE.abs() / (grid.dx() * grid.dy()),
            weight,
            grid,
            layout,
            solver,
            particles: ParticlesSoA::zeroed(0),
            field,
            e8,
            rho4,
            step_count: 0,
            timers: PhaseTimes::default(),
            diag: Diagnostics::default(),
            charge_ref: 0.0,
            pool,
            rho_arenas,
            sort_arena: sort::SortArena::new(),
            solve_scratch: SolveScratch::new(),
            controller,
            pass_speed_sq: None,
            cfg,
        })
    }

    /// Initialize a [`shell`](Self::shell): sample this rank's part of the
    /// particle population (the `keep_range`/`keep_cells` filters) on the
    /// pool, sort, deposit, solve the initial field, and take the leap-frog
    /// half-step back.
    fn init(mut sim: Self, reduce: impl FnOnce(&mut [f64])) -> Result<Self, PicError> {
        let n = sim.cfg.n_particles;
        if let Some((start, end)) = sim.cfg.keep_range {
            if start >= end || end > n {
                return Err(PicError::Config(format!(
                    "keep_range {start}..{end} out of bounds for {n} particles"
                )));
            }
        }
        let (start, end) = sim.cfg.keep_range.unwrap_or((0, n));
        let ncells = sim.layout.as_dyn().ncells();
        if let Some((lo, hi)) = sim.cfg.keep_cells {
            if lo >= hi || hi as usize > ncells {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} out of bounds for {ncells} cells"
                )));
            }
        }
        let loader = Loader::new(
            &sim.grid,
            sim.layout.as_dyn(),
            sim.cfg.distribution,
            n,
            sim.cfg.seed,
        );
        let cells = sim.cfg.keep_cells.map(|(lo, hi)| lo..hi);
        let (particles, _) = loader.load(start..end, cells, sim.pool.as_deref());
        if let Some((lo, hi)) = sim.cfg.keep_cells.filter(|_| particles.is_empty()) {
            return Err(PicError::Config(format!(
                "keep_cells {lo}..{hi} holds no particles — subdomain too small"
            )));
        }

        // Initial sort (paper's initialization line 1): always the stable
        // out-of-place sort, through the simulation's own arena and pool so
        // the first in-run sort finds both already grown.
        sim.particles = particles;
        sim.sort_out_of_place();

        // Initial deposit + solve (line 2), with the cross-rank reduction in
        // distributed runs.
        sim.deposit_initial();
        reduce(&mut sim.field.rho);
        sim.charge_ref = sim.field.rho.iter().sum();
        sim.solve_field();

        // Leap-frog half-step, v(−Δt/2) = v(0) − (q/m)·E(x₀)·Δt/2, and the
        // hoisted convention's velocity normalization.
        sim.half_kick_back();
        sim.refresh_field_views();
        sim.record_diag();
        Ok(sim)
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &PicConfig {
        &self.cfg
    }

    /// The grid geometry.
    pub fn grid(&self) -> &Grid2D {
        &self.grid
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// Per-phase cumulative timings.
    pub fn timers(&self) -> PhaseTimes {
        self.timers
    }

    /// Zero the phase timers (for warmup-discarding harnesses).
    pub fn reset_timers(&mut self) {
        self.timers = PhaseTimes::default();
    }

    /// Physics diagnostics.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Read-only particle view.
    pub fn particles(&self) -> &ParticlesSoA {
        &self.particles
    }

    /// Charge density on grid points (row-major), as of the last step.
    pub fn rho(&self) -> &[f64] {
        &self.field.rho
    }

    /// Electric field on grid points (row-major).
    pub fn e_field(&self) -> (&[f64], &[f64]) {
        (&self.field.ex, &self.field.ey)
    }

    /// Mutable electric field on grid points (row-major) — for drivers that
    /// obtain E externally (a decomposed run receives its subdomain's field
    /// from the solving rank) and then finish the step with
    /// [`step_post_external_solve`](Self::step_post_external_solve).
    pub fn e_field_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.field.ex, &mut self.field.ey)
    }

    /// Mutable particle store. Drivers that migrate particles between ranks
    /// edit the arrays directly.
    pub fn particles_mut(&mut self) -> &mut ParticlesSoA {
        self.pass_speed_sq = None;
        &mut self.particles
    }

    /// `(ρ, Ex, Ey)` in one borrow — for external-solver drivers that read
    /// the reduced density and write field values in a single pass (the
    /// slab-distributed solve consumes owned-point ρ while depositing
    /// solved E at this rank's interpolation points).
    pub fn field_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.field.rho, &mut self.field.ex, &mut self.field.ey)
    }

    /// The active cell layout (dynamic view).
    pub fn cell_layout(&self) -> &dyn CellLayout {
        self.layout.as_dyn()
    }

    /// Current total deposited charge, `Σ ρ` over grid points.
    pub fn total_charge(&self) -> f64 {
        self.field.rho.iter().sum()
    }

    /// Total-charge reference captured at initialization (post-reduce).
    pub fn charge_reference(&self) -> f64 {
        self.charge_ref
    }

    /// Re-declare the spatial slice this simulation owns
    /// ([`PicConfig::keep_cells`]), without touching live state.
    ///
    /// `keep_cells` only filters the *initial* population; afterwards it
    /// identifies the subdomain in the checkpoint fingerprint, so snapshots
    /// can never restore into a simulation owning different cells. A live
    /// re-partition legitimately changes the owned range: the driver
    /// migrates the particles itself, then calls this so the fingerprint
    /// follows the new cut — adopting a snapshot taken under a given range
    /// likewise requires declaring that range first. `None` declares full
    /// ownership (the replicated fallback at one rank).
    pub fn set_keep_cells(&mut self, range: Option<(u32, u32)>) -> Result<(), PicError> {
        if let Some((lo, hi)) = range {
            let ncells = self.layout.as_dyn().ncells() as u32;
            if lo >= hi || hi > ncells {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} out of bounds for {ncells} cells"
                )));
            }
        }
        self.cfg.keep_cells = range;
        self.pass_speed_sq = None;
        Ok(())
    }

    // ---------------- checkpoint / restart ----------------

    /// Capture the complete restorable state as a versioned, checksummed
    /// binary snapshot. Restoring it (into a simulation built from the
    /// same [`PicConfig`]) and stepping on is bit-exact against an
    /// uninterrupted run. Serializes straight from the live store: cloning
    /// a multi-megabyte particle array per coordinated checkpoint was the
    /// largest single cost of the resilient step loop.
    pub fn checkpoint(&self) -> Vec<u8> {
        let hot_path = ckpt::HotPathMeta {
            deposit_path: self.cfg.deposit_path,
            sort_period: self.cfg.sort_period as u64,
            controller: self
                .controller
                .as_ref()
                .map(|c| c.encode_state())
                .unwrap_or_default(),
        };
        ckpt::encode_view(&ckpt::SimStateView {
            config_fingerprint: ckpt::config_fingerprint(&self.cfg),
            step_count: self.step_count as u64,
            rng_state: [0; 4],
            charge_ref: self.charge_ref,
            hot_path: &hot_path,
            particles: &self.particles,
            rho: &self.field.rho,
            ex: &self.field.ex,
            ey: &self.field.ey,
            diag: &self.diag.history,
        })
    }

    /// Replace the simulation state with a decoded snapshot.
    ///
    /// Rejects (without touching current state) snapshots that fail the
    /// checksum, carry a different format version, belong to a different
    /// configuration, or whose array shapes disagree with this
    /// simulation's grid. The redundant field view is rebuilt, not
    /// restored — it is a deterministic function of the restored state —
    /// and the sort arena, being scratch, keeps its buffers.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), PicError> {
        let st = ckpt::decode(snapshot)?;
        if st.config_fingerprint != ckpt::config_fingerprint(&self.cfg) {
            return Err(PicError::Checkpoint(
                "snapshot belongs to a different configuration".into(),
            ));
        }
        let ng = self.grid.ncells();
        if st.rho.len() != ng || st.ex.len() != ng || st.ey.len() != ng {
            return Err(PicError::Checkpoint(format!(
                "snapshot grid size {} does not match {} cells",
                st.rho.len(),
                ng
            )));
        }
        let ncells = self.layout.as_dyn().ncells();
        if st.particles.icell.iter().any(|&c| (c as usize) >= ncells) {
            return Err(PicError::Checkpoint(
                "snapshot particle cell index out of range".into(),
            ));
        }
        // Resume the snapshot's controller decision state before adopting
        // anything (a bad blob must reject without touching live state).
        // An empty blob means the snapshot was taken without a controller:
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
        self.cfg.deposit_path = st.hot_path.deposit_path;
        self.cfg.sort_period = st.hot_path.sort_period as usize;
        self.controller = restored_ctrl;

        self.step_count = st.step_count as usize;
        self.charge_ref = st.charge_ref;
        self.particles = st.particles;
        self.pass_speed_sq = None;
        self.field.rho = st.rho;
        self.field.ex = st.ex;
        self.field.ey = st.ey;
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

    /// Deposit the initial charge without moving particles. Always runs the
    /// scalar `Exact` kernel (off the hot path), so every [`DepositPath`]
    /// starts a run from bit-identical initial state. It stays on one thread:
    /// its ρ feeds the half-kick back, and a pooled deposit (per-worker
    /// arenas summed) would make the constructed velocities depend on the
    /// pool's width.
    fn deposit_initial(&mut self) {
        self.rho4.clear();
        accumulate::accumulate_redundant(
            &self.particles.icell,
            &self.particles.dx,
            &self.particles.dy,
            &mut self.rho4.rho4,
            self.wq * QE.signum(),
        );
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
    }

    /// Solve Poisson from `field.rho` into `field.ex/ey` ([`Field2D::solve_e`]).
    fn solve_field(&mut self) {
        let t = Instant::now();
        let pool = self.pool.as_deref();
        self.field
            .solve_e(&self.solver, &mut self.solve_scratch, pool);
        self.timers.solve += t.elapsed().as_secs_f64();
    }

    /// Rebuild the redundant (possibly scaled) field view from `field`.
    fn refresh_field_views(&mut self) {
        let t = Instant::now();
        let (sx, sy) = self.kick_scales();
        self.e8.fill_from(&self.field, self.layout.as_dyn(), sx, sy);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    /// Per-axis field pre-scale factors for the redundant view.
    fn kick_scales(&self) -> (f64, f64) {
        if self.cfg.hoisted {
            // Δv_grid = (q/m)·E·Δt · (Δt/Δ) — all folded into the stored field.
            let c = QE * self.cfg.dt / ME;
            (
                c * self.cfg.dt / self.grid.dx(),
                c * self.cfg.dt / self.grid.dy(),
            )
        } else {
            (1.0, 1.0)
        }
    }

    /// `(coeff_x, coeff_y)` for unhoisted kicks, `scale` for unhoisted pushes.
    fn unhoisted_coeffs(&self) -> (f64, f64, f64) {
        let c = QE * self.cfg.dt / ME;
        (c, c, self.cfg.dt / self.grid.dx())
    }

    /// Shift the freshly sampled (physical) velocities back Δt/2 in the
    /// solved initial field and, when hoisted, rescale them to grid units
    /// per step — one lane pass over the pool. Both are per particle, so
    /// the constructed velocities do not depend on the pool's width.
    fn half_kick_back(&mut self) {
        let mut e8 = RedundantE::new(self.layout.as_dyn());
        e8.fill_from(&self.field, self.layout.as_dyn(), 1.0, 1.0);
        let e8 = &e8.e8;
        let c = -0.5 * QE * self.cfg.dt / ME;
        let (sx, sy) = if self.cfg.hoisted {
            (self.cfg.dt / self.grid.dx(), self.cfg.dt / self.grid.dy())
        } else {
            (1.0, 1.0)
        };
        let kick = |v: &mut SoaViewMut<'_>| {
            simd::update_velocities_redundant_lanes(v.icell, v.dx, v.dy, v.vx, v.vy, e8, c, c);
            if self.cfg.hoisted {
                v.vx.iter_mut().for_each(|x| *x *= sx);
                v.vy.iter_mut().for_each(|y| *y *= sy);
            }
        };
        for_each_strip(&mut self.particles, &mut [], self.pool.as_deref(), &kick);
    }

    /// Advance one time step (paper Fig. 1, lines 4–13).
    pub fn step(&mut self) {
        self.step_with_reduce(|_| {});
    }

    /// Advance one step, calling `reduce` on the freshly deposited grid ρ
    /// *before* the Poisson solve. This is the hook for the paper's
    /// process-level parallelism (§V-A): with particles split across ranks,
    /// `reduce` performs the `MPI_ALLREDUCE` that sums the per-rank charge
    /// densities, and every rank then solves Poisson over the whole grid.
    pub fn step_with_reduce(&mut self, reduce: impl FnOnce(&mut [f64])) {
        self.step_pre_reduce();
        // Charge reduction across ranks (no-op in single-process runs).
        reduce(&mut self.field.rho);
        self.step_post_reduce();
    }

    /// First half of a step: sort (periodically) and run the particle
    /// loops, leaving the freshly deposited per-rank ρ in
    /// [`rho_mut`](Self::rho_mut). Distributed drivers that cannot express
    /// their reduction as a closure (e.g. a fallible collective that may
    /// need recovery) call this, reduce ρ themselves, then finish the step
    /// with [`step_post_reduce`](Self::step_post_reduce).
    pub fn step_pre_reduce(&mut self) {
        self.step_count += 1;

        // Periodic sort (lines 4–6): disorder-driven when a controller is
        // attached, the fixed configured cadence otherwise.
        if control::sort_due(&self.controller, self.cfg.sort_period, self.step_count) {
            self.sort_particles();
            if let Some(c) = self.controller.as_mut() {
                c.on_sort();
            }
        }

        // Particle loops (lines 7–12).
        self.particle_pass();
        self.observe_controller();
    }

    /// Feed the attached controller this step's sampled particle disorder.
    fn observe_controller(&mut self) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        let stride = c.config().stride;
        let d = control::measure_disorder(&self.particles.icell, stride, self.grid.ncells());
        c.observe(d);
    }

    /// Second half of a step: Poisson solve on the (reduced) ρ and
    /// diagnostics. Must follow a [`step_pre_reduce`](Self::step_pre_reduce).
    pub fn step_post_reduce(&mut self) {
        // ρ₄ → grid ρ happened inside the particle pass; solve (line 13).
        self.solve_field();
        self.refresh_field_views();
        self.record_diag();
    }

    /// Mutable view of the deposited charge density, for in-place reduction
    /// between [`step_pre_reduce`](Self::step_pre_reduce) and
    /// [`step_post_reduce`](Self::step_post_reduce).
    pub fn rho_mut(&mut self) -> &mut [f64] {
        &mut self.field.rho
    }

    /// Finish a step whose Poisson solve happened *outside* this simulation:
    /// rebuild the redundant field view from the externally written
    /// [`e_field_mut`](Self::e_field_mut) arrays and record diagnostics.
    /// The decomposed driver uses this — one rank solves the global field
    /// and scatters each subdomain's E values, so the local solver never
    /// runs. Must follow a [`step_pre_reduce`](Self::step_pre_reduce).
    ///
    /// Diagnostics recorded here are *local* (this rank's particles, and
    /// field values only valid on the subdomain's points) — meaningful
    /// after a cross-rank reduction, not per rank.
    pub fn step_post_external_solve(&mut self) {
        self.refresh_field_views();
        self.record_diag();
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Switch the deposition kernel at runtime. This changes the rounding
    /// of subsequent steps (within the per-cell FP bound of
    /// [`crate::kernels::deposit`]); checkpoints record the active value as
    /// metadata so a restored run resumes it.
    pub fn set_deposit_path(&mut self, path: DepositPath) {
        self.cfg.deposit_path = path;
    }

    /// Change the fixed sort cadence at runtime (0 = never). Ignored while
    /// a controller is attached — the controller owns the sort schedule.
    pub fn set_sort_period(&mut self, period: usize) {
        self.cfg.sort_period = period;
    }

    /// Attach an online sort-cadence controller ([`crate::control`]). Also
    /// records the profile in the configuration, so subsequent checkpoints
    /// fingerprint the controller-enabled run.
    pub fn enable_controller(&mut self, ccfg: ControllerConfig) {
        self.cfg.controller = Some(ccfg.clone());
        self.controller = Some(HotPathController::new(ccfg));
    }

    /// The attached adaptive controller, if any.
    pub fn controller(&self) -> Option<&HotPathController> {
        self.controller.as_ref()
    }

    /// Shim for `benchmark/`: always empty — no hot path is switched at
    /// run time ([`SwitchEvent`] is uninhabited). Goes with the paired
    /// `[benchmark]` issue that stops calling it.
    pub fn take_hot_path_events(&mut self) -> Vec<SwitchEvent> {
        Vec::new()
    }

    /// Tell the attached controller that an external mechanism (rank
    /// migration, a live re-partition) just reordered the particle store,
    /// so the next eligible boundary sorts. No-op without a controller.
    pub fn note_external_shuffle(&mut self) {
        if let Some(c) = self.controller.as_mut() {
            c.note_shuffle();
        }
    }

    /// Pre-reserve diagnostic-history capacity for `n` further steps so
    /// steady-state stepping appends samples without reallocating.
    pub fn reserve_diagnostics(&mut self, n: usize) {
        self.diag.history.reserve(n);
    }

    /// Stable out-of-place sort of the SoA store on the pool, if any.
    fn sort_out_of_place(&mut self) {
        sort::sort_columns(
            &mut self.particles,
            None,
            self.layout.as_dyn().ncells(),
            self.pool.as_deref(),
            &mut self.sort_arena,
        );
    }

    fn sort_particles(&mut self) {
        let t = Instant::now();
        self.pass_speed_sq = None;
        self.sort_out_of_place();
        self.timers.sort += t.elapsed().as_secs_f64();
    }

    /// The particle loops as one streaming pass ([`strip_pass`]): every
    /// `hoisted × layout × DepositPath` combination runs the same strip
    /// driver over its selected lane kernels.
    fn particle_pass(&mut self) {
        let hoisted = self.cfg.hoisted;
        let (coeff_x, coeff_y, unhoisted_scale) = self.unhoisted_coeffs();
        let e8 = &self.e8.e8;
        let kick = |v: &mut SoaViewMut<'_>| {
            if hoisted {
                simd::update_velocities_redundant_hoisted_lanes(v.icell, v.dx, v.dy, v.vx, v.vy, e8)
            } else {
                simd::update_velocities_redundant_lanes(
                    v.icell, v.dx, v.dy, v.vx, v.vy, e8, coeff_x, coeff_y,
                )
            }
        };
        let kernels = StripKernels {
            kick: &kick,
            layout: &self.layout,
            push_scale: if hoisted { 1.0 } else { unhoisted_scale },
            deposit: deposit::select_kernel(self.cfg.deposit_path, KernelPath::Lanes),
            current: None,
            weight: self.wq * QE.signum(),
            speed_scales: self.speed_scales(),
        };
        let t = Instant::now();
        self.rho4.clear();
        self.timers.accumulate += t.elapsed().as_secs_f64();
        let rho = (&mut self.rho4, &mut self.rho_arenas[..]);
        let (p, pool) = (&mut self.particles, self.pool.as_deref());
        let speed_sq = strip_pass(p, &mut [], pool, rho, None, &kernels, &mut self.timers);
        self.pass_speed_sq = Some(speed_sq);

        let t = Instant::now();
        self.rho4
            .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho);
        self.timers.convert += t.elapsed().as_secs_f64();
    }

    // ---------------- diagnostics ----------------

    /// Factors taking stored velocities to physical units (grid cells per
    /// step under hoisting, already physical otherwise).
    fn speed_scales(&self) -> (f64, f64) {
        if self.cfg.hoisted {
            (self.grid.dx() / self.cfg.dt, self.grid.dy() / self.cfg.dt)
        } else {
            (1.0, 1.0)
        }
    }

    /// Kinetic energy in physical units, `½·w·m·Σ|v|²`.
    ///
    /// The sum has the shape of the streaming pass (`pass::store_speed_sq`), so
    /// it is deterministic for a given particle order and pool width, and
    /// right after a [`step`](Self::step) it equals the recorded sample bit
    /// for bit.
    pub fn kinetic_energy(&self) -> f64 {
        let p = &self.particles;
        let pool = self.pool.as_deref();
        self.kinetic_from_speed_sq(store_speed_sq(&p.vx, &p.vy, &[], self.speed_scales(), pool))
    }

    fn kinetic_from_speed_sq(&self, sum: f64) -> f64 {
        0.5 * self.weight * ME * sum
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

    fn record_diag(&mut self) {
        let kinetic = match self.pass_speed_sq.take() {
            Some(sum) => self.kinetic_from_speed_sq(sum),
            None => self.kinetic_energy(),
        };
        self.diag.history.push(DiagSample {
            time: self.step_count as f64 * self.cfg.dt,
            kinetic,
            field: self.field_energy(),
            ex_mode: self.ex_mode_amplitude(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize) -> PicConfig {
        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg
    }

    #[test]
    fn builds_and_steps() {
        let mut sim = Simulation::new(small(2000)).unwrap();
        sim.run(5);
        assert_eq!(sim.steps(), 5);
        assert_eq!(sim.diagnostics().history.len(), 6);
    }

    #[test]
    fn charge_is_conserved_every_step() {
        let mut sim = Simulation::new(small(3000)).unwrap();
        // Σ over grid points of the charge *density* is ncells × mean
        // density = −ncells (unit background density, normalized units).
        let expect = QE * sim.grid().ncells() as f64;
        for _ in 0..5 {
            sim.step();
            let total: f64 = sim.rho().iter().sum();
            assert!(
                (total - expect).abs() < 1e-9 * expect.abs(),
                "{total} vs {expect}"
            );
        }
    }

    #[test]
    fn energy_conserved_at_few_percent() {
        let mut cfg = small(20_000);
        cfg.dt = 0.05;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(40);
        let drift = sim.diagnostics().relative_energy_drift();
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn all_orderings_agree_on_physics() {
        // Same seed, same steps — the grid ρ must match across layouts.
        let mut reference: Option<Vec<f64>> = None;
        for ord in Ordering::paper_set() {
            let mut cfg = small(2000);
            cfg.ordering = ord;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            let rho = sim.rho().to_vec();
            match &reference {
                None => reference = Some(rho),
                Some(r) => {
                    for i in 0..r.len() {
                        assert!(
                            (r[i] - rho[i]).abs() < 1e-9,
                            "{ord}: rho[{i}] {} vs {}",
                            rho[i],
                            r[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hoisted_and_unhoisted_agree() {
        let mk = |hoisted| {
            let mut cfg = small(2000);
            cfg.ordering = Ordering::RowMajor;
            cfg.hoisted = hoisted;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(4);
            sim.rho().to_vec()
        };
        let a = mk(true);
        let b = mk(false);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-8, "rho[{i}]: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn threads_do_not_change_physics() {
        let mk = |threads| {
            let mut cfg = small(5000);
            cfg.threads = threads;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(3);
            sim.rho().to_vec()
        };
        let a = mk(1);
        let b = mk(4);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "rho[{i}]");
        }
    }

    #[test]
    fn sorting_does_not_change_physics() {
        let mk = |period| {
            let mut cfg = small(3000);
            cfg.sort_period = period;
            let mut sim = Simulation::new(cfg).unwrap();
            sim.run(6);
            sim.rho().to_vec()
        };
        let a = mk(0);
        let b = mk(2);
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn every_push_keeps_icell_equal_to_encode_of_ix_iy() {
        // The invariant the sort's index fill rests on (`ParticlesSoA`).
        for ord in Ordering::paper_set() {
            for threads in [1, 2] {
                let mut cfg = small(3000);
                cfg.ordering = ord;
                cfg.threads = threads;
                let mut sim = Simulation::new(cfg).unwrap();
                sim.run(50);
                let (p, layout) = (sim.particles(), sim.layout.as_dyn());
                for i in 0..p.len() {
                    let want = layout.encode(p.ix[i] as usize, p.iy[i] as usize);
                    assert_eq!(p.icell[i] as usize, want, "{ord} threads={threads} i={i}");
                }
            }
        }
    }

    #[test]
    fn amplitude_rate_recovers_planted_exponential() {
        // Synthetic diagnostics: A(t) = e^{0.35 t} → fitted rate 0.35.
        let mut d = Diagnostics::default();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            d.history.push(DiagSample {
                time: t,
                kinetic: 0.0,
                field: 0.0,
                ex_mode: (0.35 * t).exp(),
            });
        }
        let r = d.mode_amplitude_rate(0.0, 5.0).unwrap();
        assert!((r - 0.35).abs() < 1e-9, "rate {r}");
        // A monotone signal has no interior peaks: envelope fit defers.
        assert!(d.mode_envelope_rate(0.0, 5.0).is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small(0);
        assert!(Simulation::new(cfg.clone()).is_err());
        // More particles than the u32 sort counts can index: rejected
        // before anything is allocated.
        cfg.n_particles = sort::MAX_PARTICLES.saturating_add(1);
        assert!(matches!(
            Simulation::new(cfg.clone()),
            Err(PicError::Config(_))
        ));
        // The unhoisted form needs square cells.
        cfg.n_particles = 100;
        cfg.hoisted = false;
        cfg.lx *= 2.0;
        assert!(Simulation::new(cfg).is_err());
    }

    #[test]
    fn timers_accumulate() {
        let mut sim = Simulation::new(small(2000)).unwrap();
        sim.run(3);
        let t = sim.timers();
        assert!(t.update_v > 0.0);
        assert!(t.update_x > 0.0);
        assert!(t.accumulate > 0.0);
        assert!(t.solve > 0.0);
        sim.reset_timers();
        assert_eq!(sim.timers().total(), 0.0);
    }

    #[test]
    fn pass_phase_times_add_up_to_its_wall_time() {
        // The per-strip laps must account for the whole pass: a phase left
        // out of the attribution would open a gap against the wall clock.
        for threads in [1, 2] {
            let mut cfg = PicConfig::landau_table1(200_000);
            cfg.threads = threads;
            let mut sim = Simulation::new(cfg).unwrap();
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
                "threads={threads}: loops {loops} s vs pass {pass_wall} s"
            );
        }
    }

    #[test]
    fn kinetic_energy_is_the_recorded_sample() {
        for threads in [1, 2, 3] {
            let mut cfg = small(3 * STRIP + 5);
            cfg.threads = threads;
            let mut sim = Simulation::new(cfg).unwrap();
            let recorded = |sim: &Simulation| sim.diagnostics().history.last().unwrap().kinetic;
            for _ in 0..3 {
                sim.step();
                assert_eq!(
                    sim.kinetic_energy().to_bits(),
                    recorded(&sim).to_bits(),
                    "threads={threads}"
                );
            }
            let (sx, sy) = sim.speed_scales();
            let p = sim.particles();
            let plain: f64 = (p.vx.iter().zip(&p.vy))
                .map(|(&ux, &uy)| (ux * sx).powi(2) + (uy * sy).powi(2))
                .sum();
            let plain = sim.kinetic_from_speed_sq(plain);
            assert!(
                (recorded(&sim) - plain).abs() <= 1e-12 * plain,
                "threads={threads}: {} vs plain sum {plain}",
                recorded(&sim)
            );

            // Editing the store between the step halves drops the in-pass
            // sum: the sample is the energy of the edited particles.
            sim.step_pre_reduce();
            sim.particles_mut().vx[0] += 1.0;
            sim.step_post_reduce();
            assert_eq!(
                sim.kinetic_energy().to_bits(),
                recorded(&sim).to_bits(),
                "threads={threads}: after particles_mut"
            );
        }
    }

    #[test]
    fn landau_mode_amplitude_decays() {
        // Linear Landau damping: the fundamental E_x mode decays at
        // γ ≈ −0.153 for k = 0.5, so its amplitude at t≈8 sits well below
        // the initial one. (Total field energy is noise-dominated at this
        // particle count, so we track the mode, as the paper's validation
        // does.)
        let mut cfg = PicConfig::landau_table1(100_000);
        cfg.grid_nx = 32;
        cfg.grid_ny = 16;
        cfg.dt = 0.1;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(80); // t = 8
        let h = &sim.diagnostics().history;
        let early = h[0].ex_mode;
        let late_max = h[60..].iter().map(|s| s.ex_mode).fold(0.0f64, f64::max);
        assert!(
            late_max < 0.5 * early,
            "expected damping: early {early}, late max {late_max}"
        );
    }
}
