//! The electrostatic kind: [`PicConfig`] and its engine, [`Simulation`],
//! plus the types both kinds share ([`PhaseTimes`], [`Diagnostics`],
//! [`AnyLayout`], [`KernelPath`]).
//!
//! [`Simulation`] is the step engine of [`crate::engine`] over one electron
//! store whose `vz` is empty: the leap-frog Vlasov–Poisson loop of the
//! paper's Fig. 1 on *one* particle path — SoA particles, redundant
//! cell-based E/ρ, three split loops streamed strip by strip, branchless
//! push (§IV, the last rung of Table IV) — recording per-phase wall-clock
//! times and physics diagnostics. The layouts and loop shapes the paper
//! measures that path *against* (AoS, standard grid arrays, the fused loop,
//! the naive pushes) are reference code in `pic_bench::reference`, not
//! options here.
//!
//! [`PicConfig`] chooses no kernel: every run takes the hoisted lane kick
//! (§IV-D), the lane push and the reassociated lane deposit
//! ([`crate::kernels::simd`], [`crate::kernels::deposit`]). What it does
//! choose is the cell `ordering`, and the only thing found at run time is
//! when to sort ([`crate::control`]).
//!
//! ## Units
//!
//! Normalized plasma units: ε₀ = 1, electron charge `q = −1`, mass `m = 1`,
//! thermal speed 1. Hoisted (§IV-D), particle velocities are stored in grid
//! cells per time step and the redundant field carries the kick
//! coefficients, so the inner loops are multiply-free; multiply a stored
//! velocity by `(Δx/Δt, Δy/Δt)` for physical units. The unhoisted baseline,
//! which stores physical velocities and multiplies inside the loops, is
//! Table IV's reference code in `pic_bench::reference`.

use crate::engine::kind::{Kick, Kind, Mover, Settings, SettingsMut};
use crate::engine::{shared_settings, Pic};
use crate::grid::Grid2D;
use crate::particles::{InitialDistribution, Loader, ParticlesSoA};
use crate::pool::ThreadPool;
use crate::resilience::checkpoint::{self as ckpt, EmState, StateView};
use crate::species::{SpeciesArena, SpeciesDef};
use crate::PicError;
use sfc::{CellLayout, Hilbert, Morton, Ordering, RowMajor, L4D};

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
    /// Charge-accumulation loop (and the on-request **J** deposit).
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
    /// `max |E_total(t) − E_total(0)| / E_total(0)` over the run; NaN when
    /// any sample's total is NaN, so a finiteness check on the drift sees it.
    pub fn relative_energy_drift(&self) -> f64 {
        let e0 = match self.history.first() {
            Some(s) => s.total(),
            None => return 0.0,
        };
        self.history
            .iter()
            .map(|s| (s.total() - e0).abs() / e0.abs().max(1e-300))
            .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
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
    /// the index range those cells hold in the born-sorted population —
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
}

impl Kind for PicConfig {
    const DEPOSITS_J: bool = false;

    shared_settings!();

    /// One electron species of `n_particles` markers.
    fn species_table(&self) -> Vec<SpeciesDef> {
        vec![SpeciesDef::electrons(self.n_particles, self.distribution)]
    }

    /// This rank's part of the population: the `keep_range` index slice,
    /// cut to the `keep_cells` cell range's index range, sampled on the
    /// pool and born sorted by cell.
    fn load(
        &self,
        _index: usize,
        def: SpeciesDef,
        grid: &Grid2D,
        layout: &dyn CellLayout,
        pool: Option<&ThreadPool>,
    ) -> Result<SpeciesArena, PicError> {
        let n = self.n_particles;
        let (mut start, mut end) = self.keep_range.unwrap_or((0, n));
        if start >= end || end > n {
            return Err(PicError::Config(format!(
                "keep_range {start}..{end} out of bounds for {n} particles"
            )));
        }
        check_keep_cells(self.keep_cells, layout.ncells())?;
        let loader = Loader::new(grid, layout, self.distribution, n, self.seed);
        if let Some((lo, hi)) = self.keep_cells {
            let cells = loader.cell_range(lo..hi);
            (start, end) = (start.max(cells.start), end.min(cells.end));
            if start >= end {
                return Err(PicError::Config(format!(
                    "keep_cells {lo}..{hi} holds no particles — subdomain too small"
                )));
            }
        }
        let (p, vz) = loader.load(start..end, pool);
        Ok(SpeciesArena::from_parts(def, p, vz, grid))
    }

    /// Hoisted: the field view carries `(q/m)·Δt·(Δt/Δ)`, velocities are
    /// stored in cells per step and the kick and push are multiply-free.
    fn mover(&self, _def: &SpeciesDef, grid: &Grid2D) -> Mover {
        let dt = self.dt;
        // Δv_grid = (q/m)·E·Δt · (Δt/Δ) — all folded into the stored field.
        let c = QE * dt / ME;
        Mover {
            kick: Kick::Hoisted {
                field_scales: (c * dt / grid.dx(), c * dt / grid.dy()),
                to_stored: (dt / grid.dx(), dt / grid.dy()),
            },
            push_scale: 1.0,
            speed_scales: (grid.dx() / dt, grid.dy() / dt),
        }
    }

    fn solves_e(&self) -> bool {
        true
    }

    fn fingerprint(&self) -> u64 {
        ckpt::config_fingerprint(self)
    }

    /// The `PIC2DCKP` format of the one store.
    fn encode(view: &StateView<'_>) -> Vec<u8> {
        ckpt::encode_view(view)
    }

    fn decode(snapshot: &[u8]) -> Result<EmState, PicError> {
        ckpt::decode(snapshot)
    }
}

fn check_keep_cells(range: Option<(u32, u32)>, ncells: usize) -> Result<(), PicError> {
    match range {
        Some((lo, hi)) if lo >= hi || hi as usize > ncells => Err(PicError::Config(format!(
            "keep_cells {lo}..{hi} out of bounds for {ncells} cells"
        ))),
        _ => Ok(()),
    }
}

/// A running electrostatic PIC simulation: the engine over one electron
/// store ([`crate::engine`]).
pub type Simulation = Pic<PicConfig>;

/// The methods of the one-store electrostatic kind.
impl Pic<PicConfig> {
    /// Read-only particle view.
    pub fn particles(&self) -> &ParticlesSoA {
        &self.species[0].p
    }

    /// Mutable particle store. Drivers that migrate particles between ranks
    /// edit the arrays directly.
    pub fn particles_mut(&mut self) -> &mut ParticlesSoA {
        self.pass_kinetic = None;
        &mut self.species[0].p
    }

    /// `(ρ, Ex, Ey)` in one borrow — for external-solver drivers that read
    /// the reduced density and write field values in a single pass (the
    /// slab-distributed solve consumes owned-point ρ while depositing
    /// solved E at this rank's interpolation points).
    pub fn field_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.field.rho, &mut self.field.ex, &mut self.field.ey)
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
        check_keep_cells(range, self.layout.as_dyn().ncells())?;
        self.cfg.keep_cells = range;
        Ok(())
    }

    /// Finish a step whose Poisson solve happened *outside* this simulation:
    /// rebuild the redundant field view from the externally written
    /// [`field_mut`](Self::field_mut) arrays and record diagnostics.
    /// The decomposed driver uses this — the slab solve hands each rank its
    /// subdomain's E values, so the local solver never runs. Must follow a
    /// [`step_pre_reduce`](Self::step_pre_reduce).
    ///
    /// Diagnostics recorded here are *local* (this rank's particles, and
    /// field values only valid on the subdomain's points) — meaningful
    /// after a cross-rank reduction, not per rank.
    pub fn step_post_external_solve(&mut self) {
        self.refresh_field_views();
        self.record_diag();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort;

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

        // A NaN sample anywhere in the history makes the drift NaN.
        for at in [0, 20] {
            let mut diag = sim.diagnostics().clone();
            diag.history[at].kinetic = f64::NAN;
            assert!(diag.relative_energy_drift().is_nan(), "NaN at sample {at}");
        }
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
                let (p, layout) = (sim.particles(), sim.cell_layout());
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
        // A pool needs a worker; zero used to run silently on one thread.
        cfg.n_particles = 100;
        cfg.threads = 0;
        assert!(matches!(Simulation::new(cfg), Err(PicError::Config(_))));
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
