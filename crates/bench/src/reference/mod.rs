//! The paper's ablation space as code the harness calls.
//!
//! `pic_core::sim::Simulation` runs one particle path: SoA particles,
//! redundant cell-based E/ρ, three split loops, branchless push. Everything
//! the paper measures that path *against* lives here instead — the scalar
//! AoS ([`aos`]), fused, standard-field and naive-push ([`soa`]) kernels, one
//! [`Variant`] value naming a cell of §IV's ablation space, and a small
//! [`ReferenceRun`] that steps a variant's loops over state lifted from a
//! production `Simulation::new`. Tables III ("2d standard"), IV (the seven
//! paper rungs, "+ Optimized update-positions loop" included) and VII drive
//! it, and its test is the oracle that holds every variant to the
//! production ρ.

pub mod aos;
pub mod soa;
pub mod sort;

use aos::ParticlesAoS;
use pic_core::fields::{Field2D, RedundantE, RedundantRho};
use pic_core::grid::Grid2D;
use pic_core::kernels::{accumulate, position, velocity};
use pic_core::particles::{particle_weight, ParticlesSoA};
use pic_core::sim::{AnyLayout, PhaseTimes, PicConfig, Simulation, ME, QE};
use pic_core::sort::{sort_out_of_place_with, SortArena};
use pic_core::PicError;
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::time::Instant;

/// Particle storage layout (§IV-C1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticleLayout {
    /// Array of Structures — the baseline.
    Aos,
    /// Structure of Arrays — the vectorizable layout.
    Soa,
}

/// Grid-quantity storage layout (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldLayout {
    /// Standard 2-D grid-point arrays.
    Standard,
    /// Redundant cell-based arrays (4× memory, contiguous per-particle).
    Redundant,
}

/// Particle-loop structure (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopStructure {
    /// One loop whose body kicks, pushes and deposits a single particle
    /// before moving to the next — the shape the paper splits away from.
    Fused,
    /// Kick, push and deposit as three whole-array loops.
    Split,
}

/// Shape of the update-positions loop (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionUpdate {
    /// `if` + real modulo + `floor()` call.
    NaiveIf,
    /// Unconditional integer modulo.
    ModuloInt,
    /// Branchless int-cast floor + bitwise AND wrap.
    Branchless,
}

/// One cell of the paper's ablation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Particle storage.
    pub particles: ParticleLayout,
    /// E/ρ storage.
    pub fields: FieldLayout,
    /// One fused loop or three split ones.
    pub loops: LoopStructure,
    /// Update-positions shape (the fused loops bake theirs in).
    pub push: PositionUpdate,
}

impl Variant {
    /// Table IV's baseline: AoS, standard arrays, one fused loop, naive push.
    pub const BASELINE: Variant = Variant {
        particles: ParticleLayout::Aos,
        fields: FieldLayout::Standard,
        loops: LoopStructure::Fused,
        push: PositionUpdate::NaiveIf,
    };

    /// Every variant that names a loop body of its own (13 of the 24
    /// nominal combinations — the rest only alias one of these).
    pub fn all() -> Vec<Variant> {
        use {FieldLayout::*, LoopStructure::*, ParticleLayout::*, PositionUpdate::*};
        let mut out = Vec::new();
        for particles in [Aos, Soa] {
            for fields in [Standard, Redundant] {
                for loops in [Fused, Split] {
                    for push in [NaiveIf, ModuloInt, Branchless] {
                        let v = Variant {
                            particles,
                            fields,
                            loops,
                            push,
                        };
                        if v.check(true, true).is_ok() {
                            out.push(v);
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether this variant has kernels for the given cell ordering and
    /// hoisting convention; the message says what is missing.
    pub fn check(&self, row_major: bool, hoisted: bool) -> Result<(), PicError> {
        use {FieldLayout::*, LoopStructure::*, ParticleLayout::*, PositionUpdate::*};
        let err = |msg: &str| Err(PicError::Config(format!("{self:?}: {msg}")));
        match (self.loops, self.fields, self.push) {
            (Fused, Standard, NaiveIf) | (Fused, Redundant, Branchless) | (Split, _, _) => {}
            (Fused, Standard, _) => return err("the fused standard loop pushes naive-if"),
            (Fused, Redundant, _) => return err("the fused redundant loop pushes branchless"),
        }
        match (self.particles, self.loops, self.fields, self.push) {
            (Aos, Split, Redundant, NaiveIf | ModuloInt) => {
                return err("the AoS redundant pipeline pushes branchless only")
            }
            (Aos, Split, Standard, ModuloInt) => return err("no AoS integer-modulo push"),
            _ => {}
        }
        if !row_major {
            match (self.fields, self.loops, self.push) {
                (Standard, _, _) => return err("standard field arrays are row-major"),
                (Redundant, Fused, _) => return err("the fused redundant loop is row-major only"),
                (Redundant, Split, ModuloInt) => {
                    return err("the integer-modulo push is row-major only")
                }
                _ => {}
            }
        }
        if !hoisted && (self.loops, self.fields) == (Fused, Redundant) {
            return err("the fused redundant loop is written hoisted");
        }
        Ok(())
    }
}

/// A PIC run whose particle loops are a [`Variant`]'s reference kernels.
///
/// The state (sampled particles, initial ρ and E, leap-frog half-kick,
/// velocity normalization) is lifted from a production
/// [`Simulation::new`], so a reference run and a production run of the same
/// `PicConfig` start from the same bits. Each step is the paper's Fig. 1:
/// periodic out-of-place sort, the variant's loops, the serial Poisson
/// solve — timed into the same [`PhaseTimes`] buckets `Simulation` fills.
/// No diagnostics, no controller, no checkpoint: it exists to be timed and
/// to be compared against.
pub struct ReferenceRun {
    variant: Variant,
    cfg: PicConfig,
    grid: Grid2D,
    layout: AnyLayout,
    solver: PoissonSolver2D,
    /// The store of SoA variants; for AoS ones, where the sort happens.
    particles: ParticlesSoA,
    /// The store of AoS variants.
    aos: Option<ParticlesAoS>,
    field: Field2D,
    e8: RedundantE,
    rho4: RedundantRho,
    /// Signed charge density one marker deposits.
    w: f64,
    step_count: usize,
    timers: PhaseTimes,
    sort_arena: SortArena,
    solve_scratch: SolveScratch,
}

/// Run `f` and add its wall seconds to `bucket`.
fn timed(bucket: &mut f64, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    *bucket += t.elapsed().as_secs_f64();
}

impl ReferenceRun {
    /// Initialize `cfg` through the production driver and lift its state.
    /// `cfg.deposit_path` and `controller` are ignored (the reference
    /// loops are scalar and exact); `threads > 1` fans out the
    /// AoS redundant loops only.
    pub fn new(cfg: PicConfig, variant: Variant) -> Result<Self, PicError> {
        let layout = AnyLayout::build(cfg.ordering, cfg.grid_nx, cfg.grid_ny)?;
        variant.check(layout.is_row_major(), cfg.hoisted)?;
        let sim = Simulation::new(cfg)?;
        let (cfg, grid) = (sim.config().clone(), *sim.grid());
        let mut field = Field2D::new(&grid);
        field.rho.copy_from_slice(sim.rho());
        field.ex.copy_from_slice(sim.e_field().0);
        field.ey.copy_from_slice(sim.e_field().1);
        let particles = sim.particles().clone();
        let mut run = Self {
            variant,
            aos: (variant.particles == ParticleLayout::Aos)
                .then(|| ParticlesAoS::from_soa(&particles)),
            particles,
            solver: PoissonSolver2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?,
            e8: RedundantE::new(layout.as_dyn()),
            rho4: RedundantRho::new(layout.as_dyn()),
            w: QE * particle_weight(&grid, cfg.n_particles) / (grid.dx() * grid.dy()),
            step_count: 0,
            timers: PhaseTimes::default(),
            sort_arena: SortArena::new(),
            solve_scratch: SolveScratch::new(),
            field,
            layout,
            grid,
            cfg,
        };
        run.refresh_e8();
        run.timers = PhaseTimes::default();
        Ok(run)
    }

    /// [`new`](Self::new), then `iters` steps.
    pub fn run_fresh(cfg: PicConfig, variant: Variant, iters: usize) -> Result<Self, PicError> {
        let mut run = Self::new(cfg, variant)?;
        run.run(iters);
        Ok(run)
    }

    /// Per-phase cumulative timings.
    pub fn timers(&self) -> PhaseTimes {
        self.timers
    }

    /// Charge density on grid points (row-major), as of the last step.
    pub fn rho(&self) -> &[f64] {
        &self.field.rho
    }

    /// The particles, as SoA (converted for AoS variants).
    pub fn particles(&self) -> ParticlesSoA {
        match &self.aos {
            Some(aos) => aos.to_soa(),
            None => self.particles.clone(),
        }
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advance one time step (paper Fig. 1, lines 4–13).
    pub fn step(&mut self) {
        self.step_count += 1;
        let period = self.cfg.sort_period;
        if period > 0 && self.step_count.is_multiple_of(period) {
            self.sort();
        }
        match self.aos.take() {
            Some(mut aos) => {
                self.loops_aos(&mut aos);
                self.aos = Some(aos);
            }
            None => self.loops_soa(),
        }
        let (f, t) = (&mut self.field, &mut self.timers);
        timed(&mut t.solve, || {
            self.solver
                .solve_e_with(&f.rho, &mut f.ex, &mut f.ey, &mut self.solve_scratch)
        });
        self.refresh_e8();
    }

    fn sort(&mut self) {
        let t = Instant::now();
        if let Some(aos) = &self.aos {
            self.particles = aos.to_soa();
        }
        let ncells = self.layout.as_dyn().ncells();
        // The arena holds all the sort's scratch; the store argument is
        // ignored.
        sort_out_of_place_with(
            &mut self.particles,
            &mut ParticlesSoA::default(),
            ncells,
            &mut self.sort_arena,
        );
        if self.aos.is_some() {
            self.aos = Some(ParticlesAoS::from_soa(&self.particles));
        }
        self.timers.sort += t.elapsed().as_secs_f64();
    }

    /// Pre-scale factors of the stored kick field: `qΔt²/(mΔ)` per axis
    /// under hoisting (§IV-D), 1 otherwise.
    fn kick_scales(&self) -> (f64, f64) {
        if self.cfg.hoisted {
            let c = QE * self.cfg.dt / ME;
            (
                c * self.cfg.dt / self.grid.dx(),
                c * self.cfg.dt / self.grid.dy(),
            )
        } else {
            (1.0, 1.0)
        }
    }

    /// Per-particle `(coeff_x, coeff_y, push scale)`: all 1 under hoisting,
    /// `(qΔt/m, qΔt/m, Δt/Δx)` otherwise (square cells).
    fn coeffs(&self) -> (f64, f64, f64) {
        if self.cfg.hoisted {
            (1.0, 1.0, 1.0)
        } else {
            let c = QE * self.cfg.dt / ME;
            (c, c, self.cfg.dt / self.grid.dx())
        }
    }

    /// The grid field the standard-layout kick reads: a copy, pre-scaled
    /// under hoisting (one O(ncells) pass per step instead of O(N)
    /// per-particle multiplies).
    fn standard_kick_field(&self) -> Field2D {
        let (sx, sy) = self.kick_scales();
        let mut f = self.field.clone();
        f.ex.iter_mut().for_each(|v| *v *= sx);
        f.ey.iter_mut().for_each(|v| *v *= sy);
        f
    }

    /// Rebuild the redundant field view (redundant variants only).
    fn refresh_e8(&mut self) {
        if self.variant.fields == FieldLayout::Redundant {
            let (sx, sy) = self.kick_scales();
            timed(&mut self.timers.convert, || {
                self.e8.fill_from(&self.field, self.layout.as_dyn(), sx, sy)
            });
        }
    }

    fn reduce_rho4(&mut self) {
        timed(&mut self.timers.convert, || {
            self.rho4
                .reduce_to_grid(self.layout.as_dyn(), &mut self.field.rho)
        });
    }

    fn loops_soa(&mut self) {
        let (cx, cy, scale) = self.coeffs();
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let w = self.w;
        match (self.variant.loops, self.variant.fields) {
            (LoopStructure::Fused, FieldLayout::Standard) => {
                let kick = self.standard_kick_field();
                let (p, rho) = (&mut self.particles, &mut self.field.rho);
                timed(&mut self.timers.accumulate, || {
                    rho.fill(0.0);
                    soa::fused_standard_soa(p, &kick, rho, cx, cy, scale, w);
                });
            }
            (LoopStructure::Fused, FieldLayout::Redundant) => {
                let (p, e8, rho4) = (&mut self.particles, &self.e8.e8, &mut self.rho4);
                timed(&mut self.timers.accumulate, || {
                    rho4.clear();
                    soa::fused_redundant_soa(p, e8, &mut rho4.rho4, ncx, ncy, w);
                });
                self.reduce_rho4();
            }
            (LoopStructure::Split, fields) => {
                let redundant = fields == FieldLayout::Redundant;
                let kick_field = (!redundant).then(|| self.standard_kick_field());
                let ParticlesSoA {
                    icell,
                    ix,
                    iy,
                    dx,
                    dy,
                    vx,
                    vy,
                } = &mut self.particles;
                let (e8, hoisted) = (&self.e8.e8, self.cfg.hoisted);
                timed(&mut self.timers.update_v, || match &kick_field {
                    Some(f) => soa::update_velocities_standard(ix, iy, dx, dy, vx, vy, f, cx, cy),
                    None if hoisted => {
                        velocity::update_velocities_redundant_hoisted(icell, dx, dy, vx, vy, e8)
                    }
                    None => {
                        velocity::update_velocities_redundant(icell, dx, dy, vx, vy, e8, cx, cy)
                    }
                });
                let (push, layout) = (self.variant.push, &self.layout);
                timed(&mut self.timers.update_x, || {
                    macro_rules! in_layout {
                        ($l:expr) => {
                            match push {
                                PositionUpdate::NaiveIf => soa::update_positions_naive_if_layout(
                                    icell, ix, iy, dx, dy, vx, vy, $l, scale,
                                ),
                                _ => position::update_positions_branchless_layout(
                                    icell, ix, iy, dx, dy, vx, vy, $l, scale,
                                ),
                            }
                        };
                    }
                    match layout {
                        AnyLayout::RowMajor(_) => match push {
                            PositionUpdate::NaiveIf => soa::update_positions_naive_if(
                                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                            ),
                            PositionUpdate::ModuloInt => soa::update_positions_modulo(
                                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                            ),
                            PositionUpdate::Branchless => position::update_positions_branchless(
                                icell, ix, iy, dx, dy, vx, vy, ncx, ncy, scale,
                            ),
                        },
                        AnyLayout::L4D(l) => in_layout!(l),
                        AnyLayout::Morton(l) => in_layout!(l),
                        AnyLayout::Hilbert(l) => in_layout!(l),
                    }
                });
                let (rho, rho4) = (&mut self.field.rho, &mut self.rho4);
                timed(&mut self.timers.accumulate, || {
                    if redundant {
                        rho4.clear();
                        accumulate::accumulate_redundant(icell, dx, dy, &mut rho4.rho4, w);
                    } else {
                        rho.fill(0.0);
                        soa::accumulate_standard(ix, iy, dx, dy, rho, ncx, ncy, w);
                    }
                });
                if redundant {
                    self.reduce_rho4();
                }
            }
        }
    }

    fn loops_aos(&mut self, aos: &mut ParticlesAoS) {
        let (cx, cy, scale) = self.coeffs();
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let w = self.w;
        let par = self.cfg.threads > 1;
        let chunk = aos.len().div_ceil(self.cfg.threads.max(1) * 4).max(1);
        let p = &mut aos.p;
        match (self.variant.loops, self.variant.fields) {
            (LoopStructure::Fused, FieldLayout::Standard) => {
                let kick = self.standard_kick_field();
                let rho = &mut self.field.rho;
                timed(&mut self.timers.accumulate, || {
                    rho.fill(0.0);
                    aos::fused_standard_aos(p, &kick, rho, cx, cy, scale, w);
                });
            }
            (LoopStructure::Split, FieldLayout::Standard) => {
                let kick = self.standard_kick_field();
                timed(&mut self.timers.update_v, || {
                    aos::update_velocities_standard_aos(p, &kick, cx, cy)
                });
                let push = self.variant.push;
                timed(&mut self.timers.update_x, || match push {
                    PositionUpdate::NaiveIf => {
                        aos::update_positions_naive_if_aos(p, ncx, ncy, scale)
                    }
                    _ => aos::update_positions_branchless_aos(p, ncx, ncy, scale),
                });
                let rho = &mut self.field.rho;
                timed(&mut self.timers.accumulate, || {
                    rho.fill(0.0);
                    aos::accumulate_standard_aos(p, rho, ncx, ncy, w);
                });
            }
            (LoopStructure::Fused, FieldLayout::Redundant) => {
                let (e8, rho4) = (&self.e8.e8, &mut self.rho4);
                timed(&mut self.timers.accumulate, || {
                    rho4.clear();
                    if par {
                        aos::par_fused_redundant_aos(p, e8, rho4, ncx, ncy, w, chunk);
                    } else {
                        aos::fused_redundant_aos(p, e8, &mut rho4.rho4, ncx, ncy, w);
                    }
                });
                self.reduce_rho4();
            }
            (LoopStructure::Split, FieldLayout::Redundant) => {
                // The AoS kick has no coefficient form: unhoisted, fold the
                // coefficient into a scaled copy of the field once a step.
                let scaled: Vec<[f64; 8]>;
                let e8: &[[f64; 8]] = if self.cfg.hoisted {
                    &self.e8.e8
                } else {
                    let fold = |e: &[f64; 8]| std::array::from_fn(|k| e[k] * [cx, cy][k / 4]);
                    scaled = self.e8.e8.iter().map(fold).collect();
                    &scaled
                };
                timed(&mut self.timers.update_v, || {
                    if par {
                        aos::par_update_velocities_redundant_aos(p, e8, chunk);
                    } else {
                        aos::update_velocities_redundant_aos(p, e8);
                    }
                });
                let layout = &self.layout;
                timed(&mut self.timers.update_x, || {
                    macro_rules! in_layout {
                        ($l:expr) => {
                            if par {
                                aos::par_update_positions_branchless_layout_aos(p, $l, scale, chunk)
                            } else {
                                aos::update_positions_branchless_layout_aos(p, $l, scale)
                            }
                        };
                    }
                    match layout {
                        AnyLayout::RowMajor(_) if par => {
                            aos::par_update_positions_branchless_aos(p, ncx, ncy, scale, chunk)
                        }
                        AnyLayout::RowMajor(_) => {
                            aos::update_positions_branchless_aos(p, ncx, ncy, scale)
                        }
                        AnyLayout::L4D(l) => in_layout!(l),
                        AnyLayout::Morton(l) => in_layout!(l),
                        AnyLayout::Hilbert(l) => in_layout!(l),
                    }
                });
                let rho4 = &mut self.rho4;
                timed(&mut self.timers.accumulate, || {
                    rho4.clear();
                    if par {
                        aos::par_accumulate_redundant_aos(p, rho4, w, chunk);
                    } else {
                        aos::accumulate_redundant_aos(p, &mut rho4.rho4, w);
                    }
                });
                self.reduce_rho4();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::Ordering;

    fn small(ordering: Ordering, hoisted: bool) -> PicConfig {
        let mut cfg = PicConfig::landau_table1(2000);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg.ordering = ordering;
        cfg.hoisted = hoisted;
        cfg.sort_period = 3; // a sort inside the four steps
        cfg
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        (a.iter().zip(b))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn thirteen_variants_have_a_loop_body_of_their_own() {
        let all = Variant::all();
        assert_eq!(all.len(), 13);
        assert!(all.contains(&Variant::BASELINE));
    }

    /// The oracle: every variant, under every ordering and hoisting
    /// convention it has kernels for (and on two threads where it fans
    /// out), lands on the production path's ρ from the same seed.
    #[test]
    fn every_variant_matches_the_production_path() {
        const STEPS: usize = 4;
        let production = |ordering, hoisted| {
            let mut sim = Simulation::new(small(ordering, hoisted)).unwrap();
            sim.run(STEPS);
            sim
        };
        let anchor = production(Ordering::Morton, true);
        let mut rows = 0;
        for ordering in Ordering::paper_set() {
            let row_major = matches!(ordering, Ordering::RowMajor);
            for hoisted in [true, false] {
                let sim = production(ordering, hoisted);
                // Across orderings and hoisting conventions only the
                // rounding differs.
                assert!(max_abs_diff(sim.rho(), anchor.rho()) < 1e-8);
                for variant in Variant::all() {
                    if variant.check(row_major, hoisted).is_err() {
                        continue;
                    }
                    let fans_out = (variant.particles, variant.fields)
                        == (ParticleLayout::Aos, FieldLayout::Redundant);
                    let thread_counts: &[usize] = if fans_out { &[1, 2] } else { &[1] };
                    for &threads in thread_counts {
                        let what = format!("{variant:?} {ordering} hoisted={hoisted} x{threads}");
                        let mut cfg = small(ordering, hoisted);
                        cfg.threads = threads;
                        let run = ReferenceRun::run_fresh(cfg, variant, STEPS).unwrap();
                        let d = max_abs_diff(run.rho(), sim.rho());
                        assert!(d < 1e-9, "{what}: rho off by {d:e}");
                        let (total, want) = (run.rho().iter().sum::<f64>(), sim.charge_reference());
                        assert!(
                            (total - want).abs() <= 1e-12 * want.abs(),
                            "{what}: charge {total} vs {want}"
                        );
                        let p = run.particles();
                        assert_eq!(p.len(), sim.particles().len(), "{what}");
                        let layout = sim.cell_layout();
                        for i in 0..p.len() {
                            let (ix, iy) = (p.ix[i] as usize, p.iy[i] as usize);
                            assert!(ix < 32 && iy < 32, "{what}: particle {i} off grid");
                            assert_eq!(p.icell[i] as usize, layout.encode(ix, iy), "{what}");
                            assert!((0.0..=1.0).contains(&p.dx[i]), "{what}: dx {}", p.dx[i]);
                            assert!((0.0..=1.0).contains(&p.dy[i]), "{what}: dy {}", p.dy[i]);
                        }
                        rows += 1;
                    }
                }
            }
        }
        // 13 variants + 2 threaded rows hoisted on row-major, 11 + 1
        // unhoisted; 3 + 1 and 3 + 1 on each of the three curves.
        assert_eq!(rows, 15 + 12 + 3 * 8);
    }

    #[test]
    fn unsupported_combinations_are_refused_with_a_reason() {
        let v = Variant {
            fields: FieldLayout::Standard,
            ..Variant::BASELINE
        };
        let err = ReferenceRun::new(small(Ordering::Morton, true), v).err();
        assert!(matches!(err, Some(PicError::Config(m)) if m.contains("row-major")));
        let v = Variant {
            push: PositionUpdate::ModuloInt,
            ..Variant::BASELINE
        };
        assert!(v.check(true, true).is_err());
    }
}
