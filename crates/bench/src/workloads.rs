//! Standard experiment configurations — scaled versions of the paper's
//! Table I test case, plus the per-experiment variants.
//!
//! The paper runs 50 M particles for 100 iterations on one Haswell core;
//! the harness defaults are ~50× smaller so every experiment finishes in
//! seconds, and every binary accepts `--particles/--iters/--grid` to scale
//! back up to paper size.

use crate::reference::{
    FieldLayout, LoopStructure, ParticleLayout, PositionUpdate, ReferenceRun, Variant,
};
use pic_core::particles::ParticlesSoA;
use pic_core::sim::{PhaseTimes, PicConfig, Simulation};
use pic_core::PicError;
use sfc::Ordering;

/// Default particle count for harness runs.
pub const DEFAULT_PARTICLES: usize = 1_000_000;
/// Default iteration count (the paper's 100).
pub const DEFAULT_ITERS: usize = 100;
/// Default grid edge (the paper's 128).
pub const DEFAULT_GRID: usize = 128;

/// The Table I configuration at the given scale, fully optimized, with a
/// chosen ordering.
pub fn table1(particles: usize, grid: usize, ordering: Ordering) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(particles);
    cfg.grid_nx = grid;
    cfg.grid_ny = grid;
    cfg.ordering = ordering;
    cfg
}

/// One row of a table: a label, the configuration, and the reference
/// [`Variant`] whose loops it times — `None` for rows that are settings of
/// the production driver.
pub type Row = (&'static str, PicConfig, Option<Variant>);

/// The rungs of the Table IV optimization ladder, in paper order, plus an
/// eighth rung, the production driver: the lane-blocked kernels and the
/// vectorized deposition (an optimization on top of the paper's ladder;
/// the paper gets its vectorization from icc's auto-vectorizer, this
/// codebase makes the lane blocking explicit and deposits through the
/// reassociated per-lane private-ρ kernel). The seven paper rungs are
/// reference variants run as whole-array scalar loops with the exact
/// scalar-order deposit — the last of them, "+ Optimized update-positions
/// loop", through pic-core's public scalar kernels — so the lane kernels,
/// the strip-mined pass and the vectorized deposit enter the ladder
/// together. Rows share grid/particles/seed so timings are comparable.
pub fn table4_ladder(particles: usize, grid: usize) -> Vec<Row> {
    let mut cfg = table1(particles, grid, Ordering::RowMajor);
    let mut v = Variant::BASELINE;
    let mut ladder = vec![("Baseline", cfg.clone(), Some(v))];
    // Pre-scale the stored field by qΔt²/(mΔx) and the velocities by Δt/Δx
    // so the fused loop carries no per-particle constant multiplies (§IV-D,
    // paper gain: 5.8%).
    v.hoisted = true;
    ladder.push(("+ Loop Hoisting", cfg.clone(), Some(v)));
    v.loops = LoopStructure::Split;
    ladder.push(("+ Loop Splitting", cfg.clone(), Some(v)));
    v.fields = FieldLayout::Redundant;
    v.push = PositionUpdate::Branchless; // the only push the AoS redundant pipeline has
    ladder.push(("+ Redundant arrays (E and rho)", cfg.clone(), Some(v)));
    v.particles = ParticleLayout::Soa;
    v.push = PositionUpdate::NaiveIf;
    ladder.push(("+ Structure of Arrays (particles)", cfg.clone(), Some(v)));
    cfg.ordering = Ordering::Morton;
    ladder.push(("+ Space-filling curves (E and rho)", cfg.clone(), Some(v)));
    v.push = PositionUpdate::Branchless;
    ladder.push(("+ Optimized update-positions loop", cfg.clone(), Some(v)));
    ladder.push(("+ Lane-blocked kernels + Vectorized deposition", cfg, None));
    ladder
}

/// The four variants of Table VII on the redundant row-major structures;
/// (SoA, 3 loops) is the production driver.
pub fn table7_variants() -> [(&'static str, Option<Variant>); 4] {
    let v = |particles, loops| {
        Some(Variant {
            particles,
            fields: FieldLayout::Redundant,
            loops,
            push: PositionUpdate::Branchless,
            hoisted: true,
        })
    };
    [
        ("AoS, 1 loop", v(ParticleLayout::Aos, LoopStructure::Fused)),
        ("AoS, 3 loops", v(ParticleLayout::Aos, LoopStructure::Split)),
        ("SoA, 1 loop", v(ParticleLayout::Soa, LoopStructure::Fused)),
        ("SoA, 3 loops", None),
    ]
}

/// Run a fresh simulation for `iters` steps and return it (timers warm).
/// Configuration errors (e.g. a non-power-of-two `--grid`) propagate so the
/// binaries can exit with a diagnostic instead of a backtrace.
pub fn run_fresh(cfg: PicConfig, iters: usize) -> Result<Simulation, PicError> {
    let mut sim = Simulation::new(cfg)?;
    sim.reset_timers();
    sim.run(iters);
    Ok(sim)
}

/// Run one table row for `iters` steps — through the reference driver when
/// it names a variant, through [`Simulation`] otherwise — and return the
/// phase timers and the final grid ρ.
pub fn run_row(
    cfg: PicConfig,
    variant: Option<Variant>,
    iters: usize,
) -> Result<(PhaseTimes, Vec<f64>), PicError> {
    Ok(match variant {
        Some(v) => {
            let run = ReferenceRun::run_fresh(cfg, v, iters)?;
            (run.timers(), run.rho().to_vec())
        }
        None => {
            let sim = run_fresh(cfg, iters)?;
            (sim.timers(), sim.rho().to_vec())
        }
    })
}

/// The state a period-20 run hands its sort: Table I on 128², sorted at
/// init, then pushed 19 times without sorting.
pub fn drifted_landau(particles: usize) -> Result<ParticlesSoA, PicError> {
    let mut cfg = PicConfig::landau_table1(particles);
    cfg.sort_period = 0;
    let mut sim = Simulation::new(cfg)?;
    sim.run(19);
    Ok(sim.particles().clone())
}

/// Plain copy of the seven particle columns into an equally sized store —
/// the floor any out-of-place sort sits on.
pub fn copy_columns(src: &ParticlesSoA, dst: &mut ParticlesSoA) {
    dst.icell.copy_from_slice(&src.icell);
    dst.ix.copy_from_slice(&src.ix);
    dst.iy.copy_from_slice(&src.iy);
    dst.dx.copy_from_slice(&src.dx);
    dst.dy.copy_from_slice(&src.dy);
    dst.vx.copy_from_slice(&src.vx);
    dst.vy.copy_from_slice(&src.vy);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_ordered_and_agree_on_physics() {
        let ladder = table4_ladder(800, 32);
        assert_eq!(ladder.len(), 8);
        assert_eq!(ladder[0].0, "Baseline");
        assert_eq!(ladder[0].2, Some(Variant::BASELINE));
        // The seven paper rungs are reference variants — the last the
        // production layout as whole-array scalar loops, the first the only
        // unhoisted one — and the top rung is the production driver.
        assert!(ladder[..7].iter().all(|r| r.2.is_some()));
        assert!(ladder[1..7].iter().all(|r| r.2.unwrap().hoisted));
        assert!(ladder[7].2.is_none());
        let production_shape = Variant {
            particles: ParticleLayout::Soa,
            fields: FieldLayout::Redundant,
            loops: LoopStructure::Split,
            push: PositionUpdate::Branchless,
            hoisted: true,
        };
        assert_eq!(ladder[6].2, Some(production_shape));
        assert!(matches!(ladder[7].1.ordering, Ordering::Morton));

        // Every rung must compute the same ρ (same seed & steps).
        let mut reference: Option<Vec<f64>> = None;
        for (label, cfg, variant) in ladder {
            let (_, rho) = run_row(cfg, variant, 3).unwrap_or_else(|e| panic!("{label}: {e}"));
            let r = reference.get_or_insert_with(|| rho.clone());
            for i in 0..r.len() {
                assert!(
                    (r[i] - rho[i]).abs() < 1e-8,
                    "{label}: rho[{i}] diverged: {} vs {}",
                    rho[i],
                    r[i]
                );
            }
        }
    }

    #[test]
    fn table7_variants_valid() {
        for (label, variant) in table7_variants() {
            let cfg = table1(500, 32, Ordering::RowMajor);
            run_row(cfg, variant, 1).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
