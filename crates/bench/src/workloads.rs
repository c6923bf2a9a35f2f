//! Standard experiment configurations — scaled versions of the paper's
//! Table I test case, plus the per-experiment variants.
//!
//! The paper runs 50 M particles for 100 iterations on one Haswell core;
//! the harness defaults are ~50× smaller so every experiment finishes in
//! seconds, and every binary accepts `--particles/--iters/--grid` to scale
//! back up to paper size.

use pic_core::particles::ParticlesSoA;
use pic_core::sim::{
    DepositPath, FieldLayout, KernelPath, LoopStructure, ParticleLayout, PicConfig, PositionUpdate,
    Simulation,
};
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

/// The rungs of the Table IV optimization ladder, in paper order, plus an
/// eighth rung for the lane-blocked kernel path (an optimization on top of
/// the paper's ladder; the paper gets its vectorization from icc's
/// auto-vectorizer, this codebase makes the lane blocking explicit) and a
/// ninth for the vectorized deposition (`DepositPath::LaneReduce` — the
/// reassociated per-lane private-ρ deposit, the fastest path in
/// `BENCH_kernels.json`; rungs 1–8 keep the exact scalar-order deposit).
/// Each entry is `(label, config)`; configs share grid/particles/seed so
/// timings are comparable.
pub fn table4_ladder(particles: usize, grid: usize) -> Vec<(&'static str, PicConfig)> {
    let base = |f: &dyn Fn(&mut PicConfig)| {
        let mut cfg = PicConfig::baseline(particles);
        cfg.grid_nx = grid;
        cfg.grid_ny = grid;
        f(&mut cfg);
        cfg
    };
    vec![
        ("Baseline", base(&|_| {})),
        (
            "+ Loop Hoisting",
            base(&|c| {
                // Pre-scale the stored field by qΔt²/(mΔx) and the velocities
                // by Δt/Δx so the fused loop carries no per-particle constant
                // multiplies (§IV-D, paper gain: 5.8%).
                c.hoisted = true;
                c.loop_structure = LoopStructure::Fused;
            }),
        ),
        (
            "+ Loop Splitting",
            base(&|c| {
                c.hoisted = true;
                c.loop_structure = LoopStructure::Split;
            }),
        ),
        (
            "+ Redundant arrays (E and rho)",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
            }),
        ),
        (
            "+ Structure of Arrays (particles)",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
                c.particle_layout = ParticleLayout::Soa;
            }),
        ),
        (
            "+ Space-filling curves (E and rho)",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
                c.particle_layout = ParticleLayout::Soa;
                c.ordering = Ordering::Morton;
            }),
        ),
        (
            "+ Optimized update-positions loop",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
                c.particle_layout = ParticleLayout::Soa;
                c.ordering = Ordering::Morton;
                c.position_update = PositionUpdate::Branchless;
            }),
        ),
        (
            "+ Lane-blocked kernels",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
                c.particle_layout = ParticleLayout::Soa;
                c.ordering = Ordering::Morton;
                c.position_update = PositionUpdate::Branchless;
                c.kernel_path = KernelPath::Lanes;
            }),
        ),
        (
            "+ Vectorized deposition",
            base(&|c| {
                c.loop_structure = LoopStructure::Split;
                c.field_layout = FieldLayout::Redundant;
                c.hoisted = true;
                c.particle_layout = ParticleLayout::Soa;
                c.ordering = Ordering::Morton;
                c.position_update = PositionUpdate::Branchless;
                c.kernel_path = KernelPath::Lanes;
                c.deposit_path = DepositPath::LaneReduce;
            }),
        ),
    ]
}

/// The four variants of Table VII: (label, particle layout, loop structure).
pub fn table7_variants() -> [(&'static str, ParticleLayout, LoopStructure); 4] {
    [
        ("AoS, 1 loop", ParticleLayout::Aos, LoopStructure::Fused),
        ("AoS, 3 loops", ParticleLayout::Aos, LoopStructure::Split),
        ("SoA, 1 loop", ParticleLayout::Soa, LoopStructure::Fused),
        ("SoA, 3 loops", ParticleLayout::Soa, LoopStructure::Split),
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
    fn ladder_configs_are_valid_and_ordered() {
        let ladder = table4_ladder(500, 32);
        assert_eq!(ladder.len(), 9);
        assert_eq!(ladder[0].0, "Baseline");
        for (label, cfg) in &ladder {
            Simulation::new(cfg.clone()).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        // Last rung is the fully optimized configuration.
        let last = &ladder[8].1;
        assert_eq!(last.particle_layout, ParticleLayout::Soa);
        assert_eq!(last.field_layout, FieldLayout::Redundant);
        assert_eq!(last.position_update, PositionUpdate::Branchless);
        assert_eq!(last.kernel_path, KernelPath::Lanes);
        assert_eq!(last.deposit_path, DepositPath::LaneReduce);
        assert!(matches!(last.ordering, Ordering::Morton));
        // All rungs below the lane rung run the scalar path, and every rung
        // below the top keeps the exact scalar-order deposit.
        assert!(ladder[..7]
            .iter()
            .all(|(_, c)| c.kernel_path == KernelPath::Scalar));
        assert!(ladder[..8]
            .iter()
            .all(|(_, c)| c.deposit_path == DepositPath::Exact));
    }

    #[test]
    fn ladder_rungs_agree_on_physics() {
        // Every rung must compute the same ρ (same seed & steps).
        let ladder = table4_ladder(800, 32);
        let mut reference: Option<Vec<f64>> = None;
        for (label, cfg) in ladder {
            let sim = run_fresh(cfg, 3).unwrap();
            let rho = sim.rho().to_vec();
            match &reference {
                None => reference = Some(rho),
                Some(r) => {
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
        }
    }

    #[test]
    fn table7_variants_valid() {
        for (label, pl, ls) in table7_variants() {
            let mut cfg = table1(500, 32, Ordering::RowMajor);
            cfg.particle_layout = pl;
            cfg.loop_structure = ls;
            Simulation::new(cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}
