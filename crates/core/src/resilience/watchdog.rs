//! Runtime invariant monitors for the step loop.
//!
//! A healthy PIC step preserves a handful of cheap-to-check invariants:
//! every grid quantity is finite, every particle sits in a valid cell with
//! in-range offsets, the total deposited charge is constant (CIC weights
//! sum to one per particle), and the total energy drifts only slowly. A
//! violated invariant means state corruption — a bad reduction in a
//! distributed run, a torn checkpoint, or genuine numerical divergence —
//! and the sooner it is caught, the less work is lost.
//!
//! [`check_invariants`] performs one scan and reports the first violation
//! as [`PicError::Diverged`]. [`run_resilient`] wraps the step loop with
//! periodic scans and checkpoints: a violation rolls the simulation back to
//! the last good snapshot and retries; repeated violations at the same
//! point surface the error to the caller instead of looping forever.

use crate::engine::kind::Kind;
use crate::engine::Pic;
use crate::PicError;

/// Thresholds and cadences for the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Run the invariant scan every this many steps (≥ 1).
    pub check_every: usize,
    /// Capture a checkpoint every this many steps (≥ 1) in
    /// [`run_resilient`]; checkpoints are only taken after a clean scan.
    pub checkpoint_every: usize,
    /// Maximum tolerated relative total-energy drift over the run.
    pub max_energy_drift: f64,
    /// Relative tolerance on total-charge conservation.
    pub charge_rel_tol: f64,
    /// Rollback attempts from one snapshot before giving up. The
    /// simulation itself is deterministic, so this bounds retries against
    /// *external* nondeterminism (e.g. a flaky reduction callback).
    pub max_rollbacks: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            check_every: 1,
            checkpoint_every: 10,
            max_energy_drift: 0.10,
            charge_rel_tol: 1e-6,
            max_rollbacks: 3,
        }
    }
}

/// Outcome of a [`run_resilient`] call that reached the target step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientReport {
    /// Steps actually executed, including replayed ones.
    pub steps_executed: usize,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// Checkpoints captured (excluding the initial one).
    pub checkpoints: usize,
}

fn scan_finite(name: &str, values: &[f64]) -> Result<(), PicError> {
    for (i, &v) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(PicError::Diverged(format!("{name}[{i}] is {v}")));
        }
    }
    Ok(())
}

/// Scan a simulation of either kind for invariant violations; `Ok(())`
/// means healthy.
pub fn check_invariants<C: Kind>(sim: &Pic<C>, wcfg: &WatchdogConfig) -> Result<(), PicError> {
    // 1. Grid quantities must be finite.
    let (ex, ey) = sim.e_field();
    scan_finite("rho", sim.rho())?;
    scan_finite("ex", ex)?;
    scan_finite("ey", ey)?;
    // **J** is a function of the particles checked below: scan it only
    // when a read has deposited it.
    for (name, j) in ["jx", "jy", "jz"]
        .iter()
        .zip(sim.j.get().into_iter().flatten())
    {
        scan_finite(name, j)?;
    }

    // 2. Every particle must reference a valid cell, with consistent
    //    (ix, iy) ↔ icell encoding, in-cell offsets in [0, 1] (the push can
    //    round an offset up to exactly 1.0) and finite velocities.
    let grid = sim.grid();
    let (ncx, ncy) = (grid.ncx, grid.ncy);
    let layout = sim.cell_layout();
    let ncells = layout.ncells();
    for s in &sim.species {
        let (p, name) = (&s.p, &s.def.name);
        let bad = |what: String| {
            Err(PicError::Diverged(format!(
                "species '{name}' particle {what}"
            )))
        };
        for i in 0..p.len() {
            let (c, x, y) = (p.icell[i] as usize, p.ix[i] as usize, p.iy[i] as usize);
            if c >= ncells || x >= ncx || y >= ncy {
                return bad(format!(
                    "{i} out of range: icell {c} (ncells {ncells}), ix {x} (ncx {ncx}), iy {y} (ncy {ncy})"
                ));
            }
            if layout.encode(x, y) != c {
                let e = layout.encode(x, y);
                return bad(format!(
                    "{i}: icell {c} disagrees with encode({x}, {y}) = {e}"
                ));
            }
            let (dx, dy) = (p.dx[i], p.dy[i]);
            if !(0.0..=1.0).contains(&dx) || !(0.0..=1.0).contains(&dy) {
                return bad(format!("{i}: offsets ({dx}, {dy}) outside [0, 1]"));
            }
            let v = [p.vx[i], p.vy[i], s.vz.get(i).copied().unwrap_or(0.0)];
            if !v.iter().all(|v| v.is_finite()) {
                return bad(format!("{i}: non-finite velocity {v:?}"));
            }
        }
    }

    // 3. Total charge must match the reference captured at initialization.
    //    A neutral plasma's reference is ~0, so the tolerance scales with the
    //    larger of |reference| and the total |deposited charge|.
    let total = sim.total_charge();
    let reference = sim.charge_reference();
    let deposited: f64 = (sim.species.iter())
        .map(|s| (s.deposit_weight(grid) * s.len() as f64).abs())
        .sum();
    let tol = wcfg.charge_rel_tol * reference.abs().max(deposited).max(1.0);
    if (total - reference).abs() > tol {
        return Err(PicError::Diverged(format!(
            "total charge {total} deviates from reference {reference} by more than {tol:e}"
        )));
    }

    // 4. Energy drift over the recorded history, when E is solved.
    let drift = sim.diagnostics().relative_energy_drift();
    if sim.cfg.solves_e() && (!drift.is_finite() || drift > wcfg.max_energy_drift) {
        return Err(PicError::Diverged(format!(
            "relative energy drift {drift:.3e} exceeds threshold {:.3e}",
            wcfg.max_energy_drift
        )));
    }

    Ok(())
}

/// A structured invariant violation — [`check_invariants`] exported as
/// data for runtimes that ledger watchdog verdicts per tenant instead of
/// aborting the process.
#[derive(Debug, Clone)]
pub struct WatchdogViolation {
    /// Step the violation was observed at.
    pub step: u64,
    /// Description of the first failed invariant.
    pub detail: String,
}

/// Scan invariants and export the verdict: `None` means healthy, `Some`
/// carries the step and the first failed invariant — the shape a
/// multi-tenant runtime records into its [`crate::faultlog::FaultLog`]
/// and attaches to quarantine evidence.
pub fn scan_violation<C: Kind>(sim: &Pic<C>, wcfg: &WatchdogConfig) -> Option<WatchdogViolation> {
    match check_invariants(sim, wcfg) {
        Ok(()) => None,
        Err(e) => Some(WatchdogViolation {
            step: sim.steps() as u64,
            detail: e.to_string(),
        }),
    }
}

/// Run `nsteps` steps under watchdog protection (single-process loop).
pub fn run_resilient<C: Kind>(
    sim: &mut Pic<C>,
    nsteps: usize,
    wcfg: &WatchdogConfig,
) -> Result<ResilientReport, PicError> {
    run_resilient_with_reduce(sim, nsteps, wcfg, |_| {})
}

/// Run `nsteps` steps under watchdog protection, threading a charge
/// reduction callback through every step (the distributed-run hook of
/// [`Pic::step_with_reduce`]).
///
/// After each scan interval the invariants are checked; a violation rolls
/// the simulation back to the last good checkpoint and replays. More than
/// [`WatchdogConfig::max_rollbacks`] consecutive rollbacks without
/// progress surface the violation as [`PicError::Diverged`].
pub fn run_resilient_with_reduce<C: Kind>(
    sim: &mut Pic<C>,
    nsteps: usize,
    wcfg: &WatchdogConfig,
    mut reduce: impl FnMut(&mut [f64]),
) -> Result<ResilientReport, PicError> {
    let check_every = wcfg.check_every.max(1);
    let checkpoint_every = wcfg.checkpoint_every.max(1);
    let target = sim.steps() + nsteps;

    let mut last_good = sim.checkpoint();
    let mut last_good_step = sim.steps();
    let mut report = ResilientReport {
        steps_executed: 0,
        rollbacks: 0,
        checkpoints: 0,
    };
    let mut rollbacks_here = 0usize;

    while sim.steps() < target {
        sim.step_with_reduce(&mut reduce);
        report.steps_executed += 1;

        let due = sim.steps().is_multiple_of(check_every) || sim.steps() == target;
        if !due {
            continue;
        }
        match check_invariants(sim, wcfg) {
            Ok(()) => {
                if sim.steps().is_multiple_of(checkpoint_every) || sim.steps() == target {
                    last_good = sim.checkpoint();
                    last_good_step = sim.steps();
                    report.checkpoints += 1;
                    rollbacks_here = 0;
                }
            }
            Err(e) => {
                rollbacks_here += 1;
                if rollbacks_here > wcfg.max_rollbacks {
                    return Err(e);
                }
                report.rollbacks += 1;
                sim.restore(&last_good)?;
                debug_assert_eq!(sim.steps(), last_good_step);
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{PicConfig, Simulation};

    fn small_sim() -> Simulation {
        let mut cfg = PicConfig::landau_table1(2000);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        Simulation::new(cfg).unwrap()
    }

    /// A healthy run of either kind passes, including an offset of exactly
    /// 1.0: the push that both kinds run floors a position a hair below a
    /// cell edge into the cell below, and `x − floor(x)` rounds up to 1.0.
    /// Anything past 1.0 is a violation.
    #[test]
    fn healthy_run_passes() {
        use crate::em::{EmConfig, EmSimulation};
        use crate::kernels::position::update_positions_branchless as push;
        let (mut c, mut ix, mut iy, mut dx, mut dy) = ([0], [0], [0], [0.0], [0.5]);
        let (vx, vy) = ([-1e-20], [0.0]);
        push(
            &mut c, &mut ix, &mut iy, &mut dx, &mut dy, &vx, &vy, 8, 8, 1.0,
        );
        assert_eq!((ix[0], dx[0]), (7, 1.0));

        fn check<C: Kind>(name: &str, mut sim: Pic<C>) {
            sim.run(5);
            let wcfg = WatchdogConfig::default();
            check_invariants(&sim, &wcfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            sim.species[0].p.dx[0] = 1.0;
            check_invariants(&sim, &wcfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            sim.species[0].p.dy[0] = 1.0 + f64::EPSILON;
            let err = check_invariants(&sim, &wcfg).unwrap_err();
            assert!(
                matches!(err, PicError::Diverged(ref m) if m.contains("offsets")),
                "{name}"
            );
        }
        check("electrostatic", small_sim());
        let mut cfg = EmConfig::ion_acoustic(2000);
        (cfg.grid_nx, cfg.grid_ny) = (16, 16);
        check("2d3v", EmSimulation::new(cfg).unwrap());
    }

    #[test]
    fn resilient_run_without_faults_matches_plain_run() {
        let mut a = small_sim();
        let mut b = small_sim();
        a.run(12);
        let report = run_resilient(&mut b, 12, &WatchdogConfig::default()).unwrap();
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.steps_executed, 12);
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.particles().dx, b.particles().dx);
    }

    #[test]
    fn corrupted_reduce_triggers_rollback_and_recovers() {
        // A reduction callback that injects NaN into ρ exactly once. The
        // watchdog must catch it, roll back, replay cleanly, and end at a
        // state identical to the fault-free run.
        let mut clean = small_sim();
        clean.run(10);

        let mut sim = small_sim();
        let mut armed = true;
        let report = run_resilient_with_reduce(&mut sim, 10, &WatchdogConfig::default(), |rho| {
            if armed {
                armed = false;
                rho[0] = f64::NAN;
            }
        })
        .unwrap();
        assert_eq!(report.rollbacks, 1);
        assert!(report.steps_executed > 10, "one step was replayed");
        assert_eq!(sim.steps(), 10);
        assert_eq!(sim.rho(), clean.rho());
    }

    #[test]
    fn persistent_corruption_surfaces_diverged() {
        let mut sim = small_sim();
        let err = run_resilient_with_reduce(
            &mut sim,
            10,
            &WatchdogConfig {
                max_rollbacks: 2,
                ..Default::default()
            },
            |rho| rho[0] = f64::INFINITY,
        )
        .unwrap_err();
        assert!(matches!(err, PicError::Diverged(_)), "{err}");
    }

    #[test]
    fn energy_drift_threshold_fires() {
        let mut sim = small_sim();
        sim.run(5);
        let strict = WatchdogConfig {
            max_energy_drift: 0.0,
            ..Default::default()
        };
        let err = check_invariants(&sim, &strict).unwrap_err();
        assert!(
            matches!(err, PicError::Diverged(ref m) if m.contains("drift")),
            "{err}"
        );
    }
}
