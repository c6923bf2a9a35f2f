//! Fault tolerance for the simulation runtime.
//!
//! Two mechanisms, usable separately or together:
//!
//! * [`checkpoint`] — a versioned, checksummed binary snapshot format for
//!   the full simulation state (particles, fields, RNG stream, step
//!   counter, diagnostics history). Restoring a snapshot and continuing is
//!   bit-exact against an uninterrupted run:
//!   [`Simulation::checkpoint`](crate::sim::Simulation::checkpoint) /
//!   [`Simulation::restore`](crate::sim::Simulation::restore).
//! * [`watchdog`] — runtime invariant monitors for the step loop: NaN/Inf
//!   scans of the grid quantities, particle cell/offset range validation,
//!   total-charge conservation, and energy-drift thresholds. Violations
//!   either roll the simulation back to the last good checkpoint
//!   ([`watchdog::run_resilient`]) or surface as a clean
//!   [`PicError::Diverged`](crate::PicError::Diverged).
//!
//! Surviving a killed rank is the decomposition layer's job
//! (`decomp::elastic`), which replicates these snapshots to ring buddies.
//! See `DESIGN.md` § "Resilience model" and § "Crash-fault model" for the
//! formats and the threat model.

pub mod checkpoint;
pub mod watchdog;

pub use checkpoint::{decode, EmState, FORMAT_VERSION};
pub use watchdog::{
    check_invariants, run_resilient, scan_violation, ResilientReport, WatchdogConfig,
    WatchdogViolation,
};
