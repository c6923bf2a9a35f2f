//! # pic-core — the 2d2v Vlasov–Poisson Particle-in-Cell library
//!
//! This crate implements the system of *Barsamian, Hirstoaga, Violard,
//! “Efficient Data Structures for a Hybrid Parallel and Vectorized
//! Particle-in-Cell Code”, IPDPSW 2017*: a minimal 2-D electrostatic PIC
//! code on the data layout the paper arrives at. The layouts and loop
//! shapes it is measured *against* (the lower rungs of Table IV, the
//! "2d standard" row of Table III, the AoS/fused cells of Table VII) are
//! reference kernels in `pic_bench::reference`, so the tables still
//! regenerate from one workspace.
//!
//! ## The PIC loop
//!
//! Each time step (paper's Fig. 1):
//! 1. periodically **sort** particles by cell index ([`sort`]);
//! 2. zero ρ, then for each particle **update velocity** (interpolate E),
//!    **update position** (periodic wrap), **accumulate charge**
//!    ([`kernels`] — three split loops, streamed strip by strip by [`pass`]);
//! 3. solve **Poisson** for E from ρ (the `spectral` crate).
//!
//! ## Data structures
//!
//! * particles: Structure of Arrays ([`particles`]);
//! * grid quantities: redundant cell-based arrays ([`fields`]);
//! * cell ordering: row-major, L4D, Morton, Hilbert (the `sfc` crate);
//! * position update: branchless bitwise ([`kernels::position`]);
//! * one hot path: hoisted lane-blocked kick and push, reassociated lane
//!   deposit; [`sim::PicConfig`] picks the cell ordering, not a kernel.
//!
//! ## Quickstart
//!
//! ```
//! use pic_core::sim::{PicConfig, Simulation};
//!
//! let mut cfg = PicConfig::landau_table1(10_000); // Table I, scaled down
//! cfg.grid_nx = 32;
//! cfg.grid_ny = 32;
//! let mut sim = Simulation::new(cfg).unwrap();
//! sim.run(20);
//! // Total energy is conserved to a few percent at this resolution.
//! assert!(sim.diagnostics().relative_energy_drift() < 0.05);
//! ```

// `deny`, not `forbid`: two documented sites allow `unsafe`. The persistent
// worker pool ([`pool`], `#![allow(unsafe_code)]`) borrows job closures
// across threads through a type-erased pointer, and the sort's private
// `prefetch` (`#[allow(unsafe_code)]`) issues a cache hint. Everything else
// is checked safe code, and every `unsafe` block carries a `// SAFETY:`
// comment, which clippy enforces.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod control;
pub mod diag;
pub mod em;
pub mod engine;
pub mod faultlog;
pub mod fields;
pub mod grid;
pub mod kernels;
pub mod particles;
pub mod pass;
pub mod pool;
pub mod resilience;
pub mod rng;
pub mod sim;
pub mod sort;
pub mod species;
pub mod trace;

/// Errors produced when configuring, constructing, or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PicError {
    /// The grid layout could not be built.
    Layout(sfc::LayoutError),
    /// The spectral solver could not be built.
    Spectral(spectral::SpectralError),
    /// A configuration value was invalid.
    Config(String),
    /// A checkpoint snapshot could not be encoded, decoded, or applied.
    Checkpoint(String),
    /// A runtime invariant failed (NaN/Inf field values, out-of-range cell
    /// indices, charge loss, or energy drift beyond the watchdog threshold).
    Diverged(String),
    /// An I/O operation on a checkpoint file failed.
    Io(String),
}

impl std::fmt::Display for PicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PicError::Layout(e) => write!(f, "layout error: {e}"),
            PicError::Spectral(e) => write!(f, "spectral error: {e}"),
            PicError::Config(msg) => write!(f, "config error: {msg}"),
            PicError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            PicError::Diverged(msg) => write!(f, "invariant violation: {msg}"),
            PicError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for PicError {}

impl From<sfc::LayoutError> for PicError {
    fn from(e: sfc::LayoutError) -> Self {
        PicError::Layout(e)
    }
}

impl From<spectral::SpectralError> for PicError {
    fn from(e: spectral::SpectralError) -> Self {
        PicError::Spectral(e)
    }
}
