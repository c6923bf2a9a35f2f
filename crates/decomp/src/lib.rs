//! # decomp — spatial domain decomposition for the PIC simulation
//!
//! The paper deliberately replicates the grid: every rank owns a slice of
//! one global particle population, deposits a partial ρ over the *whole*
//! grid, and an allreduce reconstitutes the global density (§V-A). That is
//! simple and load-balanced, but the per-rank communication volume is the
//! full grid per step and every rank stores every cell — weak scaling stops
//! at the allreduce bandwidth.
//!
//! This crate shards the simulation *spatially* instead:
//!
//! * [`Partition`] cuts a space-filling-curve cell ordering (row-major,
//!   Morton, or Hilbert — the `sfc` crate's layouts) into contiguous,
//!   near-equal ranges of cell indices, optionally weighted by per-cell
//!   particle counts. Because `icell` *is* the SFC index, a contiguous
//!   index range is a spatially compact subdomain, and a particle's owner
//!   is a binary search away.
//! * [`HaloPlan`] derives, purely from the partition, which grid points a
//!   rank's deposition can touch beyond its own cells (the write halo of
//!   the redundant `[4]`/`[8]` cell structures) and therefore which partial
//!   ρ values must travel to which neighbor — plus the point set where the
//!   rank needs E to kick its particles.
//! * [`DecomposedSimulation`] composes these with the existing
//!   [`Simulation`](pic_core::sim::Simulation) kernels: deposit locally,
//!   halo-exchange partial ρ to the owning ranks over minimpi
//!   point-to-point messages, run the spectral Poisson solve distributed
//!   over all ranks ([`SlabSolver`]: row slabs and column bands exchanged
//!   by all-to-all, no rank holding the full grid), and migrate particles
//!   whose `icell` left the subdomain before the next kick.
//!
//! The decomposed trajectory matches a serial run of the same
//! configuration to ≤1e-9 on ρ and E (only floating-point summation order
//! differs), and its per-rank communication volume is boundary-sized
//! rather than grid-sized — see `results/BENCH_scaling.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
pub mod elastic;
mod halo;
mod partition;
mod slab;

pub use driver::{CommStats, DecompConfig, DecomposedSimulation, SolverMode};
pub use elastic::{run_elastic_member, run_elastic_spare, ElasticConfig, ElasticOutcome};
pub use halo::{exchange_rho_routed, HaloPlan};
pub use partition::{particle_cell_weights, Partition};
pub use slab::SlabSolver;

use minimpi::CommError;
use pic_core::PicError;

/// Errors from the decomposition layer.
#[derive(Debug)]
pub enum DecompError {
    /// An error from the underlying simulation kernels.
    Pic(PicError),
    /// A communication failure (fault injection, dead peer, timeout).
    Comm(CommError),
    /// A configuration the decomposition cannot run.
    Config(String),
    /// A particle outran the halo: after a position update its cell lies
    /// outside this rank's write region, so its deposition would corrupt
    /// a point no exchange covers. Raise `halo_width` (or shrink `dt`).
    Leakage {
        /// Rank that detected the stray particle.
        rank: usize,
        /// The particle's cell index after the position update.
        icell: usize,
        /// Step at which it was detected.
        step: u64,
    },
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::Pic(e) => write!(f, "simulation error: {e}"),
            DecompError::Comm(e) => write!(f, "communication error: {e}"),
            DecompError::Config(msg) => write!(f, "decomposition config: {msg}"),
            DecompError::Leakage { rank, icell, step } => write!(
                f,
                "rank {rank} step {step}: particle outran the halo into cell {icell}; \
                 increase halo_width"
            ),
        }
    }
}

impl std::error::Error for DecompError {}

impl From<PicError> for DecompError {
    fn from(e: PicError) -> Self {
        DecompError::Pic(e)
    }
}

impl From<CommError> for DecompError {
    fn from(e: CommError) -> Self {
        DecompError::Comm(e)
    }
}
