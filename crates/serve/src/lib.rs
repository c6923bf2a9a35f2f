//! # serve — multi-tenant simulation job runtime
//!
//! An async-free serving layer that runs many simulations — single-species
//! electrostatic [`Simulation`](pic_core::sim::Simulation)s and
//! multi-species electromagnetic [`EmSimulation`](pic_core::em::EmSimulation)s
//! behind one [`Tenant`] abstraction — over one shared
//! [`ThreadPool`](pic_core::pool::ThreadPool), built on the workspace's
//! resilience primitives: bit-exact versioned checkpoints, config
//! fingerprints, invariant watchdogs, and the job-scoped fault ledger.
//!
//! Robustness is the point — a fleet of tenants must not be taken down by
//! one bad job:
//!
//! * **Checkpoint preemption, bit-exact resume.** Jobs run in
//!   checkpoint-bounded quanta; under [`SchedPolicy::SrtfPreempt`] a long
//!   job yields at the boundary when a shorter one waits, and resumes
//!   later from its snapshot (fingerprint-verified on re-admission) with a
//!   bit-identical trajectory.
//! * **Deadlines and progress timeouts.** Per-job wall-clock deadlines
//!   fail overdue tenants at scheduling points; per-quantum
//!   `slice_timeout`s arm the pool's stall-deadline hook, so a stuck
//!   stripe is detected, ledgered, and contained.
//! * **Retry with seeded exponential backoff.** Faulted jobs roll back to
//!   their last checkpoint and wait `retry_base · 2^(k−1)` (jittered from
//!   a seeded RNG, capped) *off* the executor; a retry budget bounds the
//!   damage.
//! * **Poison quarantine.** N faults within a sliding window turn a job
//!   [`Quarantined`](JobState::Quarantined), with its slice of the fault
//!   ledger attached as evidence — concurrent healthy tenants never
//!   notice.
//! * **Admission control and load shedding.** A bounded active set;
//!   overload evicts the queued job with the oldest deadline, and every
//!   shed is ledgered.
//! * **Result caching.** Identical config fingerprints (same steps) are
//!   served from the completed trajectory's digest without re-running.
//! * **Calibrated cost-based scheduling.** SRTF ranks jobs by estimated
//!   remaining wall seconds from a [`CostEstimator`] — per-particle and
//!   per-cell compute terms plus the LogGP allreduce term of
//!   [`minimpi::cost::CostModel`] — recalibrated online from every
//!   committed quantum, instead of trusting declared step counts.
//!
//! Decomposed (`DecomposedSimulation`) tenants multiplex one minimpi
//! world by carrying distinct tag blocks
//! ([`job_tag_block`](minimpi::job_tag_block), re-exported here) in their
//! `DecompConfig`, so concurrent jobs never alias step tags.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod cache;
pub mod cost;
pub mod job;
pub mod runtime;
pub mod tenant;

pub use cache::{CacheKey, ResultCache};
pub use cost::CostEstimator;
pub use job::{FaultInjection, JobId, JobReport, JobSpec, JobState};
pub use minimpi::{job_tag_block, JOB_TAG_SHIFT, MAX_TAG_JOBS};
pub use runtime::{JobRuntime, RunReport, RuntimeConfig, SchedPolicy};
pub use tenant::{Tenant, Workload};
