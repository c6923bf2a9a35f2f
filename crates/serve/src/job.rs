//! Job identity, specification, lifecycle state machine, and reports.

use crate::tenant::Workload;
use pic_core::em::EmConfig;
use pic_core::faultlog::FaultEvent;
use pic_core::sim::PicConfig;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Identity of one submitted job. Ids are dense (assigned in submission
/// order) and never reused within a runtime, so they double as the FIFO
/// arrival order and as the tenant key in the fault ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle of a job.
///
/// ```text
/// Queued ──▶ Admitted ──▶ Running ──▶ Done
///    │           │        ▲   │  ╲──▶ Failed
///    │           │        │   ▼   ╲─▶ Quarantined
///    │           ╲──▶ Failed  Preempted ──▶ (Running | Failed)
///    ╲──▶ Shed / Failed
/// ```
///
/// `Preempted` covers both voluntary yields at checkpoint boundaries and
/// retry-backoff waits after a fault rollback — in both cases the job is
/// off the executor and resumes bit-exactly from its last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet picked up by the scheduler.
    Queued,
    /// Past admission control (or served from the result cache).
    Admitted,
    /// Currently stepping on the shared pool.
    Running,
    /// Off the executor with a valid checkpoint; will resume.
    Preempted,
    /// Finished all requested steps (terminal).
    Done,
    /// Deadline blown or retry budget exhausted (terminal).
    Failed,
    /// Isolated after repeated faults within the quarantine window
    /// (terminal); the triggering ledger slice is attached to the report.
    Quarantined,
    /// Evicted by admission control under overload (terminal).
    Shed,
}

impl JobState {
    /// Stable lowercase name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Admitted => "admitted",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Quarantined => "quarantined",
            JobState::Shed => "shed",
        }
    }

    /// True once the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Quarantined | JobState::Shed
        )
    }

    /// Whether the state machine permits `self → to`.
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Admitted)
                | (Queued, Shed)
                | (Queued, Failed)
                | (Admitted, Running)
                | (Admitted, Done) // served from the result cache
                | (Admitted, Failed)
                | (Running, Preempted)
                | (Running, Done)
                | (Running, Failed)
                | (Running, Quarantined)
                | (Preempted, Running)
                | (Preempted, Failed)
        )
    }
}

/// Deterministic fault injected into a job, for tests and the `bench_jobs`
/// gate. Injections are properties of the *job*, so they re-fire
/// identically under any scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Healthy job.
    None,
    /// Before step `at_step` (first attempt only), one pool stripe sleeps
    /// `millis` ms — long enough to trip the pool's stall deadline when
    /// the job carries a `slice_timeout`.
    Hang {
        /// Step before which the stripe stalls.
        at_step: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The live simulation is destroyed before step `at_step` (first
    /// attempt only) — the process-local analogue of a rank kill; the job
    /// must resume from its last checkpoint.
    Kill {
        /// Step before which the simulation dies.
        at_step: u64,
    },
    /// One NaN is written into ρ at the first checkpoint scan at or after
    /// `at_step`, once — the watchdog rolls the job back and the replay
    /// runs clean (a transient soft error).
    CorruptOnce {
        /// Earliest step at which the corruption lands.
        at_step: u64,
    },
    /// Like [`CorruptOnce`](FaultInjection::CorruptOnce) but re-fires on
    /// every replay — a poison job that can never pass its scan and must
    /// be quarantined.
    Poison {
        /// Earliest step at which the corruption lands (every attempt).
        at_step: u64,
    },
}

/// Everything the runtime needs to run one job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label (reports only; identity is the [`JobId`]).
    pub name: String,
    /// The simulation to run — either kind. Its fingerprint keys the
    /// result cache and verifies checkpoints on re-admission.
    pub workload: Workload,
    /// Steps to run.
    pub steps: u64,
    /// Wall-clock budget from submission to completion; blown deadlines
    /// fail the job at the next scheduling point.
    pub deadline: Option<Duration>,
    /// Step-progress timeout: one scheduling quantum must finish within
    /// this long. Enforced both via the pool's stall-deadline hook (a
    /// stuck stripe is ledgered as `worker_stall`) and by wall clock.
    pub slice_timeout: Option<Duration>,
    /// Rollback/retry attempts before the job is failed.
    pub max_retries: u32,
    /// Deterministic injected fault, if any.
    pub inject: FaultInjection,
    /// When set, per-step diagnostics stream to this file as JSON lines,
    /// committed at checkpoint cadence (never torn, never replayed).
    pub stream_path: Option<PathBuf>,
    /// Deterministic arrival offset, in scheduling quanta: the job is
    /// submitted now (admission control applies immediately) but becomes
    /// schedulable only once the runtime has committed this many more
    /// quanta, or at once when no other job can run — how tests and
    /// benches model a short job arriving while a long one runs, with no
    /// clock involved.
    pub start_after: Option<u64>,
}

impl JobSpec {
    /// A single-species electrostatic spec with defaults: no deadline, no
    /// slice timeout, 3 retries, no injection, no streaming.
    pub fn new(name: impl Into<String>, cfg: PicConfig, steps: u64) -> Self {
        Self::with_workload(name, Workload::Single(cfg), steps)
    }

    /// A multi-species electromagnetic spec with the same defaults.
    pub fn new_em(name: impl Into<String>, cfg: EmConfig, steps: u64) -> Self {
        Self::with_workload(name, Workload::MultiSpecies(cfg), steps)
    }

    /// A spec around an already-wrapped [`Workload`].
    pub fn with_workload(name: impl Into<String>, workload: Workload, steps: u64) -> Self {
        Self {
            name: name.into(),
            workload,
            steps,
            deadline: None,
            slice_timeout: None,
            max_retries: 3,
            inject: FaultInjection::None,
            stream_path: None,
            start_after: None,
        }
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the per-quantum progress timeout.
    pub fn with_slice_timeout(mut self, d: Duration) -> Self {
        self.slice_timeout = Some(d);
        self
    }

    /// Set the injected fault.
    pub fn with_injection(mut self, inj: FaultInjection) -> Self {
        self.inject = inj;
        self
    }

    /// Stream per-step diagnostics to `path`.
    pub fn with_stream(mut self, path: impl Into<PathBuf>) -> Self {
        self.stream_path = Some(path.into());
        self
    }

    /// Delay schedulability by `quanta` committed quanta after submission
    /// (modelled arrival).
    pub fn with_start_after(mut self, quanta: u64) -> Self {
        self.start_after = Some(quanta);
        self
    }
}

/// Final accounting for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job.
    pub id: JobId,
    /// Its label.
    pub name: String,
    /// Terminal (or last observed) state.
    pub state: JobState,
    /// Steps completed and checkpointed.
    pub steps_done: u64,
    /// Rollback/retry attempts consumed.
    pub retries: u32,
    /// Voluntary checkpoint-boundary yields.
    pub preemptions: u64,
    /// Times the job was rebuilt from its checkpoint (preemptions,
    /// retries, and kill recoveries all restore).
    pub restores: u64,
    /// Served from the fingerprint-keyed result cache without running.
    pub cache_hit: bool,
    /// Submission → terminal-state latency.
    pub latency: Option<Duration>,
    /// Trajectory digest (hash of the final checkpoint) when `Done`.
    pub digest: Option<u64>,
    /// For quarantined jobs: the job's slice of the fault ledger at the
    /// moment of the verdict — the evidence.
    pub evidence: Vec<FaultEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states_have_no_exits() {
        use JobState::*;
        let all = [
            Queued,
            Admitted,
            Running,
            Preempted,
            Done,
            Failed,
            Quarantined,
            Shed,
        ];
        for s in all {
            if s.is_terminal() {
                for t in all {
                    assert!(!s.can_transition(t), "{} -> {}", s.name(), t.name());
                }
            }
        }
    }

    #[test]
    fn lifecycle_paths_are_permitted() {
        use JobState::*;
        // The happy path, the preemption loop, and each containment exit.
        for path in [
            vec![Queued, Admitted, Running, Done],
            vec![Queued, Admitted, Running, Preempted, Running, Done],
            vec![Queued, Admitted, Running, Preempted, Failed],
            vec![Queued, Admitted, Running, Quarantined],
            vec![Queued, Shed],
            vec![Queued, Failed],
            vec![Queued, Admitted, Done],
        ] {
            for w in path.windows(2) {
                assert!(
                    w[0].can_transition(w[1]),
                    "{} -> {}",
                    w[0].name(),
                    w[1].name()
                );
            }
        }
        // And the obviously-illegal jumps.
        assert!(!Queued.can_transition(Running));
        assert!(!Preempted.can_transition(Done));
        assert!(!Preempted.can_transition(Shed));
        assert!(!Running.can_transition(Shed));
    }
}
