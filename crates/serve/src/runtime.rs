//! The scheduler: admission, slicing, preemption, retry, quarantine.

use crate::cache::{CacheKey, ResultCache};
use crate::cost::CostEstimator;
use crate::job::{FaultInjection, JobId, JobReport, JobSpec, JobState};
use crate::tenant::Tenant;
use pic_core::diag::DiagStream;
use pic_core::faultlog::{FaultEvent, FaultKind, FaultLog};
use pic_core::pool::ThreadPool;
use pic_core::resilience::checkpoint::{self as ckpt};
use pic_core::resilience::watchdog::WatchdogConfig;
use pic_core::rng::Rng;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Which scheduling discipline [`JobRuntime::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Shortest-remaining-*time*-first with preemption at checkpoint
    /// boundaries: jobs are ranked by estimated remaining wall seconds
    /// from the online-calibrated [`CostEstimator`] (particles and cells —
    /// not declared step counts), a running job yields
    /// when a cheaper runnable job is waiting, and faulted jobs back off
    /// *off* the executor — other tenants run during the wait. The
    /// default.
    SrtfPreempt,
    /// Naive baseline: strict submission order, each job runs to a
    /// terminal state before the next starts, and the head's backoff
    /// sleeps block the whole queue.
    Fifo,
}

/// Runtime-wide knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Width of the shared worker pool. All tenants step over the same
    /// pool, and trajectories depend only on this width — so results are
    /// reproducible no matter how jobs interleave.
    pub threads: usize,
    /// Scheduling quantum in simulation steps: a job checkpoints (and may
    /// be preempted) every this many steps.
    pub quantum_steps: u64,
    /// Admission bound: at most this many non-terminal jobs. Submissions
    /// beyond it shed the queued job with the oldest deadline.
    pub max_active: usize,
    /// First retry backoff; attempt `k` waits `retry_base · 2^(k−1)`
    /// (seeded-jittered, capped at [`max_backoff`](Self::max_backoff)).
    pub retry_base: Duration,
    /// Upper bound on one backoff wait.
    pub max_backoff: Duration,
    /// Seed of the backoff jitter — reruns reproduce wait sequences.
    pub backoff_seed: u64,
    /// Faults within [`quarantine_window`](Self::quarantine_window) that
    /// turn a job `Quarantined` instead of retrying.
    pub quarantine_faults: usize,
    /// Sliding window for the quarantine fault count.
    pub quarantine_window: Duration,
    /// Capacity of the fingerprint-keyed result cache (0 disables).
    pub cache_capacity: usize,
    /// Invariant thresholds for the per-slice watchdog scan.
    pub watchdog: WatchdogConfig,
    /// Scheduling discipline.
    pub policy: SchedPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            quantum_steps: 16,
            max_active: 16,
            retry_base: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            backoff_seed: 0x5eed_cafe,
            quarantine_faults: 3,
            quarantine_window: Duration::from_secs(10),
            cache_capacity: 16,
            watchdog: WatchdogConfig::default(),
            policy: SchedPolicy::SrtfPreempt,
        }
    }
}

/// Aggregate outcome of one [`JobRuntime::run`] drain.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job accounting, in submission order.
    pub jobs: Vec<JobReport>,
    /// Wall time from the `run` call to queue drain.
    pub makespan: Duration,
    /// Result-cache hits across all submissions.
    pub cache_hits: u64,
    /// Result-cache misses across all submissions.
    pub cache_misses: u64,
    /// Jobs evicted by admission control.
    pub shed_jobs: u64,
    /// Jobs isolated by the quarantine policy.
    pub quarantined_jobs: u64,
}

impl RunReport {
    /// Latency of the `q`-quantile job (0.0–1.0) among jobs that reached a
    /// terminal state, by submission-to-terminal wall time.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        let mut lat: Vec<Duration> = self.jobs.iter().filter_map(|j| j.latency).collect();
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let idx = ((lat.len() as f64 * q).ceil() as usize).clamp(1, lat.len()) - 1;
        Some(lat[idx])
    }
}

/// What ended a slice early (or failed its checkpoint scan).
enum SliceFault {
    /// The live simulation died mid-slice (injected kill).
    Killed,
    /// The slice exceeded the job's progress timeout.
    Hang(String),
    /// The watchdog scan at the checkpoint boundary failed.
    Violation(String),
}

/// One tenant's runtime bookkeeping around its [`JobSpec`].
struct Job {
    id: JobId,
    spec: JobSpec,
    state: JobState,
    fingerprint: u64,
    /// Live simulation while `Running`; dropped on preemption, fault, or
    /// completion (resume always goes through the checkpoint).
    sim: Option<Box<Tenant>>,
    /// Last clean checkpoint — the rollback and resume target.
    snapshot: Option<Vec<u8>>,
    stream: Option<DiagStream<BufWriter<File>>>,
    submitted: Instant,
    finished: Option<Instant>,
    /// Retry-backoff gate: not schedulable before this instant.
    not_before: Option<Instant>,
    steps_done: u64,
    retries: u32,
    preemptions: u64,
    restores: u64,
    fault_times: Vec<Instant>,
    cache_hit: bool,
    digest: Option<u64>,
    evidence: Vec<FaultEvent>,
    hang_armed: bool,
    kill_armed: bool,
    corrupt_armed: bool,
}

impl Job {
    fn new(id: JobId, spec: JobSpec, fingerprint: u64, now: Instant) -> Self {
        Self {
            id,
            fingerprint,
            state: JobState::Queued,
            sim: None,
            snapshot: None,
            stream: None,
            submitted: now,
            finished: None,
            not_before: None,
            steps_done: 0,
            retries: 0,
            preemptions: 0,
            restores: 0,
            fault_times: Vec::new(),
            cache_hit: false,
            digest: None,
            evidence: Vec::new(),
            hang_armed: matches!(spec.inject, FaultInjection::Hang { .. }),
            kill_armed: matches!(spec.inject, FaultInjection::Kill { .. }),
            corrupt_armed: matches!(spec.inject, FaultInjection::CorruptOnce { .. }),
            spec,
        }
    }

    fn remaining(&self) -> u64 {
        self.spec.steps.saturating_sub(self.steps_done)
    }

    fn deadline_at(&self) -> Option<Instant> {
        self.spec.deadline.map(|d| self.submitted + d)
    }

    fn set_state(&mut self, to: JobState) {
        assert!(
            self.state.can_transition(to),
            "{}: illegal transition {} -> {}",
            self.id,
            self.state.name(),
            to.name()
        );
        self.state = to;
    }

    fn report(&self) -> JobReport {
        JobReport {
            id: self.id,
            name: self.spec.name.clone(),
            state: self.state,
            steps_done: self.steps_done,
            retries: self.retries,
            preemptions: self.preemptions,
            restores: self.restores,
            cache_hit: self.cache_hit,
            latency: self.finished.map(|f| f - self.submitted),
            digest: self.digest,
            evidence: self.evidence.clone(),
        }
    }
}

/// An async-free multi-tenant job runtime: many simulations over one
/// shared [`ThreadPool`], scheduled in checkpoint-bounded quanta.
///
/// Submit jobs with [`submit`](Self::submit) (admission control and the
/// result cache apply there), then drain the queue with
/// [`run`](Self::run). Every lifecycle event — checkpoints, preemptions,
/// restores, retries, quarantines, sheds — lands in the job-scoped
/// [`FaultLog`] ledger.
pub struct JobRuntime {
    rcfg: RuntimeConfig,
    pool: Arc<ThreadPool>,
    jobs: Vec<Job>,
    log: FaultLog,
    cache: ResultCache,
    rng: Rng,
    estimator: CostEstimator,
}

impl JobRuntime {
    /// Build a runtime with its shared pool.
    pub fn new(rcfg: RuntimeConfig) -> Self {
        let pool = Arc::new(ThreadPool::new(rcfg.threads));
        let cache = ResultCache::new(rcfg.cache_capacity);
        let rng = Rng::seed_from_u64(rcfg.backoff_seed);
        let estimator = CostEstimator::new(rcfg.threads);
        Self {
            rcfg,
            pool,
            jobs: Vec::new(),
            log: FaultLog::new(),
            cache,
            rng,
            estimator,
        }
    }

    /// The admission cost model, calibrated so far from committed quanta.
    pub fn estimator(&self) -> &CostEstimator {
        &self.estimator
    }

    /// Price a job's remaining work with the calibrated cost model.
    fn remaining_cost(&self, job: &Job) -> f64 {
        let wl = &job.spec.workload;
        self.estimator
            .estimate(wl.particles(), wl.cells(), job.remaining())
    }

    /// The shared worker pool (width decides every tenant's trajectory).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The merged, job-scoped fault ledger.
    pub fn ledger(&self) -> &FaultLog {
        &self.log
    }

    /// Result-cache `(hits, misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Submit a job. Returns its id immediately; the job is either
    /// `Queued`, served straight from the result cache (`Done`), or
    /// `Shed` by admission control. Which queued job sheds is
    /// oldest-deadline-first: under overload the tenant whose deadline is
    /// nearest (and thus least likely to be met) is evicted, deadline-less
    /// jobs last, the newcomer as the final tie-breaker.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let now = Instant::now();
        let id = JobId(self.jobs.len() as u64);
        let fingerprint = spec.workload.fingerprint();
        let key = CacheKey {
            fingerprint,
            steps: spec.steps,
        };
        let mut job = Job::new(id, spec, fingerprint, now);
        // Modelled arrival: admission happens now, scheduling waits.
        job.not_before = job.spec.start_after.map(|d| now + d);

        if let Some(digest) = self.cache.get(key) {
            job.set_state(JobState::Admitted);
            job.set_state(JobState::Done);
            job.cache_hit = true;
            job.digest = Some(digest);
            job.steps_done = job.spec.steps;
            job.finished = Some(now);
            self.log.record_for_job(
                id.0,
                job.spec.steps,
                0,
                0,
                FaultKind::Restore,
                format!("served from result cache, digest {digest:#x}"),
            );
            self.jobs.push(job);
            return id;
        }

        let active = self.jobs.iter().filter(|j| !j.state.is_terminal()).count();
        if active >= self.rcfg.max_active {
            // Pick the shed victim among still-queued jobs and the
            // newcomer: earliest deadline first, `None` deadlines survive.
            let mut victim: Option<usize> = None; // None = the newcomer
            let mut victim_dl = job.deadline_at();
            for (i, j) in self.jobs.iter().enumerate() {
                if j.state != JobState::Queued {
                    continue;
                }
                let dl = j.deadline_at();
                let earlier = match (dl, victim_dl) {
                    (Some(a), Some(b)) => a < b,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if earlier {
                    victim = Some(i);
                    victim_dl = dl;
                }
            }
            match victim {
                Some(v) => {
                    let vid = self.jobs[v].id;
                    self.jobs[v].set_state(JobState::Shed);
                    self.jobs[v].finished = Some(now);
                    let steps = self.jobs[v].steps_done;
                    self.log.record_for_job(
                        vid.0,
                        steps,
                        0,
                        0,
                        FaultKind::Shed,
                        format!("evicted (oldest deadline) to admit {id}"),
                    );
                }
                None => {
                    job.set_state(JobState::Shed);
                    job.finished = Some(now);
                    self.log.record_for_job(
                        id.0,
                        0,
                        0,
                        0,
                        FaultKind::Shed,
                        format!("queue full ({active} active), no earlier deadline to evict"),
                    );
                }
            }
        }

        self.jobs.push(job);
        id
    }

    /// Drain the queue: schedule quanta until every job is terminal.
    pub fn run(&mut self) -> RunReport {
        let start = Instant::now();
        loop {
            let now = Instant::now();
            self.sweep_deadlines(now);
            match self.pick(now) {
                Pick::Slice(j) => self.run_slice(j),
                Pick::Wait(until) => {
                    let dur = (until - now).min(Duration::from_millis(50));
                    thread::sleep(dur.max(Duration::from_micros(200)));
                }
                Pick::Drained => break,
            }
        }
        let quarantined = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Quarantined)
            .count() as u64;
        let shed = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Shed)
            .count() as u64;
        RunReport {
            jobs: self.jobs.iter().map(|j| j.report()).collect(),
            makespan: start.elapsed(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            shed_jobs: shed,
            quarantined_jobs: quarantined,
        }
    }

    /// Fail every non-terminal job whose wall-clock deadline has passed.
    fn sweep_deadlines(&mut self, now: Instant) {
        for j in 0..self.jobs.len() {
            let job = &self.jobs[j];
            if job.state.is_terminal() {
                continue;
            }
            let Some(dl) = job.deadline_at() else {
                continue;
            };
            if now < dl {
                continue;
            }
            let job = &mut self.jobs[j];
            job.sim = None;
            if let Some(s) = job.stream.as_mut() {
                s.discard();
            }
            if job.state == JobState::Running {
                // A deadline can only fire here between quanta (the
                // runtime is single-threaded), so Running means a slice
                // just ended; route through Preempted for the machine.
                job.set_state(JobState::Preempted);
            }
            job.set_state(JobState::Failed);
            job.finished = Some(now);
            let (id, steps, d) = (job.id.0, job.steps_done, job.spec.deadline.unwrap());
            self.log.record_for_job(
                id,
                steps,
                0,
                0,
                FaultKind::Timeout,
                format!("wall-clock deadline {d:?} exceeded"),
            );
        }
    }

    fn pick(&self, now: Instant) -> Pick {
        let ready = |j: &Job| j.not_before.is_none_or(|t| t <= now);
        match self.rcfg.policy {
            SchedPolicy::Fifo => {
                // Strict arrival order; the head blocks the line even
                // while backing off.
                match self.jobs.iter().position(|j| !j.state.is_terminal()) {
                    Some(h) if ready(&self.jobs[h]) => Pick::Slice(h),
                    Some(h) => Pick::Wait(self.jobs[h].not_before.unwrap()),
                    None => Pick::Drained,
                }
            }
            SchedPolicy::SrtfPreempt => {
                let mut best: Option<usize> = None;
                let mut wake: Option<Instant> = None;
                for (i, j) in self.jobs.iter().enumerate() {
                    if j.state.is_terminal() {
                        continue;
                    }
                    if !ready(j) {
                        let t = j.not_before.unwrap();
                        wake = Some(wake.map_or(t, |w: Instant| w.min(t)));
                        continue;
                    }
                    best = Some(match best {
                        Some(b)
                            if self
                                .remaining_cost(&self.jobs[b])
                                .total_cmp(&self.remaining_cost(j))
                                .is_le() =>
                        {
                            b
                        }
                        _ => i,
                    });
                }
                match (best, wake) {
                    (Some(b), _) => Pick::Slice(b),
                    (None, Some(w)) => Pick::Wait(w),
                    (None, None) => Pick::Drained,
                }
            }
        }
    }

    /// Is a runnable job with strictly cheaper estimated remaining time
    /// waiting?
    fn shorter_job_waiting(&self, j: usize, now: Instant) -> bool {
        let rem = self.remaining_cost(&self.jobs[j]);
        self.jobs.iter().enumerate().any(|(i, o)| {
            i != j
                && !o.state.is_terminal()
                && o.not_before.is_none_or(|t| t <= now)
                && self.remaining_cost(o) < rem
        })
    }

    /// Run one quantum of job `j`, then checkpoint (and possibly yield) or
    /// contain the fault.
    fn run_slice(&mut self, j: usize) {
        if self.jobs[j].state == JobState::Queued {
            self.jobs[j].set_state(JobState::Admitted);
        }
        self.jobs[j].not_before = None;

        if let Err(e) = self.materialize(j) {
            let job = &mut self.jobs[j];
            if job.state == JobState::Admitted || job.state == JobState::Preempted {
                job.set_state(JobState::Failed);
            }
            job.finished = Some(Instant::now());
            let (id, steps) = (job.id.0, job.steps_done);
            self.log.record_for_job(
                id,
                steps,
                0,
                0,
                FaultKind::Timeout,
                format!("unable to materialize: {e}"),
            );
            return;
        }
        if self.jobs[j].state != JobState::Running {
            self.jobs[j].set_state(JobState::Running);
        }

        let quantum_end =
            (self.jobs[j].steps_done + self.rcfg.quantum_steps).min(self.jobs[j].spec.steps);
        if let Some(t) = self.jobs[j].spec.slice_timeout {
            self.pool.set_stall_deadline(Some(t));
        }
        let t0 = Instant::now();
        let mut killed = false;
        {
            let pool = &self.pool;
            let job = &mut self.jobs[j];
            let id = job.id;
            let inject = job.spec.inject;
            let sim = job.sim.as_mut().expect("materialized");
            while sim.steps() < quantum_end {
                let next = sim.steps() + 1;
                match inject {
                    FaultInjection::Hang { at_step, millis }
                        if job.hang_armed && next == at_step =>
                    {
                        job.hang_armed = false;
                        let n = pool.nthreads();
                        pool.run(n, |i| {
                            if i + 1 == n {
                                thread::sleep(Duration::from_millis(millis));
                            }
                        });
                    }
                    FaultInjection::Kill { at_step } if job.kill_armed && next == at_step => {
                        job.kill_armed = false;
                        killed = true;
                        break;
                    }
                    _ => {}
                }
                sim.step();
                if let Some(stream) = job.stream.as_mut() {
                    sim.record_stream(stream, id.0);
                }
            }
            if !killed {
                // Corruption injections land at the checkpoint scan — the
                // detection point — so replays are deterministic.
                let reached = sim.steps();
                match inject {
                    FaultInjection::CorruptOnce { at_step }
                        if job.corrupt_armed && reached >= at_step =>
                    {
                        job.corrupt_armed = false;
                        sim.corrupt_rho();
                    }
                    FaultInjection::Poison { at_step } if reached >= at_step => {
                        sim.corrupt_rho();
                    }
                    _ => {}
                }
            }
        }
        self.pool.set_stall_deadline(None);
        let stalls = self.pool.take_stall_events();
        let elapsed = t0.elapsed();

        let id = self.jobs[j].id;
        for s in &stalls {
            self.log.record_for_job(
                id.0,
                self.jobs[j].steps_done,
                0,
                0,
                FaultKind::WorkerStall,
                format!(
                    "stripe stalled {:?} past deadline ({} jobs outstanding)",
                    s.waited, s.remaining
                ),
            );
        }

        let mut fault: Option<SliceFault> = None;
        if killed {
            self.jobs[j].sim = None;
            fault = Some(SliceFault::Killed);
        } else if !stalls.is_empty() || self.jobs[j].spec.slice_timeout.is_some_and(|t| elapsed > t)
        {
            fault = Some(SliceFault::Hang(format!(
                "quantum took {elapsed:?} (timeout {:?}, {} stalls)",
                self.jobs[j].spec.slice_timeout,
                stalls.len()
            )));
        } else {
            let sim = self.jobs[j].sim.as_mut().expect("live");
            if let Some(v) = sim.scan(&self.rcfg.watchdog) {
                fault = Some(SliceFault::Violation(v.detail));
            }
        }

        if fault.is_none() {
            // Calibrate the admission model from this committed quantum's
            // wall time (faulted quanta measure containment, not
            // throughput, and are skipped).
            let stepped = self.jobs[j]
                .sim
                .as_ref()
                .expect("live")
                .steps()
                .saturating_sub(self.jobs[j].steps_done);
            let wl = &self.jobs[j].spec.workload;
            self.estimator
                .observe(wl.particles(), wl.cells(), stepped, elapsed.as_secs_f64());
        }

        match fault {
            None => self.commit_slice(j),
            Some(f) => self.contain_fault(j, f),
        }
    }

    /// Build the job's live simulation: from its checkpoint when it has
    /// one (fingerprint-verified re-admission), fresh otherwise.
    fn materialize(&mut self, j: usize) -> Result<(), String> {
        if self.jobs[j].sim.is_some() {
            return Ok(());
        }
        let id = self.jobs[j].id;
        if self.jobs[j].stream.is_none() {
            if let Some(path) = self.jobs[j].spec.stream_path.clone() {
                let file = File::create(&path)
                    .map_err(|e| format!("open stream {}: {e}", path.display()))?;
                self.jobs[j].stream = Some(DiagStream::new(BufWriter::new(file)));
            }
        }
        match self.jobs[j].snapshot.take() {
            Some(snap) => {
                // Verify the snapshot still belongs to this tenant's
                // config (kind and fingerprint) before re-admitting it to
                // the executor.
                let workload = &self.jobs[j].spec.workload;
                let sim = Tenant::from_snapshot_shared(workload, &snap, self.pool.clone())?;
                let job = &mut self.jobs[j];
                job.sim = Some(Box::new(sim));
                job.snapshot = Some(snap);
                job.restores += 1;
                let steps = job.steps_done;
                self.log.record_for_job(
                    id.0,
                    steps,
                    0,
                    0,
                    FaultKind::Restore,
                    format!("resumed from checkpoint at step {steps} (fingerprint ok)"),
                );
                Ok(())
            }
            None => {
                let sim = Tenant::new_shared(&self.jobs[j].spec.workload, self.pool.clone())?;
                let job = &mut self.jobs[j];
                let snap = sim.checkpoint();
                job.sim = Some(Box::new(sim));
                job.snapshot = Some(snap);
                self.log.record_for_job(
                    id.0,
                    0,
                    0,
                    0,
                    FaultKind::Checkpoint,
                    "initial checkpoint at step 0".into(),
                );
                Ok(())
            }
        }
    }

    /// Clean quantum: checkpoint, flush the stream, finish or maybe yield.
    fn commit_slice(&mut self, j: usize) {
        let now = Instant::now();
        let job = &mut self.jobs[j];
        let id = job.id;
        let sim = job.sim.as_mut().expect("live");
        job.steps_done = sim.steps();
        let snap = sim.checkpoint();
        job.snapshot = Some(snap);
        if let Some(s) = job.stream.as_mut() {
            // Commit failures are containment-worthy, but a broken local
            // sink should not kill the tenant: ledger and stream on.
            if s.commit().is_err() {
                let steps = job.steps_done;
                self.log.record_for_job(
                    id.0,
                    steps,
                    0,
                    0,
                    FaultKind::Timeout,
                    "diagnostic stream commit failed; continuing".into(),
                );
            }
        }
        let steps = self.jobs[j].steps_done;
        self.log.record_for_job(
            id.0,
            steps,
            0,
            0,
            FaultKind::Checkpoint,
            format!("checkpoint at step {steps}"),
        );

        if steps == self.jobs[j].spec.steps {
            let job = &mut self.jobs[j];
            job.digest = job.snapshot.as_deref().map(ckpt::snapshot_hash);
            job.sim = None;
            job.set_state(JobState::Done);
            job.finished = Some(now);
            self.cache.insert(
                CacheKey {
                    fingerprint: job.fingerprint,
                    steps: job.spec.steps,
                },
                job.digest.unwrap_or(0),
            );
            return;
        }

        if self.rcfg.policy == SchedPolicy::SrtfPreempt && self.shorter_job_waiting(j, now) {
            let job = &mut self.jobs[j];
            job.sim = None; // resume must re-verify and restore the checkpoint
            job.preemptions += 1;
            job.set_state(JobState::Preempted);
            let steps = job.steps_done;
            self.log.record_for_job(
                id.0,
                steps,
                0,
                0,
                FaultKind::Preempt,
                format!("yielded at checkpoint boundary (step {steps})"),
            );
        }
    }

    /// Faulted quantum: roll back, then quarantine, fail, or back off.
    fn contain_fault(&mut self, j: usize, fault: SliceFault) {
        let now = Instant::now();
        let id = self.jobs[j].id;
        let steps = self.jobs[j].steps_done;
        self.jobs[j].sim = None;
        if let Some(s) = self.jobs[j].stream.as_mut() {
            s.discard();
        }

        let (kind, detail) = match fault {
            SliceFault::Killed => (
                FaultKind::Kill,
                "live simulation destroyed mid-quantum".to_string(),
            ),
            SliceFault::Hang(d) => (FaultKind::Timeout, d),
            SliceFault::Violation(d) => (FaultKind::Rollback, format!("rolled back: {d}")),
        };
        self.log.record_for_job(id.0, steps, 0, 0, kind, detail);

        let window = self.rcfg.quarantine_window;
        let job = &mut self.jobs[j];
        job.fault_times.push(now);
        job.fault_times.retain(|t| now.duration_since(*t) <= window);

        if job.fault_times.len() >= self.rcfg.quarantine_faults {
            job.set_state(JobState::Quarantined);
            job.finished = Some(now);
            let n = job.fault_times.len();
            self.log.record_for_job(
                id.0,
                steps,
                0,
                0,
                FaultKind::Quarantine,
                format!("{n} faults within {window:?} — isolating"),
            );
            // Attach the evidence: this job's full ledger slice,
            // quarantine verdict included.
            self.jobs[j].evidence = self.log.events_for_job(id.0);
            return;
        }

        if job.retries >= job.spec.max_retries {
            job.set_state(JobState::Failed);
            job.finished = Some(now);
            let budget = job.spec.max_retries;
            self.log.record_for_job(
                id.0,
                steps,
                0,
                0,
                FaultKind::Timeout,
                format!("retry budget ({budget}) exhausted"),
            );
            return;
        }

        job.retries += 1;
        let attempt = job.retries;
        let exp = self
            .rcfg
            .retry_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let jitter = 0.75 + 0.5 * self.rng.uniform();
        let delay = Duration::from_secs_f64(exp.as_secs_f64() * jitter).min(self.rcfg.max_backoff);
        job.not_before = Some(now + delay);
        job.set_state(JobState::Preempted);
        self.log.record_for_job(
            id.0,
            steps,
            0,
            0,
            FaultKind::Retry,
            format!("attempt {attempt} resumes from step {steps} after {delay:?}"),
        );
    }
}

enum Pick {
    Slice(usize),
    Wait(Instant),
    Drained,
}
