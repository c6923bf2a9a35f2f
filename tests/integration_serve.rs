//! Integration of the multi-tenant job runtime (`serve`): tenants sharing
//! one pool reproduce their solo trajectories bit-exactly, preemption and
//! fault containment (retry, quarantine, deadline, shed) isolate bad jobs
//! from healthy ones, the result cache serves identical resubmissions,
//! streamed diagnostics survive rollbacks untorn, and decomposed tenants
//! multiplex one minimpi world through disjoint tag blocks.

use pic2d::decomp::{DecompConfig, DecomposedSimulation};
use pic2d::minimpi::{job_tag_block, World};
use pic2d::pic_core::faultlog::FaultKind;
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::serve::{FaultInjection, JobRuntime, JobSpec, JobState, RuntimeConfig};
use std::time::Duration;

fn small_cfg(seed: u64, n_particles: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n_particles);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 4;
    cfg.seed = seed;
    cfg
}

/// Digest of a solo, uninterrupted run of `cfg` at the given pool width —
/// the reference every tenant trajectory must reproduce exactly.
fn solo_digest(mut cfg: PicConfig, steps: u64, threads: usize) -> u64 {
    cfg.threads = threads;
    let mut sim = Simulation::new(cfg).unwrap();
    sim.run(steps as usize);
    snapshot_hash(&sim.checkpoint())
}

#[test]
fn multi_tenant_digests_match_solo() {
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);
    let specs = [(1u64, 20u64), (2, 12), (3, 28)];
    let ids: Vec<_> = specs
        .iter()
        .map(|&(seed, steps)| {
            rt.submit(JobSpec::new(
                format!("tenant-{seed}"),
                small_cfg(seed, 3_000),
                steps,
            ))
        })
        .collect();
    let report = rt.run();
    for (&(seed, steps), id) in specs.iter().zip(&ids) {
        let job = &report.jobs[id.0 as usize];
        assert_eq!(job.state, JobState::Done, "{}", job.name);
        assert_eq!(job.steps_done, steps);
        assert_eq!(
            job.digest,
            Some(solo_digest(small_cfg(seed, 3_000), steps, threads)),
            "{} diverged from its solo trajectory",
            job.name
        );
    }
    assert!(rt.ledger().count(FaultKind::Checkpoint) >= 3);
}

#[test]
fn short_arrival_preempts_long_job_bit_exactly() {
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);
    let long_cfg = small_cfg(11, 4_000);
    let short_cfg = small_cfg(12, 2_000);
    let long = rt.submit(JobSpec::new("long", long_cfg.clone(), 400));
    let short = rt.submit(
        // Arrives after the long job's first committed quantum.
        JobSpec::new("short", short_cfg.clone(), 12).with_start_after(1),
    );
    let report = rt.run();
    let lj = &report.jobs[long.0 as usize];
    let sj = &report.jobs[short.0 as usize];
    assert_eq!(lj.state, JobState::Done);
    assert_eq!(sj.state, JobState::Done);
    assert!(lj.preemptions >= 1, "long job never yielded");
    assert!(
        lj.restores >= 1,
        "preemption must resume via the checkpoint"
    );
    assert!(
        sj.latency.unwrap() < lj.latency.unwrap(),
        "short arrival should finish first under SRTF"
    );
    assert_eq!(lj.digest, Some(solo_digest(long_cfg, 400, threads)));
    assert_eq!(sj.digest, Some(solo_digest(short_cfg, 12, threads)));
    assert!(rt.ledger().count(FaultKind::Preempt) >= 1);
}

#[test]
fn poison_job_quarantined_healthy_tenant_unperturbed() {
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        retry_base: Duration::from_millis(5),
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);
    let healthy_cfg = small_cfg(21, 3_000);
    let poison = rt.submit(
        JobSpec::new("poison", small_cfg(22, 3_000), 20)
            .with_injection(FaultInjection::Poison { at_step: 4 }),
    );
    let healthy = rt.submit(JobSpec::new("healthy", healthy_cfg.clone(), 24));
    let report = rt.run();

    let pj = &report.jobs[poison.0 as usize];
    assert_eq!(pj.state, JobState::Quarantined);
    assert_eq!(
        pj.retries, 2,
        "third fault quarantines before a third retry"
    );
    assert!(pj.evidence.iter().any(|e| e.kind == FaultKind::Rollback));
    assert!(pj.evidence.iter().any(|e| e.kind == FaultKind::Quarantine));
    assert!(
        pj.evidence.iter().all(|e| e.job == Some(poison.0)),
        "evidence slice must contain only the quarantined tenant's events"
    );

    let hj = &report.jobs[healthy.0 as usize];
    assert_eq!(hj.state, JobState::Done);
    assert_eq!(hj.retries, 0);
    assert_eq!(
        hj.digest,
        Some(solo_digest(healthy_cfg, 24, threads)),
        "healthy tenant perturbed by a quarantined neighbour"
    );

    assert_eq!(report.quarantined_jobs, 1);
    assert!(rt.ledger().has_sequence(&[
        FaultKind::Rollback,
        FaultKind::Retry,
        FaultKind::Rollback,
        FaultKind::Quarantine,
    ]));
    // The merged multi-job ledger stays parseable and job-tagged.
    let json = rt.ledger().to_json();
    assert!(json.contains(&format!("\"job\": {}", poison.0)));
    assert!(json.contains(&format!("\"job\": {}", healthy.0)));
}

#[test]
fn kill_and_hang_jobs_recover_from_checkpoints() {
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        retry_base: Duration::from_millis(5),
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);
    let kill_cfg = small_cfg(31, 3_000);
    let hang_cfg = small_cfg(32, 3_000);
    let kill = rt.submit(
        JobSpec::new("killed", kill_cfg.clone(), 24)
            .with_injection(FaultInjection::Kill { at_step: 10 }),
    );
    let hang = rt.submit(
        JobSpec::new("hung", hang_cfg.clone(), 24)
            .with_injection(FaultInjection::Hang {
                at_step: 6,
                millis: 150,
            })
            .with_slice_timeout(Duration::from_millis(50)),
    );
    let report = rt.run();
    for (id, cfg) in [(kill, &kill_cfg), (hang, &hang_cfg)] {
        let j = &report.jobs[id.0 as usize];
        assert_eq!(j.state, JobState::Done, "{}", j.name);
        assert!(j.retries >= 1, "{} recovered without a retry?", j.name);
        assert!(j.restores >= 1, "{} never restored a checkpoint", j.name);
        assert_eq!(
            j.digest,
            Some(solo_digest(cfg.clone(), 24, threads)),
            "{} diverged after recovery",
            j.name
        );
    }
    assert!(rt.ledger().count(FaultKind::Kill) >= 1);
    assert!(rt.ledger().count(FaultKind::Timeout) >= 1);
    assert!(rt.ledger().count(FaultKind::Restore) >= 2);
}

#[test]
fn blown_deadline_fails_before_scheduling() {
    let mut rt = JobRuntime::new(RuntimeConfig::default());
    let id = rt.submit(
        JobSpec::new("late", small_cfg(41, 2_000), 10).with_deadline(Duration::from_millis(1)),
    );
    std::thread::sleep(Duration::from_millis(5));
    let report = rt.run();
    let j = &report.jobs[id.0 as usize];
    assert_eq!(j.state, JobState::Failed);
    assert_eq!(
        j.steps_done, 0,
        "an overdue job must not burn executor time"
    );
    assert!(j.latency.is_some());
    let ev = rt.ledger().events_for_job(id.0);
    assert!(ev
        .iter()
        .any(|e| e.kind == FaultKind::Timeout && e.detail.contains("deadline")));
}

#[test]
fn overload_sheds_oldest_deadline_queued_job() {
    let rcfg = RuntimeConfig {
        max_active: 2,
        ..RuntimeConfig::default()
    };
    let mut rt = JobRuntime::new(rcfg);
    let a = rt.submit(
        JobSpec::new("slack", small_cfg(51, 2_000), 8).with_deadline(Duration::from_secs(10)),
    );
    let b = rt.submit(
        JobSpec::new("urgent", small_cfg(52, 2_000), 8).with_deadline(Duration::from_secs(1)),
    );
    let c = rt.submit(JobSpec::new("calm", small_cfg(53, 2_000), 8));
    let report = rt.run();
    assert_eq!(
        report.jobs[b.0 as usize].state,
        JobState::Shed,
        "the queued job with the oldest deadline is the eviction victim"
    );
    assert_eq!(report.jobs[a.0 as usize].state, JobState::Done);
    assert_eq!(report.jobs[c.0 as usize].state, JobState::Done);
    assert_eq!(report.shed_jobs, 1);
    assert_eq!(rt.ledger().count(FaultKind::Shed), 1);
    let ev = rt.ledger().events_for_job(b.0);
    assert!(ev.iter().any(|e| e.kind == FaultKind::Shed));
}

#[test]
fn identical_resubmission_served_from_cache() {
    let mut rt = JobRuntime::new(RuntimeConfig::default());
    let cfg = small_cfg(61, 2_500);
    let first = rt.submit(JobSpec::new("first", cfg.clone(), 16));
    rt.run();
    let second = rt.submit(JobSpec::new("second", cfg.clone(), 16));
    let other_steps = rt.submit(JobSpec::new("other", cfg.clone(), 8));
    let report = rt.run();
    let f = &report.jobs[first.0 as usize];
    let s = &report.jobs[second.0 as usize];
    let o = &report.jobs[other_steps.0 as usize];
    assert!(!f.cache_hit);
    assert_eq!(f.state, JobState::Done);
    assert!(
        s.cache_hit,
        "identical fingerprint+steps must hit the cache"
    );
    assert_eq!(s.state, JobState::Done);
    assert_eq!(s.digest, f.digest);
    assert_eq!(s.steps_done, 16);
    assert!(
        !o.cache_hit,
        "different step count is a different trajectory"
    );
    assert_eq!(o.state, JobState::Done);
    let (hits, misses) = rt.cache_stats();
    assert_eq!(hits, 1);
    assert!(misses >= 2);
}

#[test]
fn diagnostic_stream_is_complete_and_untorn_across_rollback() {
    let path = std::env::temp_dir().join(format!("serve_stream_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        retry_base: Duration::from_millis(2),
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);
    let cfg = small_cfg(71, 2_500);
    let id = rt.submit(
        JobSpec::new("streamed", cfg.clone(), 20)
            .with_injection(FaultInjection::CorruptOnce { at_step: 16 })
            .with_stream(&path),
    );
    let report = rt.run();
    let j = &report.jobs[id.0 as usize];
    assert_eq!(j.state, JobState::Done);
    assert!(j.retries >= 1, "the corruption should cost one rollback");
    assert_eq!(
        j.digest,
        Some(solo_digest(cfg, 20, threads)),
        "a transient corruption must leave no trace in the trajectory"
    );

    // Every line is a complete record, and despite the replay of the
    // rolled-back quantum each step appears exactly once.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut seen = [0u32; 21];
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "torn record: {line}"
        );
        assert!(line.contains(&format!("\"job\": {}", id.0)));
        let step = line
            .split("\"step\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or_else(|| panic!("unparseable record: {line}"));
        seen[step] += 1;
    }
    for (step, &n) in seen.iter().enumerate().skip(1) {
        assert_eq!(n, 1, "step {step} recorded {n} times");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn decomp_tenants_with_tag_blocks_interleave_safely() {
    const STEPS: usize = 6;
    const RANKS: usize = 2;
    let cfg_a = small_cfg(81, 4_000);
    let cfg_b = small_cfg(82, 4_000);

    let (ca, cb) = (cfg_a.clone(), cfg_b.clone());
    let reports = World::run(RANKS, move |comm| {
        let da = DecompConfig {
            tag_block: job_tag_block(1),
            ..DecompConfig::default()
        };
        let db = DecompConfig {
            tag_block: job_tag_block(2),
            ..DecompConfig::default()
        };
        let mut a = DecomposedSimulation::new(ca.clone(), da, comm).unwrap();
        let mut b = DecomposedSimulation::new(cb.clone(), db, comm).unwrap();
        // Strictly interleaved stepping: without disjoint tag blocks the
        // two tenants' step tags would alias on the shared world.
        for _ in 0..STEPS {
            a.step(comm).unwrap();
            b.step(comm).unwrap();
        }
        let rho_a = a.sim().rho();
        let rho_b = b.sim().rho();
        (
            a.plan().owned_points.clone(),
            a.plan()
                .owned_points
                .iter()
                .map(|&p| rho_a[p])
                .collect::<Vec<_>>(),
            b.plan().owned_points.clone(),
            b.plan()
                .owned_points
                .iter()
                .map(|&p| rho_b[p])
                .collect::<Vec<_>>(),
        )
    });

    for (cfg, tenant) in [(cfg_a, 0usize), (cfg_b, 1)] {
        let mut serial = Simulation::new(cfg).unwrap();
        serial.run(STEPS);
        let rho_s = serial.rho();
        for (r, rep) in reports.iter().enumerate() {
            let (points, rho) = if tenant == 0 {
                (&rep.0, &rep.1)
            } else {
                (&rep.2, &rep.3)
            };
            for (&p, &v) in points.iter().zip(rho) {
                assert!(
                    (v - rho_s[p]).abs() < 1e-9,
                    "tenant {tenant} rank {r}: rho[{p}] {v} vs serial {}",
                    rho_s[p]
                );
            }
        }
    }
}
