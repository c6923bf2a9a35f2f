//! `serve_fleet`: a closed batch of short and long tenants drained by one
//! `JobRuntime` (SRTF, 2-wide pool, checkpoint every 8 steps), checked
//! against the same jobs run solo.

use super::{engine, EndToEnd, Kind, Params, Spec, TraceCtx};
use crate::trace::NO_PARENT;
use pic_core::resilience::checkpoint::snapshot_hash;
use pic_core::sim::{PicConfig, Simulation};
use serve::{JobRuntime, JobSpec, JobState, RuntimeConfig, SchedPolicy};
use std::time::Instant;

/// Short tenants: a quarter of the long tenants' particles, half the steps.
const N_SHORT: usize = 12;
const N_LONG: usize = 4;
/// Tenants of the discarded warm-up wave, and of the resubmission wave that
/// measures the result cache.
const WAVE: usize = 4;
const POOL: usize = 2;

struct Tenant {
    name: String,
    cfg: PicConfig,
    steps: u64,
}

/// Tenant `i` of the fleet gets seed `seed + i`; the warm-up wave uses seeds
/// below the fleet's so it never warms the result cache for it.
fn tenant(spec: &Spec, p: &Params, seed: u64, long: bool) -> Tenant {
    let particles = p.particles(spec) / if long { 1 } else { 4 };
    let mut cfg = PicConfig::landau_table1(particles);
    cfg.grid_nx = p.grid(spec);
    cfg.grid_ny = p.grid(spec);
    cfg.seed = seed;
    let steps = p.steps(spec) as u64 * if long { 2 } else { 1 };
    Tenant {
        name: format!("{}-{seed:x}", if long { "long" } else { "short" }),
        cfg,
        steps,
    }
}

fn fleet(spec: &Spec, p: &Params) -> Vec<Tenant> {
    (0..N_SHORT + N_LONG)
        .map(|i| tenant(spec, p, p.seed.wrapping_add(i as u64), i >= N_SHORT))
        .collect()
}

fn runtime() -> JobRuntime {
    JobRuntime::new(RuntimeConfig {
        threads: POOL,
        quantum_steps: 8,
        max_active: 64,
        // Holds the warm-up wave and the whole fleet, so the resubmission
        // wave measures hits, not evictions.
        cache_capacity: 64,
        policy: SchedPolicy::SrtfPreempt,
        ..RuntimeConfig::default()
    })
}

/// A runtime that has drained the warm-up wave: pool spawned, second vCPU
/// awake, cost estimator calibrated.
fn warmed_runtime(spec: &Spec, p: &Params) -> JobRuntime {
    let mut rt = runtime();
    for i in 0..WAVE {
        let t = tenant(spec, p, p.seed.wrapping_sub(1 + i as u64), false);
        rt.submit(JobSpec::new(t.name, t.cfg, t.steps));
    }
    rt.run();
    rt
}

/// Digest and wall seconds of `t` run alone on a private pool of the
/// fleet's width.
fn solo(t: &Tenant) -> (u64, f64) {
    let mut cfg = t.cfg.clone();
    cfg.threads = POOL;
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg).expect("valid tenant config");
    sim.run(t.steps as usize);
    let digest = snapshot_hash(&sim.checkpoint());
    (digest, t0.elapsed().as_secs_f64())
}

pub fn run(spec: &Spec, p: &Params, mut trace: Option<&mut TraceCtx>) -> EndToEnd {
    let mut e2e = EndToEnd::default();
    let tenants = fleet(spec, p);

    // Set-up: the service until it is ready to take the batch — runtime and
    // pool construction plus the discarded warm-up wave. The repetitions are
    // also this workload's 2 s of two-thread warm-up, so a traced run, which
    // reports no set-up time, still makes all of them.
    let mut rt = None;
    for _ in 0..p.setups(spec) {
        drop(rt.take());
        let t = Instant::now();
        rt = Some(warmed_runtime(spec, p));
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rt = rt.expect("at least one set-up");

    // Closed batch: everything submitted at t = 0, no think time. A traced
    // run brackets it with the `run` span and nothing else: the runtime
    // cannot be stepped from outside, so no tracer call falls inside the
    // makespan.
    let root = trace
        .as_deref_mut()
        .map(|c| c.tracer.begin("run", NO_PARENT, 0));
    let ids: Vec<usize> = tenants
        .iter()
        .map(|t| {
            rt.submit(JobSpec::new(t.name.clone(), t.cfg.clone(), t.steps))
                .0 as usize
        })
        .collect();
    let report = rt.run();
    e2e.wall_s = report.makespan.as_secs_f64();
    if let (Some(ctx), Some(root)) = (trace.as_deref_mut(), root) {
        ctx.tracer.end(root);
    }

    let jobs: Vec<_> = ids.iter().map(|&i| &report.jobs[i]).collect();
    e2e.ops_attempted = jobs.len() as u64;
    let mut solo_total = 0.0;
    for (t, j) in tenants.iter().zip(&jobs) {
        if j.state != JobState::Done {
            e2e.failures
                .push(format!("{}: ended {}", j.name, j.state.name()));
            continue;
        }
        e2e.particle_steps += t.cfg.n_particles as f64 * j.steps_done as f64;
        let latency_ms = j.latency.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        e2e.job_latency_ms.push(latency_ms);
        e2e.step_ms.push(latency_ms / t.steps as f64);
        let (digest, secs) = solo(t);
        solo_total += secs;
        if j.digest != Some(digest) {
            e2e.failures
                .push(format!("{}: digest differs from its solo run", j.name));
        }
    }

    if let Some(ctx) = trace {
        // One `job` span per tenant, from submission (all at the start of
        // `run`) to its terminal state: the runtime reports latencies, not
        // start times.
        if let Some(root) = root {
            let t0 = ctx.tracer.spans()[root as usize].start_ns;
            for (lane, j) in jobs.iter().enumerate() {
                let ns = j.latency.map_or(0, |d| d.as_nanos() as u64);
                ctx.tracer.record("job", t0, t0 + ns, root, lane as u32);
            }
        }

        // The long tenant's input as a plain two-thread simulation fills
        // the driver-independent layers, `bench.trace_overhead_frac` among
        // them: its alternating steps are the only place this workload's
        // traced run has a tracer call inside a timed region.
        let companion = Spec {
            kind: Kind::Landau,
            threads: POOL,
            // 480 alternating steps of 1.7 ms: enough pairs for the overhead.
            block_steps: 240,
            warm_steps: 40,
            setups: 1,
            ..*spec
        };
        engine::run_es(&companion, p, Some(ctx));

        // Result cache: resubmit the first tenants; each should be served
        // from its digest without running.
        let (h0, m0) = rt.cache_stats();
        for t in tenants.iter().take(WAVE) {
            rt.submit(JobSpec::new(t.name.clone(), t.cfg.clone(), t.steps));
        }
        rt.run();
        let (h1, m1) = rt.cache_stats();
        let lookups = (h1 - h0) + (m1 - m0);

        let out = &mut ctx.layers;
        out.set("serve.overhead_ratio", e2e.wall_s / solo_total);
        out.set(
            "serve.jobs_done_frac",
            jobs.iter().filter(|j| j.state == JobState::Done).count() as f64 / jobs.len() as f64,
        );
        out.set(
            "serve.preemptions",
            jobs.iter().map(|j| j.preemptions as f64).sum(),
        );
        out.set(
            "serve.restores",
            jobs.iter().map(|j| j.restores as f64).sum(),
        );
        out.set(
            "serve.cache_hit_frac",
            if lookups == 0 {
                0.0
            } else {
                (h1 - h0) as f64 / lookups as f64
            },
        );
        out.note("solo_total_s", solo_total.into());
    }
    e2e
}
