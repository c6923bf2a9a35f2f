//! `decomp_2rank`: the Landau input sharded over a two-rank
//! `minimpi::World` (one thread per rank, slab solve, halo width 4), and the
//! `minimpi` microbenchmarks every traced run records.

use super::{engine, trace_overhead, EndToEnd, Kind, Layers, Params, Spec, TraceCtx};
use crate::stats::{exceeds, median};
use crate::trace::{Tracer, NO_PARENT};
use decomp::{CommStats, DecompConfig, DecomposedSimulation, SolverMode};
use minimpi::{Comm, TransportEventKind, World};
use pic_core::sim::{PicConfig, Simulation};
use std::time::Instant;

const RANKS: usize = 2;
/// Step at which the decomposed ρ is compared with a serial run.
const CHECK_STEP: usize = 20;

fn config(spec: &Spec, p: &Params) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(p.particles(spec));
    cfg.grid_nx = p.grid(spec);
    cfg.grid_ny = p.grid(spec);
    cfg.threads = 1;
    cfg.seed = p.seed;
    cfg
}

fn dconfig() -> DecompConfig {
    DecompConfig {
        // Width 2 leaks particles on the first step of this input.
        halo_width: 4,
        solver: SolverMode::Slab,
        ..DecompConfig::default()
    }
}

/// What one rank brings back from the measured world.
struct RankReport {
    setup_s: f64,
    /// Untraced step times, ns.
    step_ns: Vec<u64>,
    /// Traced step times, ns (traced runs only).
    traced_ns: Vec<u64>,
    /// Wall seconds of the measured region (the time inside its steps, of
    /// both kinds, for a traced run).
    wall_s: f64,
    /// Particles hosted after every measured step.
    local: Vec<u32>,
    /// `(grid point, ρ)` on the points this rank owns, at [`CHECK_STEP`].
    rho_owned: Vec<(usize, f64)>,
    /// Communication counters over the measured region only.
    stats: CommStats,
    retries: usize,
    error: Option<String>,
    tracer: Option<Tracer>,
}

fn stats_delta(end: CommStats, start: CommStats) -> CommStats {
    CommStats {
        halo_bytes: end.halo_bytes - start.halo_bytes,
        solve_bytes: end.solve_bytes - start.solve_bytes,
        migrate_bytes: end.migrate_bytes - start.migrate_bytes,
        migrated_out: end.migrated_out - start.migrated_out,
        ..CommStats::default()
    }
}

/// One rank of the measured world: construct, warm up, measure.
fn rank_main(
    comm: &mut Comm,
    cfg: &PicConfig,
    t0: Instant,
    warm: usize,
    steps: usize,
    trace_origin: Option<Instant>,
) -> RankReport {
    let mut rep = RankReport {
        setup_s: 0.0,
        step_ns: Vec::with_capacity(steps),
        traced_ns: Vec::with_capacity(steps),
        wall_s: 0.0,
        local: Vec::with_capacity(steps),
        rho_owned: Vec::new(),
        stats: CommStats::default(),
        retries: 0,
        error: None,
        tracer: None,
    };
    // Held outside `rep` so an early `return rep` does not fight its borrow.
    let mut tracer = trace_origin.map(|o| Tracer::with_origin(o, steps + 8));
    let mut dsim = match DecomposedSimulation::new(cfg.clone(), dconfig(), comm) {
        Ok(d) => d,
        Err(e) => {
            rep.error = Some(format!("construct: {e}"));
            return rep;
        }
    };
    rep.setup_s = t0.elapsed().as_secs_f64();

    // A step error (leakage, transport) surfaces on every rank alike, so
    // both leave the loops at the same step.
    macro_rules! step {
        () => {
            if let Err(e) = dsim.step(comm) {
                rep.error = Some(format!("step {}: {e}", dsim.steps()));
                return rep;
            }
        };
    }
    for _ in 0..warm.max(CHECK_STEP) {
        step!();
        if dsim.steps() as usize == CHECK_STEP {
            let rho = dsim.sim().rho();
            rep.rho_owned = dsim
                .plan()
                .owned_points
                .iter()
                .map(|&pt| (pt, rho[pt]))
                .collect();
        }
    }

    comm.barrier();
    let before = dsim.stats();
    let lane = comm.rank() as u32;
    if let Some(tr) = tracer.as_mut() {
        // Untraced and traced steps alternate, as in the engine workloads.
        let root = tr.begin("run", NO_PARENT, lane);
        for i in 0..steps {
            if i % 2 == 0 {
                let t = Instant::now();
                step!();
                rep.step_ns.push(t.elapsed().as_nanos() as u64);
            } else {
                let s = tr.begin("rank_step", root, lane);
                step!();
                rep.traced_ns.push(tr.end(s));
            }
            rep.local.push(dsim.local_particles() as u32);
        }
        tr.end(root);
        rep.wall_s = rep.step_ns.iter().chain(&rep.traced_ns).sum::<u64>() as f64 / 1e9;
    } else {
        let t = Instant::now();
        for _ in 0..steps {
            let t = Instant::now();
            step!();
            rep.step_ns.push(t.elapsed().as_nanos() as u64);
            rep.local.push(dsim.local_particles() as u32);
        }
        rep.wall_s = t.elapsed().as_secs_f64();
    }
    rep.stats = stats_delta(dsim.stats(), before);
    rep.retries = dsim.fault_log().count(pic_core::faultlog::FaultKind::Retry);
    rep.tracer = tracer;
    rep
}

pub fn run(spec: &Spec, p: &Params, trace: Option<&mut TraceCtx>) -> EndToEnd {
    let cfg = config(spec, p);
    let n = cfg.n_particles;
    let traced = trace.is_some();
    let steps = if traced {
        p.traced_steps(spec)
    } else {
        p.steps(spec)
    };
    let warm = p.warm_steps(spec);
    let mut e2e = EndToEnd::default();

    // Set-up: world spawn plus collective construction, timed to the
    // moment rank 0 holds its subdomain. The measured world is the last
    // sample; a traced run, which reports no set-up time, takes only that.
    for _ in 1..if traced { 1 } else { p.setups(spec) } {
        let t0 = Instant::now();
        let secs = World::run(RANKS, |comm| {
            DecomposedSimulation::new(cfg.clone(), dconfig(), comm)
                .map(|_| t0.elapsed().as_secs_f64())
                .map_err(|e| e.to_string())
        });
        match &secs[0] {
            Ok(s) => e2e.setup_s.push(*s),
            Err(e) => e2e.failures.push(format!("construct: {e}")),
        }
    }

    // Rank tracers share the run's clock origin so their spans merge.
    let origin = trace.as_ref().map(|c| c.tracer.origin());
    let t0 = Instant::now();
    let mut reports = World::run(RANKS, |comm| rank_main(comm, &cfg, t0, warm, steps, origin));
    e2e.setup_s.push(reports[0].setup_s);
    for (r, rep) in reports.iter().enumerate() {
        if let Some(e) = &rep.error {
            e2e.failures.push(format!("rank {r}: {e}"));
        }
    }

    // A traced run's rate is over every measured step, of both kinds; its
    // step samples are the untraced ones.
    let measured = reports[0].step_ns.len() + reports[0].traced_ns.len();
    e2e.step_ms = reports[0]
        .step_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    e2e.block_steps = p.block_steps(spec);
    e2e.wall_s = reports[0].wall_s;
    e2e.particle_steps = n as f64 * measured as f64;
    e2e.job_latency_ms = vec![e2e.wall_s * 1e3];
    e2e.ops_attempted = measured.max(1) as u64;

    // Particle count is conserved exactly at every measured step.
    let nsteps = reports.iter().map(|r| r.local.len()).min().unwrap_or(0);
    if let Some(i) =
        (0..nsteps).find(|&i| reports.iter().map(|r| r.local[i] as usize).sum::<usize>() != n)
    {
        e2e.failures
            .push(format!("particle count not conserved at measured step {i}"));
    }
    // The gathered ρ matches a serial run of the same input.
    let mut serial = Simulation::new(cfg.clone()).expect("valid workload config");
    serial.run(CHECK_STEP);
    let rho_s = serial.rho();
    let mut covered = 0usize;
    let mut worst = 0.0f64;
    for rep in &reports {
        for &(pt, v) in &rep.rho_owned {
            worst = worst.max((v - rho_s[pt]).abs());
            covered += 1;
        }
    }
    if e2e.failures.is_empty() && covered != rho_s.len() {
        e2e.failures.push(format!(
            "owned points cover {covered} of {} grid points",
            rho_s.len()
        ));
    }
    if exceeds(worst, 1e-9) {
        e2e.failures.push(format!(
            "decomposed rho differs from serial by {worst} at step {CHECK_STEP}"
        ));
    }
    drop(serial);

    if let Some(ctx) = trace {
        // The same input run serially fills the driver-independent layers
        // (`core.sim.*`, kernels, sort, spectral, …) and is the baseline of
        // `speedup_vs_serial`.
        let companion = Spec {
            kind: Kind::Landau,
            threads: 1,
            blocks: spec.blocks / 2,
            warm_steps: spec.warm_steps / 4,
            setups: 1,
            ..*spec
        };
        let serial = engine::run_es(&companion, p, Some(ctx));
        let serial_rate = serial.particle_steps / serial.wall_s;
        let rate = e2e.particle_steps / e2e.wall_s;

        for rep in &mut reports {
            if let Some(t) = rep.tracer.take() {
                ctx.tracer.absorb(t);
            }
        }
        let out = &mut ctx.layers;
        let per_step = |f: &dyn Fn(&CommStats) -> u64| {
            reports.iter().map(|r| f(&r.stats) as f64).sum::<f64>()
                / RANKS as f64
                / measured.max(1) as f64
        };
        out.set("decomp.halo_bytes_per_step", per_step(&|s| s.halo_bytes));
        out.set("decomp.solve_bytes_per_step", per_step(&|s| s.solve_bytes));
        out.set(
            "decomp.migrate_bytes_per_step",
            per_step(&|s| s.migrate_bytes),
        );
        out.set(
            "decomp.migrated_frac_per_step",
            per_step(&|s| s.migrated_out) * RANKS as f64 / n as f64,
        );
        let mean_local = |r: &RankReport| {
            r.local.iter().map(|&x| x as f64).sum::<f64>() / r.local.len().max(1) as f64
        };
        out.set(
            "decomp.load_imbalance",
            reports.iter().map(mean_local).fold(0.0, f64::max) * RANKS as f64 / n as f64,
        );
        let skew: Vec<f64> = reports[0]
            .step_ns
            .iter()
            .zip(&reports[1].step_ns)
            .map(|(&a, &b)| a.abs_diff(b) as f64 / 1e6)
            .collect();
        out.set("decomp.step_skew_ms", median(&skew));
        out.set("decomp.speedup_vs_serial", rate / serial_rate);
        out.set(
            "minimpi.retries",
            reports.iter().map(|r| r.retries as f64).sum(),
        );
        let r0 = &reports[0];
        if !r0.traced_ns.is_empty() {
            let traced_ms: Vec<f64> = r0.traced_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            out.set(
                "bench.trace_overhead_frac",
                trace_overhead(&traced_ms, &e2e.step_ms),
            );
        }
    }
    e2e
}

/// `minimpi.*`: a 128² f64 tree allreduce, a one-double ping-pong and a
/// 1 MiB transfer between two ranks. Recorded by every traced run: it costs
/// milliseconds and says how the host schedules two communicating threads.
pub fn minimpi_layers(out: &mut Layers) {
    const ROUNDS: usize = 200;
    let results = World::run(RANKS, |comm| {
        let peer = 1 - comm.rank();
        let mut grid = vec![1.0f64; 128 * 128];
        let mut allreduce = Vec::with_capacity(ROUNDS);
        for i in 0..ROUNDS {
            comm.barrier();
            let t = Instant::now();
            comm.allreduce_sum_tree(&mut grid, 1000 + i as u64);
            allreduce.push(t.elapsed().as_secs_f64());
            grid.fill(1.0);
        }
        let mut pingpong = Vec::with_capacity(ROUNDS);
        for i in 0..ROUNDS {
            let tag = 5000 + i as u64;
            let t = Instant::now();
            if comm.rank() == 0 {
                comm.send(peer, tag, &[1.0]);
                comm.recv(peer, tag);
            } else {
                comm.recv(peer, tag);
                comm.send(peer, tag, &[1.0]);
            }
            // One way: half the round trip.
            pingpong.push(t.elapsed().as_secs_f64() / 2.0);
        }
        let block = vec![0.5f64; (1 << 20) / 8];
        let mut p2p = Vec::with_capacity(20);
        for i in 0..20 {
            let tag = 9000 + i as u64;
            comm.barrier();
            let t = Instant::now();
            if comm.rank() == 0 {
                comm.send(peer, tag, &block);
                comm.recv(peer, tag + 100);
            } else {
                comm.recv(peer, tag);
                comm.send(peer, tag + 100, &[0.0]);
            }
            p2p.push(t.elapsed().as_secs_f64());
        }
        let retries = comm
            .take_events()
            .iter()
            .filter(|e| e.kind == TransportEventKind::Retry)
            .count();
        (median(&allreduce), median(&pingpong), median(&p2p), retries)
    });
    let (allreduce, pingpong, p2p, _) = results[0];
    out.set("minimpi.allreduce_us", allreduce * 1e6);
    out.set("minimpi.pingpong_us", pingpong * 1e6);
    out.set("minimpi.p2p_mbps", (1u64 << 20) as f64 / 1e6 / p2p);
    out.set(
        "minimpi.retries",
        results.iter().map(|r| r.3 as f64).sum::<f64>(),
    );
}
