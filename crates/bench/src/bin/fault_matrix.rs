//! Fault-matrix gate for `scripts/check.sh`: fixed-seed fault scenarios
//! that must all recover AND reproduce the fault-free trajectory bitwise.
//!
//! Five scenarios, all on a small Landau workload so the release-mode run
//! stays under a couple of seconds:
//!
//! * **drop+corrupt** — 4 ranks over a link dropping 25% and corrupting
//!   15% of frames; the ack/retry transport must hide it completely.
//! * **kill@2** / **kill@4** — the last rank is killed mid-step on 2- and
//!   4-rank runs; survivors must detect, shrink, roll back to the buddy
//!   checkpoint, and finish with ρ bit-identical per logical rank.
//! * **p2p drop+corrupt** — the same lossy link under the *decomposed*
//!   runtime, whose halo/gather/scatter/migration traffic is all
//!   point-to-point; retries must hide the faults bit-exactly and land in
//!   the `FaultLog` ledger.
//! * **p2p kill** — a rank dies mid-step under the decomposed runtime;
//!   every rank must surface a `CommError` (never deadlock) and the
//!   ledgers must record the kill and the survivor-side timeouts/retries.
//! * **a2a drop+corrupt** — the slab solver's four all-to-all exchanges
//!   per solve under the lossy link; the distributed solve must come
//!   out bit-exact and the retransmissions must show up as `Retry`
//!   transport events.
//! * **a2a kill** — a rank dies between all-to-all rounds mid-solve;
//!   every rank's `SlabSolver::solve` must surface an error, never hang.
//! * **chaos rejoin** — the elastic runner's full recovery loop: a rank is
//!   killed mid-run, the group shrinks, a waiting spare is voted in,
//!   adopts the dead rank's slot, and the run replays through its
//!   scheduled re-cuts — final per-slot state must be bit-exact against
//!   the fault-free run of the same schedule.
//! * **chaos degrade** — repeated kills with no spares drive a 4-rank slab
//!   run down the degradation ladder (slab → root-gather below the floor →
//!   replicated at one survivor) with every transition ledgered and the
//!   full particle population conserved exactly.
//!
//! Any mismatch or failed recovery exits nonzero, so check.sh can gate on
//! it. Seeds are fixed: the scenarios are deterministic, not sampled.

use decomp::{
    run_elastic_member, run_elastic_spare, DecompConfig, DecomposedSimulation, ElasticConfig,
    ElasticOutcome, SlabSolver,
};
use minimpi::{Comm, FaultPlan, TransportEventKind, World};
use pic_core::faultlog::FaultKind;
use pic_core::pool::chunk_range;
use pic_core::resilience::{run_resilient_distributed, DistConfig};
use pic_core::sim::{PicConfig, Simulation};
use pic_core::PicError;
use sfc::Ordering;
use std::collections::BTreeMap;
use std::time::Duration;

const N: usize = 2_000;
const STEPS: u64 = 6;
// Lands in step 3's reduction, one step past the committed step-2
// checkpoint (init 2 ops, checkpointed step 4 ops, plain step 2 ops).
const KILL_OP: u64 = 13;

fn workload(id: usize, ranks: usize) -> PicConfig {
    let per = N / ranks;
    let mut cfg = PicConfig::landau_table1(N);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 0;
    cfg.keep_range = Some((id * per, (id + 1) * per));
    cfg
}

/// ρ per logical rank from a distributed run, merged across ranks.
type RhoById = BTreeMap<usize, Vec<f64>>;

fn merge(per_rank: Vec<RhoById>) -> RhoById {
    let mut all = RhoById::new();
    for m in per_rank {
        for (id, rho) in m {
            assert!(
                all.insert(id, rho).is_none(),
                "logical rank {id} hosted twice"
            );
        }
    }
    all
}

fn resilient_body(ranks: usize) -> impl Fn(&mut Comm) -> (bool, usize, RhoById) + Send + Sync {
    move |comm| {
        let make_cfg = move |id: usize| workload(id, ranks);
        let rcfg = DistConfig {
            checkpoint_every: 2,
            max_recoveries: 2,
            heartbeat_timeout: None,
            recv_deadline: Some(Duration::from_secs(10)),
        };
        let out = run_resilient_distributed(comm, &make_cfg, STEPS, &rcfg).unwrap();
        let rhos = out
            .sims
            .iter()
            .map(|(id, sim)| (*id, sim.rho().to_vec()))
            .collect();
        (out.survivor, out.recoveries, rhos)
    }
}

fn check_kill(ranks: usize) -> Result<(), PicError> {
    let clean = merge(
        World::run(ranks, resilient_body(ranks))
            .into_iter()
            .map(|(_, _, r)| r)
            .collect(),
    );
    let plan = FaultPlan::new(0xD1E).kill_rank(ranks - 1, KILL_OP);
    let outcomes = World::run_with_faults(ranks, plan, resilient_body(ranks));
    let mut recovered = false;
    for (rank, (survivor, recoveries, _)) in outcomes.iter().enumerate() {
        if rank == ranks - 1 && *survivor {
            return Err(PicError::Diverged(format!(
                "kill@{ranks}: rank {rank} should have died"
            )));
        }
        recovered |= *survivor && *recoveries > 0;
    }
    if !recovered {
        return Err(PicError::Diverged(format!(
            "kill@{ranks}: no survivor reported a recovery"
        )));
    }
    let faulty = merge(outcomes.into_iter().map(|(_, _, r)| r).collect());
    for (id, rho) in &clean {
        if faulty.get(id) != Some(rho) {
            return Err(PicError::Diverged(format!(
                "kill@{ranks}: logical rank {id} diverged from the fault-free run"
            )));
        }
    }
    println!(
        "  kill@{ranks}: recovered, {} logical ranks bit-exact",
        clean.len()
    );
    Ok(())
}

fn lossy_body(ranks: usize) -> impl Fn(&mut Comm) -> Vec<f64> + Send + Sync {
    move |comm| {
        let r = comm.rank();
        let mut sim = Simulation::new_with_reduce(workload(r, ranks), |rho| {
            comm.try_allreduce_sum_tree(rho, 1 << 40).unwrap()
        })
        .unwrap();
        for step in 0..STEPS {
            sim.step_with_reduce(|rho| {
                comm.try_allreduce_sum_tree(rho, step * 10_000)
                    .expect("recoverable fault rates must not surface errors")
            });
        }
        sim.rho().to_vec()
    }
}

fn check_drop_corrupt() -> Result<(), PicError> {
    let ranks = 4;
    let clean = World::run(ranks, lossy_body(ranks));
    let plan = FaultPlan::new(0xF417)
        .drop_messages(0.25)
        .corrupt_messages(0.15);
    let faulty = World::run_with_faults(ranks, plan, lossy_body(ranks));
    for rank in 0..ranks {
        if faulty[rank] != clean[rank] {
            return Err(PicError::Diverged(format!(
                "drop+corrupt: rank {rank} diverged from the fault-free run"
            )));
        }
    }
    println!("  drop+corrupt: {ranks} ranks bit-exact through lossy transport");
    Ok(())
}

fn decomp_cfg() -> PicConfig {
    let mut cfg = PicConfig::landau_table1(N);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.ordering = Ordering::Morton;
    cfg.sort_period = 2;
    cfg
}

fn decomp_body() -> impl Fn(&mut Comm) -> (Vec<f64>, usize) + Send + Sync {
    |comm| {
        let mut dsim =
            DecomposedSimulation::new(decomp_cfg(), DecompConfig::default(), comm).unwrap();
        dsim.run(STEPS as usize, comm).unwrap();
        let rho = dsim.sim().rho();
        let owned = dsim.plan().owned_points.iter().map(|&p| rho[p]).collect();
        (owned, dsim.fault_log().count(FaultKind::Retry))
    }
}

fn check_p2p_drop_corrupt() -> Result<(), PicError> {
    let ranks = 4;
    let clean = World::run(ranks, decomp_body());
    let plan = FaultPlan::new(0x9EE7)
        .drop_messages(0.25)
        .corrupt_messages(0.15);
    let faulty = World::run_with_faults(ranks, plan, decomp_body());
    for rank in 0..ranks {
        if faulty[rank].0 != clean[rank].0 {
            return Err(PicError::Diverged(format!(
                "p2p drop+corrupt: rank {rank} owned-rho diverged from the fault-free run"
            )));
        }
    }
    let retries: usize = faulty.iter().map(|(_, r)| r).sum();
    if retries == 0 {
        return Err(PicError::Diverged(
            "p2p drop+corrupt: no Retry event reached the fault ledger".into(),
        ));
    }
    println!(
        "  p2p drop+corrupt: {ranks} decomposed ranks bit-exact, {retries} retries in the ledger"
    );
    Ok(())
}

fn check_p2p_kill() -> Result<(), PicError> {
    let ranks = 2;
    // Past the init allreduce (< 5 ops), inside step 1 or 2 of the
    // 6-ops-per-step decomposed loop.
    let plan = FaultPlan::new(0xDEAD).kill_rank(1, 12);
    let outcomes = World::run_with_faults(ranks, plan, |comm| {
        // Deadline + heartbeat so the survivor can never block forever on
        // the dead peer, whichever op it is in when the kill lands.
        comm.set_recv_deadline(Duration::from_secs(1));
        comm.set_heartbeat_timeout(Duration::from_millis(200));
        let mut dsim =
            DecomposedSimulation::new(decomp_cfg(), DecompConfig::default(), comm).unwrap();
        let err = dsim.run(STEPS as usize, comm).err().map(|e| e.to_string());
        let log = dsim.fault_log();
        let kills = log.count(FaultKind::Kill);
        let survivor_side = log.count(FaultKind::Timeout)
            + log.count(FaultKind::Retry)
            + log.count(FaultKind::Detect);
        (err, kills, survivor_side)
    });
    let (dead_err, dead_kills, _) = &outcomes[1];
    if dead_err.is_none() || *dead_kills == 0 {
        return Err(PicError::Diverged(format!(
            "p2p kill: killed rank finished cleanly or logged no Kill event ({dead_err:?})"
        )));
    }
    let (surv_err, _, surv_events) = &outcomes[0];
    if surv_err.is_none() {
        return Err(PicError::Diverged(
            "p2p kill: survivor finished cleanly instead of surfacing a CommError".into(),
        ));
    }
    if *surv_events == 0 {
        return Err(PicError::Diverged(
            "p2p kill: survivor's fault ledger recorded no timeout/retry/detect".into(),
        ));
    }
    println!(
        "  p2p kill: both ranks surfaced errors without deadlock ({})",
        surv_err.as_deref().unwrap_or("")
    );
    Ok(())
}

const A2A_GRID: usize = 32;
const A2A_TAG: u64 = 1 << 39;

/// Row-slab point ownership for a standalone `SlabSolver`: rank r owns
/// (and wants E on) exactly the grid points of its row slab.
fn slab_points(ranks: usize) -> Vec<Vec<usize>> {
    (0..ranks)
        .map(|r| {
            let (r0, r1) = chunk_range(A2A_GRID, ranks, r);
            (r0 * A2A_GRID..r1 * A2A_GRID).collect()
        })
        .collect()
}

fn a2a_rho() -> Vec<f64> {
    (0..A2A_GRID * A2A_GRID)
        .map(|i| ((i * 37) % 97) as f64 * 0.01 - 0.4)
        .collect()
}

fn a2a_body(ranks: usize) -> impl Fn(&mut Comm) -> (Vec<u64>, Vec<u64>, usize) + Send + Sync {
    move |comm| {
        comm.set_recv_deadline(Duration::from_secs(10));
        let pts = slab_points(ranks);
        let mut slab =
            SlabSolver::new(A2A_GRID, A2A_GRID, 1.0, 1.0, comm.rank(), ranks, &pts, &pts).unwrap();
        let rho = a2a_rho();
        let n = A2A_GRID * A2A_GRID;
        let (mut ex, mut ey) = (vec![0.0; n], vec![0.0; n]);
        for step in 0..3u64 {
            slab.solve(comm, &rho, &mut ex, &mut ey, A2A_TAG + step * 8)
                .expect("recoverable fault rates must not surface errors");
        }
        let mine = &pts[comm.rank()];
        let exb = mine.iter().map(|&p| ex[p].to_bits()).collect();
        let eyb = mine.iter().map(|&p| ey[p].to_bits()).collect();
        let retries = comm
            .take_events()
            .iter()
            .filter(|e| e.kind == TransportEventKind::Retry)
            .count();
        (exb, eyb, retries)
    }
}

fn check_a2a_drop_corrupt() -> Result<(), PicError> {
    let ranks = 4;
    let clean = World::run(ranks, a2a_body(ranks));
    let plan = FaultPlan::new(0xA2A0)
        .drop_messages(0.25)
        .corrupt_messages(0.15);
    let faulty = World::run_with_faults(ranks, plan, a2a_body(ranks));
    for rank in 0..ranks {
        if faulty[rank].0 != clean[rank].0 || faulty[rank].1 != clean[rank].1 {
            return Err(PicError::Diverged(format!(
                "a2a drop+corrupt: rank {rank} slab E diverged from the fault-free run"
            )));
        }
    }
    let retries: usize = faulty.iter().map(|(_, _, r)| r).sum();
    if retries == 0 {
        return Err(PicError::Diverged(
            "a2a drop+corrupt: lossy all-to-all produced no Retry events".into(),
        ));
    }
    println!("  a2a drop+corrupt: {ranks}-rank slab solve bit-exact, {retries} retries recorded");
    Ok(())
}

fn check_a2a_kill() -> Result<(), PicError> {
    let ranks = 4;
    // Op 2 is the second all-to-all round: the kill lands between the
    // ρ-in exchange and the forward band exchange.
    let plan = FaultPlan::new(0xA2AD).kill_rank(1, 2);
    let outcomes = World::run_with_faults(ranks, plan, move |comm| {
        comm.set_recv_deadline(Duration::from_secs(1));
        let pts = slab_points(ranks);
        let mut slab =
            SlabSolver::new(A2A_GRID, A2A_GRID, 1.0, 1.0, comm.rank(), ranks, &pts, &pts).unwrap();
        let rho = a2a_rho();
        let n = A2A_GRID * A2A_GRID;
        let (mut ex, mut ey) = (vec![0.0; n], vec![0.0; n]);
        slab.solve(comm, &rho, &mut ex, &mut ey, A2A_TAG)
            .err()
            .map(|e| e.to_string())
    });
    for (rank, err) in outcomes.iter().enumerate() {
        if err.is_none() {
            return Err(PicError::Diverged(format!(
                "a2a kill: rank {rank} finished the solve cleanly instead of erroring"
            )));
        }
    }
    println!(
        "  a2a kill: all {ranks} ranks surfaced errors without deadlock ({})",
        outcomes[0].as_deref().unwrap_or("")
    );
    Ok(())
}

const CHAOS_STEPS: u64 = 8;

fn chaos_ecfg(recut_every: u64) -> ElasticConfig {
    ElasticConfig {
        checkpoint_every: 2,
        recut_every,
        max_recoveries: 6,
        heartbeat_timeout: None,
        recv_deadline: Some(Duration::from_secs(5)),
        join_deadline: Duration::from_secs(30),
        admit_attempts: 100,
    }
}

fn chaos_world(spares: usize, plan: Option<FaultPlan>) -> Vec<ElasticOutcome> {
    World::run_elastic(4, spares, plan, move |comm| {
        let e = chaos_ecfg(3);
        let d = DecompConfig::default();
        if comm.is_member() {
            run_elastic_member(comm, decomp_cfg(), d, &e, CHAOS_STEPS).unwrap()
        } else {
            run_elastic_spare(comm, decomp_cfg(), d, &e, CHAOS_STEPS).unwrap()
        }
    })
}

fn check_chaos_rejoin() -> Result<(), PicError> {
    let base = chaos_world(0, None);
    // Kill rank 2 mid-run; world rank 4 waits as a spare.
    let plan = FaultPlan::new(0xE1A5).kill_rank(2, 40);
    let outs = chaos_world(1, Some(plan));
    if outs[2].survivor {
        return Err(PicError::Diverged(
            "chaos rejoin: rank 2 should have died".into(),
        ));
    }
    if !outs[4].joined || outs[4].slot != Some(2) {
        return Err(PicError::Diverged(format!(
            "chaos rejoin: spare not admitted into the dead slot (joined={}, slot={:?})",
            outs[4].joined, outs[4].slot
        )));
    }
    for slot in 0..4usize {
        let b = base
            .iter()
            .find(|o| o.slot == Some(slot))
            .expect("baseline hosts every slot");
        let f = outs
            .iter()
            .find(|o| o.slot == Some(slot))
            .ok_or_else(|| PicError::Diverged(format!("chaos rejoin: slot {slot} unhosted")))?;
        if b.particles != f.particles
            || b.owned_points != f.owned_points
            || b.rho_owned != f.rho_owned
            || b.ex_owned != f.ex_owned
            || b.ey_owned != f.ey_owned
        {
            return Err(PicError::Diverged(format!(
                "chaos rejoin: slot {slot} diverged from the fault-free run"
            )));
        }
    }
    let mut log = pic_core::faultlog::FaultLog::new();
    for o in &outs {
        log.merge(o.log.clone());
    }
    if !log.has_sequence(&[
        FaultKind::Kill,
        FaultKind::Shrink,
        FaultKind::Join,
        FaultKind::Rollback,
        FaultKind::Recut,
    ]) {
        return Err(PicError::Diverged(
            "chaos rejoin: kill → shrink → join → rollback → recut not ledgered".into(),
        ));
    }
    println!("  chaos rejoin: kill → shrink → rejoin → recut, 4 slots bit-exact");
    Ok(())
}

fn check_chaos_degrade() -> Result<(), PicError> {
    // Staggered kills, each landing after the previous recovery completed,
    // driving 4 → 3 → 2 → 1 on the slab solve throughout.
    // Op counts are tuned to this config's schedule: each kill lands in
    // the replay window after the previous recovery's re-checkpoint (steps
    // 3, 5 and 7, rolling back to the checkpoints of steps 2, 4 and 6).
    let plan = FaultPlan::new(0xDE64)
        .kill_rank(1, 40)
        .kill_rank(2, 80)
        .kill_rank(3, 108);
    let outs = World::run_elastic(4, 0, Some(plan), move |comm| {
        // No spares to admit: a single admission poll per recovery keeps
        // the op schedule deterministic against the kill plan above.
        let e = ElasticConfig {
            join_deadline: Duration::from_secs(1),
            admit_attempts: 1,
            ..chaos_ecfg(0)
        };
        run_elastic_member(comm, decomp_cfg(), DecompConfig::default(), &e, CHAOS_STEPS).unwrap()
    });
    let survivors: Vec<&ElasticOutcome> = outs.iter().filter(|o| o.survivor).collect();
    if survivors.len() != 1 {
        return Err(PicError::Diverged(format!(
            "chaos degrade: expected 1 survivor, got {}",
            survivors.len()
        )));
    }
    let last = survivors[0];
    if last.steps != CHAOS_STEPS || last.nslots != 1 || last.particles.len() != N {
        return Err(PicError::Diverged(format!(
            "chaos degrade: survivor state wrong (steps={}, nslots={}, particles={})",
            last.steps,
            last.nslots,
            last.particles.len()
        )));
    }
    let mut log = pic_core::faultlog::FaultLog::new();
    for o in &outs {
        log.merge(o.log.clone());
    }
    // The slab solve runs on every live count, so the one degradation is
    // the replicated fallback, ledgered by the sole survivor.
    if log.count(FaultKind::Degrade) != 1
        || !log.has_sequence(&[
            FaultKind::Kill,
            FaultKind::Shrink,
            FaultKind::Recut,
            FaultKind::Kill,
            FaultKind::Shrink,
            FaultKind::Recut,
            FaultKind::Kill,
            FaultKind::Shrink,
            FaultKind::Degrade,
        ])
    {
        return Err(PicError::Diverged(
            "chaos degrade: degradation ladder not fully ledgered".into(),
        ));
    }
    println!(
        "  chaos degrade: 4 → 3 → 2 slab ranks → replicated, {} particles conserved",
        last.particles.len()
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    println!("fault matrix ({N} particles, {STEPS} steps):");
    check_drop_corrupt()?;
    check_kill(2)?;
    check_kill(4)?;
    check_p2p_drop_corrupt()?;
    check_p2p_kill()?;
    check_a2a_drop_corrupt()?;
    check_a2a_kill()?;
    check_chaos_rejoin()?;
    check_chaos_degrade()?;
    println!("fault matrix: all scenarios recovered bit-exact");
    Ok(())
}
