//! Elastic recovery: rank rejoin, live re-partition, and graceful
//! degradation under sustained faults.
//!
//! This is the one runner that survives a killed rank. Ring-buddy
//! checkpoints, agreement on a rollback step and adoption of a dead
//! slot's snapshot all live here, around three mechanisms:
//!
//! * **Rejoin.** Spare ranks park in [`minimpi::Comm::try_join`]; after a
//!   shrink the surviving members vote one in
//!   ([`minimpi::Comm::try_admit`]), the joiner adopts the dead rank's
//!   partition *slot*, receives the slot's buddy snapshot, and the group
//!   replays from the agreed rollback step at full strength —
//!   **bit-exact** against a fault-free run of the same schedule, because
//!   every per-step summation order is a function of the slot geometry
//!   alone, never of which world rank hosts which slot.
//! * **Live re-partition.** On a fixed schedule (and after any shrink
//!   that leaves a slot orphaned) the group histograms its particle
//!   population, re-cuts the space-filling curve, and migrates only the
//!   displaced cells' particles plus a pointwise field handoff
//!   ([`DecomposedSimulation::recut_to`]). Scheduled re-cuts replay
//!   idempotently after a rollback: the particle multiset at the boundary
//!   is unchanged, so the histogram — exact integers, order-independent —
//!   reproduces the same cuts and the replayed re-cut moves nothing.
//! * **Graceful degradation.** With no spare to admit, each death re-cuts
//!   the run to fewer slots; the slab-distributed Poisson solve runs on
//!   whatever ranks remain. At one survivor the decomposition degenerates
//!   to a replicated single-domain run on a 1-rank slab, which costs what
//!   the serial solve costs. That collapse is ledgered as
//!   [`FaultKind::Degrade`].
//!
//! See `DESIGN.md` § "Elastic recovery model" for the protocol walk-through
//! and the bit-exactness argument.

use crate::{DecompConfig, DecompError, DecomposedSimulation};
use minimpi::{Comm, CommError};
use pic_core::faultlog::{FaultKind, FaultLog};
use pic_core::particles::ParticlesSoA;
use pic_core::resilience::checkpoint as ckpt;
use pic_core::sim::{DiagSample, PicConfig};
use std::ops::Range;
use std::time::Duration;

/// Buddy-checkpoint exchange tags: `base + (epoch << 24) + step` — unique
/// per (epoch, step), below the driver's step-tag namespace (2⁴²).
const ECKPT_TAG: u64 = 1 << 41;
/// Recovery-protocol tags (rollback gather/broadcast, topology broadcast,
/// snapshot handoff): `base + (epoch << 12) + offset`. Collectives are
/// additionally epoch-qualified by minimpi itself; the explicit epoch mix
/// matters for the point-to-point snapshot handoff.
const EREC_TAG: u64 = (1 << 41) + (1 << 40);
/// Header slots of the recovery topology broadcast: the agreed rollback
/// step and the checkpoint-time slot count.
const TOPO_HEAD: usize = 2;

/// Knobs for the elastic runner.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Take a coordinated ring-buddy checkpoint every this many steps (≥ 1).
    pub checkpoint_every: u64,
    /// Re-cut the partition from a live particle histogram every this many
    /// steps; 0 disables scheduled re-cuts.
    pub recut_every: u64,
    /// Give up after this many completed recoveries.
    pub max_recoveries: usize,
    /// Arm the heartbeat failure detector with this timeout.
    pub heartbeat_timeout: Option<Duration>,
    /// Override the transport receive deadline for the whole run.
    pub recv_deadline: Option<Duration>,
    /// How long a spare waits in [`minimpi::Comm::try_join`] before giving
    /// up on ever being admitted.
    pub join_deadline: Duration,
    /// Admission votes each recovery attempts before concluding no spare
    /// is available and recovering at reduced strength. Every member runs
    /// the same count, and each vote's result is collectively agreed, so
    /// the group exits the loop in lockstep.
    pub admit_attempts: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 5,
            recut_every: 0,
            max_recoveries: 4,
            heartbeat_timeout: None,
            recv_deadline: None,
            join_deadline: Duration::from_secs(10),
            admit_attempts: 3,
        }
    }
}

/// What one world rank ends an elastic run with.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// This rank's world rank.
    pub world_rank: usize,
    /// False if this rank was killed by a crash fault.
    pub survivor: bool,
    /// True if this rank started as a spare and was admitted mid-run.
    pub joined: bool,
    /// The partition slot this rank hosts at the end (`None` for a spare
    /// that was never admitted, or a killed rank).
    pub slot: Option<usize>,
    /// Slots (= live ranks) at the end of the run.
    pub nslots: usize,
    /// Completed steps.
    pub steps: u64,
    /// Completed recoveries (shrink/admit + rollback cycles).
    pub recoveries: usize,
    /// Coordinated checkpoints committed.
    pub checkpoints: usize,
    /// Re-cut operations performed (scheduled + recovery, incl. replays).
    pub recuts: usize,
    /// Final local particles (the slot's population, in the deterministic
    /// slot-ordered array layout).
    pub particles: ParticlesSoA,
    /// Grid points owned by the final slot, ascending.
    pub owned_points: Vec<usize>,
    /// ρ at [`owned_points`](Self::owned_points), in order.
    pub rho_owned: Vec<f64>,
    /// E·x at [`owned_points`](Self::owned_points), in order.
    pub ex_owned: Vec<f64>,
    /// E·y at [`owned_points`](Self::owned_points), in order.
    pub ey_owned: Vec<f64>,
    /// The final slot's diagnostics history: one sample per step plus the
    /// initial state, with any rolled-back steps truncated.
    pub diag: Vec<DiagSample>,
    /// This rank's fault ledger (driver + runner events merged); merge the
    /// per-rank logs with [`FaultLog::merge`] for the whole story.
    pub log: FaultLog,
}

impl ElasticOutcome {
    fn empty(world_rank: usize, survivor: bool, joined: bool, log: FaultLog) -> Self {
        Self {
            world_rank,
            survivor,
            joined,
            slot: None,
            nslots: 0,
            steps: 0,
            recoveries: 0,
            checkpoints: 0,
            recuts: 0,
            particles: ParticlesSoA::default(),
            owned_points: Vec::new(),
            rho_owned: Vec::new(),
            ex_owned: Vec::new(),
            ey_owned: Vec::new(),
            diag: Vec::new(),
            log,
        }
    }
}

/// One committed checkpoint generation. The runner keeps the last two, so
/// a crash mid-exchange (some ranks committed, some not) still leaves a
/// globally agreed generation — recovery takes the minimum of the latest
/// committed steps, which every rank holds as its latest or its previous.
struct Ckpt {
    step: u64,
    /// Partition ranges in force at checkpoint time.
    ranges: Vec<Range<usize>>,
    /// Slot → hosting world rank at checkpoint time.
    slot_owner: Vec<usize>,
    /// This rank's slot at checkpoint time.
    my_slot: usize,
    /// This rank's own snapshot.
    own: Vec<u8>,
    /// The ward's packed snapshot (ring predecessor in slot space), held
    /// in transport form and unpacked only if recovery needs it.
    buddy: Vec<f64>,
}

/// Pack one slot's snapshot into the f64 words it travels in between
/// buddies: `[slot, nbytes, bytes eight per word (zero-padded)…]`.
fn pack_snap(slot: usize, bytes: &[u8]) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 + bytes.len().div_ceil(8));
    out.push(slot as f64);
    out.push(bytes.len() as f64);
    out.extend(bytes.chunks(8).map(|c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        f64::from_bits(u64::from_le_bytes(word))
    }));
    out
}

/// Inverse of [`pack_snap`]: the slot and the snapshot bytes.
fn unpack_snap(payload: &[f64]) -> (usize, Vec<u8>) {
    let mut bytes: Vec<u8> = payload[2..]
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    bytes.truncate(payload[1] as usize);
    (payload[0] as usize, bytes)
}

struct LoopState {
    cks: Vec<Ckpt>,
    step: u64,
    need_ckpt: bool,
    joined: bool,
    recoveries: usize,
    checkpoints: usize,
    recuts: usize,
    log: FaultLog,
}

fn is_rank_failed(e: &DecompError) -> Option<(usize, usize)> {
    match e {
        DecompError::Comm(CommError::RankFailed { rank, failed }) => Some((*rank, *failed)),
        _ => None,
    }
}

/// One unit of forward progress at step boundary `st.step`: the scheduled
/// re-cut (when due), the coordinated ring-buddy checkpoint (when due),
/// and one driver step. Any [`CommError::RankFailed`] surfaces to the
/// caller's recovery handler.
fn boundary_cycle(
    comm: &mut Comm,
    drv: &mut DecomposedSimulation,
    ecfg: &ElasticConfig,
    st: &mut LoopState,
) -> Result<(), DecompError> {
    // Scheduled re-cut first, so a due checkpoint captures the post-re-cut
    // partition (a rollback to this boundary then replays the re-cut as an
    // exact no-op: same particle multiset → same histogram → same cuts).
    if ecfg.recut_every > 0 && st.step > 0 && st.step.is_multiple_of(ecfg.recut_every) {
        drv.recut(comm)?;
        st.recuts += 1;
    }

    if st.need_ckpt {
        let own = drv.checkpoint();
        let slot_owner = drv.slot_owner().to_vec();
        let n = slot_owner.len();
        let my_slot = drv.my_slot();
        let buddy = if n > 1 {
            // Ring buddies in *slot* space: slot s replicates to the host
            // of slot (s+1) mod n, so recovery can locate a dead slot's
            // copy from the checkpoint-time topology alone.
            let tag = ECKPT_TAG + (comm.epoch() << 24) + st.step;
            let payload = pack_snap(my_slot, &own);
            comm.try_send(slot_owner[(my_slot + 1) % n], tag, &payload)?;
            let got = comm.try_recv_group(slot_owner[(my_slot + n - 1) % n], tag)?;
            st.log.record(
                st.step,
                comm.rank(),
                comm.op_count(),
                FaultKind::BuddyStore,
                format!(
                    "holding slot {} for rank {}",
                    (my_slot + n - 1) % n,
                    slot_owner[(my_slot + n - 1) % n]
                ),
            );
            got
        } else {
            Vec::new()
        };
        st.log.record(
            st.step,
            comm.rank(),
            comm.op_count(),
            FaultKind::Checkpoint,
            format!("step {}, slot {my_slot} of {n}", st.step),
        );
        st.cks.push(Ckpt {
            step: st.step,
            ranges: drv.partition().ranges().to_vec(),
            slot_owner,
            my_slot,
            own,
            buddy,
        });
        if st.cks.len() > 2 {
            st.cks.remove(0);
        }
        st.checkpoints += 1;
        st.need_ckpt = false;
    }

    drv.step(comm)
}

/// Shrink, try to admit a waiting spare, agree on the rollback step,
/// re-establish the topology (joiner adoption or orphan re-cut), and roll
/// everyone back. On return the driver is consistent and `st.step` is the
/// agreed resume step.
fn recover(
    comm: &mut Comm,
    drv: &mut DecomposedSimulation,
    ecfg: &ElasticConfig,
    st: &mut LoopState,
) -> Result<(), DecompError> {
    let rank = comm.rank();
    comm.shrink()?;
    st.log.ingest_transport(st.step, comm.take_events());
    if st.cks.is_empty() {
        return Err(DecompError::Config(
            "unrecoverable: rank failed before the first checkpoint committed".into(),
        ));
    }

    // Offer waiting spares a seat. Each vote is an agreed collective, so
    // every member sees the same result and exits the loop together; a
    // spare announced after the last vote simply waits for the next
    // recovery (or the end of the run).
    for _ in 0..ecfg.admit_attempts.max(1) {
        if comm.try_admit()?.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    st.log.ingest_transport(st.step, comm.take_events());
    let group = comm.group().to_vec();

    // Agree on the rollback step: the newest step *every* incumbent has a
    // committed checkpoint for (a crash mid-exchange can leave latest
    // generations off by one). A freshly admitted joiner votes -1 — it
    // holds nothing and adopts whatever the incumbents agree.
    let latest = st.cks.last().expect("non-empty").step as f64;
    let gathered = comm.try_gather(&[latest], EREC_TAG)?;
    let mut buf = [gathered
        .map(|parts| {
            parts
                .iter()
                .map(|p| p[0])
                .filter(|&v| v >= 0.0)
                .fold(f64::INFINITY, f64::min)
        })
        .unwrap_or(0.0)];
    comm.try_broadcast(&mut buf, EREC_TAG + 1)?;
    let agreed = buf[0] as u64;
    let ck = st
        .cks
        .iter()
        .rev()
        .find(|c| c.step == agreed)
        .ok_or_else(|| {
            DecompError::Config(format!(
                "unrecoverable: no local checkpoint for agreed rollback step {agreed}"
            ))
        })?;

    // Resolve the new topology. Dead slots are matched to admitted joiners
    // in ascending slot order; slots left over are orphans, recovered from
    // their ring buddy and re-absorbed by a full re-cut.
    let old_n = ck.slot_owner.len();
    let dead: Vec<usize> = (0..old_n)
        .filter(|&s| !group.contains(&ck.slot_owner[s]))
        .collect();
    let joiners: Vec<usize> = group
        .iter()
        .copied()
        .filter(|r| !ck.slot_owner.contains(r))
        .collect();
    if joiners.len() > dead.len() {
        return Err(DecompError::Config(format!(
            "{} joiner(s) admitted for {} dead slot(s)",
            joiners.len(),
            dead.len()
        )));
    }
    let mut resolved = ck.slot_owner.clone();
    let mut orphans: Vec<usize> = Vec::new();
    for (i, &s) in dead.iter().enumerate() {
        if i < joiners.len() {
            resolved[s] = joiners[i];
        } else {
            orphans.push(s);
        }
    }
    // Holder of slot s's replicated snapshot: the checkpoint-time host of
    // the ring successor slot. Losing a slot and its buddy together loses
    // the only copy.
    let holder = |s: usize| ck.slot_owner[(s + 1) % old_n];
    for &s in &dead {
        if !group.contains(&holder(s)) {
            return Err(DecompError::Config(format!(
                "unrecoverable: slot {s} and its buddy (rank {}) both failed",
                holder(s)
            )));
        }
    }

    // Topology broadcast — redundant for incumbents (they all computed the
    // same resolution above) but it is what hands a joiner the cuts and the
    // old hosting (to locate its snapshot's holder). Fixed world-sized
    // layout so a joiner can size the buffer without knowing the slot
    // count: [agreed, old_n, ends…, old hosts…, resolved…] with -1 marking
    // an orphan slot.
    {
        let w = comm.size();
        let mut payload = vec![0.0f64; TOPO_HEAD + 3 * w];
        payload[0] = agreed as f64;
        payload[1] = old_n as f64;
        for s in 0..old_n {
            payload[TOPO_HEAD + s] = ck.ranges[s].end as f64;
            payload[TOPO_HEAD + w + s] = ck.slot_owner[s] as f64;
            payload[TOPO_HEAD + 2 * w + s] = if orphans.contains(&s) {
                -1.0
            } else {
                resolved[s] as f64
            };
        }
        comm.try_broadcast(&mut payload, EREC_TAG + 2)?;
    }

    // Snapshot handoff: each adopted slot's holder forwards its packed
    // buddy payload to the joiner. The payload travels in the exact form
    // the checkpoint exchange produced, so forwarding is a copy.
    let htag = EREC_TAG + (comm.epoch() << 12) + 3;
    for (i, &s) in dead.iter().enumerate() {
        if i >= joiners.len() {
            break;
        }
        if holder(s) == rank {
            comm.try_send(joiners[i], htag, &ck.buddy)?;
        }
    }

    // Roll back: re-adopt the checkpoint-time partition and restore the
    // own snapshot (plans and solver stay stale until the topology step
    // below rebuilds them).
    let ranges = ck.ranges.clone();
    let ck_slot = ck.my_slot;
    let own = ck.own.clone();
    let orphan_injections: Vec<(usize, Vec<u8>)> = orphans
        .iter()
        .filter(|&&s| holder(s) == rank)
        .map(|&s| {
            let (id, bytes) = unpack_snap(&ck.buddy);
            if id != s {
                return Err(DecompError::Config(format!(
                    "buddy payload holds slot {id}, expected orphan slot {s}"
                )));
            }
            Ok((s, bytes))
        })
        .collect::<Result<_, DecompError>>()?;
    drv.stage_rollback(ranges, ck_slot, &own)?;
    st.log.record(
        agreed,
        rank,
        comm.op_count(),
        FaultKind::Rollback,
        format!("slot {ck_slot} back to step {agreed}"),
    );
    for (s, bytes) in &orphan_injections {
        drv.inject_snapshot(*s, bytes)?;
        st.log.record(
            agreed,
            rank,
            comm.op_count(),
            FaultKind::Restore,
            format!("injected orphan slot {s} from its buddy snapshot"),
        );
    }

    if orphans.is_empty() {
        // Full-strength recovery: same partition, joiners in the dead
        // ranks' slots. Pure hosting change — no data moves, and the
        // replayed trajectory is bit-exact against the fault-free run.
        drv.reconfigure_hosts(comm, resolved)?;
    } else {
        // Reduced strength: orphaned state was injected into the buddies;
        // re-cut to the live count, which also redistributes the injected
        // particles to their new owners.
        let mut adoptive = resolved.clone();
        for &s in &orphans {
            adoptive[s] = holder(s);
        }
        let new_my_slot = group
            .iter()
            .position(|&r| r == rank)
            .expect("member of own group");
        drv.recut_to(comm, adoptive, group.clone(), new_my_slot)?;
        st.recuts += 1;
    }

    // Ledger the decomposed → replicated collapse at one survivor.
    if group.len() == 1 && old_n > 1 {
        st.log.record(
            agreed,
            rank,
            comm.op_count(),
            FaultKind::Degrade,
            "replicated single-domain fallback (1 survivor)".to_string(),
        );
    }

    st.step = agreed;
    st.need_ckpt = true; // re-establish buddy pairs under the new topology
    st.recoveries += 1;
    Ok(())
}

/// The shared member loop: step until `nsteps`, recovering from rank
/// failures via [`recover`]. Entered by incumbents at step 0 and by
/// admitted joiners at their adoption step.
fn member_loop(
    comm: &mut Comm,
    mut drv: DecomposedSimulation,
    ecfg: &ElasticConfig,
    nsteps: u64,
    mut st: LoopState,
) -> Result<ElasticOutcome, DecompError> {
    let rank = comm.rank();
    let every = ecfg.checkpoint_every.max(1);
    let res = loop {
        if st.step >= nsteps {
            break Ok(());
        }
        let r = boundary_cycle(comm, &mut drv, ecfg, &mut st);
        st.log.ingest_transport(st.step, comm.take_events());
        match r {
            Ok(()) => {
                st.step += 1;
                if st.step < nsteps && st.step.is_multiple_of(every) {
                    st.need_ckpt = true;
                }
            }
            Err(e) => {
                // A third rank's death reaches a rank blocked on a *live*
                // peer only as a timeout (p2p receives watch their source,
                // not the group); if the detector confirms a dead member,
                // that timeout is a failure signal, not a fatal stall.
                let self_death = matches!(is_rank_failed(&e), Some((r, failed)) if r == failed);
                let peer_death = is_rank_failed(&e).is_some()
                    || (matches!(&e, DecompError::Comm(CommError::Timeout { .. }))
                        && comm.failed_group_member().is_some());
                if self_death || !peer_death {
                    break Err(e);
                }
                if st.recoveries >= ecfg.max_recoveries {
                    break Err(DecompError::Config(format!(
                        "gave up after {} recoveries",
                        st.recoveries
                    )));
                }
                if let Err(re) = recover(comm, &mut drv, ecfg, &mut st) {
                    break Err(re);
                }
            }
        }
    };
    // Close the admission board only on a *live* exit (run complete or a
    // genuine error). A killed rank closing it races the survivors'
    // in-flight admission: the spare can see `closed` and leave between
    // the members' unanimous vote and its ticket being posted, leaving
    // the group waiting on a contribution that never comes.
    let self_death =
        matches!(&res, Err(e) if matches!(is_rank_failed(e), Some((r, failed)) if r == failed));
    if !self_death {
        comm.close_joins();
    }
    if let Err(e) = res {
        return match is_rank_failed(&e) {
            // Killed by a crash fault: report the death, not an error.
            Some((r, failed)) if r == failed => {
                let mut log = drv.fault_log().clone();
                log.merge(std::mem::take(&mut st.log));
                let mut out = ElasticOutcome::empty(rank, false, st.joined, log);
                out.steps = st.step;
                out.recoveries = st.recoveries;
                out.checkpoints = st.checkpoints;
                out.recuts = st.recuts;
                Ok(out)
            }
            _ => Err(e),
        };
    }

    // Decode this rank's own final snapshot for the outcome: the canonical
    // view of the slot's particles and owned field values.
    let mut state = ckpt::decode(&drv.checkpoint())?;
    let owned_points = drv.plan().owned_points.clone();
    let rho_owned: Vec<f64> = owned_points.iter().map(|&p| state.rho[p]).collect();
    let ex_owned: Vec<f64> = owned_points.iter().map(|&p| state.ex[p]).collect();
    let ey_owned: Vec<f64> = owned_points.iter().map(|&p| state.ey[p]).collect();
    let mut log = drv.fault_log().clone();
    log.merge(std::mem::take(&mut st.log));
    Ok(ElasticOutcome {
        world_rank: rank,
        survivor: true,
        joined: st.joined,
        slot: Some(drv.my_slot()),
        nslots: drv.slot_owner().len(),
        steps: st.step,
        recoveries: st.recoveries,
        checkpoints: st.checkpoints,
        recuts: st.recuts,
        particles: state.species.swap_remove(0).particles,
        owned_points,
        rho_owned,
        ex_owned,
        ey_owned,
        diag: state.diag,
        log,
    })
}

fn apply_comm_cfg(comm: &mut Comm, ecfg: &ElasticConfig) {
    if let Some(d) = ecfg.heartbeat_timeout {
        comm.set_heartbeat_timeout(d);
    }
    if let Some(d) = ecfg.recv_deadline {
        comm.set_recv_deadline(d);
    }
}

/// Run `nsteps` elastically as an initial group member. Pair with
/// [`run_elastic_spare`] on the spare ranks of a
/// [`minimpi::World::run_elastic`] world; every member must pass identical
/// configurations.
///
/// With no faults injected this is a plain decomposed run plus the
/// checkpoint/re-cut schedule; with a kill and an available spare the
/// group shrinks, admits the spare into the dead rank's slot, rolls back,
/// and replays — bit-exact against the fault-free run. With kills and no
/// spares it degrades: fewer slots per re-cut, replicated at one survivor.
pub fn run_elastic_member(
    comm: &mut Comm,
    cfg: PicConfig,
    dcfg: DecompConfig,
    ecfg: &ElasticConfig,
    nsteps: u64,
) -> Result<ElasticOutcome, DecompError> {
    apply_comm_cfg(comm, ecfg);
    let st = LoopState {
        cks: Vec::new(),
        step: 0,
        need_ckpt: true, // always hold a committed generation at step 0
        joined: false,
        recoveries: 0,
        checkpoints: 0,
        recuts: 0,
        log: FaultLog::new(),
    };
    let drv = match DecomposedSimulation::new(cfg, dcfg, comm) {
        Ok(d) => d,
        Err(e) => {
            // A rank killed during construction still reports a death
            // outcome; survivors of such a death cannot recover (nothing
            // checkpointed yet) and surface the error instead.
            return match is_rank_failed(&e) {
                Some((r, failed)) if r == failed => {
                    // Dead ranks perform no protocol actions — in
                    // particular they must not close the join board (see
                    // member_loop); the surviving ranks close it below.
                    let mut log = FaultLog::new();
                    log.ingest_transport(0, comm.take_events());
                    Ok(ElasticOutcome::empty(comm.rank(), false, false, log))
                }
                _ => {
                    comm.close_joins();
                    Err(e)
                }
            };
        }
    };
    let mut st = st;
    st.log.ingest_transport(0, comm.take_events());
    member_loop(comm, drv, ecfg, nsteps, st)
}

/// Run as a spare: park in the admission queue until a recovery votes this
/// rank in, then adopt the dead rank's slot and finish the run as a
/// member. Returns a `joined: false` outcome if the run ends (or
/// [`ElasticConfig::join_deadline`] passes) without an admission.
pub fn run_elastic_spare(
    comm: &mut Comm,
    cfg: PicConfig,
    dcfg: DecompConfig,
    ecfg: &ElasticConfig,
    nsteps: u64,
) -> Result<ElasticOutcome, DecompError> {
    apply_comm_cfg(comm, ecfg);
    let rank = comm.rank();
    let not_joined = |comm: &mut Comm| {
        let mut log = FaultLog::new();
        log.ingest_transport(0, comm.take_events());
        ElasticOutcome::empty(rank, true, false, log)
    };
    match comm.try_join(ecfg.join_deadline) {
        Ok(Some(_)) => {}
        Ok(None) => return Ok(not_joined(comm)),
        Err(CommError::Timeout { .. }) => return Ok(not_joined(comm)),
        Err(e) => return Err(e.into()),
    }

    // Admitted: sync into the recovery protocol the incumbents are running
    // right now, from the rollback agreement onward.
    comm.try_gather(&[-1.0], EREC_TAG)?;
    let mut buf = [0.0f64];
    comm.try_broadcast(&mut buf, EREC_TAG + 1)?;
    let w = comm.size();
    let mut topo = vec![0.0f64; TOPO_HEAD + 3 * w];
    comm.try_broadcast(&mut topo, EREC_TAG + 2)?;
    let agreed = topo[0] as u64;
    let old_n = topo[1] as usize;
    let mut ranges = Vec::with_capacity(old_n);
    let mut start = 0usize;
    for s in 0..old_n {
        let end = topo[TOPO_HEAD + s] as usize;
        ranges.push(start..end);
        start = end;
    }
    let old_hosts: Vec<usize> = (0..old_n)
        .map(|s| topo[TOPO_HEAD + w + s] as usize)
        .collect();
    let mut orphans: Vec<usize> = Vec::new();
    // Mirror the incumbents' `adoptive` resolution exactly: joiner ranks
    // in adopted slots, the ring buddy standing in for each orphan.
    let adoptive: Vec<usize> = (0..old_n)
        .map(|s| {
            let v = topo[TOPO_HEAD + 2 * w + s];
            if v < 0.0 {
                orphans.push(s);
                old_hosts[(s + 1) % old_n]
            } else {
                v as usize
            }
        })
        .collect();
    let my_slot = adoptive
        .iter()
        .position(|&r| r == rank)
        .ok_or_else(|| DecompError::Config(format!("joiner {rank} resolved to no slot")))?;

    // Receive the adopted slot's snapshot from its checkpoint-time buddy.
    let htag = EREC_TAG + (comm.epoch() << 12) + 3;
    let holder = old_hosts[(my_slot + 1) % old_n];
    let (id, snapshot) = unpack_snap(&comm.try_recv(holder, htag)?);
    if id != my_slot {
        return Err(DecompError::Config(format!(
            "snapshot handoff holds slot {id}, expected {my_slot}"
        )));
    }

    // With orphans pending, the interim hosting is not a bijection (buddy
    // stand-ins double-host); the re-cut below installs the real topology
    // and rebuilds the slab solver before any step runs.
    let mut drv =
        DecomposedSimulation::new_adopted(cfg, dcfg, comm, ranges, adoptive.clone(), &snapshot)?;
    let mut st = LoopState {
        cks: Vec::new(),
        step: agreed,
        need_ckpt: true,
        joined: true,
        recoveries: 0,
        checkpoints: 0,
        recuts: 0,
        log: FaultLog::new(),
    };
    st.log.record(
        agreed,
        rank,
        comm.op_count(),
        FaultKind::Restore,
        format!("adopted slot {my_slot} from its buddy on rank {holder}"),
    );
    if !orphans.is_empty() {
        let group = comm.group().to_vec();
        let new_my_slot = group
            .iter()
            .position(|&r| r == rank)
            .expect("member of own group");
        drv.recut_to(comm, adoptive, group, new_my_slot)?;
        st.recuts += 1;
    }
    st.log.ingest_transport(agreed, comm.take_events());
    member_loop(comm, drv, ecfg, nsteps, st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_packing_roundtrips() {
        for bytes in [
            vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9],
            (0..=255u8).collect::<Vec<u8>>(),
            Vec::new(),
        ] {
            assert_eq!(unpack_snap(&pack_snap(3, &bytes)), (3, bytes));
        }
    }
}
