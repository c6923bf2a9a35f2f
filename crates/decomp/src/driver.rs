//! The decomposed step loop: deposit → migrate-send → halo → solve →
//! migrate-drain, with particle migration latency hidden behind the solve.
//!
//! The field solve is always the slab pipeline ([`SlabSolver`]): every
//! rank runs the row and column passes of its own slab and band, no rank
//! gathers ρ or holds the full grid, and a lone rank (one survivor, or a
//! one-rank world) runs it as a serial-cost solve that moves no payload.

use crate::halo::{self, HaloPlan};
use crate::{exchange_rho_routed, slab::SlabSolver, DecompError, Partition};
use minimpi::Comm;
use pic_core::faultlog::{FaultKind, FaultLog};
use pic_core::grid::Grid2D;
use pic_core::particles::{Loader, ParticlesSoA};
use pic_core::resilience::checkpoint as ckpt;
use pic_core::sim::{PicConfig, Simulation};
use pic_core::PicError;
use std::ops::Range;
use std::time::Instant;

/// Tag namespace for decomposition traffic: far above the step-indexed user
/// tags of the replication path (≤ ~2⁴⁰ + small), far below minimpi's
/// control namespaces (2⁴⁴⁺). Each step burns [`TAGS_PER_STEP`] tags.
const TAG_BASE: u64 = 1 << 42;
/// Tags consumed per step: halo, two unused, migrate, four all-to-all
/// rounds of the slab solve, and three re-partition rounds (histogram,
/// particle exchange, field handoff). The block layout is kept so tag
/// numbers do not move.
const TAGS_PER_STEP: u64 = 16;
/// Point-to-point frames carry raw tags (minimpi epoch-qualifies only its
/// collectives), so the driver folds the communicator epoch into its tag
/// block itself: after a shrink/join bumps the epoch, replayed steps reuse
/// step numbers but never tag-match stale pre-failure frames. Epoch 0 —
/// every non-elastic run — leaves the tags untouched.
const EPOCH_TAG_SHIFT: u64 = 36;
/// Tag of the one-time initialization allreduce.
const INIT_TAG: u64 = TAG_BASE - 16;

/// The field-solve distribution. Kept only as a pinned shim: the
/// benchmark package's API list (`benchmark/README.md`) names
/// `SolverMode::Slab`, and the slab pipeline is the one decomposed solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverMode {
    /// Slab-distributed solve: every rank owns a contiguous row slab,
    /// all-to-all exchanges implement the distributed transpose, and no
    /// rank ever holds the full grid.
    Slab,
}

/// Knobs of the decomposition itself (the physics lives in [`PicConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct DecompConfig {
    /// Halo width in cells: the Chebyshev distance a particle may travel
    /// in one step. 2 covers |v| < 2 cells/step; raise it for hot tails
    /// (e.g. 128-grid Landau at σ = 1 thermal units ≈ 0.64 cells/step
    /// keeps 3σ under 2, but two-stream beams at v₀ = 3 need 3).
    pub halo_width: usize,
    /// Cut the curve by initial per-cell particle counts instead of cell
    /// counts, so ranks start with near-equal particle loads.
    pub weighted: bool,
    /// Field-solve distribution: a pinned shim with one value (see
    /// [`SolverMode`]).
    pub solver: SolverMode,
    /// Per-job tag-namespace block ([`minimpi::job_tag_block`]), folded
    /// into every tag this driver uses. Concurrent decomposed jobs
    /// sharing one world must carry distinct blocks so their step tags
    /// never alias; 0 (the default) is the single-job legacy namespace.
    pub tag_block: u64,
}

impl Default for DecompConfig {
    fn default() -> Self {
        Self {
            halo_width: 2,
            weighted: false,
            solver: SolverMode::Slab,
            tag_block: 0,
        }
    }
}

/// Cumulative per-rank communication accounting, by phase: bytes moved
/// *and* wall time spent, so overlap gains are measurable, not just
/// volume reductions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommStats {
    /// Bytes moved (sent + received) by ρ halo exchanges.
    pub halo_bytes: u64,
    /// Bytes moved by the slab solve's all-to-all rounds (a rank's own
    /// blocks never travel, so a 1-rank solve moves none).
    pub solve_bytes: u64,
    /// Bytes moved by particle migration.
    pub migrate_bytes: u64,
    /// Particles sent to other ranks.
    pub migrated_out: u64,
    /// Particles received from other ranks.
    pub migrated_in: u64,
    /// Wall seconds in the ρ halo exchange.
    pub halo_secs: f64,
    /// Wall seconds in the field solve: the full all-to-all pipeline.
    pub solve_secs: f64,
    /// Wall seconds posting migration sends (classify + send + compact) —
    /// before the solve, so the payloads travel while ranks compute.
    pub migrate_send_secs: f64,
    /// Wall seconds draining migration receives after the solve. Near-zero
    /// drain time relative to `migrate_send_secs` + transit means the
    /// overlap hid the migration latency.
    pub migrate_drain_secs: f64,
}

impl CommStats {
    /// Total bytes moved across all phases.
    pub fn total_bytes(&self) -> u64 {
        self.halo_bytes + self.solve_bytes + self.migrate_bytes
    }
}

/// A spatially decomposed PIC run: this rank advances only the particles
/// inside its subdomain and stores valid field values only on its points
/// (plus halos). The spectral Poisson solve is slab-distributed across
/// all ranks ([`SlabSolver`]).
///
/// Collective in construction and in [`step`](Self::step): every rank of
/// the communicator must call them in lockstep with identical
/// configurations.
///
/// # Slots
///
/// The partition is indexed by *slot*, not world rank: slot `s` is the
/// `s`-th contiguous curve range, and [`slot_owner`](Self::slot_owner)
/// maps it to the world rank currently hosting it (a bijection with the
/// live communicator group). In a plain world the map is the identity and
/// the distinction disappears; after a death + rejoin, the replacement
/// rank adopts the dead rank's slot, so partition geometry, halo plans,
/// and tag schedules survive membership churn unchanged.
pub struct DecomposedSimulation {
    sim: Simulation,
    partition: Partition,
    plan: HaloPlan,
    rank: usize,
    step: u64,
    stats: CommStats,
    faults: FaultLog,
    slab: SlabSolver,
    /// `owned_points` of every slot (solver routing needs them; cheap
    /// enough to keep everywhere).
    all_owned_points: Vec<Vec<usize>>,
    /// `e_points` of every slot.
    all_e_points: Vec<Vec<usize>>,
    /// The physics configuration (with this rank's `keep_cells` applied) —
    /// kept so re-partitions and solver rebuilds can re-derive grid
    /// parameters and fingerprints.
    cfg: PicConfig,
    dcfg: DecompConfig,
    /// The partition slot this rank hosts.
    my_slot: usize,
    /// Slot → hosting world rank (bijection with the live group).
    slot_owner: Vec<usize>,
}

/// Build the halo plan of every slot of `part` once: this rank's plan,
/// plus every slot's `owned_points` and `e_points` (the slab solver's
/// routing tables).
fn slot_plans(
    part: &Partition,
    my_slot: usize,
    halo_width: usize,
) -> (HaloPlan, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut plans: Vec<HaloPlan> = (0..part.nranks())
        .map(|s| HaloPlan::build(part, s, halo_width))
        .collect();
    let owned = plans.iter().map(|h| h.owned_points.clone()).collect();
    let epts = plans.iter().map(|h| h.e_points.clone()).collect();
    (plans.swap_remove(my_slot), owned, epts)
}

/// Build this rank's slab solver for the current group: slab indices
/// follow the *group order* of the hosting ranks. Every slab value is
/// computed by identical arithmetic wherever it is hosted (row FFTs are
/// per-row, the exchanges are pure copies), so the solved E is bitwise
/// independent of hosting.
fn slab_for(
    cfg: &PicConfig,
    comm: &Comm,
    slot_owner: &[usize],
    all_owned_points: &[Vec<usize>],
    all_e_points: &[Vec<usize>],
) -> Result<SlabSolver, DecompError> {
    let group = comm.group();
    let me = group
        .iter()
        .position(|&r| r == comm.rank())
        .expect("member of own group");
    // Each group member's slot's points, in group order.
    let by_group = |all: &[Vec<usize>]| -> Vec<Vec<usize>> {
        group
            .iter()
            .map(|&r| {
                let slot = slot_owner.iter().position(|&o| o == r);
                all[slot.expect("rank hosts a slot")].clone()
            })
            .collect()
    };
    SlabSolver::new(
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.lx,
        cfg.ly,
        me,
        group.len(),
        &by_group(all_owned_points),
        &by_group(all_e_points),
    )
}

impl DecomposedSimulation {
    /// Build the partition, slice the sampled particle population by owned
    /// cells, and initialize the local simulation (the initial ρ is summed
    /// across ranks with one allreduce, so every rank starts from the
    /// correct global field — the only full-grid collective of the run).
    pub fn new(
        mut cfg: PicConfig,
        dcfg: DecompConfig,
        comm: &mut Comm,
    ) -> Result<Self, DecompError> {
        if cfg.keep_range.is_some() || cfg.keep_cells.is_some() {
            return Err(DecompError::Config(
                "keep_range/keep_cells are owned by the decomposition driver".into(),
            ));
        }
        if dcfg.halo_width == 0 {
            return Err(DecompError::Config("halo_width must be at least 1".into()));
        }
        let rank = comm.rank();
        // One slot per live group member; in a fresh world the group is
        // `0..nranks` and slots coincide with ranks.
        let slot_owner: Vec<usize> = comm.group().to_vec();
        let nranks = slot_owner.len();
        let my_slot = slot_owner
            .iter()
            .position(|&r| r == rank)
            .expect("calling rank is a group member");

        let partition = if dcfg.weighted {
            // The (deterministic) initial population's per-cell counts,
            // drawn without sampling a particle; every rank computes the
            // same cut.
            let grid = Grid2D::new(cfg.grid_nx, cfg.grid_ny, cfg.lx, cfg.ly)?;
            let layout = cfg
                .ordering
                .build(cfg.grid_nx, cfg.grid_ny)
                .map_err(PicError::from)?;
            let loader = Loader::new(
                &grid,
                layout.as_ref(),
                cfg.distribution,
                cfg.n_particles,
                cfg.seed,
            );
            let w: Vec<f64> = loader.cell_counts().map(|n| n as f64).collect();
            Partition::new_weighted(cfg.ordering, cfg.grid_nx, cfg.grid_ny, nranks, &w)?
        } else {
            Partition::new(cfg.ordering, cfg.grid_nx, cfg.grid_ny, nranks)?
        };

        let range = partition.range(my_slot);
        cfg.keep_cells = Some((range.start as u32, range.end as u32));

        let (plan, all_owned_points, all_e_points) =
            slot_plans(&partition, my_slot, dcfg.halo_width);
        let slab = slab_for(&cfg, comm, &slot_owner, &all_owned_points, &all_e_points)?;

        let mut comm_err = None;
        let init_tag = INIT_TAG + dcfg.tag_block;
        let sim = Simulation::new_with_reduce(cfg.clone(), |rho| {
            if let Err(e) = comm.try_allreduce_sum_tree(rho, init_tag) {
                comm_err = Some(e);
            }
        })?;
        if let Some(e) = comm_err {
            return Err(e.into());
        }

        Ok(Self {
            sim,
            partition,
            plan,
            rank,
            step: 0,
            stats: CommStats::default(),
            faults: FaultLog::new(),
            slab,
            all_owned_points,
            all_e_points,
            cfg,
            dcfg,
            my_slot,
            slot_owner,
        })
    }

    /// Build a driver on a *joining* rank by adopting partition state the
    /// incumbent group already agreed on: explicit `ranges` (the cuts in
    /// force at the rollback step), the resolved `slot_owner` table (which
    /// names this rank for exactly one slot), and the adopted slot's buddy
    /// `snapshot`. No collective participates — the incumbents restore
    /// their own snapshots concurrently — so the joiner slots into the
    /// step/tag schedule exactly where the group rolled back to.
    ///
    /// `cfg` must be the run's original physics configuration (same
    /// `keep_cells`-free form every rank passed to [`new`](Self::new)).
    /// `slot_owner` may still double-host orphaned slots on their ring
    /// buddies, provided a [`recut_to`](Self::recut_to) installs a
    /// bijective hosting before the first step.
    pub fn new_adopted(
        mut cfg: PicConfig,
        dcfg: DecompConfig,
        comm: &mut Comm,
        ranges: Vec<Range<usize>>,
        slot_owner: Vec<usize>,
        snapshot: &[u8],
    ) -> Result<Self, DecompError> {
        if cfg.keep_range.is_some() || cfg.keep_cells.is_some() {
            return Err(DecompError::Config(
                "keep_range/keep_cells are owned by the decomposition driver".into(),
            ));
        }
        if dcfg.halo_width == 0 {
            return Err(DecompError::Config("halo_width must be at least 1".into()));
        }
        let rank = comm.rank();
        let partition = Partition::from_ranges(cfg.ordering, cfg.grid_nx, cfg.grid_ny, ranges)?;
        if slot_owner.len() != partition.nranks() {
            return Err(DecompError::Config(format!(
                "{} slot owners for {} slots",
                slot_owner.len(),
                partition.nranks()
            )));
        }
        let my_slot = slot_owner
            .iter()
            .position(|&r| r == rank)
            .ok_or_else(|| DecompError::Config(format!("rank {rank} hosts no slot")))?;

        // The adopted slot's subdomain, restored straight from its snapshot:
        // no population is sampled, and no collective participates.
        let range = partition.range(my_slot);
        cfg.keep_cells = Some((range.start as u32, range.end as u32));
        let sim = Simulation::from_snapshot(cfg.clone(), snapshot)?;
        let (plan, all_owned_points, all_e_points) =
            slot_plans(&partition, my_slot, dcfg.halo_width);
        let slab = slab_for(&cfg, comm, &slot_owner, &all_owned_points, &all_e_points)?;

        Ok(Self {
            step: sim.steps() as u64,
            sim,
            partition,
            plan,
            rank,
            stats: CommStats::default(),
            faults: FaultLog::new(),
            slab,
            all_owned_points,
            all_e_points,
            cfg,
            dcfg,
            my_slot,
            slot_owner,
        })
    }

    /// First tag of this step's block, with the communicator epoch and the
    /// job's tag block folded in (see [`EPOCH_TAG_SHIFT`] and
    /// [`DecompConfig::tag_block`]).
    fn tag0(&self, comm: &Comm) -> u64 {
        TAG_BASE
            + self.dcfg.tag_block
            + (comm.epoch() << EPOCH_TAG_SHIFT)
            + TAGS_PER_STEP * self.step
    }

    /// Advance one step on every rank (collective).
    ///
    /// 1. local sort/kick/push/deposit ([`Simulation::step_pre_reduce`]) —
    ///    the one hot path every serial run takes, so decomposed runs get
    ///    the vectorized deposit kernel (and its per-cell FP bound) exactly
    ///    as serial runs do;
    /// 2. leakage check — every particle must still sit in the write
    ///    region, else its deposit escaped the halo;
    /// 3. **post migration sends**: particles whose cell changed owner are
    ///    shipped out and compacted away now, so their payloads travel
    ///    while every rank is busy solving;
    /// 4. halo-exchange partial ρ so owned points hold global values;
    /// 5. field solve — the slab-distributed all-to-all pipeline;
    /// 6. rebuild the local redundant field view and diagnostics;
    /// 7. **drain migration receives** posted in step 3.
    ///
    /// Any injected transport fault surfaces as `Err` (never a deadlock:
    /// sends are non-blocking and receives are deadline-bounded); transport
    /// retry/kill events are folded into [`fault_log`](Self::fault_log).
    pub fn step(&mut self, comm: &mut Comm) -> Result<(), DecompError> {
        self.step += 1;
        let t0 = self.tag0(comm);
        let res = self.step_inner(comm, t0);
        self.faults.ingest_transport(self.step, comm.take_events());
        res
    }

    fn step_inner(&mut self, comm: &mut Comm, t0: u64) -> Result<(), DecompError> {
        self.sim.step_pre_reduce();

        for &c in &self.sim.particles().icell {
            if !self.plan.write_cells[c as usize] {
                return Err(DecompError::Leakage {
                    rank: self.rank,
                    icell: c as usize,
                    step: self.step,
                });
            }
        }

        let mut moved = comm.bytes_sent() + comm.bytes_received();
        let mut mark = Instant::now();
        let mut phase = |comm: &Comm, bytes: &mut u64, secs: &mut f64| {
            let now = comm.bytes_sent() + comm.bytes_received();
            *bytes += now - moved;
            moved = now;
            *secs += mark.elapsed().as_secs_f64();
            mark = Instant::now();
        };

        // Comm/compute overlap: migration payloads leave now and sit in
        // the peers' stashes while everyone runs the solve; the matching
        // receives drain after it.
        self.migrate_send(comm, t0 + 3)?;
        phase(
            comm,
            &mut self.stats.migrate_bytes,
            &mut self.stats.migrate_send_secs,
        );

        exchange_rho_routed(comm, &self.plan, self.sim.rho_mut(), t0, &self.slot_owner)?;
        phase(comm, &mut self.stats.halo_bytes, &mut self.stats.halo_secs);

        let (rho, ex, ey) = self.sim.field_mut();
        self.slab.solve(comm, rho, ex, ey, t0 + 4)?;
        phase(
            comm,
            &mut self.stats.solve_bytes,
            &mut self.stats.solve_secs,
        );

        self.sim.step_post_external_solve();

        self.migrate_drain(comm, t0 + 3)?;
        phase(
            comm,
            &mut self.stats.migrate_bytes,
            &mut self.stats.migrate_drain_secs,
        );
        Ok(())
    }

    /// Route particles whose cell left the subdomain to the owning slot's
    /// host: classify, post one send per halo neighbor (possibly empty, so
    /// no receive can dangle), and compact the stayers. The matching
    /// receives happen in [`migrate_drain`](Self::migrate_drain) after the
    /// solve; stayers keep their relative order and arrivals append in
    /// ascending sender-*slot* order — deterministic and independent of
    /// which rank hosts which slot, and the next counting sort restores
    /// cell order.
    fn migrate_send(&mut self, comm: &mut Comm, tag: u64) -> Result<(), DecompError> {
        let p = self.sim.particles_mut();
        let n = p.len();
        let mut stay = vec![true; n];
        let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); self.plan.neighbors.len()];
        for (i, keep) in stay.iter_mut().enumerate() {
            let owner = self.partition.owner(p.icell[i] as usize);
            if owner != self.my_slot {
                // The leakage check bounds strays to the write region, so
                // the owning slot is always a halo neighbor.
                let j = self
                    .plan
                    .neighbors
                    .binary_search(&owner)
                    .expect("stray owner within halo neighborhood");
                outgoing[j].push(i);
                *keep = false;
            }
        }

        for (j, &peer) in self.plan.neighbors.iter().enumerate() {
            let mut payload = Vec::with_capacity(outgoing[j].len() * F_PER_P);
            for &i in &outgoing[j] {
                payload.extend_from_slice(&[
                    f64::from(p.icell[i]),
                    f64::from(p.ix[i]),
                    f64::from(p.iy[i]),
                    p.dx[i],
                    p.dy[i],
                    p.vx[i],
                    p.vy[i],
                ]);
            }
            comm.try_send(self.slot_owner[peer], tag, &payload)?;
            self.stats.migrated_out += outgoing[j].len() as u64;
        }

        if outgoing.iter().any(|o| !o.is_empty()) {
            compact(p, &stay);
        }
        Ok(())
    }

    /// Drain the migration receives posted by [`migrate_send`]
    /// (Self::migrate_send) — by now the payloads have crossed during the
    /// solve, so this is normally a stash lookup, not a wait.
    fn migrate_drain(&mut self, comm: &mut Comm, tag: u64) -> Result<(), DecompError> {
        for &peer_slot in &self.plan.neighbors {
            let peer = self.slot_owner[peer_slot];
            let data = comm.try_recv_group(peer, tag)?;
            if data.len() % F_PER_P != 0 {
                return Err(DecompError::Config(format!(
                    "migration payload from rank {peer}: {} values not a \
                     multiple of {F_PER_P}",
                    data.len()
                )));
            }
            let p = self.sim.particles_mut();
            for q in data.chunks_exact(F_PER_P) {
                p.icell.push(q[0] as u32);
                p.ix.push(q[1] as u32);
                p.iy.push(q[2] as u32);
                p.dx.push(q[3]);
                p.dy.push(q[4]);
                p.vx.push(q[5]);
                p.vy.push(q[6]);
            }
            self.stats.migrated_in += (data.len() / F_PER_P) as u64;
        }
        Ok(())
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize, comm: &mut Comm) -> Result<(), DecompError> {
        for _ in 0..n {
            self.step(comm)?;
        }
        Ok(())
    }

    /// Snapshot the local simulation state (particles, fields, RNG,
    /// diagnostics). The snapshot is the plain [`Simulation::checkpoint`]
    /// format — its config fingerprint covers grid, physics, and this
    /// rank's `keep_cells` range, but *not* the rank or thread count of
    /// the solve.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.sim.checkpoint()
    }

    /// Restore the local simulation from a [`checkpoint`](Self::checkpoint)
    /// snapshot (collective: every rank must restore a snapshot of the same
    /// step so the tag sequence stays aligned).
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), DecompError> {
        self.sim.restore(snapshot).map_err(DecompError::Pic)?;
        self.step = self.sim.steps() as u64;
        Ok(())
    }

    // ------------------------------------------------------- elasticity

    /// Live re-partition (collective): histogram the current particle
    /// population per cell (an allreduce of exact integer counts, so every
    /// rank computes bit-identical weights in any summation order), re-cut
    /// the curve, and migrate only what the new cuts displace — particles
    /// whose cell changed owner, plus a pointwise field handoff so the new
    /// owner of every point inherits the old owner's (canonical) ρ/E
    /// values. Slot hosting is unchanged, so a run that re-cuts on a fixed
    /// schedule stays bit-exact against any same-schedule run of the same
    /// trajectory, whatever its fault history.
    pub fn recut(&mut self, comm: &mut Comm) -> Result<(), DecompError> {
        let hosts = self.slot_owner.clone();
        let my_slot = self.my_slot;
        self.recut_to(comm, hosts.clone(), hosts, my_slot)
    }

    /// Generalized re-partition: re-cut to `new_hosts.len()` slots, with
    /// `old_hosts[s]` naming the world rank holding slot `s`'s *current*
    /// state (differs from the hosting map only during shrink recovery,
    /// where a dead slot's state was injected into its buddy) and
    /// `new_hosts` the hosting map afterwards (a bijection with the live
    /// group). `new_my_slot` is this rank's position in `new_hosts`.
    pub fn recut_to(
        &mut self,
        comm: &mut Comm,
        old_hosts: Vec<usize>,
        new_hosts: Vec<usize>,
        new_my_slot: usize,
    ) -> Result<(), DecompError> {
        let group = comm.group().to_vec();
        let new_nslots = new_hosts.len();
        if new_nslots != group.len() {
            return Err(DecompError::Config(format!(
                "{new_nslots} slots for a {}-rank group",
                group.len()
            )));
        }
        if old_hosts.len() != self.partition.nranks() {
            return Err(DecompError::Config(format!(
                "{} old hosts for {} slots",
                old_hosts.len(),
                self.partition.nranks()
            )));
        }
        if new_hosts.get(new_my_slot) != Some(&self.rank) {
            return Err(DecompError::Config(format!(
                "rank {} does not host new slot {new_my_slot}",
                self.rank
            )));
        }
        let rt = self.tag0(comm) + TAGS_PER_STEP + 8;
        let ncells = self.partition.ncells();

        // 1. Global per-cell histogram: sums of exact small integers are
        //    order-independent in f64, so every rank derives the same cuts.
        let mut w = vec![0.0f64; ncells];
        for &c in &self.sim.particles().icell {
            w[c as usize] += 1.0;
        }
        comm.try_allreduce_sum_tree(&mut w, rt)?;
        let new_part = self.partition.recut_weighted(&w, new_nslots)?;

        // Group index hosting each new slot.
        let g_of_new: Vec<usize> = new_hosts
            .iter()
            .map(|&h| {
                group
                    .iter()
                    .position(|&r| r == h)
                    .ok_or_else(|| DecompError::Config(format!("new host {h} not in group")))
            })
            .collect::<Result<_, _>>()?;

        // 2. Ship particles to their new owner slot (all-slots exchange:
        //    a re-cut can move cells past halo distance).
        {
            let p = self.sim.particles_mut();
            let mut stay = vec![true; p.len()];
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); group.len()];
            for (i, keep) in stay.iter_mut().enumerate() {
                let s = new_part.owner(p.icell[i] as usize);
                if s != new_my_slot {
                    blocks[g_of_new[s]].extend_from_slice(&[
                        f64::from(p.icell[i]),
                        f64::from(p.ix[i]),
                        f64::from(p.iy[i]),
                        p.dx[i],
                        p.dy[i],
                        p.vx[i],
                        p.vy[i],
                    ]);
                    *keep = false;
                }
            }
            let moved = blocks.iter().map(|b| b.len() / F_PER_P).sum::<usize>();
            if moved > 0 {
                compact(p, &stay);
            }
            self.stats.migrated_out += moved as u64;
            let parts = comm.try_all_to_all(&blocks, rt + 1)?;
            // Append arrivals in ascending sender-*slot* order, so the
            // particle array is independent of slot → rank hosting.
            let mut order: Vec<usize> = (0..new_nslots).collect();
            order.retain(|&s| s != new_my_slot);
            let p = self.sim.particles_mut();
            for s in order {
                let data = &parts[g_of_new[s]];
                if data.len() % F_PER_P != 0 {
                    return Err(DecompError::Config(format!(
                        "re-cut particle payload from slot {s}: {} values not a \
                         multiple of {F_PER_P}",
                        data.len()
                    )));
                }
                for q in data.chunks_exact(F_PER_P) {
                    p.icell.push(q[0] as u32);
                    p.ix.push(q[1] as u32);
                    p.iy.push(q[2] as u32);
                    p.dx.push(q[3]);
                    p.dy.push(q[4]);
                    p.vx.push(q[5]);
                    p.vy.push(q[6]);
                }
                self.stats.migrated_in += (data.len() / F_PER_P) as u64;
            }
        }

        // 3. Field handoff: for every grid point, the owner of its cell
        //    under the *old* partition is the canonical holder (ρ summed
        //    at owned points by the halo exchange, E delivered at
        //    e_points ⊇ owned points). Each rank sends E at the new
        //    owners' e-points and ρ at their owned points, restricted to
        //    the old slots whose state it holds; both endpoints derive
        //    identical ascending point lists, so no index traffic and the
        //    writes are disjoint. Pointwise copies — no arithmetic — so
        //    the handoff cannot perturb the trajectory.
        let old_po = halo::point_owner_map(&self.partition);
        let new_po = halo::point_owner_map(&new_part);
        let new_e_masks: Vec<Vec<bool>> = (0..new_nslots)
            .map(|s| halo::corner_point_mask(&new_part, &halo::mask_of_range(&new_part, s)))
            .collect();
        {
            let (rho, ex, ey) = self.sim.field_mut();
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); group.len()];
            for s in 0..new_nslots {
                let blk = &mut blocks[g_of_new[s]];
                for p in 0..ncells {
                    if new_e_masks[s][p] && old_hosts[old_po[p]] == self.rank {
                        blk.push(ex[p]);
                        blk.push(ey[p]);
                    }
                }
                for p in 0..ncells {
                    if new_po[p] == s && old_hosts[old_po[p]] == self.rank {
                        blk.push(rho[p]);
                    }
                }
            }
            let parts = comm.try_all_to_all(&blocks, rt + 2)?;
            let (rho, ex, ey) = self.sim.field_mut();
            for (g, data) in parts.iter().enumerate() {
                let from_g = |p: usize| old_hosts[old_po[p]] == group[g];
                let ne = (0..ncells)
                    .filter(|&p| new_e_masks[new_my_slot][p] && from_g(p))
                    .count();
                let nr = (0..ncells)
                    .filter(|&p| new_po[p] == new_my_slot && from_g(p))
                    .count();
                if data.len() != 2 * ne + nr {
                    return Err(DecompError::Config(format!(
                        "field handoff from group member {g}: {} values for \
                         {ne} E points + {nr} ρ points",
                        data.len()
                    )));
                }
                let mut it = data.iter();
                for p in (0..ncells).filter(|&p| new_e_masks[new_my_slot][p] && from_g(p)) {
                    ex[p] = *it.next().expect("E payload sized above");
                    ey[p] = *it.next().expect("E payload sized above");
                }
                for p in (0..ncells).filter(|&p| new_po[p] == new_my_slot && from_g(p)) {
                    rho[p] = *it.next().expect("rho payload sized above");
                }
            }
        }
        // 4. Adopt the new partition and rebuild plans + solver. A re-cut
        //    appends arrivals out of cell order, so tell the adaptive
        //    controller (if any) the population was externally shuffled —
        //    the next eligible boundary sorts instead of waiting for the
        //    disorder EWMA to catch up.
        self.sim.note_external_shuffle();
        self.apply_partition(comm, new_part, new_hosts, new_my_slot)?;
        self.faults.record(
            self.step,
            self.rank,
            comm.op_count(),
            FaultKind::Recut,
            format!(
                "{new_nslots} slot(s), slot {new_my_slot} owns {:?}, {} local particle(s)",
                self.partition.range(new_my_slot),
                self.sim.particles().len()
            ),
        );
        Ok(())
    }

    /// Install a partition + hosting map: update `keep_cells` (and the
    /// checkpoint fingerprint with it), rebuild the halo plans and the
    /// slab solver. Purely local.
    fn apply_partition(
        &mut self,
        comm: &Comm,
        part: Partition,
        slot_owner: Vec<usize>,
        my_slot: usize,
    ) -> Result<(), DecompError> {
        let range = part.range(my_slot);
        let keep = (range.start as u32, range.end as u32);
        self.sim.set_keep_cells(Some(keep))?;
        self.cfg.keep_cells = Some(keep);
        (self.plan, self.all_owned_points, self.all_e_points) =
            slot_plans(&part, my_slot, self.dcfg.halo_width);
        self.slab = slab_for(
            &self.cfg,
            comm,
            &slot_owner,
            &self.all_owned_points,
            &self.all_e_points,
        )?;
        self.partition = part;
        self.slot_owner = slot_owner;
        self.my_slot = my_slot;
        Ok(())
    }

    /// Re-resolve the slot → rank hosting map against the current group
    /// (same partition): how incumbents absorb a membership change —
    /// a joiner adopting a dead rank's slot — without moving any data.
    /// Rebuilds plans and solver against the (possibly rolled-back)
    /// partition.
    pub fn reconfigure_hosts(
        &mut self,
        comm: &Comm,
        slot_owner: Vec<usize>,
    ) -> Result<(), DecompError> {
        if slot_owner.len() != self.partition.nranks() {
            return Err(DecompError::Config(format!(
                "{} slot owners for {} slots",
                slot_owner.len(),
                self.partition.nranks()
            )));
        }
        let my_slot = slot_owner
            .iter()
            .position(|&r| r == self.rank)
            .ok_or_else(|| DecompError::Config(format!("rank {} hosts no slot", self.rank)))?;
        let part = Partition::from_ranges(
            self.partition.ordering(),
            self.partition.layout().ncx(),
            self.partition.layout().ncy(),
            self.partition.ranges().to_vec(),
        )?;
        self.apply_partition(comm, part, slot_owner, my_slot)
    }

    /// Roll this rank back for recovery: re-adopt the partition that was
    /// in force at the checkpoint (`ranges`, this rank at `my_slot`) and
    /// restore the snapshot into it. Leaves the hosting map and slab
    /// solver *stale* — the caller must follow with
    /// [`reconfigure_hosts`](Self::reconfigure_hosts) or
    /// [`recut_to`](Self::recut_to) before stepping; splitting the two is
    /// what lets shrink recovery inject a dead slot's state in between.
    pub fn stage_rollback(
        &mut self,
        ranges: Vec<Range<usize>>,
        my_slot: usize,
        snapshot: &[u8],
    ) -> Result<(), DecompError> {
        let part = Partition::from_ranges(
            self.partition.ordering(),
            self.partition.layout().ncx(),
            self.partition.layout().ncy(),
            ranges,
        )?;
        if my_slot >= part.nranks() {
            return Err(DecompError::Config(format!(
                "slot {my_slot} out of range for {} slots",
                part.nranks()
            )));
        }
        let range = part.range(my_slot);
        let keep = (range.start as u32, range.end as u32);
        self.sim.set_keep_cells(Some(keep))?;
        self.cfg.keep_cells = Some(keep);
        self.partition = part;
        self.my_slot = my_slot;
        self.sim.restore(snapshot)?;
        self.step = self.sim.steps() as u64;
        Ok(())
    }

    /// Inject a dead slot's decoded snapshot into this rank (its buddy):
    /// append the particles (a following [`recut_to`](Self::recut_to)
    /// redistributes them before any leakage check can see them) and adopt
    /// the snapshot's ρ/E values at the dead slot's owned points, making
    /// this rank the canonical holder of that state for the handoff.
    pub fn inject_snapshot(&mut self, slot: usize, snapshot: &[u8]) -> Result<(), DecompError> {
        let st = ckpt::decode(snapshot)?;
        let po = halo::point_owner_map(&self.partition);
        {
            let (rho, ex, ey) = self.sim.field_mut();
            for p in 0..po.len() {
                if po[p] == slot {
                    rho[p] = st.rho[p];
                    ex[p] = st.ex[p];
                    ey[p] = st.ey[p];
                }
            }
        }
        let q = &st.species[0].particles;
        let n = q.len();
        let p = self.sim.particles_mut();
        p.icell.extend_from_slice(&q.icell);
        p.ix.extend_from_slice(&q.ix);
        p.iy.extend_from_slice(&q.iy);
        p.dx.extend_from_slice(&q.dx);
        p.dy.extend_from_slice(&q.dy);
        p.vx.extend_from_slice(&q.vx);
        p.vy.extend_from_slice(&q.vy);
        self.faults.record(
            self.step,
            self.rank,
            0,
            FaultKind::Restore,
            format!("injected {n} particle(s) of orphaned slot {slot}"),
        );
        Ok(())
    }

    /// The partition slot this rank hosts.
    pub fn my_slot(&self) -> usize {
        self.my_slot
    }

    /// Slot → hosting world rank (bijection with the live group).
    pub fn slot_owner(&self) -> &[usize] {
        &self.slot_owner
    }

    /// The simulation step counter (completed steps).
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The underlying local simulation. Its ρ/E arrays hold *global*
    /// values only on this rank's [`HaloPlan::owned_points`] /
    /// [`HaloPlan::e_points`]; elsewhere they are stale partials.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The partition shared by all ranks.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// This rank's halo plan.
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    /// Cumulative per-phase communication statistics for this rank.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Transport fault events (retries, kills, detections) observed by this
    /// rank's communicator during decomposed stepping.
    pub fn fault_log(&self) -> &FaultLog {
        &self.faults
    }

    /// Particles currently hosted by this rank.
    pub fn local_particles(&self) -> usize {
        self.sim.particles().len()
    }

    /// Cells owned by this rank's slot.
    pub fn local_cells(&self) -> usize {
        self.partition.range(self.my_slot).len()
    }
}

/// Migration payload stride: icell, ix, iy, dx, dy, vx, vy.
const F_PER_P: usize = 7;

/// Order-preserving compaction of all seven SoA columns by a keep mask.
fn compact(p: &mut ParticlesSoA, keep: &[bool]) {
    fn retain<T: Copy>(v: &mut Vec<T>, keep: &[bool]) {
        let mut i = 0;
        v.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }
    retain(&mut p.icell, keep);
    retain(&mut p.ix, keep);
    retain(&mut p.iy, keep);
    retain(&mut p.dx, keep);
    retain(&mut p.dy, keep);
    retain(&mut p.vx, keep);
    retain(&mut p.vy, keep);
}
