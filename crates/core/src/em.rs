//! The multi-species 2d3v kind: [`EmConfig`] and its engine,
//! [`EmSimulation`].
//!
//! [`EmSimulation`] is the step engine of [`crate::engine`] over a table of
//! per-species stores ([`crate::species::SpeciesArena`]) with their `vz`
//! column filled: each species' streaming pass runs the lane-blocked Boris
//! push against a static uniform **B** ([`crate::kernels::boris`]) and
//! deposits ρ. E comes from the spectral Poisson solve (`solve_e`), or
//! stays zero, and **B** is static, so no step reads **J**:
//! [`EmSimulation::j_field`] deposits it ([`crate::kernels::current`]) from
//! the end-of-step stores on the first read after a step, under the same
//! `DepositPath` knob as ρ.
//!
//! Velocities are stored in *physical* units (no §IV-D hoisting: per-species
//! q/m would need one scaled field copy per species, forfeiting the
//! redundant layout's bandwidth win), so one `e8` serves every species and
//! the push's single scale `Δt/Δx` requires square cells; `vz` moves no
//! particle in the 2d domain.
//!
//! Determinism contract: trajectories depend only on the config and the
//! executing pool *width*, and on the `Exact` deposit path a step is
//! bit-identical to whole-array calls of the scalar reference kernels
//! (`tests/integration_species.rs`).

use crate::engine::kind::{Kick, Kind, Mover, Settings, SettingsMut};
use crate::engine::{shared_settings, Pic};
use crate::grid::Grid2D;
use crate::kernels::boris::BorisCoeffs;
use crate::kernels::deposit::DepositPath;
use crate::particles::InitialDistribution;
use crate::pool::ThreadPool;
use crate::resilience::checkpoint::{self as ckpt, EmState, StateView};
use crate::resilience::watchdog::{self, WatchdogConfig, WatchdogViolation};
use crate::species::{species_moments, SpeciesArena, SpeciesDef, SpeciesMoments};
use crate::PicError;
use sfc::{CellLayout, Ordering};

/// Configuration of a multi-species 2d3v run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmConfig {
    /// Cells along x (power of two).
    pub grid_nx: usize,
    /// Cells along y (power of two).
    pub grid_ny: usize,
    /// Domain length along x.
    pub lx: f64,
    /// Domain length along y.
    pub ly: f64,
    /// Time step.
    pub dt: f64,
    /// The species table, in initialization order (the sampling RNG stream
    /// is shared, so the order is part of the physics).
    pub species: Vec<SpeciesDef>,
    /// Static uniform magnetic field `(Bx, By, Bz)`.
    pub b0: [f64; 3],
    /// Solve Poisson for the self-consistent E each step. `false` freezes
    /// `E = 0` — pure gyro-motion, the analytic-validation mode.
    pub solve_e: bool,
    /// Cell ordering for the redundant structures.
    pub ordering: Ordering,
    /// Deposition kernel for both ρ and **J**.
    pub deposit_path: DepositPath,
    /// Sort every `sort_period` steps (0 = never).
    pub sort_period: usize,
    /// Workers in the persistent thread pool (1 = sequential, no pool).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Replicated-decomposition slice `(rank, nranks)`: every rank samples
    /// only its contiguous `1/nranks` of *each* species' deterministic
    /// population; the per-step ρ reduction
    /// ([`EmSimulation::step_with_reduce`]) restores the global density, and
    /// the sum of the ranks' [`EmSimulation::j_field`] is the global **J**.
    pub replica: Option<(usize, usize)>,
    /// Online sort-cadence control ([`crate::control`]) — same semantics
    /// as [`crate::sim::PicConfig::controller`]: `Some` drives the sort
    /// schedule from observed disorder.
    pub controller: Option<crate::control::ControllerConfig>,
}

impl EmConfig {
    fn base(species: Vec<SpeciesDef>) -> Self {
        Self {
            grid_nx: 32,
            grid_ny: 32,
            lx: 4.0 * std::f64::consts::PI,
            ly: 4.0 * std::f64::consts::PI,
            dt: 0.05,
            species,
            b0: [0.0; 3],
            solve_e: true,
            ordering: Ordering::Morton,
            deposit_path: DepositPath::LaneReduce,
            sort_period: 20,
            threads: 1,
            seed: 0xB1C0DE,
            replica: None,
            controller: None,
        }
    }

    /// Cyclotron motion: a cold drifting electron population in `B = ẑ`
    /// with the field solve off. Every marker gyrates on the analytic
    /// circle of radius `v₀·m/(|q|B) = 0.5` with period `2πm/(|q|B) = 2π`,
    /// so the simulated gyro-period and gyro-radius can be checked against
    /// closed forms (the Boris rotation angle is `2·atan(ΩΔt/2)`, an
    /// `O((ΩΔt)²)` approximation — 0.05² /12 ≈ 2·10⁻⁵ relative here).
    pub fn cyclotron(n: usize) -> Self {
        let mut cfg = Self::base(vec![SpeciesDef::electrons(
            n,
            InitialDistribution::DriftingMaxwellian {
                alpha: 0.0,
                k: 1.0,
                v0x: 0.5,
                vt: 0.0,
            },
        )]);
        cfg.lx = 16.0;
        cfg.ly = 16.0;
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.b0 = [0.0, 0.0, 1.0];
        cfg.solve_e = false;
        cfg.sort_period = 0; // nothing moves between cells coherently; keep the stream pure
        cfg
    }

    /// Magnetized two-stream: counter-streaming electron beams over a
    /// heavy immobile-ish ion background, with a weak axial `B`. The
    /// electrostatic two-stream instability grows mode 1 of `E_x`.
    pub fn magnetized_two_stream(n: usize) -> Self {
        let k = 0.2;
        let l = 2.0 * std::f64::consts::PI / k;
        let mut cfg = Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::TwoStream {
                    alpha: 0.01,
                    k,
                    v0: 3.0,
                    vt: 0.3,
                },
            ),
            // The unstable mode stands near zero phase velocity, so the
            // ions must be cold (vt ≪ v₀) or their Landau resonance at
            // v ≈ 0 damps the very mode the scenario is meant to grow.
            SpeciesDef::ions(
                n / 4,
                100.0,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 1.0,
                    v0x: 0.0,
                    vt: 0.05,
                },
            )
            .named("heavy-ions"),
        ]);
        cfg.lx = l;
        cfg.ly = l;
        // Weakly magnetized: the electrostatic growth rate here is
        // γ ≈ 0.14 ωp, and the axial B rotates the beam drift at Ω = |q|B/m.
        // Growth survives only for γ ≫ Ω (at Ω ≈ γ the beams rotate away
        // from the x-mode before it can saturate), so keep Ω = 0.02.
        cfg.b0 = [0.0, 0.0, 0.02];
        cfg
    }

    /// Bump-on-tail: a 90 %-density Maxwellian core plus a 10 %-density
    /// fast beam (v₀ = 4 vₜ). The beam-plasma interaction feeds field
    /// energy growth from the velocity-space gradient.
    pub fn bump_on_tail(n: usize) -> Self {
        Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.01,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 1.0,
                },
            )
            .named("core")
            .with_density(0.9),
            SpeciesDef::electrons(
                n / 10,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 0.5,
                    v0x: 4.0,
                    vt: 0.5,
                },
            )
            .named("beam")
            .with_density(0.1),
        ])
    }

    /// Ion-acoustic waves: warm electrons neutralized by cold ions
    /// (m = 25) carrying a density perturbation. The perturbation
    /// oscillates at the ion-acoustic frequency instead of damping away.
    pub fn ion_acoustic(n: usize) -> Self {
        Self::base(vec![
            SpeciesDef::electrons(
                n,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.0,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 1.0,
                },
            ),
            SpeciesDef::ions(
                n,
                25.0,
                InitialDistribution::DriftingMaxwellian {
                    alpha: 0.05,
                    k: 0.5,
                    v0x: 0.0,
                    vt: 0.2,
                },
            ),
        ])
    }

    /// Lift a single-species electrostatic [`crate::sim::PicConfig`] into a
    /// one-electron-species EM config (the legacy-snapshot restore path).
    /// `b0 = 0` and the Poisson solve stays on, so stepping reproduces the
    /// same physics the 2d2v driver ran (plus an inert `vz = 0`).
    pub fn from_legacy(cfg: &crate::sim::PicConfig) -> Self {
        Self {
            grid_nx: cfg.grid_nx,
            grid_ny: cfg.grid_ny,
            lx: cfg.lx,
            ly: cfg.ly,
            dt: cfg.dt,
            species: vec![SpeciesDef::electrons(cfg.n_particles, cfg.distribution)],
            b0: [0.0; 3],
            solve_e: true,
            ordering: cfg.ordering,
            deposit_path: cfg.deposit_path,
            sort_period: cfg.sort_period,
            threads: cfg.threads,
            seed: cfg.seed,
            replica: None,
            controller: cfg.controller.clone(),
        }
    }

    /// Total marker count across the species table (before any replica
    /// slice).
    pub fn total_particles(&self) -> usize {
        self.species.iter().map(|s| s.n_particles).sum()
    }
}

impl Kind for EmConfig {
    const DEPOSITS_J: bool = true;

    shared_settings!();

    fn validate(&self) -> Result<(), PicError> {
        if self.species.is_empty() {
            return Err(PicError::Config("need at least one species".into()));
        }
        if !self.b0.iter().all(|b| b.is_finite()) {
            return Err(PicError::Config("b0 must be finite".into()));
        }
        if let Some((rank, nranks)) = self.replica {
            if nranks == 0 || rank >= nranks {
                return Err(PicError::Config(format!(
                    "replica rank {rank} out of range for {nranks} ranks"
                )));
            }
        }
        Ok(())
    }

    fn species_table(&self) -> Vec<SpeciesDef> {
        self.species.clone()
    }

    /// Species `index` from its own streams of the run's seed, born sorted
    /// by cell; a replicated rank keeps its contiguous `1/nranks` of it.
    fn load(
        &self,
        index: usize,
        def: SpeciesDef,
        grid: &Grid2D,
        layout: &dyn CellLayout,
        pool: Option<&ThreadPool>,
    ) -> Result<SpeciesArena, PicError> {
        let (loader, range) =
            SpeciesArena::loader(&def, grid, layout, self.seed, index, self.replica);
        let (p, vz) = loader.load(range, pool);
        Ok(SpeciesArena::from_parts(def, p, vz, grid))
    }

    /// The Boris push with the species' own rotation constants; physical
    /// velocities, pushed by `Δt/Δx`.
    fn mover(&self, def: &SpeciesDef, grid: &Grid2D) -> Mover {
        Mover {
            kick: Kick::Boris(BorisCoeffs::new(def.charge, def.mass, self.dt, self.b0)),
            push_scale: self.dt / grid.dx(),
            speed_scales: (1.0, 1.0),
        }
    }

    fn solves_e(&self) -> bool {
        self.solve_e
    }

    fn fingerprint(&self) -> u64 {
        ckpt::em_config_fingerprint(self)
    }

    /// The `PIC2DEMS` format (magic never confusable with `PIC2DCKP`).
    fn encode(view: &StateView<'_>) -> Vec<u8> {
        ckpt::encode_em(view)
    }

    fn decode(snapshot: &[u8]) -> Result<EmState, PicError> {
        ckpt::decode_em(snapshot)
    }
}

/// A running multi-species 2d3v simulation: the engine over the species
/// table ([`crate::engine`]).
pub type EmSimulation = Pic<EmConfig>;

/// The methods of the multi-species 2d3v kind.
impl Pic<EmConfig> {
    /// Restore a *legacy* single-species electrostatic snapshot (the
    /// `b"PIC2DCKP"` format) into a one-species EM world: the electron
    /// arena takes the checkpointed particles with `vz = 0` (hoisted
    /// velocities are un-normalized back to physical units), fields, hot-path
    /// settings and controller state carry over, **J** starts at zero, and
    /// `B = 0` + `solve_e` reproduce the electrostatic physics the snapshot
    /// was running. The state is checked like any restore's.
    pub fn from_legacy_snapshot(
        cfg: &crate::sim::PicConfig,
        snapshot: &[u8],
    ) -> Result<Self, PicError> {
        let mut st = ckpt::decode(snapshot)?;
        let expect = ckpt::config_fingerprint(cfg);
        if st.config_fingerprint != expect {
            return Err(PicError::Checkpoint(format!(
                "legacy snapshot fingerprint {:#018x} does not match the config ({expect:#018x})",
                st.config_fingerprint
            )));
        }
        let mut sim = Self::shell(EmConfig::from_legacy(cfg), None)?;
        let s = &mut st.species[0];
        if cfg.hoisted {
            // Legacy hoisted runs store velocities in grid units per step;
            // the EM arenas are physical.
            let (cx, cy) = (sim.grid.dx() / cfg.dt, sim.grid.dy() / cfg.dt);
            s.particles.vx.iter_mut().for_each(|v| *v *= cx);
            s.particles.vy.iter_mut().for_each(|v| *v *= cy);
        }
        s.vz = vec![0.0; s.particles.len()];
        let ng = st.rho.len();
        (st.jx, st.jy, st.jz) = (vec![0.0; ng], vec![0.0; ng], vec![0.0; ng]);
        sim.adopt(st)?;
        Ok(sim)
    }

    /// The live species arenas, in table order.
    pub fn species(&self) -> &[SpeciesArena] {
        &self.species
    }

    /// The current density `(jx, jy, jz)` on grid points as of the last
    /// step: zero before the first, the snapshot's after a restore, and
    /// otherwise deposited from the stores on the first read after a step.
    pub fn j_field(&self) -> (&[f64], &[f64], &[f64]) {
        let [jx, jy, jz] = self.j_arrays();
        (jx, jy, jz)
    }

    /// Per-species velocity moments, in table order.
    pub fn moments(&self) -> Vec<SpeciesMoments> {
        self.species.iter().map(species_moments).collect()
    }

    /// Total momentum `Σ_s m_s·w_s·Σ v` across species.
    pub fn total_momentum(&self) -> [f64; 3] {
        let sum = |p: [f64; 3], m: SpeciesMoments| std::array::from_fn(|d| p[d] + m.momentum[d]);
        self.moments().into_iter().fold([0.0; 3], sum)
    }

    /// The watchdog's invariant scan ([`crate::resilience::watchdog`]):
    /// `None` means healthy.
    pub fn scan_violation(&self, wcfg: &WatchdogConfig) -> Option<WatchdogViolation> {
        watchdog::scan_violation(self, wcfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: usize) -> EmConfig {
        let mut cfg = EmConfig::ion_acoustic(n);
        (cfg.grid_nx, cfg.grid_ny) = (16, 16);
        cfg
    }

    #[test]
    fn builds_and_steps_multi_species() {
        let mut sim = EmSimulation::new(tiny(500)).unwrap();
        sim.run(5);
        assert_eq!(sim.steps(), 5);
        assert_eq!(sim.species().len(), 2);
        assert_eq!(sim.diagnostics().history.len(), 6);
        assert!(sim.scan_violation(&WatchdogConfig::default()).is_none());
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let mut sim = EmSimulation::new(tiny(300)).unwrap();
        sim.run(4);
        let snap = sim.checkpoint();
        let mut resumed = EmSimulation::from_snapshot(tiny(300), &snap).unwrap();
        sim.run(5);
        resumed.run(5);
        assert_eq!(sim.checkpoint(), resumed.checkpoint());
    }

    #[test]
    fn restore_rejects_wrong_species_table() {
        let sim = EmSimulation::new(tiny(300)).unwrap();
        let snap = sim.checkpoint();
        let mut other_cfg = tiny(300);
        other_cfg.species[1].mass = 50.0;
        match EmSimulation::from_snapshot(other_cfg, &snap) {
            Err(PicError::Checkpoint(_)) => {}
            Err(e) => panic!("expected a checkpoint error, got {e}"),
            Ok(_) => panic!("restore into a different species table must fail"),
        }
    }

    #[test]
    fn cyclotron_matches_analytic_gyro_period() {
        let cfg = EmConfig::cyclotron(64);
        let dt = cfg.dt;
        let mut sim = EmSimulation::new(cfg).unwrap();
        // Ω = |q|B/m = 1 ⇒ analytic gyro-period 2π. Accumulate the mean
        // velocity's rotation over many steps (the per-step angle, 0.05
        // rad, never wraps) and derive the simulated period from it.
        let steps = 126;
        let mut prev = sim.moments()[0].mean_v;
        let mut total_rotation = 0.0;
        for _ in 0..steps {
            sim.step();
            let cur = sim.moments()[0].mean_v;
            let da = cur[1].atan2(cur[0]) - prev[1].atan2(prev[0]);
            let da = (da + std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI)
                - std::f64::consts::PI;
            total_rotation += da;
            prev = cur;
        }
        let period = steps as f64 * dt * 2.0 * std::f64::consts::PI / total_rotation.abs();
        let analytic = 2.0 * std::f64::consts::PI;
        let rel = (period - analytic).abs() / analytic;
        // Boris period error is O((ΩΔt)²/12) ≈ 2·10⁻⁴ ≪ the 1 % gate.
        assert!(rel < 0.01, "gyro-period {period} vs analytic {analytic}");
        // Speed is exactly conserved by the rotation (E = 0).
        let m1 = sim.moments()[0];
        let s1 = (m1.mean_v[0].powi(2) + m1.mean_v[1].powi(2)).sqrt();
        assert!((s1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn legacy_snapshot_restores_into_one_species_world() {
        let cfg = {
            let mut c = crate::sim::PicConfig::landau_table1(400);
            c.grid_nx = 16;
            c.grid_ny = 16;
            c
        };
        let mut legacy = crate::sim::Simulation::new(cfg.clone()).unwrap();
        legacy.run(3);
        let snap = legacy.checkpoint();
        let em = EmSimulation::from_legacy_snapshot(&cfg, &snap).unwrap();
        assert_eq!(em.species().len(), 1);
        assert_eq!(em.species()[0].len(), 400);
        assert_eq!(em.steps(), 3);
        assert!(em.species()[0].vz.iter().all(|&v| v == 0.0));
        // Hoisted velocities were converted back to physical units.
        let vx_phys = legacy.particles().vx[0] * em.grid().dx() / cfg.dt;
        assert!((em.species()[0].p.vx[0] - vx_phys).abs() < 1e-15 * vx_phys.abs().max(1.0));
    }

    #[test]
    fn replicated_ranks_reduce_to_the_full_run() {
        let mut cfg = tiny(240);
        cfg.sort_period = 3;
        let mut full = EmSimulation::new(cfg.clone()).unwrap();

        // Element-wise sum of the ranks' arrays, in rank order.
        fn sum<'a>(arrays: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
            let mut sum = Vec::new();
            for arr in arrays {
                sum.resize(arr.len(), 0.0);
                sum.iter_mut().zip(arr).for_each(|(s, a)| *s += *a);
            }
            sum
        }
        // The rank partial sums accumulate in a different order than the
        // one-array deposit: equal within reassociation noise.
        let close = |what: &str, a: &[f64], b: &[f64]| {
            for (a, b) in a.iter().zip(b) {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "{what}: {a} vs {b}"
                );
            }
        };

        // The initial allreduce: every rank's sampled partial ρ is known
        // deterministically, so precompute the global sum from throwaway
        // shells and hand each real rank the reduced copy at init.
        let nranks = 3;
        let rank_cfg = |r| EmConfig {
            replica: Some((r, nranks)),
            ..cfg.clone()
        };
        let shells: Vec<_> = (0..nranks)
            .map(|r| EmSimulation::new(rank_cfg(r)).unwrap())
            .collect();
        let rho0 = sum(shells.iter().map(|s| s.rho()));
        let mut ranks: Vec<EmSimulation> = (0..nranks)
            .map(|r| {
                EmSimulation::new_with_reduce(rank_cfg(r), |arr| arr.copy_from_slice(&rho0))
                    .unwrap()
            })
            .collect();
        let total: usize = ranks.iter().map(|r| r.species()[0].len()).sum();
        assert_eq!(total, full.species()[0].len());

        for step in 1..=4 {
            full.step();
            // Allreduce ρ over the step halves: every rank deposits its
            // partial, the sum is written back, every rank solves.
            for r in &mut ranks {
                r.step_pre_reduce();
            }
            let rho = sum(ranks.iter().map(|r| r.rho()));
            for r in &mut ranks {
                r.rho_mut().copy_from_slice(&rho);
                r.step_post_reduce();
            }
            // Each rank deposits **J** from its own stores on request: the
            // ranks' reads sum to the full run's.
            let reads: Vec<[&[f64]; 3]> = (ranks.iter().map(|r| r.j_field()))
                .map(|(jx, jy, jz)| [jx, jy, jz])
                .collect();
            let (fx, fy, fz) = full.j_field();
            for (c, (name, fj)) in [("jx", fx), ("jy", fy), ("jz", fz)].into_iter().enumerate() {
                close(
                    &format!("step {step} {name}"),
                    &sum(reads.iter().map(|j| j[c])),
                    fj,
                );
            }
        }
        // Every rank now carries the reduced global ρ.
        for r in &ranks {
            close("rho", r.rho(), full.rho());
        }
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let mut cfg = tiny(100);
        cfg.species.clear();
        assert!(EmSimulation::new(cfg).is_err());
        let mut cfg = tiny(100);
        cfg.ly *= 2.0; // non-square cells
        assert!(EmSimulation::new(cfg).is_err());
        let mut cfg = tiny(100);
        cfg.replica = Some((3, 3));
        assert!(EmSimulation::new(cfg).is_err());
        let mut cfg = tiny(100);
        cfg.species[0].n_particles = crate::sort::MAX_PARTICLES.saturating_add(1);
        assert!(matches!(EmSimulation::new(cfg), Err(PicError::Config(_))));
    }
}
