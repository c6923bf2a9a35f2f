//! Integration of the multi-species 2d3v electromagnetic subsystem:
//! cyclotron motion against the analytic gyro-circle, a step held bit for
//! bit to whole-array calls of the scalar reference kernels, **J**
//! deposited on request without changing the run, equivalence with the
//! legacy electrostatic driver at `B = 0`, per-species conservation laws,
//! and electrostatic and electromagnetic tenants sharing one job runtime
//! under the calibrated cost-based scheduler.

mod common;

use common::scalar_push;
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::fields::{Field2D, RedundantE, RedundantJ, RedundantRho};
use pic2d::pic_core::kernels::accumulate::pool_accumulate_redundant;
use pic2d::pic_core::kernels::boris::{boris_push, BorisCoeffs};
use pic2d::pic_core::kernels::current::pool_deposit_current;
use pic2d::pic_core::kernels::deposit::DepositPath;
use pic2d::pic_core::particles::ParticlesSoA;
use pic2d::pic_core::pool::ThreadPool;
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::sim::{AnyLayout, KernelPath, PicConfig, Simulation, STRIP};
use pic2d::serve::{JobRuntime, JobSpec, JobState, RuntimeConfig};
use pic2d::sfc::Ordering;
use std::f64::consts::PI;

#[test]
fn cyclotron_period_and_radius_match_analytic() {
    // Ω = |q|B/m = 1, v₀ = 0.5 ⇒ period 2π, gyro-radius 0.5. The Boris
    // rotation angle 2·atan(ΩΔt/2) carries an O((ΩΔt)²) period error,
    // ≈ 2·10⁻⁵ relative at Δt = 0.05 — far inside the 1 % gates.
    let cfg = EmConfig::cyclotron(512);
    let dt = cfg.dt;
    let mut sim = EmSimulation::new(cfg).unwrap();

    let steps = 126; // just past one analytic period
    let mut prev = sim.moments()[0].mean_v;
    let mut rotation = 0.0;
    let (mut x, mut xmin, mut xmax) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..steps {
        sim.step();
        let cur = sim.moments()[0].mean_v;
        let da = cur[1].atan2(cur[0]) - prev[1].atan2(prev[0]);
        rotation += (da + PI).rem_euclid(2.0 * PI) - PI;
        prev = cur;
        // Integrate the mean x-displacement: its extent over a full
        // turn is the gyro-diameter.
        x += dt * cur[0];
        xmin = xmin.min(x);
        xmax = xmax.max(x);
    }

    let period = steps as f64 * dt * 2.0 * PI / rotation.abs();
    let rel_period = (period - 2.0 * PI).abs() / (2.0 * PI);
    assert!(rel_period < 0.01, "gyro-period {period} vs 2π");

    let radius = (xmax - xmin) / 2.0;
    assert!(
        (radius - 0.5).abs() / 0.5 < 0.01,
        "gyro-radius {radius} vs analytic 0.5"
    );

    // E = 0: the Boris rotation preserves |v| exactly.
    let m = sim.moments()[0];
    let speed = (m.mean_v[0].powi(2) + m.mean_v[1].powi(2)).sqrt();
    assert!((speed - 0.5).abs() < 1e-12, "speed {speed}");
}

/// The EM twin of `parity_kernel_path.rs::strip_pass_matches_whole_array_kernels`:
/// one `EmSimulation` step (lane-blocked kernels, fanned out over the pool)
/// against whole-array calls of the scalar Boris, push, ρ and **J** kernels
/// per species — every particle column and every grid array, bit for bit.
/// The reassociated deposit has one kernel; for it the check is that the
/// driver hands it the chunks a whole-store call would.
#[test]
fn em_step_matches_whole_array_scalar_kernels() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Electron counts (ions are a quarter) off the lane width: inside one
    // strip of the streaming pass, and with both species straddling strip
    // and lane edges on every worker.
    for n in [2_003, STRIP + 1, 3 * STRIP + 5] {
        for ordering in Ordering::paper_set() {
            for threads in [1usize, 2, 3] {
                let pool = ThreadPool::new(threads);
                // A field with every rotation component.
                let mut cfg = EmConfig::magnetized_two_stream(n);
                cfg.b0 = [0.1, -0.2, 0.5];
                cfg.ordering = ordering;
                cfg.threads = threads;
                let mut sim = EmSimulation::new(cfg.clone()).unwrap();
                sim.run(3); // drift off the sorted start; step 4 does not sort
                let what = format!("{ordering} n={n} threads={threads}");

                let grid = *sim.grid();
                let layout = AnyLayout::build(ordering, cfg.grid_nx, cfg.grid_ny).unwrap();
                let mut field = Field2D::new(&grid);
                field.ex.copy_from_slice(sim.e_field().0);
                field.ey.copy_from_slice(sim.e_field().1);
                let mut e8 = RedundantE::new(layout.as_dyn());
                e8.fill_from(&field, layout.as_dyn(), 1.0, 1.0);
                let scale = cfg.dt / grid.dx();

                let mut rho4 = RedundantRho::new(layout.as_dyn());
                let mut j12 = RedundantJ::new(layout.as_dyn());
                let mut rho_arenas: Vec<_> = (0..threads)
                    .map(|_| RedundantRho::new(layout.as_dyn()))
                    .collect();
                let mut j_arenas: Vec<_> = (0..threads)
                    .map(|_| RedundantJ::new(layout.as_dyn()))
                    .collect();
                let mut pushed: Vec<(ParticlesSoA, Vec<f64>)> = Vec::new();
                for arena in sim.species() {
                    let (mut p, mut vz) = (arena.p.clone(), arena.vz.clone());
                    let coeffs = BorisCoeffs::new(arena.def.charge, arena.def.mass, cfg.dt, cfg.b0);
                    boris_push(
                        &p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy, &mut vz, &e8.e8, &coeffs,
                    );
                    scalar_push(&layout, &mut p, cfg.grid_nx, cfg.grid_ny, scale);
                    let w = arena.deposit_weight(&grid);
                    pool_accumulate_redundant(
                        &pool,
                        &p.icell,
                        &p.dx,
                        &p.dy,
                        &mut rho4,
                        &mut rho_arenas,
                        w,
                        DepositPath::LaneReduce,
                        KernelPath::Scalar,
                    );
                    pool_deposit_current(
                        &pool,
                        &p.icell,
                        &p.dx,
                        &p.dy,
                        &p.vx,
                        &p.vy,
                        &vz,
                        &mut j12,
                        &mut j_arenas,
                        w,
                        DepositPath::LaneReduce,
                        KernelPath::Scalar,
                    );
                    pushed.push((p, vz));
                }
                let ng = grid.ncells();
                let (mut rho, mut jx, mut jy, mut jz) =
                    (vec![0.0; ng], vec![0.0; ng], vec![0.0; ng], vec![0.0; ng]);
                rho4.reduce_to_grid(layout.as_dyn(), &mut rho);
                j12.reduce_to_grid(layout.as_dyn(), &mut jx, &mut jy, &mut jz);

                // The step's second half solves E from ρ and leaves the
                // particles, ρ and J alone.
                sim.step();
                for (arena, (p, vz)) in sim.species().iter().zip(&pushed) {
                    let what = format!("{what} {}", arena.def.name);
                    assert_eq!(arena.p.icell, p.icell, "{what}: icell");
                    assert_eq!(arena.p.ix, p.ix, "{what}: ix");
                    assert_eq!(arena.p.iy, p.iy, "{what}: iy");
                    assert_eq!(bits(&arena.p.dx), bits(&p.dx), "{what}: dx");
                    assert_eq!(bits(&arena.p.dy), bits(&p.dy), "{what}: dy");
                    assert_eq!(bits(&arena.p.vx), bits(&p.vx), "{what}: vx");
                    assert_eq!(bits(&arena.p.vy), bits(&p.vy), "{what}: vy");
                    assert_eq!(bits(&arena.vz), bits(vz), "{what}: vz");
                }
                assert_eq!(bits(sim.rho()), bits(&rho), "{what}: rho");
                let (sjx, sjy, sjz) = sim.j_field();
                assert_eq!(bits(sjx), bits(&jx), "{what}: jx");
                assert_eq!(bits(sjy), bits(&jy), "{what}: jy");
                assert_eq!(bits(sjz), bits(&jz), "{what}: jz");
            }
        }
    }
}

/// **J** is deposited on request, and the request is invisible: a run
/// that reads it after every step computes what a run that never reads
/// it does, two reads without a step between them agree bit for bit, a
/// fresh run reads zeros, and a restore reads the snapshot's **J** (a
/// step-0 snapshot's zeros, not a deposit of its stores).
#[test]
fn j_on_request_changes_nothing_and_reads_the_last_step() {
    fn bits(a: &[f64]) -> Vec<u64> {
        a.iter().map(|v| v.to_bits()).collect()
    }
    fn j_bits(sim: &EmSimulation) -> Vec<u64> {
        let (jx, jy, jz) = sim.j_field();
        bits(&[jx, jy, jz].concat())
    }
    for threads in [1, 2] {
        let mut cfg = EmConfig::magnetized_two_stream(3 * STRIP + 5);
        (cfg.threads, cfg.sort_period) = (threads, 2);
        let name = format!("threads={threads}");
        let mut read = EmSimulation::new(cfg.clone()).unwrap();
        let mut unread = EmSimulation::new(cfg).unwrap();
        let zeros = j_bits(&read);
        assert!(zeros.iter().all(|&b| b == 0), "{name}: J before step 1");
        let step0 = read.checkpoint();
        for step in 1..=5 {
            read.step();
            unread.step();
            let before = read.timers().accumulate;
            let first = j_bits(&read);
            assert!(first.iter().any(|&b| b != 0), "{name}: step {step} J");
            // The deposit is timed under `accumulate`; a second read reuses it.
            let deposited = read.timers().accumulate;
            assert!(deposited > before, "{name}: step {step} J deposit time");
            assert_eq!(first, j_bits(&read), "{name}: step {step} second read");
            assert_eq!(
                read.timers().accumulate,
                deposited,
                "{name}: step {step} redeposit"
            );
        }
        for (a, b) in read.species().iter().zip(unread.species()) {
            assert_eq!((&a.p, &a.vz), (&b.p, &b.vz), "{name}: {}", a.def.name);
        }
        assert_eq!(bits(read.rho()), bits(unread.rho()), "{name}: rho");
        let snap = unread.checkpoint();
        assert!(read.checkpoint() == snap, "{name}: checkpoint bytes");

        let last = j_bits(&unread);
        read.step();
        read.restore(&step0).unwrap();
        assert_eq!(j_bits(&read), zeros, "{name}: J after the step-0 restore");
        read.restore(&snap).unwrap();
        assert_eq!(j_bits(&read), last, "{name}: J after the step-5 restore");
    }
}

#[test]
fn em_driver_reproduces_legacy_two_stream_at_zero_field() {
    // `EmConfig::from_legacy` lifts a single-species electrostatic config
    // into the 2d3v driver with B = 0; the extra machinery (Boris push,
    // three-component current, vz) must change nothing about the physics.
    let mut cfg = PicConfig::two_stream(20_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    let mut legacy = Simulation::new(cfg.clone()).unwrap();
    legacy.run(120);

    let mut em = EmSimulation::new(EmConfig::from_legacy(&cfg)).unwrap();
    em.run(120);

    let lh = &legacy.diagnostics().history;
    let eh = &em.diagnostics().history;
    assert_eq!(lh.len(), eh.len());
    for (l, e) in lh.iter().zip(eh.iter()) {
        assert!(
            (l.ex_mode - e.ex_mode).abs() <= 1e-12 * l.ex_mode.abs().max(1.0),
            "ex_mode diverged: legacy {} vs em {}",
            l.ex_mode,
            e.ex_mode
        );
    }
}

#[test]
fn per_species_conservation_in_ion_acoustic() {
    let mut sim = EmSimulation::new(EmConfig::ion_acoustic(4_000)).unwrap();
    let before = sim.moments();
    let p0 = sim.total_momentum();
    sim.run(100);
    let after = sim.moments();

    // Markers are never created or lost: per-species number and charge
    // are exact.
    for (b, a) in before.iter().zip(after.iter()) {
        assert_eq!(b.number, a.number);
        assert_eq!(b.charge, a.charge);
    }
    // The deposited charge density always integrates to the species
    // table's total charge.
    let rel =
        (sim.total_charge() - sim.charge_reference()).abs() / sim.charge_reference().abs().max(1.0);
    assert!(rel < 1e-9, "deposited charge drifted {rel}");

    // Total momentum: compare the drift against the thermal momentum
    // scale m·w·√(n·Σ|v|²) ≥ |Σ m·w·v| (Cauchy–Schwarz).
    let scale: f64 = after
        .iter()
        .zip(sim.species())
        .map(|(m, s)| (2.0 * m.kinetic * s.def.mass * m.number).sqrt())
        .sum();
    let p1 = sim.total_momentum();
    let drift = (0..3).map(|c| (p1[c] - p0[c]).powi(2)).sum::<f64>().sqrt();
    assert!(
        drift < 1e-6 * scale,
        "momentum drift {drift} vs scale {scale}"
    );
}

#[test]
fn mixed_tenants_share_the_runtime_and_calibrate_the_cost_model() {
    let rcfg = RuntimeConfig {
        quantum_steps: 8,
        ..RuntimeConfig::default()
    };
    let threads = rcfg.threads;
    let mut rt = JobRuntime::new(rcfg);

    let es_cfg = {
        let mut c = PicConfig::landau_table1(3_000);
        c.grid_nx = 32;
        c.grid_ny = 32;
        c
    };
    let em_cfg = EmConfig::ion_acoustic(1_500);
    let es = rt.submit(JobSpec::new("electrostatic", es_cfg.clone(), 20));
    let em = rt.submit(JobSpec::new_em("electromagnetic", em_cfg.clone(), 20));
    let report = rt.run();

    let es_job = &report.jobs[es.0 as usize];
    let em_job = &report.jobs[em.0 as usize];
    assert_eq!(es_job.state, JobState::Done);
    assert_eq!(em_job.state, JobState::Done);
    assert_eq!(es_job.steps_done, 20);
    assert_eq!(em_job.steps_done, 20);

    // Each tenant kind reproduces its solo trajectory bit-exactly.
    let em_solo = {
        let mut cfg = em_cfg;
        cfg.threads = threads;
        let mut sim = EmSimulation::new(cfg).unwrap();
        sim.run(20);
        snapshot_hash(&sim.checkpoint())
    };
    assert_eq!(em_job.digest, Some(em_solo), "EM tenant diverged from solo");
    let es_solo = {
        let mut cfg = es_cfg;
        cfg.threads = threads;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(20);
        snapshot_hash(&sim.checkpoint())
    };
    assert_eq!(es_job.digest, Some(es_solo));

    // Every committed quantum fed the cost estimator.
    assert!(rt.estimator().samples() > 0, "no calibration samples");
}

/// The EM production path's bits: the magnetized two-stream world, two
/// workers, 45 steps. Any change to the Boris kick, the current deposit,
/// the per-species sort or the `PIC2DEMS` wire format moves this hash.
/// Re-pinned once, by design, when the loader's Box–Muller moved from libm
/// to the lane-blocked polynomials (0xe680f9079299148a →
/// 0x800819b7624f87a5): the draws and the positions are unchanged bit for
/// bit, and every velocity (`vz` included) moved by at most a few ε·r (r
/// the pair's radius,
/// `integration_loader::loader_matches_the_libm_reference_sampler`).
/// Re-pinned a second time, by design, when the loader became born sorted
/// (0x800819b7624f87a5 → 0x826b90181fd6b460): the per-cell counts are one
/// exact multinomial draw and each cell samples its particles (and `vz`)
/// from its own streams — a new realization of the same law — and
/// construction no longer sorts.
#[test]
fn em_production_path_snapshot_bits_are_pinned() {
    let mut c = EmConfig::magnetized_two_stream(20_000);
    c.threads = 2;
    c.seed = 7;
    let mut sim = EmSimulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0x826b90181fd6b460);
}

/// A checksum-valid EM snapshot with a particle in a cell past the grid is
/// rejected, and the live state is left as it was (its next checkpoint is
/// byte-identical). Adopted, the cell index would panic the next gather.
#[test]
fn em_restore_rejects_out_of_range_cells_and_keeps_live_state() {
    let mut sim = EmSimulation::new(EmConfig::magnetized_two_stream(2_000)).unwrap();
    sim.run(3);
    let before = sim.checkpoint();
    // Header (magic 8, version 4, fingerprint 8, steps 8, retired RNG 32,
    // charge 8), hot-path block (4 + 4 + 8 + 8, no controller), species
    // count 8, the first species' length 8: then its first `icell`.
    let at = 68 + 24 + 8 + 8;
    let first = u32::from_le_bytes(before[at..at + 4].try_into().unwrap());
    assert_eq!(
        first,
        sim.species()[0].p.icell[0],
        "offset of the first icell"
    );
    let mut bad = before.clone();
    let ncells = sim.grid().ncells() as u32;
    bad[at..at + 4].copy_from_slice(&ncells.to_le_bytes());
    let n = bad.len();
    let sum = snapshot_hash(&bad[..n - 8]);
    bad[n - 8..].copy_from_slice(&sum.to_le_bytes());

    assert!(sim.restore(&bad).is_err());
    assert_eq!(sim.checkpoint(), before);
}
