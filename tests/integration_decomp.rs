//! Integration of the spatial decomposition with the PIC loop: a sharded
//! run — each rank owning a contiguous SFC range of cells, halo-exchanging
//! partial ρ, solving for E in the slab-distributed spectral solve, and
//! migrating boundary-crossing particles — must reproduce the serial
//! trajectory within floating-point summation noise, and must conserve the
//! global particle count exactly.

use pic2d::decomp::{DecompConfig, DecompError, DecomposedSimulation};
use pic2d::minimpi::World;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::sfc::Ordering;

const N: usize = 6_000;
const STEPS: usize = 6;

fn cfg(ord: Ordering) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(N);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.ordering = ord;
    cfg.sort_period = 2; // exercise the sort ↔ migration interplay
    cfg
}

/// What each decomposed rank reports back for validation.
struct RankReport {
    owned_points: Vec<usize>,
    rho_owned: Vec<f64>,
    e_points: Vec<usize>,
    ex: Vec<f64>,
    ey: Vec<f64>,
    counts_per_step: Vec<usize>,
    migrated_out: u64,
}

fn run_decomposed(ranks: usize, ord: Ordering, dcfg: DecompConfig) -> Vec<RankReport> {
    World::run(ranks, move |comm| {
        let mut dsim = DecomposedSimulation::new(cfg(ord), dcfg, comm).unwrap();
        let mut counts = Vec::new();
        for _ in 0..STEPS {
            dsim.step(comm).unwrap();
            counts.push(dsim.local_particles());
        }
        let rho = dsim.sim().rho();
        let (ex, ey) = dsim.sim().e_field();
        RankReport {
            rho_owned: dsim.plan().owned_points.iter().map(|&p| rho[p]).collect(),
            owned_points: dsim.plan().owned_points.clone(),
            ex: dsim.plan().e_points.iter().map(|&p| ex[p]).collect(),
            ey: dsim.plan().e_points.iter().map(|&p| ey[p]).collect(),
            e_points: dsim.plan().e_points.clone(),
            counts_per_step: counts,
            migrated_out: dsim.stats().migrated_out,
        }
    })
}

fn check_against_serial(ranks: usize, ord: Ordering, reports: &[RankReport]) {
    let mut serial = Simulation::new(cfg(ord)).unwrap();
    serial.run(STEPS);
    let rho_s = serial.rho();
    let (ex_s, ey_s) = serial.e_field();

    let mut covered = vec![false; rho_s.len()];
    for (r, rep) in reports.iter().enumerate() {
        for (&p, &v) in rep.owned_points.iter().zip(&rep.rho_owned) {
            assert!(
                (v - rho_s[p]).abs() < 1e-9,
                "{ord} ranks={ranks} rank={r}: rho[{p}] {v} vs serial {}",
                rho_s[p]
            );
            assert!(!covered[p], "point {p} owned twice");
            covered[p] = true;
        }
        for (i, &p) in rep.e_points.iter().enumerate() {
            assert!(
                (rep.ex[i] - ex_s[p]).abs() < 1e-9,
                "{ord} ranks={ranks} rank={r}: ex[{p}] {} vs serial {}",
                rep.ex[i],
                ex_s[p]
            );
            assert!(
                (rep.ey[i] - ey_s[p]).abs() < 1e-9,
                "{ord} ranks={ranks} rank={r}: ey[{p}] {} vs serial {}",
                rep.ey[i],
                ey_s[p]
            );
        }
    }
    assert!(
        covered.iter().all(|&c| c),
        "owned points do not tile the grid"
    );

    for s in 0..STEPS {
        let total: usize = reports.iter().map(|r| r.counts_per_step[s]).sum();
        assert_eq!(
            total, N,
            "{ord} ranks={ranks}: particle count after step {s}"
        );
    }
    let migrated: u64 = reports.iter().map(|r| r.migrated_out).sum();
    assert!(
        migrated > 0,
        "{ord} ranks={ranks}: no particle ever crossed a subdomain boundary"
    );
}

#[test]
fn decomposed_matches_serial_morton() {
    for ranks in [2usize, 4] {
        let reports = run_decomposed(ranks, Ordering::Morton, DecompConfig::default());
        check_against_serial(ranks, Ordering::Morton, &reports);
    }
}

#[test]
fn decomposed_matches_serial_hilbert() {
    for ranks in [2usize, 4] {
        let reports = run_decomposed(ranks, Ordering::Hilbert, DecompConfig::default());
        check_against_serial(ranks, Ordering::Hilbert, &reports);
    }
}

#[test]
fn weighted_partition_matches_serial_and_balances() {
    let dcfg = DecompConfig {
        weighted: true,
        ..DecompConfig::default()
    };
    let reports = run_decomposed(4, Ordering::Morton, dcfg);
    check_against_serial(4, Ordering::Morton, &reports);
    // Initial loads (step-0 counts are post-migration but close): every
    // rank should carry a nontrivial share of the population.
    for (r, rep) in reports.iter().enumerate() {
        let share = rep.counts_per_step[0] as f64 / N as f64;
        assert!(
            (0.10..=0.40).contains(&share),
            "rank {r} holds {share:.2} of the particles"
        );
    }
}

#[test]
fn leakage_surfaces_as_error_not_corruption() {
    // Two-stream beams at v₀ = 3 with a large Δt outrun a width-1 halo on
    // the first step; every rank must fail loudly instead of depositing
    // outside its exchanged region (and nobody may deadlock).
    let outcomes = World::run(2, |comm| {
        let mut c = PicConfig::two_stream(2_000);
        c.grid_nx = 32;
        c.grid_ny = 32;
        c.dt = 0.5;
        let dcfg = DecompConfig {
            halo_width: 1,
            ..DecompConfig::default()
        };
        let mut dsim = DecomposedSimulation::new(c, dcfg, comm).unwrap();
        match dsim.run(3, comm) {
            Ok(()) => None,
            Err(e) => Some(format!("{e}")),
        }
    });
    assert!(
        outcomes.iter().all(|o| o.is_some()),
        "all ranks must surface an error"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.as_deref().is_some_and(|m| m.contains("outran the halo"))),
        "expected a leakage diagnostic, got {outcomes:?}"
    );
}

#[test]
fn checkpoint_fingerprint_covers_partition() {
    // Snapshots are tied to the rank's subdomain: a checkpoint taken under
    // one partition must not restore into a simulation owning different
    // cells (the buddy-checkpoint protocol relies on this).
    let mut a = cfg(Ordering::Morton);
    a.keep_cells = Some((0, 512));
    let mut b = cfg(Ordering::Morton);
    b.keep_cells = Some((512, 1024));
    let sim_a = Simulation::new(a).unwrap();
    let mut sim_b = Simulation::new(b).unwrap();
    let snap = sim_a.checkpoint();
    assert!(
        sim_b.restore(&snap).is_err(),
        "foreign-partition snapshot accepted"
    );
}

#[test]
fn rejected_configs() {
    let outcomes = World::run(2, |comm| {
        let mut bad = cfg(Ordering::L4D(8));
        bad.ordering = Ordering::L4D(8);
        let l4d = DecomposedSimulation::new(bad, DecompConfig::default(), comm).is_err();
        let mut kr = cfg(Ordering::Morton);
        kr.keep_range = Some((0, 10));
        let kr = matches!(
            DecomposedSimulation::new(kr, DecompConfig::default(), comm),
            Err(DecompError::Config(_))
        );
        l4d && kr
    });
    assert!(outcomes.iter().all(|&ok| ok));
}

#[test]
fn decomposed_sample_is_the_post_migration_kinetic_energy() {
    // The driver ships leavers out between the two step halves, so the
    // sample must be recomputed from the particles still held when it is
    // recorded, not taken from the pre-migration particle pass. Arrivals
    // are appended after the sample, at the end of the store.
    let max_leaver_share = World::run(2, |comm| {
        let c = cfg(Ordering::Morton);
        let mut dsim = DecomposedSimulation::new(c.clone(), DecompConfig::default(), comm).unwrap();
        let grid = dsim.sim().grid();
        let (sx, sy) = (grid.dx() / c.dt, grid.dy() / c.dt);
        let half_weight = 0.5 * pic2d::pic_core::particles::particle_weight(grid, N);
        let mut max_leaver_share = 0.0f64;
        for _ in 0..STEPS {
            let before = dsim.stats();
            dsim.step(comm).unwrap();
            let after = dsim.stats();
            let arrived = (after.migrated_in - before.migrated_in) as usize;
            let left = (after.migrated_out - before.migrated_out) as usize;

            let p = dsim.sim().particles();
            let held = p.len() - arrived;
            let plain: f64 = (p.vx[..held].iter().zip(&p.vy[..held]))
                .map(|(&ux, &uy)| (ux * sx).powi(2) + (uy * sy).powi(2))
                .sum();
            let plain = half_weight * plain;
            let recorded = dsim.sim().diagnostics().history.last().unwrap().kinetic;
            assert!(
                (recorded - plain).abs() <= 1e-12 * plain,
                "recorded {recorded} vs held-particle energy {plain}"
            );
            max_leaver_share = max_leaver_share.max(left as f64 / (held + left) as f64);
        }
        max_leaver_share
    });
    // The check above only discriminates if leavers carried a resolvable
    // share of some rank's energy.
    assert!(
        max_leaver_share.iter().any(|&s| s > 1e-3),
        "no step migrated enough particles: {max_leaver_share:?}"
    );
}
