//! Production-path parity: every step `Simulation` takes on the lane-blocked
//! strip pass must be *bit-identical* to the same step composed from
//! whole-array calls of the public **scalar** kernels — same ρ, same
//! particle cells/offsets/velocities — across cell orderings, thread
//! counts, and particle counts that do and do not divide the lane width or
//! the strip length. The scalar kernels are the reference; this is the
//! oracle that lets production run the lane kernels unconditionally.

mod common;

use common::scalar_push;
use pic_core::fields::{Field2D, RedundantE, RedundantRho};
use pic_core::kernels::simd::LANES;
use pic_core::kernels::{accumulate, deposit, velocity};
use pic_core::particles::{particle_weight, ParticlesSoA};
use pic_core::pool::ThreadPool;
use pic_core::rng::Rng;
use pic_core::sim::{AnyLayout, DepositPath, KernelPath, PicConfig, Simulation, ME, QE, STRIP};
use pic_core::sort::sort_out_of_place;
use sfc::Ordering;

/// Advance a copy of `sim`'s particles through its next step with
/// whole-array calls of the scalar kernels — the sort first, when the step
/// is due one — and return them with the deposited grid ρ. `pool` has the
/// simulation's width, so the per-worker arenas merge in the same order.
fn scalar_step(sim: &Simulation, pool: &ThreadPool) -> (ParticlesSoA, Vec<f64>) {
    let c = sim.config();
    let grid = sim.grid();
    let layout = AnyLayout::build(c.ordering, c.grid_nx, c.grid_ny).unwrap();
    let mut p = sim.particles().clone();
    if c.sort_period > 0 && (sim.steps() + 1).is_multiple_of(c.sort_period) {
        sort_out_of_place(&mut p, layout.as_dyn().ncells());
    }

    let mut field = Field2D::new(grid);
    let (ex, ey) = sim.e_field();
    field.ex.copy_from_slice(ex);
    field.ey.copy_from_slice(ey);
    // Hoisted (§IV-D): the constants live in the stored field and
    // velocities. Unhoisted: the kernels multiply per particle.
    let kick = QE * c.dt / ME;
    let (sx, sy, scale) = if c.hoisted {
        (kick * c.dt / grid.dx(), kick * c.dt / grid.dy(), 1.0)
    } else {
        (1.0, 1.0, c.dt / grid.dx())
    };
    let mut e8 = RedundantE::new(layout.as_dyn());
    e8.fill_from(&field, layout.as_dyn(), sx, sy);

    if c.hoisted {
        velocity::update_velocities_redundant_hoisted(
            &p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy, &e8.e8,
        );
    } else {
        velocity::update_velocities_redundant(
            &p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy, &e8.e8, kick, kick,
        );
    }
    scalar_push(&layout, &mut p, c.grid_nx, c.grid_ny, scale);

    // `Exact` has a scalar kernel; the reassociated deposit has one kernel,
    // and what is checked for it is that strips and chunks leave its lane
    // blocks where a whole-chunk call puts them.
    let w = QE * particle_weight(grid, c.n_particles) / (grid.dx() * grid.dy());
    let mut rho4 = RedundantRho::new(layout.as_dyn());
    let mut arenas: Vec<RedundantRho> = (0..pool.nthreads())
        .map(|_| RedundantRho::new(layout.as_dyn()))
        .collect();
    accumulate::pool_accumulate_redundant(
        pool,
        &p.icell,
        &p.dx,
        &p.dy,
        &mut rho4,
        &mut arenas,
        w,
        c.deposit_path,
        KernelPath::Scalar,
    );
    let mut rho = vec![0.0; grid.ncells()];
    rho4.reduce_to_grid(layout.as_dyn(), &mut rho);
    (p, rho)
}

/// `sim`, having just stepped, against the reference for that step.
fn assert_same_bits(sim: &Simulation, pr: &ParticlesSoA, rho_ref: &[f64], what: &str) {
    let ps = sim.particles();
    assert_eq!(ps.icell, pr.icell, "{what}: icell");
    assert_eq!(ps.ix, pr.ix, "{what}: ix");
    assert_eq!(ps.iy, pr.iy, "{what}: iy");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ps.dx), bits(&pr.dx), "{what}: dx");
    assert_eq!(bits(&ps.dy), bits(&pr.dy), "{what}: dy");
    assert_eq!(bits(&ps.vx), bits(&pr.vx), "{what}: vx");
    assert_eq!(bits(&ps.vy), bits(&pr.vy), "{what}: vy");
    assert_eq!(bits(sim.rho()), bits(rho_ref), "{what}: rho");
}

/// Run `cfg` for `steps`, holding every step to [`scalar_step`].
fn assert_steps_match_scalar_kernels(cfg: PicConfig, steps: usize, what: &str) {
    let pool = ThreadPool::new(cfg.threads);
    let mut sim = Simulation::new(cfg).unwrap();
    for step in 1..=steps {
        let (pr, rho_ref) = scalar_step(&sim, &pool);
        sim.step();
        assert_same_bits(&sim, &pr, &rho_ref, &format!("{what}, step {step}"));
    }
}

/// Fully-optimized config at a small grid; `n` deliberately not a multiple
/// of the lane width in most tests.
fn cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 3; // several sorts inside a short run
    cfg
}

#[test]
fn parity_across_orderings() {
    for ordering in Ordering::paper_set() {
        let mut c = cfg(1003);
        c.ordering = ordering;
        assert_steps_match_scalar_kernels(c, 7, &format!("ordering {ordering}"));
    }
}

#[test]
fn parity_with_thread_pool() {
    for threads in [1, 2, 3] {
        let mut c = cfg(2005);
        c.ordering = Ordering::Morton;
        c.threads = threads;
        assert_steps_match_scalar_kernels(c, 7, &format!("threads {threads}"));
    }
}

#[test]
fn parity_at_lane_edge_counts() {
    // Below one lane block, exactly one block, one block plus a tail.
    for n in [1, 5, 8, 9, 1003] {
        assert_steps_match_scalar_kernels(cfg(n), 5, &format!("n {n}"));
    }
}

#[test]
fn parity_on_baseline_row_major() {
    // What production keeps of the Table IV baseline settings: row-major
    // cells and unhoisted coefficients, i.e. the coefficient-form kernels
    // (`coeff`/`scale` multiplied per particle).
    let mut c = cfg(777);
    c.ordering = Ordering::RowMajor;
    c.hoisted = false;
    c.deposit_path = DepositPath::Exact;
    assert_steps_match_scalar_kernels(c, 5, "baseline");
}

// ---------------------------------------------------------------------------
// DepositPath parity: the deposition-kernel knob must never change physics
// beyond its documented contract — `Exact` stays bit-identical to
// the scalar accumulation order, and the reassociated `LaneReduce` stays
// within a tight tolerance of the exact result at the simulation level and
// within the proven per-cell FP bound at the kernel level.
// ---------------------------------------------------------------------------

/// {1, 2, 4 threads} x {sorted, unsorted}: under every combo, `Exact` is
/// bit-identical to the scalar kernels, and `LaneReduce`
/// tracks the exact run to a loose per-cell tolerance (the per-deposit FP
/// bound fed back through the field solve for a handful of steps).
#[test]
fn deposit_path_matrix() {
    for threads in [1usize, 2, 4] {
        for sorted in [true, false] {
            let make = |dp: DepositPath| {
                let mut c = cfg(1511);
                c.ordering = Ordering::Morton;
                c.threads = threads;
                // Sorted: re-sort every step so the deposit always sees
                // long same-cell runs. Unsorted: never sort, so drift
                // scrambles the cell order the kernels walk.
                c.sort_period = if sorted { 1 } else { 0 };
                c.deposit_path = dp;
                c
            };
            let what = format!("threads={threads} sorted={sorted}");

            // Exact deposit: the scalar kernels, bit for bit.
            assert_steps_match_scalar_kernels(make(DepositPath::Exact), 5, &what);

            // The reassociated deposit tracks the exact run closely.
            let mut exact = Simulation::new(make(DepositPath::Exact)).unwrap();
            exact.run(5);
            let mut sim = Simulation::new(make(DepositPath::LaneReduce)).unwrap();
            sim.run(5);
            let (re, rr) = (exact.rho(), sim.rho());
            for i in 0..re.len() {
                assert!(
                    (re[i] - rr[i]).abs() < 1e-9,
                    "{what} LaneReduce: rho[{i}] drifted: {} vs {}",
                    rr[i],
                    re[i]
                );
            }
        }
    }
}

/// Kernel-level bound at full scale: 1M particles on a 128x128 grid
/// (~61 per cell), sorted and unsorted. The reassociated deposit lands
/// within the per-cell bound `4 k^2 eps |w|` (k = particles in the cell)
/// of the exact scalar accumulation — the bound proven in
/// `crates/core/src/kernels/deposit.rs`.
#[test]
fn reassociated_deposit_within_cell_bound_at_1m() {
    const N: usize = 1_000_000;
    const NCELLS: usize = 128 * 128;
    let mut rng = Rng::seed_from_u64(0xdeb0);
    let mut icell: Vec<u32> = (0..N).map(|_| rng.below(NCELLS as u64) as u32).collect();
    let dx: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
    let dy: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
    let w = 0.37;

    for sorted in [false, true] {
        if sorted {
            icell.sort_unstable();
        }
        let mut reference = vec![[0.0f64; 4]; NCELLS];
        accumulate::accumulate_redundant(&icell, &dx, &dy, &mut reference, w);
        let mut counts = vec![0u64; NCELLS];
        for &c in &icell {
            counts[c as usize] += 1;
        }
        let mut got = vec![[0.0f64; 4]; NCELLS];
        deposit::accumulate_lane_reduce(&icell, &dx, &dy, &mut got, w);
        for c in 0..NCELLS {
            let k = counts[c] as f64;
            let bound = 4.0 * k * k * f64::EPSILON * w.abs();
            for corner in 0..4 {
                let d = (got[c][corner] - reference[c][corner]).abs();
                assert!(
                    d <= bound,
                    "lane_reduce sorted={sorted} cell={c} corner={corner}: \
                     |diff| {d:e} exceeds bound {bound:e} (k={k})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strip-pass parity: `Simulation::step` streams each worker chunk through
// kick → push → deposit in strips of `STRIP` particles. One step must match
// the whole-array scalar reference over cell orderings, pool widths, deposit
// paths and particle counts around the lane and strip edges (including fewer
// particles than workers).
// ---------------------------------------------------------------------------

#[test]
fn strip_pass_matches_whole_array_kernels() {
    const COUNTS: [usize; 7] = [0, 1, LANES - 1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 5];
    for ordering in Ordering::paper_set() {
        for threads in [1usize, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            for dp in [DepositPath::Exact, DepositPath::LaneReduce] {
                for n in COUNTS {
                    let mut c = cfg(3 * STRIP + 5);
                    c.ordering = ordering;
                    c.threads = threads;
                    c.deposit_path = dp;
                    c.sort_period = 0;
                    let mut sim = Simulation::new(c).unwrap();
                    // Drift off the sorted start, then cut the store to n.
                    sim.run(2);
                    let p = sim.particles_mut();
                    p.icell.truncate(n);
                    p.ix.truncate(n);
                    p.iy.truncate(n);
                    p.dx.truncate(n);
                    p.dy.truncate(n);
                    p.vx.truncate(n);
                    p.vy.truncate(n);

                    let (pr, rho_ref) = scalar_step(&sim, &pool);
                    sim.step();
                    // ρ too: strip starts are LANES-aligned from the chunk
                    // start, so the lane blocks coincide.
                    let what = format!("{ordering} threads={threads} {dp:?} n={n}");
                    assert_same_bits(&sim, &pr, &rho_ref, &what);
                }
            }
        }
    }
}
