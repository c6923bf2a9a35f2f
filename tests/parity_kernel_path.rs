//! Production-path parity: every step `Simulation` takes on the lane-blocked
//! strip pass must be *bit-identical* to the same step composed from
//! whole-array calls of the public **scalar** kernels — same ρ, same
//! particle cells/offsets/velocities — across cell orderings, thread
//! counts, and particle counts that do and do not divide the lane width or
//! the strip length. The scalar kernels are the reference; this is the
//! oracle that lets production run the lane kernels unconditionally.
//!
//! Two oracles sit outside the kernels altogether: the kick in physical
//! units from the test's own interpolation of the grid field, and the step's
//! reassociated ρ against the exact scalar accumulation, within its proven
//! per-cell bound.

mod common;

use common::scalar_push;
use pic_core::fields::{Field2D, RedundantE, RedundantRho};
use pic_core::kernels::deposit::{self, DepositPath};
use pic_core::kernels::simd::LANES;
use pic_core::kernels::{accumulate, velocity};
use pic_core::particles::{particle_weight, Loader, ParticlesSoA};
use pic_core::pool::ThreadPool;
use pic_core::rng::Rng;
use pic_core::sim::{AnyLayout, KernelPath, PicConfig, Simulation, ME, QE, STRIP};
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
    // velocities.
    let kick = QE * c.dt / ME;
    let mut e8 = RedundantE::new(layout.as_dyn());
    e8.fill_from(
        &field,
        layout.as_dyn(),
        kick * c.dt / grid.dx(),
        kick * c.dt / grid.dy(),
    );
    velocity::update_velocities_redundant_hoisted(
        &p.icell, &p.dx, &p.dy, &mut p.vx, &mut p.vy, &e8.e8,
    );
    scalar_push(&layout, &mut p, c.grid_nx, c.grid_ny, 1.0);

    // The reassociated deposit has one kernel: what is checked for it is
    // that strips and chunks leave its lane blocks where a whole-chunk call
    // puts them.
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
        DepositPath::LaneReduce,
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
    // cells, where the push re-derives `icell` arithmetically.
    let mut c = cfg(777);
    c.ordering = Ordering::RowMajor;
    assert_steps_match_scalar_kernels(c, 5, "baseline");
}

/// E at a particle from the grid arrays by the test's own bilinear
/// interpolation at `(ix, iy, dx, dy)`, periodic; grid point `(gx, gy)`
/// sits at `gx·ny + gy`.
fn interpolate(e: &[f64], (nx, ny): (usize, usize), p: &ParticlesSoA, i: usize) -> f64 {
    let (ix, iy, dx, dy) = (p.ix[i] as usize, p.iy[i] as usize, p.dx[i], p.dy[i]);
    let at = |gx: usize, gy: usize| e[(gx % nx) * ny + gy % ny];
    (1.0 - dx) * (1.0 - dy) * at(ix, iy)
        + dx * (1.0 - dy) * at(ix + 1, iy)
        + (1.0 - dx) * dy * at(ix, iy + 1)
        + dx * dy * at(ix + 1, iy + 1)
}

/// Within about 1e-12 of `want`, relative to the thermal speed 1.
fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
        "{what}: {got} vs oracle {want}"
    );
}

/// The kick in physical units, outside every kernel and the redundant
/// field: from the grid `ex`/`ey`, `v ← v + (q/m)·Δt·E` on the stored
/// velocities times `(Δx/Δt, Δy/Δt)` — at construction the half-kick back
/// from the loader's sampled velocities, then each step's kick. Cells are
/// not square, so the two axes' conversions cannot stand in for each other.
#[test]
fn kick_matches_a_physical_units_oracle() {
    for ordering in [Ordering::RowMajor, Ordering::Morton] {
        let mut c = cfg(2_003);
        (c.grid_nx, c.grid_ny) = (32, 16);
        c.ordering = ordering;
        c.sort_period = 0; // keep the particle order across the steps
        let sim0 = Simulation::new(c.clone()).unwrap();
        let grid = *sim0.grid();
        let (nx, ny, dt) = (c.grid_nx, c.grid_ny, c.dt);
        let to_physical = (grid.dx() / dt, grid.dy() / dt);
        let qm_dt = QE / ME * dt;

        // Construction: v(−Δt/2) = v(0) − (q/m)·E(x₀)·Δt/2.
        let layout = AnyLayout::build(ordering, nx, ny).unwrap();
        let (sampled, _) = Loader::new(
            &grid,
            layout.as_dyn(),
            c.distribution,
            c.n_particles,
            c.seed,
        )
        .load(0..c.n_particles, None);
        let (p, (ex, ey)) = (sim0.particles(), sim0.e_field());
        for i in 0..p.len() {
            let what = format!("{ordering} construction, particle {i}");
            let want_x = sampled.vx[i] - 0.5 * qm_dt * interpolate(ex, (nx, ny), p, i);
            let want_y = sampled.vy[i] - 0.5 * qm_dt * interpolate(ey, (nx, ny), p, i);
            assert_close(p.vx[i] * to_physical.0, want_x, &format!("{what} vx"));
            assert_close(p.vy[i] * to_physical.1, want_y, &format!("{what} vy"));
        }

        let mut sim = sim0;
        for step in 1..=3 {
            let before = sim.particles().clone();
            let (ex, ey) = (sim.e_field().0.to_vec(), sim.e_field().1.to_vec());
            sim.step();
            let after = sim.particles();
            for i in 0..before.len() {
                let what = format!("{ordering} step {step}, particle {i}");
                let want_x =
                    before.vx[i] * to_physical.0 + qm_dt * interpolate(&ex, (nx, ny), &before, i);
                let want_y =
                    before.vy[i] * to_physical.1 + qm_dt * interpolate(&ey, (nx, ny), &before, i);
                assert_close(after.vx[i] * to_physical.0, want_x, &format!("{what} vx"));
                assert_close(after.vy[i] * to_physical.1, want_y, &format!("{what} vy"));
            }
        }
    }
}

/// {1, 2, 4 threads} x {sorted, unsorted}: every step is bit-identical to
/// the scalar kernels, and its reassociated ρ lies within the per-cell
/// bound of the scalar `Exact` accumulation of the same pushed store.
/// Grid point `g` sums the corners of the four cells around it, so its
/// bound is `4K²ε|w|` with `K` the particles in those cells
/// (`Σ 4k_c² ≤ 4K²`; the pooled merge and the corner sums stay inside it).
#[test]
fn deposit_path_matrix() {
    for threads in [1usize, 2, 4] {
        for sorted in [true, false] {
            let mut c = cfg(1511);
            c.ordering = Ordering::Morton;
            c.threads = threads;
            // Sorted: re-sort every step so the deposit always sees long
            // same-cell runs. Unsorted: never sort, so drift scrambles the
            // cell order the kernels walk.
            c.sort_period = if sorted { 1 } else { 0 };
            let what = format!("threads={threads} sorted={sorted}");
            assert_steps_match_scalar_kernels(c.clone(), 5, &what);

            let mut sim = Simulation::new(c.clone()).unwrap();
            let grid = *sim.grid();
            let (nx, ny) = (c.grid_nx, c.grid_ny);
            let w = QE * particle_weight(&grid, c.n_particles) / (grid.dx() * grid.dy());
            let layout = AnyLayout::build(c.ordering, nx, ny).unwrap();
            let l = layout.as_dyn();
            for step in 1..=5 {
                sim.step();
                let p = sim.particles();
                // The exact ρ, and each grid point's K: a particle puts 1
                // on every corner of its cell.
                let (mut exact, mut k4) = (RedundantRho::new(l), RedundantRho::new(l));
                accumulate::accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut exact.rho4, w);
                for &c in &p.icell {
                    k4.rho4[c as usize].iter_mut().for_each(|k| *k += 1.0);
                }
                let (mut rho, mut k) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
                exact.reduce_to_grid(l, &mut rho);
                k4.reduce_to_grid(l, &mut k);
                for (g, (&r, &k)) in rho.iter().zip(&k).enumerate() {
                    let (d, bound) = (
                        (sim.rho()[g] - r).abs(),
                        4.0 * k * k * f64::EPSILON * w.abs(),
                    );
                    assert!(
                        d <= bound,
                        "{what} step {step}: rho[{g}] off the exact sum by {d:e}, bound {bound:e}"
                    );
                }
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
// the whole-array scalar reference over cell orderings, pool widths and
// particle counts around the lane and strip edges (including fewer
// particles than workers).
// ---------------------------------------------------------------------------

#[test]
fn strip_pass_matches_whole_array_kernels() {
    const COUNTS: [usize; 7] = [0, 1, LANES - 1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 5];
    for ordering in Ordering::paper_set() {
        for threads in [1usize, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            for n in COUNTS {
                let mut c = cfg(3 * STRIP + 5);
                c.ordering = ordering;
                c.threads = threads;
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
                let what = format!("{ordering} threads={threads} n={n}");
                assert_same_bits(&sim, &pr, &rho_ref, &what);
            }
        }
    }
}
