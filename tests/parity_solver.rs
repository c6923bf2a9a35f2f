//! Bit-exactness of the parallel and distributed Poisson solve paths.
//!
//! The pool-parallel (`solve_e_pooled`) and slab-distributed
//! (`SlabSolver::solve`) pipelines replicate the serial solver's exact
//! per-1-D-transform value sequences and per-mode spectral scale, so their
//! output is not merely close to the sequential `PoissonSolver2D` — it is
//! the same bits. These tests assert `to_bits` equality across thread
//! counts, rank counts, and SFC orderings, inside a decomposed run against
//! a whole-grid solve of its assembled density, and that checkpoints cross
//! thread counts without perturbing the trajectory. The serial solve
//! itself is held to the three-transform pipeline it replaced (complex
//! forward of ρ, one complex inverse per component, `.re` kept), which
//! lives here and nowhere else, as the oracle.

use pic2d::decomp::{DecompConfig, DecomposedSimulation, SlabSolver};
use pic2d::minimpi::World;
use pic2d::pic_core::pool::{chunk_range, ThreadPool};
use pic2d::pic_core::rng::Rng;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::sfc::Ordering;
use pic2d::spectral::fft::Fft2Plan;
use pic2d::spectral::poisson::{wavenumbers, PoissonSolver2D, SolveScratch};
use pic2d::spectral::Complex64;

const NX: usize = 32;
const NY: usize = 32;
const LX: f64 = 4.0 * std::f64::consts::PI;
const LY: f64 = 4.0 * std::f64::consts::PI;

/// Grids the 32² cases never reach: 128² spans four column sub-bands, and
/// its 3-rank slab bands (43/43/42 columns) are neither a multiple of nor
/// narrower than one sub-band; 64×128 and 128×64 run non-square plans.
const WIDE_GRIDS: [(usize, usize); 3] = [(128, 128), (64, 128), (128, 64)];

/// A deterministic, structure-rich density: random per-point values from
/// the in-repo PRNG (every caller regenerates the same field).
fn rho_on(nx: usize, ny: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..nx * ny).map(|_| rng.range(-1.0, 1.0)).collect()
}

fn serial_on(nx: usize, ny: usize, rho: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let solver = PoissonSolver2D::new(nx, ny, LX, LY).unwrap();
    let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
    let mut scratch = SolveScratch::new();
    solver.solve_e_with(rho, &mut ex, &mut ey, &mut scratch);
    (ex, ey)
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// Owned and E points of every rank for a slab solve of an `nx × ny` grid.
type Ownership = fn(usize, usize, usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Labelled ownerships to run a grid's slab solves under.
type Owners<'a> = &'a [(&'a str, Ownership)];

/// SFC ownership: each rank's owned and E points under a Morton or
/// Hilbert partition (square grids only).
fn sfc_ownership(
    ord: Ordering,
    nx: usize,
    ny: usize,
    p: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    use pic2d::decomp::{HaloPlan, Partition};
    let part = Partition::new(ord, nx, ny, p).unwrap();
    let plans: Vec<HaloPlan> = (0..p).map(|r| HaloPlan::build(&part, r, 2)).collect();
    (
        plans.iter().map(|h| h.owned_points.clone()).collect(),
        plans.iter().map(|h| h.e_points.clone()).collect(),
    )
}

/// Row ownership: rank r owns, and needs E on, whole grid rows — any
/// grid shape.
fn row_ownership(nx: usize, ny: usize, p: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let pts: Vec<Vec<usize>> = (0..p)
        .map(|r| {
            let (r0, r1) = chunk_range(nx, p, r);
            (r0 * ny..r1 * ny).collect()
        })
        .collect();
    (pts.clone(), pts)
}

/// Slab-solve `rho` on `ranks` ranks under `own` and assert every rank's
/// E points carry the serial solve's bits.
fn check_slab(nx: usize, ny: usize, ranks: usize, own: Ownership, rho: &[f64], label: &str) {
    let (ex_s, ey_s) = serial_on(nx, ny, rho);
    let rho = rho.to_vec();
    let out = World::run(ranks, move |comm| {
        let (all_owned, all_e) = own(nx, ny, comm.size());
        let mut slab =
            SlabSolver::new(nx, ny, LX, LY, comm.rank(), comm.size(), &all_owned, &all_e).unwrap();
        let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
        slab.solve(comm, &rho, &mut ex, &mut ey, 700).unwrap();
        let pts = all_e[comm.rank()].clone();
        let exv: Vec<f64> = pts.iter().map(|&p| ex[p]).collect();
        let eyv: Vec<f64> = pts.iter().map(|&p| ey[p]).collect();
        (pts, exv, eyv)
    });
    for (r, (pts, exv, eyv)) in out.iter().enumerate() {
        assert!(
            !pts.is_empty(),
            "{label} ranks={ranks} rank={r}: no E points"
        );
        let want = |e: &[f64]| pts.iter().map(|&p| e[p]).collect::<Vec<_>>();
        let what = format!("{label} {nx}x{ny} ranks={ranks} rank={r}");
        assert_bits_eq(exv, &want(&ex_s), &format!("{what} ex"));
        assert_bits_eq(eyv, &want(&ey_s), &format!("{what} ey"));
    }
}

/// The three-transform solve: ρ → ρ̂ by a complex 2-D forward, `Êx` and
/// `Êy` inverted separately, real parts kept.
fn three_transform_solve(
    rho: &[f64],
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
) -> (Vec<f64>, Vec<f64>) {
    let plan = Fft2Plan::new(nx, ny).unwrap();
    let (kx, ky) = (wavenumbers(nx, lx), wavenumbers(ny, ly));
    let mut hat: Vec<Complex64> = rho.iter().map(|&r| Complex64::from_re(r)).collect();
    plan.forward(&mut hat);
    let (mut hx, mut hy) = (hat.clone(), hat.clone());
    for (i, &h) in hat.iter().enumerate() {
        let (kx, ky) = (kx[i / ny], ky[i % ny]);
        let k2 = kx * kx + ky * ky;
        let phi_hat = if k2 == 0.0 { Complex64::ZERO } else { h / k2 };
        hx[i] = -phi_hat.mul_i().scale(kx);
        hy[i] = -phi_hat.mul_i().scale(ky);
    }
    plan.inverse(&mut hx);
    plan.inverse(&mut hy);
    (
        hx.iter().map(|z| z.re).collect(),
        hy.iter().map(|z| z.re).collect(),
    )
}

/// The real-input, one-inverse solve agrees with the three-transform
/// oracle to 1e-13 of max|E| on random densities over every grid shape
/// (the non-square ones include both plans of `WIDE_GRIDS`),
/// and on densities made only of Nyquist modes — the modes where the
/// combined inverse would leak one component into the other without the
/// Nyquist rule of `field_mode`.
#[test]
fn solve_matches_three_transform_oracle() {
    let shapes = [
        (128, 128),
        (64, 32),
        (32, 64),
        (64, 128),
        (128, 64),
        (8, 64),
        (1, 8),
        (8, 1),
        (2, 2),
    ];
    for (nx, ny) in shapes {
        let (lx, ly) = (2.0 * std::f64::consts::PI, 3.0);
        let solver = PoissonSolver2D::new(nx, ny, lx, ly).unwrap();
        let mut scratch = SolveScratch::new();
        let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
        let nyquist: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i / ny, i % ny);
                let (tx, ty) = (ix as f64 / nx as f64, iy as f64 / ny as f64);
                let tau = 2.0 * std::f64::consts::PI;
                // Quarter-band partners keep the surviving component as
                // large as the one the rule drops.
                let (qx, qy) = ((nx / 4) as f64, (ny / 4) as f64);
                sign(ix) * (tau * qy * ty).cos() + 0.5 * sign(iy) * (tau * qx * tx).sin()
                    - 0.1 * sign(ix + iy)
            })
            .collect();
        let mut cases: Vec<(String, Vec<f64>)> = (0..16u64)
            .map(|seed| {
                let mut rng = Rng::seed_from_u64(0x0e5e ^ (seed << 8) ^ (nx * 1000 + ny) as u64);
                (
                    format!("seed {seed}"),
                    (0..nx * ny).map(|_| rng.range(-1.0, 1.0)).collect(),
                )
            })
            .collect();
        cases.push(("nyquist".into(), nyquist));
        for (what, rho) in &cases {
            let (ox, oy) = three_transform_solve(rho, nx, ny, lx, ly);
            let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
            solver.solve_e_with(rho, &mut ex, &mut ey, &mut scratch);
            let emax = ox.iter().chain(&oy).fold(0.0f64, |m, v| m.max(v.abs()));
            let tol = 1e-13 * emax;
            for i in 0..nx * ny {
                assert!(
                    (ex[i] - ox[i]).abs() <= tol && (ey[i] - oy[i]).abs() <= tol,
                    "{nx}x{ny} {what} [{i}]: ({}, {}) vs oracle ({}, {}), max|E| {emax}",
                    ex[i],
                    ey[i],
                    ox[i],
                    oy[i]
                );
            }
        }
    }
}

#[test]
fn pooled_solve_bit_exact_across_thread_counts() {
    for (nx, ny) in [(NX, NY)].into_iter().chain(WIDE_GRIDS) {
        let solver = PoissonSolver2D::new(nx, ny, LX, LY).unwrap();
        let mut scratch = SolveScratch::new();
        for case in 0..8u64 {
            let rho = rho_on(nx, ny, 0x9001 ^ case);
            let (ex_s, ey_s) = serial_on(nx, ny, &rho);
            for threads in [1usize, 2, 3, 4] {
                let pool = ThreadPool::new(threads);
                let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
                solver.solve_e_pooled(&rho, &mut ex, &mut ey, &mut scratch, &pool);
                let what = format!("{nx}x{ny} case={case} threads={threads}");
                assert_bits_eq(&ex, &ex_s, &format!("{what} ex"));
                assert_bits_eq(&ey, &ey_s, &format!("{what} ey"));
            }
        }
    }
}

#[test]
fn slab_solve_bit_exact_across_ranks_and_orderings() {
    // At 32², 3 ranks split the 16 row pairs 6/5/5: slabs hold whole
    // pairs, which one packed row transform needs. Both SFC partitions need
    // square grids, so the non-square slabs use row ownership.
    let morton: Ownership = |nx, ny, p| sfc_ownership(Ordering::Morton, nx, ny, p);
    let hilbert: Ownership = |nx, ny, p| sfc_ownership(Ordering::Hilbert, nx, ny, p);
    let rows: Ownership = row_ownership;
    for (nx, ny) in [(NX, NY)].into_iter().chain(WIDE_GRIDS) {
        let owns: Owners = if nx == ny {
            &[("morton", morton), ("hilbert", hilbert)]
        } else {
            &[("rows", rows)]
        };
        for &(label, own) in owns {
            for ranks in [1usize, 2, 3, 4] {
                let rho = rho_on(nx, ny, 0x51ab ^ ranks as u64);
                check_slab(nx, ny, ranks, own, &rho, label);
            }
        }
    }
}

fn sim_cfg(threads: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(4_000);
    cfg.grid_nx = NX;
    cfg.grid_ny = NY;
    cfg.sort_period = 2;
    cfg.threads = threads;
    cfg
}

/// A serial-solver snapshot must restore into a pool-parallel run: the
/// checkpoint fingerprint covers physics and partition, never the solver
/// parallelism. The restored state is bit-identical, and the continued
/// trajectory agrees to 1e-9 (the pooled *solve* is bit-exact; only the
/// pool-parallel deposit's summation order separates the runs).
#[test]
fn serial_snapshot_restores_into_pooled_run() {
    let mut serial = Simulation::new(sim_cfg(1)).unwrap();
    serial.run(4);
    let snap = serial.checkpoint();

    let mut pooled = Simulation::new(sim_cfg(4)).unwrap();
    pooled.restore(&snap).expect("cross-thread-count restore");

    // The restored state itself is the snapshot, bit for bit.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(serial.rho()), bits(pooled.rho()), "restored rho");
    assert_eq!(
        serial.particles().icell,
        pooled.particles().icell,
        "restored particle cells"
    );

    serial.run(3);
    pooled.run(3);

    assert_eq!(
        serial.particles().icell,
        pooled.particles().icell,
        "particle cells diverged"
    );
    let close = |a: &[f64], b: &[f64], what: &str| {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "{what}[{i}]: {x} vs {y}");
        }
    };
    close(serial.rho(), pooled.rho(), "rho");
    let (ex_s, ey_s) = serial.e_field();
    let (ex_p, ey_p) = pooled.e_field();
    close(ex_s, ex_p, "ex");
    close(ey_s, ey_p, "ey");
}

/// Inside a 4-rank decomposed run, the slab solve's E at every rank's
/// E points is the whole-grid serial solve of the assembled density, bit
/// for bit: each step's global ρ is gathered from the ranks' owned points
/// (which tile the grid) and solved by `solve_e_with` in the test, and
/// the particle population is conserved.
#[test]
fn decomposed_slab_field_matches_whole_grid_solve() {
    const RANKS: usize = 4;
    const STEPS: usize = 5;
    for ord in [Ordering::Morton, Ordering::Hilbert] {
        let out = World::run(RANKS, move |comm| {
            let mut cfg = sim_cfg(1);
            cfg.ordering = ord;
            let mut d = DecomposedSimulation::new(cfg, DecompConfig::default(), comm).unwrap();
            let mut steps = Vec::new();
            for _ in 0..STEPS {
                d.step(comm).unwrap();
                let (owned, epts) = (&d.plan().owned_points, &d.plan().e_points);
                let rho = d.sim().rho();
                let (ex, ey) = d.sim().e_field();
                steps.push((
                    owned.iter().map(|&p| (p, rho[p])).collect::<Vec<_>>(),
                    epts.iter().map(|&p| (p, ex[p], ey[p])).collect::<Vec<_>>(),
                ));
            }
            (steps, d.local_particles())
        });
        for step in 0..STEPS {
            let mut rho = vec![f64::NAN; NX * NY];
            for (steps, _) in &out {
                for &(p, v) in &steps[step].0 {
                    assert!(rho[p].is_nan(), "{ord} step {step}: point {p} owned twice");
                    rho[p] = v;
                }
            }
            assert!(
                rho.iter().all(|v| !v.is_nan()),
                "{ord}: owned points miss the grid"
            );
            let (ex_s, ey_s) = serial_on(NX, NY, &rho);
            for (r, (steps, _)) in out.iter().enumerate() {
                let what = format!("{ord} step {step} rank {r}");
                let (ex, ey): (Vec<f64>, Vec<f64>) =
                    steps[step].1.iter().map(|&(_, x, y)| (x, y)).unzip();
                let pts: Vec<usize> = steps[step].1.iter().map(|&(p, _, _)| p).collect();
                let want = |e: &[f64]| pts.iter().map(|&p| e[p]).collect::<Vec<_>>();
                assert_bits_eq(&ex, &want(&ex_s), &format!("{what} ex"));
                assert_bits_eq(&ey, &want(&ey_s), &format!("{what} ey"));
            }
        }
        let total: usize = out.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 4_000, "{ord}: particle count not conserved");
    }
}
