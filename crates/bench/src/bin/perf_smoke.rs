//! Perf smoke test — the quick gate `scripts/check.sh` runs after the
//! functional suites: time the lane-blocked kernels against their scalar
//! twins on a small population and fail if the lane path has regressed
//! below scalar, then check that the counting sort stays within a fixed
//! multiple of a plain seven-column copy.
//!
//! Usage: perf_smoke [--particles N] [--reps R] [--tolerance PCT]
//!
//! Timing is min-of-reps (the minimum is the least noisy statistic for a
//! hot loop: every disturbance only adds time). The gate allows the lane
//! path to be `--tolerance` percent slower than scalar before failing, so
//! scheduler jitter on a loaded box does not produce false alarms; a real
//! vectorization regression (lanes falling back to scalar codegen) shows
//! up as tens of percent. The sort line instead gates on the median of
//! paired (sort, copy) ratios taken back-to-back: both halves of a pair see
//! the same machine load, so the gate needs no retry.

use pic_bench::cli::Args;
use pic_bench::harness::black_box;
use pic_bench::workloads::{copy_columns, drifted_landau};
use pic_core::fields::RedundantRho;
use pic_core::grid::Grid2D;
use pic_core::kernels::{accumulate, deposit, position, simd};
use pic_core::particles::{initialize, InitialDistribution, ParticlesSoA};
use pic_core::sort::{sort_out_of_place_with, SortArena};
use pic_core::PicError;
use sfc::{CellLayout, Morton, RowMajor};
use std::time::Instant;

const SIDE: usize = 128;
/// Sort cost ceiling in seven-column copies of the same store. The
/// permutation-first engine reads 2.9–4.0 on a drifted state; a return to
/// seven scattered store streams reads 6–9.
const SORT_COPY_RATIO_MAX: f64 = 5.0;

fn setup(layout: &dyn CellLayout, n: usize) -> ParticlesSoA {
    let grid = Grid2D::new(SIDE, SIDE, 1.0, 1.0).unwrap();
    let mut p = initialize(&grid, layout, InitialDistribution::Uniform, n, 42);
    for v in p.vx.iter_mut().chain(p.vy.iter_mut()) {
        *v *= 0.5;
    }
    p
}

/// Min-of-`reps` seconds for one call of `f`.
fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    // One untimed call to warm caches and page in the working set.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let n = args.get("particles", 200_000);
    let reps = args.get("reps", 7);
    let tolerance = args.get("tolerance", 10.0_f64); // percent

    let layout = RowMajor::new(SIDE, SIDE).map_err(PicError::Layout)?;
    let base = setup(&layout, n);
    println!("# perf smoke — lane vs scalar kernels, n={n}, min of {reps} reps");

    let mut failed = false;
    let mut gate = |name: &str, scalar_s: f64, lanes_s: f64| {
        let ratio = scalar_s / lanes_s;
        let ok = lanes_s <= scalar_s * (1.0 + tolerance / 100.0);
        println!(
            "{name:<20} scalar {:>8.2} ns/p   lanes {:>8.2} ns/p   speedup {ratio:.2}x   {}",
            scalar_s * 1e9 / n as f64,
            lanes_s * 1e9 / n as f64,
            if ok { "ok" } else { "REGRESSED" },
        );
        failed |= !ok;
    };

    // Update-positions: branchless scalar vs lane-blocked.
    {
        let mut p = base.clone();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        let scalar = min_time(reps, || {
            position::update_positions_branchless(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0]);
        });
        let mut p = base.clone();
        let lanes = min_time(reps, || {
            simd::update_positions_branchless_lanes(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                SIDE,
                SIDE,
                1.0,
            );
            black_box(p.icell[0]);
        });
        gate("update_positions", scalar, lanes);
    }

    // Deposition: redundant scalar vs lane-blocked.
    {
        let mut acc = RedundantRho::new(&layout);
        let scalar = min_time(reps, || {
            accumulate::accumulate_redundant(&base.icell, &base.dx, &base.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0]);
        });
        let lanes = min_time(reps, || {
            simd::accumulate_redundant_lanes(&base.icell, &base.dx, &base.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0]);
        });
        gate("accumulate", scalar, lanes);

        // Vectorized deposition: the reassociated path must beat the scalar
        // exact kernel (the whole point of DepositPath — anything else
        // means the lane-reduction codegen regressed).
        let lane_reduce = min_time(reps, || {
            deposit::accumulate_lane_reduce(&base.icell, &base.dx, &base.dy, &mut acc.rho4, 1.0);
            black_box(acc.rho4[0][0]);
        });
        gate("deposit_vectorized", scalar, lane_reduce);
    }

    // Update-positions under the default ordering: the Morton encode sits
    // inside the loop, where the row-major row above has plain arithmetic.
    {
        let morton = Morton::new(SIDE, SIDE).map_err(PicError::Layout)?;
        let mut p = setup(&morton, n);
        let (vx, vy) = (p.vx.clone(), p.vy.clone());
        let start = p.clone();
        let scalar = min_time(reps, || {
            position::update_positions_branchless_layout(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                &morton,
                1.0,
            );
            black_box(p.icell[0]);
        });
        let mut p = start;
        let lanes = min_time(reps, || {
            simd::update_positions_branchless_layout_lanes(
                &mut p.icell,
                &mut p.ix,
                &mut p.iy,
                &mut p.dx,
                &mut p.dy,
                &vx,
                &vy,
                &morton,
                1.0,
            );
            black_box(p.icell[0]);
        });
        gate("update_positions_sfc", scalar, lanes);
    }

    // Counting sort vs a plain copy of the seven columns, on the state a run
    // hands the sort (sorted at init, then 19 pushes).
    {
        let drifted = drifted_landau(n)?;
        let (mut p, mut ignored) = (drifted.clone(), ParticlesSoA::default());
        let mut arena = SortArena::new();
        let mut pairs = Vec::new();
        for _ in 0..reps.max(9) {
            let t = Instant::now();
            copy_columns(&drifted, &mut p);
            let copy_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            sort_out_of_place_with(&mut p, &mut ignored, SIDE * SIDE, &mut arena);
            let sort_s = t.elapsed().as_secs_f64();
            black_box(p.icell[0]);
            pairs.push((sort_s / copy_s, copy_s, sort_s));
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (ratio, copy_s, sort_s) = pairs[pairs.len() / 2];
        let ok = ratio <= SORT_COPY_RATIO_MAX;
        println!(
            "{:<20} copy7  {:>8.2} ns/p   sort  {:>8.2} ns/p   ratio   {ratio:.2}x   {}",
            "sort",
            copy_s * 1e9 / n as f64,
            sort_s * 1e9 / n as f64,
            if ok { "ok" } else { "REGRESSED" },
        );
        failed |= !ok;
    }

    if failed {
        return Err(PicError::Diverged(format!(
            "lane-blocked kernel slower than scalar beyond {tolerance}% tolerance, \
             or sort above {SORT_COPY_RATIO_MAX}x a seven-column copy"
        )));
    }
    println!("# perf smoke passed");
    Ok(())
}
