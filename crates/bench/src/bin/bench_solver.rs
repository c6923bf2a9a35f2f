//! Field-solve scaling: serial vs pool-parallel vs slab-distributed
//! spectral Poisson solve.
//!
//! Three measurement families, one JSON (`results/BENCH_solver.json`):
//!
//! * **pooled** — `solve_e_with` (serial) against `solve_e_pooled` on a
//!   persistent `ThreadPool` of 1/2/4 workers, grids 64²–1024², best-of
//!   reps. Gate: 4 threads must not lose to serial at 256² and above —
//!   the pool-parallel path is the simulation default whenever
//!   `cfg.threads > 1`, so a regression here slows every hybrid run.
//!   Every pooled row records the host's `nproc` and whether its pool
//!   oversubscribes it: on a 2-vCPU host the 4-thread rows measure
//!   oversubscription, not scaling.
//! * **slab** — the distributed `SlabSolver` at 1/2/4 ranks (row-slab
//!   ownership), 256²–1024². Per-rank solve wall time (max over ranks,
//!   best-of reps) and per-rank persistent grid bytes. Gates: both must
//!   *shrink* as ranks grow — the whole point of not gathering to a root —
//!   and one rank holds exactly two complex slabs, `32·nx·ny` bytes (half
//!   the four slabs a per-component inverse needed).
//! * **slab against serial** — the 1-rank slab beside `solve_e_with` on
//!   the same grid (`slab_1rank_vs_serial`): the pipeline's overhead when
//!   it distributes nothing. Both run alternately inside one `World`,
//!   best of at least [`PAIR_REPS`] each (more on small grids, see
//!   [`PAIR_CELLS`]), so a slow host phase hits both alike; [`WORLDS`]
//!   such worlds run, each allocating its buffers afresh.
//!   Gate: the 1-rank slab is at most [`ONE_RANK_BOUND`]× serial at every
//!   slab grid. The 2-rank slab at 512² is set beside serial the same way
//!   (`slab_2rank_vs_serial`), reported and not gated.
//! * the table printed to stdout for eyeballing.
//!
//! Wall times are in-process (`minimpi` ranks are threads), so treat the
//! slab numbers as memory-bandwidth-bound block-exchange costs, not
//! network costs.

use decomp::SlabSolver;
use minimpi::World;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::Table;
use pic_core::pool::{chunk_range, ThreadPool};
use pic_core::PicError;
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use std::time::Instant;

const POOLED_GRIDS: [usize; 5] = [64, 128, 256, 512, 1024];
const SLAB_GRIDS: [usize; 3] = [256, 512, 1024];
const THREADS: [usize; 3] = [1, 2, 4];
const RANKS: [usize; 3] = [1, 2, 4];
const REPS: usize = 5;
const GATE_GRID: usize = 256;
/// Wall-clock noise margin for the pooled gate: both paths run the same
/// gather-free column butterflies, so the pool wins only by concurrency —
/// nothing on a one-core box, two vCPUs on the sizing host with four
/// workers oversubscribing them — so tolerate scheduler jitter around
/// parity.
const NOISE: f64 = 1.05;
/// Above this grid the pooled column pass's tile buffer (≥16 MiB) blows the
/// last cache level: every pass copies the grid out to tiles and back,
/// streaming traffic the serial path's in-place row-slice column pass does
/// not pay; gate only against a gross regression.
const CACHE_BOUND_GRID: usize = 1024;
const CACHE_BOUND_NOISE: f64 = 1.25;
const SLAB_TAG: u64 = 1 << 41;
/// Fewest alternating serial/slab pairs per world in the
/// slab-against-serial runs.
const PAIR_REPS: usize = 9;
/// Grid cells solved per path, world and grid in those runs, which sets
/// the pair count above the floor (128 pairs at 256², 32 at 512²): on a
/// noisy 2-vCPU host nine pairs of the small grids span a few
/// milliseconds, short enough for one path to miss every quiet window.
const PAIR_CELLS: usize = 1 << 23;
/// Fresh worlds per slab-against-serial reading. Within one world the
/// ratio could sit 10–25 % off parity for every pair at 256² and 512², and
/// the offset did not carry into the next world, so each path keeps its
/// best over several worlds, each with freshly allocated buffers.
const WORLDS: usize = 4;
/// The 1-rank slab may cost at most this multiple of the serial solve.
const ONE_RANK_BOUND: f64 = 1.10;
/// The grid of the reported 2-rank slab-against-serial reading.
const TWO_RANK_GRID: usize = 512;

fn test_rho(n: usize) -> Vec<f64> {
    // Structure-rich but cheap: a few incommensurate modes.
    (0..n)
        .map(|i| {
            let x = i as f64 * 0.001;
            (x).sin() + 0.5 * (2.7 * x).cos() + 0.25 * (13.1 * x).sin()
        })
        .collect()
}

struct PooledSample {
    grid: usize,
    /// 0 = serial `solve_e_with`; otherwise pool width.
    threads: usize,
    secs: f64,
}

fn bench_pooled(grid: usize) -> Vec<PooledSample> {
    let n = grid * grid;
    let solver = PoissonSolver2D::new(grid, grid, 1.0, 1.0).unwrap();
    let rho = test_rho(n);
    let (mut ex, mut ey) = (vec![0.0; n], vec![0.0; n]);
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();

    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        solver.solve_e_with(&rho, &mut ex, &mut ey, &mut scratch);
        best = best.min(t.elapsed().as_secs_f64());
    }
    out.push(PooledSample {
        grid,
        threads: 0,
        secs: best,
    });

    for &threads in &THREADS {
        let pool = ThreadPool::new(threads);
        // Warm the scratch (tbuf) outside the timed region.
        solver.solve_e_pooled(&rho, &mut ex, &mut ey, &mut scratch, &pool);
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            solver.solve_e_pooled(&rho, &mut ex, &mut ey, &mut scratch, &pool);
            best = best.min(t.elapsed().as_secs_f64());
        }
        out.push(PooledSample {
            grid,
            threads,
            secs: best,
        });
    }
    out
}

struct SlabSample {
    grid: usize,
    ranks: usize,
    /// Slowest rank's best-of-reps whole-solve wall time. On a single-core
    /// container the ranks time-share one CPU, so this is the makespan of
    /// the whole exchange-and-solve pipeline, not a per-rank cost.
    max_wall_secs: f64,
    /// Slowest rank's best-of-reps *compute* time (wall minus the time
    /// inside `try_all_to_all`): the per-rank FFT/scale/pack work, which
    /// must shrink ~1/p — this is what scales on real multicore hosts.
    max_compute_secs: f64,
    /// Per-rank persistent slab-buffer bytes (max over ranks).
    bytes_per_rank: u64,
}

/// Row-slab point ownership: rank r owns the rows of its slab, and needs
/// E exactly there — the layout a RowMajor partition induces.
fn row_slab_solver(grid: usize, rank: usize, ranks: usize) -> SlabSolver {
    let owned: Vec<Vec<usize>> = (0..ranks)
        .map(|r| {
            let (r0, r1) = chunk_range(grid, ranks, r);
            (r0 * grid..r1 * grid).collect()
        })
        .collect();
    SlabSolver::new(grid, grid, 1.0, 1.0, rank, ranks, &owned, &owned).unwrap()
}

fn bench_slab(grid: usize, ranks: usize) -> SlabSample {
    let n = grid * grid;
    let out = World::run(ranks, move |comm| {
        let mut slab = row_slab_solver(grid, comm.rank(), ranks);
        let rho = test_rho(n);
        let (mut ex, mut ey) = (vec![0.0; n], vec![0.0; n]);
        let (mut best_wall, mut best_compute) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..REPS as u64 {
            let c0 = comm.comm_time();
            let t = Instant::now();
            slab.solve(comm, &rho, &mut ex, &mut ey, SLAB_TAG + 8 * rep)
                .unwrap();
            let wall = t.elapsed().as_secs_f64();
            best_wall = best_wall.min(wall);
            best_compute = best_compute.min((wall - (comm.comm_time() - c0)).max(0.0));
        }
        (best_wall, best_compute, slab.solver_bytes())
    });
    SlabSample {
        grid,
        ranks,
        max_wall_secs: out.iter().map(|&(w, _, _)| w).fold(0.0, f64::max),
        max_compute_secs: out.iter().map(|&(_, c, _)| c).fold(0.0, f64::max),
        bytes_per_rank: out.iter().map(|&(_, _, b)| b).max().unwrap(),
    }
}

/// The serial solve and the `ranks`-rank slab solve of one grid, timed
/// alternately in [`WORLDS`] fresh worlds. Returns the best serial time
/// and the best slab time of the slowest rank.
fn bench_vs_serial(grid: usize, ranks: usize) -> (f64, f64) {
    (0..WORLDS)
        .map(|_| world_vs_serial(grid, ranks))
        .fold((f64::INFINITY, f64::INFINITY), |(s, d), (ws, wd)| {
            (s.min(ws), d.min(wd))
        })
}

/// One world of [`bench_vs_serial`]: each pair runs `solve_e_with` on rank
/// 0 between two barriers, then the slab solve on every rank.
fn world_vs_serial(grid: usize, ranks: usize) -> (f64, f64) {
    let n = grid * grid;
    let out = World::run(ranks, move |comm| {
        let mut slab = row_slab_solver(grid, comm.rank(), ranks);
        let solver = PoissonSolver2D::new(grid, grid, 1.0, 1.0).unwrap();
        let mut scratch = SolveScratch::new();
        let rho = test_rho(n);
        let (mut ex, mut ey) = (vec![0.0; n], vec![0.0; n]);
        // One untimed pass of each grows the scratch and warms the plans.
        solver.solve_e_with(&rho, &mut ex, &mut ey, &mut scratch);
        slab.solve(comm, &rho, &mut ex, &mut ey, SLAB_TAG).unwrap();
        let (mut serial, mut dist) = (f64::INFINITY, f64::INFINITY);
        for rep in 1..=pairs(grid) as u64 {
            comm.barrier();
            if comm.rank() == 0 {
                let t = Instant::now();
                solver.solve_e_with(&rho, &mut ex, &mut ey, &mut scratch);
                serial = serial.min(t.elapsed().as_secs_f64());
            }
            comm.barrier();
            let t = Instant::now();
            slab.solve(comm, &rho, &mut ex, &mut ey, SLAB_TAG + 4 * rep)
                .unwrap();
            dist = dist.min(t.elapsed().as_secs_f64());
        }
        (serial, dist)
    });
    (out[0].0, out.iter().map(|&(_, d)| d).fold(0.0, f64::max))
}

/// Alternating pairs run on `grid` in each world of [`bench_vs_serial`].
fn pairs(grid: usize) -> usize {
    (PAIR_CELLS / (grid * grid)).max(PAIR_REPS)
}

/// One slab-against-serial reading, the slab time under `key`.
fn pair_json((grid, serial, slab): (usize, f64, f64), key: &'static str) -> Json {
    Json::obj([
        ("grid", Json::Int(grid as i64)),
        ("worlds", Json::Int(WORLDS as i64)),
        ("pairs_per_world", Json::Int(pairs(grid) as i64)),
        ("serial_secs", Json::Num(serial)),
        (key, Json::Num(slab)),
        ("ratio", Json::Num(slab / serial)),
    ])
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let mut violations: Vec<String> = Vec::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- pooled ----
    let mut pooled: Vec<PooledSample> = Vec::new();
    let mut table = Table::new(&["grid", "serial ms", "1T ms", "2T ms", "4T ms", "4T speedup"]);
    for &grid in &POOLED_GRIDS {
        let samples = bench_pooled(grid);
        let ms = |threads: usize| {
            samples
                .iter()
                .find(|s| s.threads == threads)
                .map(|s| s.secs * 1e3)
                .unwrap()
        };
        table.row(&[
            format!("{grid}x{grid}"),
            format!("{:.3}", ms(0)),
            format!("{:.3}", ms(1)),
            format!("{:.3}", ms(2)),
            format!("{:.3}", ms(4)),
            format!("{:.2}x", ms(0) / ms(4)),
        ]);
        let margin = if grid >= CACHE_BOUND_GRID {
            CACHE_BOUND_NOISE
        } else {
            NOISE
        };
        if grid >= GATE_GRID && ms(4) > ms(0) * margin {
            violations.push(format!(
                "pooled @ {grid}²: 4 threads {:.3} ms slower than serial {:.3} ms",
                ms(4),
                ms(0)
            ));
        }
        pooled.extend(samples);
    }
    println!("pool-parallel solve (best of {REPS}):");
    print!("{}", table.render());

    // ---- slab ----
    let mut slab: Vec<SlabSample> = Vec::new();
    let mut table = Table::new(&["grid", "ranks", "wall ms", "compute ms", "KiB/rank"]);
    for &grid in &SLAB_GRIDS {
        for &ranks in &RANKS {
            let s = bench_slab(grid, ranks);
            table.row(&[
                format!("{grid}x{grid}"),
                s.ranks.to_string(),
                format!("{:.3}", s.max_wall_secs * 1e3),
                format!("{:.3}", s.max_compute_secs * 1e3),
                format!("{}", s.bytes_per_rank / 1024),
            ]);
            slab.push(s);
        }
        let at = |ranks: usize| {
            slab.iter()
                .find(|s| s.grid == grid && s.ranks == ranks)
                .unwrap()
        };
        let two_slabs = (2 * grid * grid * std::mem::size_of::<spectral::Complex64>()) as u64;
        if at(1).bytes_per_rank != two_slabs {
            violations.push(format!(
                "slab @ {grid}²: 1-rank memory {} B is not two complex slabs ({two_slabs} B)",
                at(1).bytes_per_rank
            ));
        }
        for ranks in [2usize, 4] {
            if at(ranks).bytes_per_rank >= at(1).bytes_per_rank {
                violations.push(format!(
                    "slab @ {grid}²: {ranks}-rank per-rank memory {} B not below 1-rank {} B",
                    at(ranks).bytes_per_rank,
                    at(1).bytes_per_rank
                ));
            }
            // Per-rank solve *compute* must shrink with ranks. (Makespan
            // cannot shrink on this single-CPU container, where all ranks
            // time-share one core — it is reported, not gated.)
            if at(ranks).max_compute_secs >= at(1).max_compute_secs {
                violations.push(format!(
                    "slab @ {grid}²: {ranks}-rank compute {:.3} ms not below 1-rank {:.3} ms",
                    at(ranks).max_compute_secs * 1e3,
                    at(1).max_compute_secs * 1e3
                ));
            }
        }
    }
    println!("\nslab-distributed solve (best of {REPS}, max over ranks):");
    print!("{}", table.render());

    // ---- slab against serial ----
    let mut table = Table::new(&["grid", "ranks", "serial ms", "slab ms", "slab/serial"]);
    let mut vs_serial = |grid: usize, ranks: usize| {
        let (serial, dist) = bench_vs_serial(grid, ranks);
        table.row(&[
            format!("{grid}x{grid}"),
            ranks.to_string(),
            format!("{:.3}", serial * 1e3),
            format!("{:.3}", dist * 1e3),
            format!("{:.2}x", dist / serial),
        ]);
        (grid, serial, dist)
    };
    let one_rank: Vec<(usize, f64, f64)> = SLAB_GRIDS.iter().map(|&g| vs_serial(g, 1)).collect();
    let two_rank = vs_serial(TWO_RANK_GRID, 2);
    println!(
        "\nslab against the serial solve (alternating, best of {WORLDS} worlds x >= {PAIR_REPS} \
         each):"
    );
    print!("{}", table.render());
    for &(grid, serial, slab1) in &one_rank {
        if slab1 > serial * ONE_RANK_BOUND {
            violations.push(format!(
                "slab @ {grid}²: 1 rank {:.3} ms above {ONE_RANK_BOUND}x serial {:.3} ms",
                slab1 * 1e3,
                serial * 1e3
            ));
        }
    }

    // ---- JSON ----
    let json = Json::obj([
        ("reps", Json::Int(REPS as i64)),
        ("nproc", Json::Int(nproc as i64)),
        (
            "pooled",
            Json::Arr(
                pooled
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("grid", Json::Int(s.grid as i64)),
                            (
                                "mode",
                                Json::s(if s.threads == 0 { "serial" } else { "pooled" }),
                            ),
                            ("threads", Json::Int(s.threads.max(1) as i64)),
                            ("oversubscribed", Json::Bool(s.threads > nproc)),
                            ("secs", Json::Num(s.secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "slab",
            Json::Arr(
                slab.iter()
                    .map(|s| {
                        Json::obj([
                            ("grid", Json::Int(s.grid as i64)),
                            ("ranks", Json::Int(s.ranks as i64)),
                            ("max_wall_secs", Json::Num(s.max_wall_secs)),
                            ("max_compute_secs", Json::Num(s.max_compute_secs)),
                            ("bytes_per_rank", Json::Int(s.bytes_per_rank as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "slab_1rank_vs_serial",
            Json::Arr(
                one_rank
                    .iter()
                    .map(|&s| pair_json(s, "slab_1rank_secs"))
                    .collect(),
            ),
        ),
        (
            "slab_2rank_vs_serial",
            pair_json(two_rank, "slab_2rank_secs"),
        ),
        (
            "gates",
            Json::Arr(vec![
                Json::s("pooled 4T <= serial (5% noise margin) at 256²+"),
                Json::s("slab 1-rank bytes == 32·nx·ny (two complex slabs)"),
                Json::s("slab per-rank bytes shrink at 2/4 ranks"),
                Json::s("slab per-rank solve compute shrinks at 2/4 ranks"),
                Json::s(format!(
                    "slab 1-rank <= {ONE_RANK_BOUND}x serial (alternating, best of \
                     {WORLDS} worlds x >= {PAIR_REPS}) at 256²–1024²"
                )),
            ]),
        ),
    ]);
    let path = results_path("BENCH_solver.json");
    write_json_file(&path, &json).map_err(|e| PicError::Io(format!("{}: {e}", path.display())))?;
    println!("\nwrote {}", path.display());

    if !violations.is_empty() {
        return Err(PicError::Diverged(format!(
            "solver gate failed: {}",
            violations.join("; ")
        )));
    }
    println!(
        "gates passed: pooled holds at 256²+, slab shrinks per-rank memory and compute with \
         ranks, 1-rank slab within {ONE_RANK_BOUND}x serial"
    );
    Ok(())
}
