//! Table VI — strong scaling over threads on one socket (pure OpenMP in the
//! paper, pure threads here): million particles advanced per second at
//! 1, 2, 4, … threads up to `--max-threads` (default: the host's
//! `available_parallelism`, so no row time-shares a core), against the
//! ideal linear scaling. Only the steps are timed, not construction.
//!
//! Usage: table6_strong_scaling_threads [--particles N] [--grid G] [--iters I]
//!                                      [--max-threads T]
//!
//! Expected shape (paper Table VI): near-ideal to 4 threads, sub-linear at
//! 8 — a PIC step is memory-bound and the socket has 4 memory channels.

use pic_bench::cli::Args;
use pic_bench::mp_per_s;
use pic_bench::table::Table;
use pic_bench::workloads;
use pic_core::sim::Simulation;
use pic_core::PicError;
use sfc::Ordering;
use std::time::Instant;

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let particles = args.get("particles", workloads::DEFAULT_PARTICLES);
    let grid = args.get("grid", workloads::DEFAULT_GRID);
    let iters = args.get("iters", 50usize);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = args.get("max-threads", nproc);

    println!("# Table VI — strong scaling over threads (million particles/s, steps only)");
    println!("# particles={particles} grid={grid} iters={iters} sort-every=50 nproc={nproc}");

    let mut t = Table::new(&["Threads", "Mp/s", "Mp/s ideal", "Efficiency"]);
    let mut base = None;
    let mut threads = 1usize;
    while threads <= max_threads {
        eprintln!("running {threads} thread(s) ...");
        let mut cfg = workloads::table1(particles, grid, Ordering::Morton);
        cfg.threads = threads;
        cfg.sort_period = 50;
        let mut sim = Simulation::new(cfg)?;
        let wall = Instant::now();
        sim.run(iters);
        let elapsed = wall.elapsed().as_secs_f64();
        let mps = mp_per_s(particles, iters, elapsed);
        let b = *base.get_or_insert(mps);
        let ideal = b * threads as f64;
        t.row(&[
            threads.to_string(),
            format!("{mps:.1}"),
            format!("{ideal:.1}"),
            format!("{:.0}%", 100.0 * mps / ideal),
        ]);
        threads *= 2;
    }
    t.print();
    println!("\n# Paper (Sandy Bridge socket): 45.8 / 89.9 / 170 / 266 Mp/s at 1/2/4/8 cores");
    println!("# (ideal 45.8 / 91.6 / 183 / 366 — bounded by 4 memory channels)");
    Ok(())
}
