//! Table VII — AoS vs SoA × one fused loop vs three split loops, on
//! multiple threads (the paper uses 8, pure OpenMP).
//!
//! Usage: table7_aos_soa_loops [--particles N] [--grid G] [--iters I] [--threads T]
//!
//! Expected shape (paper: 30.9 / 22.7 / 23.1 / 18.3 s): SoA beats AoS in
//! both loop shapes, splitting beats fusing in both layouts, and the
//! combination (SoA, 3 loops) wins.

use pic_bench::cli::Args;
use pic_bench::table::{secs, Table};
use pic_bench::workloads::{self, run_row, table7_variants};
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
    let threads = args.get("threads", 8usize);

    println!("# Table VII — time spent in the simulation (AoS/SoA x 1/3 loops)");
    println!("# particles={particles} grid={grid} iters={iters} threads={threads} sort-every=50");

    let mut t = Table::new(&["Variant", "Wall time (s)"]);
    for (label, variant) in table7_variants() {
        eprintln!("running {label} ...");
        let mut cfg = workloads::table1(particles, grid, Ordering::RowMajor);
        cfg.threads = threads;
        cfg.sort_period = 50;
        let wall = Instant::now();
        run_row(cfg, variant, iters)?;
        t.row(&[label.to_string(), secs(wall.elapsed().as_secs_f64())]);
    }
    t.print();
    println!("\n# Paper (8 threads, Sandy Bridge): AoS/1: 30.9  AoS/3: 22.7  SoA/1: 23.1  SoA/3: 18.3 (s)");
    Ok(())
}
