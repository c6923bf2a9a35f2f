//! Table V — nanoseconds per particle per iteration, by loop, compared to
//! the published Decyk & Singh (2014) numbers and the paper's own columns.
//!
//! Usage: table5_per_particle_ns [--particles N] [--grid G] [--iters I]
//!                               [--sort-sweep]  # sweep the sorting period
//!
//! Expected shape: push (update-v + update-x) dominates; accumulate around
//! a third of push; sorting amortized small. Absolute values depend on the
//! host machine — the paper's point is the ranking and the rough ratios.

use pic_bench::cli::Args;
use pic_bench::literature::{BARSAMIAN_HASWELL, BARSAMIAN_SANDY_BRIDGE, DECYK_SINGH_NEHALEM};
use pic_bench::ns_per_particle;
use pic_bench::table::Table;
use pic_bench::workloads::{self, run_fresh};
use pic_core::PicError;
use sfc::Ordering;

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let particles = args.get("particles", workloads::DEFAULT_PARTICLES);
    let grid = args.get("grid", workloads::DEFAULT_GRID);
    let iters = args.get("iters", workloads::DEFAULT_ITERS);

    println!("# Table V — time per particle per iteration (nanoseconds)");
    println!("# particles={particles} grid={grid} iters={iters}");

    let cfg = workloads::table1(particles, grid, Ordering::Morton);
    eprintln!("running optimized configuration ...");
    let sim = run_fresh(cfg, iters)?;
    let ph = sim.timers();
    let ns = |s: f64| ns_per_particle(s, particles, iters);

    let mut t = Table::new(&[
        "Step",
        "Decyk&Singh (Nehalem)",
        "Paper (SandyBridge)",
        "Paper (Haswell)",
        "This repo (host)",
    ]);
    t.row(&[
        "Push".into(),
        format!("{:.1}", DECYK_SINGH_NEHALEM.push_ns),
        format!("{:.1}", BARSAMIAN_SANDY_BRIDGE.push_ns),
        format!("{:.1}", BARSAMIAN_HASWELL.push_ns),
        format!("{:.1}", ns(ph.push())),
    ]);
    t.row(&[
        "Accumulate".into(),
        format!("{:.1}", DECYK_SINGH_NEHALEM.accumulate_ns),
        format!("{:.1}", BARSAMIAN_SANDY_BRIDGE.accumulate_ns),
        format!("{:.1}", BARSAMIAN_HASWELL.accumulate_ns),
        format!("{:.1}", ns(ph.accumulate)),
    ]);
    t.row(&[
        "Reorder".into(),
        format!("{:.1}", DECYK_SINGH_NEHALEM.reorder_ns.unwrap()),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(&[
        "Sorting".into(),
        "-".into(),
        format!("{:.1}", BARSAMIAN_SANDY_BRIDGE.sorting_ns.unwrap()),
        format!("{:.1}", BARSAMIAN_HASWELL.sorting_ns.unwrap()),
        format!("{:.1}", ns(ph.sort)),
    ]);
    t.row(&[
        "Total".into(),
        format!("{:.1}", DECYK_SINGH_NEHALEM.total()),
        format!("{:.1}", BARSAMIAN_SANDY_BRIDGE.total()),
        format!("{:.1}", BARSAMIAN_HASWELL.total()),
        format!("{:.1}", ns(ph.push() + ph.accumulate + ph.sort)),
    ]);
    t.print();

    if args.has("sort-sweep") {
        println!("\n# Sorting-period sweep (paper: optimum 20 on Haswell, 50 on Sandy Bridge)");
        let mut t = Table::new(&["Sort every", "Total(s)", "ns/particle/iter"]);
        for period in [5usize, 10, 20, 50, 100, 0] {
            let mut cfg = workloads::table1(particles, grid, Ordering::Morton);
            cfg.sort_period = period;
            let sim = run_fresh(cfg, iters)?;
            let total = sim.timers().total();
            let label = if period == 0 {
                "never".to_string()
            } else {
                period.to_string()
            };
            t.row(&[
                label,
                format!("{total:.2}"),
                format!("{:.1}", ns_per_particle(total, particles, iters)),
            ]);
        }
        t.print();
    }
    Ok(())
}
