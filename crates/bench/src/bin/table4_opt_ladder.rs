//! Table IV — total execution time along the optimization ladder:
//! each rung adds one of the paper's optimizations and reports the gain
//! over the previous rung plus the accumulated gain over the baseline.
//!
//! Usage: table4_opt_ladder [--particles N] [--grid G] [--iters I]
//!
//! Expected shape (paper): baseline → fully optimized ≈ 42 % faster, with
//! the largest single contributions from loop splitting and SoA.

use pic_bench::cli::Args;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::{secs, Table};
use pic_bench::workloads::{self, run_row};
use pic_core::PicError;

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let particles = args.get("particles", workloads::DEFAULT_PARTICLES);
    let grid = args.get("grid", workloads::DEFAULT_GRID);
    let iters = args.get("iters", workloads::DEFAULT_ITERS);

    println!("# Table IV — total execution time, gains and accumulated gains");
    println!("# particles={particles} grid={grid} iters={iters}");

    let ladder = workloads::table4_ladder(particles, grid);
    let mut t = Table::new(&["Configuration", "Time(s)", "Gain(%)", "Acc. gain(%)"]);
    let mut rows = Vec::new();
    let mut baseline = None;
    let mut prev = None;
    for (label, cfg, variant) in ladder {
        eprintln!("running {label} ...");
        // Wall time of the particle phases + sort (the paper's "total"
        // excludes nothing, but the Poisson solve is identical across rungs;
        // include everything for the same reason).
        let time = run_row(cfg, variant, iters)?.0.total();
        let base = *baseline.get_or_insert(time);
        let gain = prev.map_or(0.0, |p: f64| 100.0 * (1.0 - time / p));
        let acc = 100.0 * (1.0 - time / base);
        t.row(&[
            label.to_string(),
            secs(time),
            format!("{gain:.1}"),
            format!("{acc:.1}"),
        ]);
        rows.push(Json::obj([
            ("configuration", Json::s(label)),
            ("time_s", Json::Num(time)),
            ("gain_pct", Json::Num(gain)),
            ("acc_gain_pct", Json::Num(acc)),
            (
                "ns_per_particle",
                Json::Num(pic_bench::ns_per_particle(time, particles, iters)),
            ),
        ]));
        prev = Some(time);
    }
    t.print();

    println!("\n# Paper (50 M particles, Haswell, icc): 120.4 s -> 68.8 s, 42.8% accumulated gain");
    // The ladder is never empty, so `prev` was set on every path.
    let mp = pic_bench::mp_per_s(particles, iters, prev.expect("ladder is non-empty"));
    println!("# Final rung throughput: {mp:.1} M particles/s (paper: 65 M/s on Haswell)");

    let doc = Json::obj([
        ("bench", Json::s("table4_opt_ladder")),
        ("particles", Json::Int(particles as i64)),
        ("grid", Json::Int(grid as i64)),
        ("iters", Json::Int(iters as i64)),
        ("results", Json::Arr(rows)),
    ]);
    let path = results_path("BENCH_table4.json");
    write_json_file(&path, &doc).map_err(|e| PicError::Io(format!("{}: {e}", path.display())))?;
    println!("# wrote {}", path.display());
    Ok(())
}
