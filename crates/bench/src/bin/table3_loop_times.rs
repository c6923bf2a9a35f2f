//! Table III — wall-clock seconds spent in each particle loop per ordering,
//! including the 2-D standard layout and the Hilbert row.
//!
//! Usage: table3_loop_times [--particles N] [--grid G] [--iters I]
//!                          [--l4d-sweep]   # also sweep the L4D SIZE knob
//!
//! Expected shape (paper Table III): Morton/L4D fastest in accumulate
//! (redundant layout + locality), a few extra seconds in update-positions
//! (the layout `encode` per particle), and Hilbert catastrophically slow in
//! update-positions (no cheap bijection) — which is why the paper discards
//! it despite its good cache behaviour.

use pic_bench::cli::Args;
use pic_bench::reference::{FieldLayout, LoopStructure, ParticleLayout, PositionUpdate, Variant};
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::{secs, Table};
use pic_bench::workloads::{self, run_row};
use pic_core::sim::PhaseTimes;
use pic_core::PicError;
use sfc::Ordering;

fn run_case(
    label: &str,
    cfg: pic_core::sim::PicConfig,
    variant: Option<Variant>,
    iters: usize,
    t: &mut Table,
) -> Result<PhaseTimes, PicError> {
    eprintln!("running {label} ...");
    let (ph, _) = run_row(cfg, variant, iters)?;
    t.row(&[
        label.to_string(),
        secs(ph.update_v),
        secs(ph.update_x),
        secs(ph.accumulate),
        secs(ph.total()),
    ]);
    Ok(ph)
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let particles = args.get("particles", workloads::DEFAULT_PARTICLES);
    let grid = args.get("grid", workloads::DEFAULT_GRID);
    let iters = args.get("iters", workloads::DEFAULT_ITERS);

    println!("# Table III — time spent in the different loops (seconds)");
    println!("# particles={particles} grid={grid} iters={iters} sort-every=20");

    let mut t = Table::new(&["Layout", "Update v", "Update x", "Accumulate", "Total"]);
    let mut rows = Vec::new();
    let json_row = |label: &str, ph: &PhaseTimes| {
        let ns = |s: f64| Json::Num(pic_bench::ns_per_particle(s, particles, iters));
        Json::obj([
            ("layout", Json::s(label)),
            ("update_v_s", Json::Num(ph.update_v)),
            ("update_x_s", Json::Num(ph.update_x)),
            ("accumulate_s", Json::Num(ph.accumulate)),
            ("total_s", Json::Num(ph.total())),
            ("update_v_ns_per_particle", ns(ph.update_v)),
            ("update_x_ns_per_particle", ns(ph.update_x)),
            ("accumulate_ns_per_particle", ns(ph.accumulate)),
        ])
    };

    // 2-D standard: standard field arrays, row-major — a reference variant.
    let cfg = workloads::table1(particles, grid, Ordering::RowMajor);
    let standard = Variant {
        particles: ParticleLayout::Soa,
        fields: FieldLayout::Standard,
        loops: LoopStructure::Split,
        push: PositionUpdate::Branchless,
        hoisted: false, // the standard layout has no pre-scaled redundant copy
    };
    let ph = run_case("2d standard", cfg, Some(standard), iters, &mut t)?;
    rows.push(json_row("2d standard", &ph));

    // Redundant layout under each ordering.
    for ordering in Ordering::paper_set() {
        let cfg = workloads::table1(particles, grid, ordering);
        let ph = run_case(&ordering.to_string(), cfg, None, iters, &mut t)?;
        rows.push(json_row(&ordering.to_string(), &ph));
    }
    t.print();

    let doc = Json::obj([
        ("bench", Json::s("table3_loop_times")),
        ("particles", Json::Int(particles as i64)),
        ("grid", Json::Int(grid as i64)),
        ("iters", Json::Int(iters as i64)),
        ("results", Json::Arr(rows)),
    ]);
    let path = results_path("BENCH_table3.json");
    write_json_file(&path, &doc).map_err(|e| PicError::Io(format!("{}: {e}", path.display())))?;
    println!("# wrote {}", path.display());

    if args.has("l4d-sweep") {
        println!("\n# L4D SIZE sweep (paper: SIZE=8 best on Haswell)");
        let mut t = Table::new(&["SIZE", "Update v", "Update x", "Accumulate", "Total"]);
        for size in [4usize, 8, 16, 32] {
            let cfg = workloads::table1(particles, grid, Ordering::L4D(size));
            run_case(&format!("L4D SIZE={size}"), cfg, None, iters, &mut t)?;
        }
        t.print();
    }
    Ok(())
}
