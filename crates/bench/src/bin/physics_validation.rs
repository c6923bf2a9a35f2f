//! Physics validation — the checks the paper cites (§IV, before Table I):
//! numerical conservation of total energy and the evolution of the electric
//! field for linear/nonlinear Landau damping and the two-stream instability.
//!
//! Usage: physics_validation [--particles N] [--quick] [--seed S]
//!
//! Expected: linear Landau mode damps at γ ≈ −0.153 (k = 0.5); nonlinear
//! Landau damps then rebounds; two-stream fundamental grows exponentially;
//! total energy drift stays at the per-mille level. The "Expected" column
//! states each row's pass criterion; the process exits non-zero when any
//! row reads FAIL, so the binary works as a check.

use pic_bench::cli::Args;
use pic_bench::table::Table;
use pic_core::sim::{PicConfig, Simulation};
use pic_core::PicError;
use spectral::dispersion;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut fails = 0;
    let code = pic_bench::exit_on_error(|| {
        fails = run()?;
        Ok(())
    });
    if fails > 0 {
        eprintln!("error: {fails} row(s) FAIL");
        return ExitCode::FAILURE;
    }
    code
}

/// Run every case and print the table; returns the number of FAIL rows.
fn run() -> Result<usize, PicError> {
    let args = Args::from_env();
    let quick = args.has("quick");
    let particles = args.get("particles", if quick { 100_000 } else { 1_000_000 });
    let seed = args.get("seed", PicConfig::landau_table1(1).seed);
    let mut fails = 0;
    let mut verdict = |ok: bool| -> String {
        fails += usize::from(!ok);
        if ok { "OK" } else { "FAIL" }.into()
    };

    println!("# Physics validation ({particles} particles, seed {seed})");
    let mut t = Table::new(&["Case", "Quantity", "Measured", "Expected", "Verdict"]);

    // ---- Linear Landau damping ----
    eprintln!("linear Landau ...");
    let mut cfg = PicConfig::landau_table1(particles);
    cfg.grid_nx = 64;
    cfg.grid_ny = 16;
    cfg.dt = 0.05;
    cfg.seed = seed;
    let mut sim = Simulation::new(cfg)?;
    sim.run(300); // t = 15
    let gamma = sim
        .diagnostics()
        .mode_envelope_rate(0.0, 12.0)
        .unwrap_or(f64::NAN);
    let drift = sim.diagnostics().relative_energy_drift();
    // Analytic rate from the plasma dispersion function (not hard-coded).
    // k = 0.5 is well inside the root-finder's convergent range.
    let gamma_theory =
        dispersion::landau_damping_rate(0.5).expect("Z-function root exists at k=0.5");
    let ok = (gamma - gamma_theory).abs() < 0.05;
    t.row(&[
        "Linear Landau (a=0.01, k=0.5)".into(),
        "damping rate".into(),
        format!("{gamma:.3}"),
        format!("{gamma_theory:.4} ± 0.05 (Z-function root)"),
        verdict(ok),
    ]);
    let ok = drift < 0.01;
    t.row(&[
        "Linear Landau".into(),
        "energy drift".into(),
        format!("{:.2e}", drift),
        "< 1e-2".into(),
        verdict(ok),
    ]);

    // ---- Nonlinear Landau damping ----
    eprintln!("nonlinear Landau ...");
    let mut cfg = PicConfig::landau_nonlinear(particles);
    cfg.grid_nx = 64;
    cfg.grid_ny = 16;
    cfg.dt = 0.05;
    cfg.seed = seed;
    let mut sim = Simulation::new(cfg)?;
    sim.run(800); // t = 40
    let early = sim
        .diagnostics()
        .mode_envelope_rate(0.0, 10.0)
        .unwrap_or(f64::NAN);
    let late = sim
        .diagnostics()
        .mode_envelope_rate(15.0, 35.0)
        .unwrap_or(f64::NAN);
    let ok = early < -0.1 && late > early;
    t.row(&[
        "Nonlinear Landau (a=0.5)".into(),
        "initial decay / later growth".into(),
        format!("{early:.3} / {late:.3}"),
        "< -0.1 (~-0.29), then later > initial".into(),
        verdict(ok),
    ]);

    // ---- Two-stream instability ----
    eprintln!("two-stream ...");
    let mut cfg = PicConfig::two_stream(particles);
    cfg.grid_nx = 64;
    cfg.grid_ny = 16;
    cfg.dt = 0.05;
    cfg.seed = seed;
    let mut sim = Simulation::new(cfg)?;
    sim.run(600); // t = 30

    // Purely growing mode: fit ln|A| directly (no oscillation peaks).
    let growth = sim
        .diagnostics()
        .mode_amplitude_rate(5.0, 20.0)
        .unwrap_or(f64::NAN);
    let h = &sim.diagnostics().history;
    let gain = h[400].ex_mode / h[0].ex_mode;
    let ok = growth > 0.05 && gain > 20.0;
    t.row(&[
        "Two-stream (v0=3, k=0.2)".into(),
        "growth rate / gain by t=20".into(),
        format!("{growth:.3} / x{gain:.1}"),
        "> 0.05 and > x20".into(),
        verdict(ok),
    ]);

    t.print();
    Ok(fails)
}
