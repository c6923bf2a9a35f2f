//! Two-stream instability — the paper's second physics test case: two
//! counter-streaming electron beams drive an exponentially growing
//! electrostatic wave that eventually traps particles and saturates.
//!
//! ```sh
//! cargo run --release --example two_stream [-- --csv]
//! ```

use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::PicError;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), PicError> {
    let csv = std::env::args().any(|a| a == "--csv");

    let mut cfg = PicConfig::two_stream(500_000);
    cfg.grid_nx = 64;
    cfg.grid_ny = 16;
    cfg.dt = 0.05;
    let mut sim = Simulation::new(cfg)?;

    let mut vx_spread_initial = None;
    let steps = 700; // t = 35
    for step in 0..steps {
        sim.step();
        if step == 0 {
            vx_spread_initial = Some(vx_percentiles(&sim));
        }
    }

    if csv {
        println!("t,ex_mode,field_energy,kinetic");
        for s in &sim.diagnostics().history {
            println!(
                "{},{:.6e},{:.6e},{:.6e}",
                s.time, s.ex_mode, s.field, s.kinetic
            );
        }
    }

    let d = sim.diagnostics();
    let growth = d
        .mode_amplitude_rate(5.0, 20.0)
        .ok_or_else(|| PicError::Diverged("no diagnostic samples in the fit window".into()))?;
    let h = &d.history;
    eprintln!("two-stream instability (v0 = 3, k = 0.2):");
    eprintln!("  mode amplitude t=0 : {:.3e}", h[0].ex_mode);
    eprintln!("  mode amplitude t=20: {:.3e}", h[400].ex_mode);
    eprintln!("  measured growth rate in [5,20]: {growth:.4} (must be > 0)");
    assert!(growth > 0.0, "two-stream must be unstable");

    // Saturation: the field stops growing exponentially late in the run.
    let late = d.mode_amplitude_rate(25.0, 35.0).unwrap_or(0.0);
    eprintln!("  late-time envelope rate: {late:.4} (saturation: well below the linear rate)");

    // Particle trapping heats the beams: the vx distribution spreads.
    // Set on the first loop iteration, and steps > 0.
    let (p10_0, p90_0) = vx_spread_initial.expect("recorded at step 0");
    let (p10, p90) = vx_percentiles(&sim);
    eprintln!("  beam spread (10th..90th vx percentile): initial [{p10_0:.2}, {p90_0:.2}] -> final [{p10:.2}, {p90:.2}]");
    Ok(())
}

/// 10th and 90th percentile of physical vx (stored in cells per step).
fn vx_percentiles(sim: &Simulation) -> (f64, f64) {
    let scale = sim.grid().dx() / sim.config().dt;
    let mut v: Vec<f64> = sim.particles().vx.iter().map(|&u| u * scale).collect();
    v.sort_by(f64::total_cmp);
    (v[v.len() / 10], v[9 * v.len() / 10])
}
