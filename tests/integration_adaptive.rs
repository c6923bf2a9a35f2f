//! End-to-end tests of the online sort-cadence controller: bit-exact
//! checkpoint/restore of controller-driven runs under the default profile,
//! and resume of the recorded hot-path knobs.

use pic2d::pic_core::control::ControllerConfig;
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::sim::{PicConfig, Simulation};

/// The default profile with a sort every few steps, so short runs cross
/// several controller-chosen sort boundaries.
fn fast_sorting() -> ControllerConfig {
    ControllerConfig {
        min_sort_spacing: 2,
        max_sort_spacing: 6,
        ..ControllerConfig::default()
    }
}

/// A checkpoint taken mid-window records the controller's decision state
/// as metadata; restoring into a simulation built from the *original*
/// config resumes it mid-window instead of resetting, and replays the
/// uninterrupted run bit for bit.
#[test]
fn restore_resumes_mid_adaptation_hot_path_knobs() {
    let mut cfg = PicConfig::landau_table1(3_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.controller = Some(fast_sorting());
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(40);
    let since = sim.controller().unwrap().steps_since_sort();
    assert!(since > 0, "the checkpoint must fall mid-window");
    let snap = sim.checkpoint();

    // Fresh simulation from the original config.
    let mut resumed = Simulation::new(cfg).unwrap();
    resumed.restore(&snap).unwrap();
    let c = resumed
        .controller()
        .expect("controller must survive the restore");
    assert_eq!(c.steps_since_sort(), since, "mid-window, not reset");

    sim.run(20);
    resumed.run(20);
    assert_eq!(sim.checkpoint(), resumed.checkpoint());
}

/// `set_sort_period` is recorded as checkpoint metadata (not identity):
/// a restore adopts the period that was active at the checkpoint, even
/// without any controller.
#[test]
fn restore_adopts_recorded_sort_period() {
    let mut cfg = PicConfig::landau_table1(1_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 7;
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(3);
    sim.set_sort_period(13);
    let snap = sim.checkpoint();

    let mut resumed = Simulation::new(cfg).unwrap();
    assert_eq!(resumed.config().sort_period, 7);
    resumed.restore(&snap).unwrap();
    assert_eq!(
        resumed.config().sort_period,
        13,
        "restored run must resume the active sort period"
    );
    sim.run(20);
    resumed.run(20);
    assert_eq!(sim.checkpoint(), resumed.checkpoint());
}

/// The EM driver threads the same controller: a controller-driven
/// multi-species run restores bit-identically from a mid-run checkpoint.
#[test]
fn em_controller_run_restores_bit_identically() {
    let mut cfg = EmConfig::ion_acoustic(600);
    cfg.controller = Some(fast_sorting());

    let mut a = EmSimulation::new(cfg.clone()).unwrap();
    for _ in 0..25 {
        a.step();
    }
    let snap = a.checkpoint();
    for _ in 0..25 {
        a.step();
    }

    let mut b = EmSimulation::new(cfg).unwrap();
    b.restore(&snap).unwrap();
    for _ in 0..25 {
        b.step();
    }
    assert_eq!(a.checkpoint(), b.checkpoint());
}
