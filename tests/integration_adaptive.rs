//! End-to-end tests of the online sort-cadence controller: bit-exact
//! checkpoint/restore of controller-driven runs under the default profile,
//! and resume of the recorded hot-path knobs.

use pic2d::pic_core::control::ControllerConfig;
use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::sim::{DepositPath, PicConfig, Simulation};

/// The default profile with a sort every few steps, so short runs cross
/// several controller-chosen sort boundaries.
fn fast_sorting() -> ControllerConfig {
    ControllerConfig {
        min_sort_spacing: 2,
        max_sort_spacing: 6,
        ..ControllerConfig::default()
    }
}

/// A checkpoint taken mid-window records the knobs active at that
/// moment — here a deposit path switched at run time — as metadata;
/// restoring into a simulation built from the *original* config resumes
/// them, and the controller with them, instead of resetting.
#[test]
fn restore_resumes_mid_adaptation_hot_path_knobs() {
    let mut cfg = PicConfig::landau_table1(3_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.controller = Some(fast_sorting());
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(20);
    sim.set_deposit_path(DepositPath::Exact);
    sim.run(20);
    assert_eq!(
        sim.config().deposit_path,
        DepositPath::Exact,
        "the controller leaves the deposit path where the caller put it"
    );
    let since = sim.controller().unwrap().steps_since_sort();
    let snap = sim.checkpoint();

    // Fresh simulation from the original config.
    let mut resumed = Simulation::new(cfg).unwrap();
    assert_eq!(resumed.config().deposit_path, DepositPath::LaneReduce);
    resumed.restore(&snap).unwrap();
    assert_eq!(resumed.config().deposit_path, DepositPath::Exact);
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

/// An Exact-path controller run never leaves the Exact deposit — the
/// controller has no deposit arm — so adaptivity cannot perturb the
/// per-cell FP summation order the Exact contract promises.
#[test]
fn pinned_exact_controller_stays_exact_and_restores_bitwise() {
    let mut cfg = PicConfig::landau_table1(2_000);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.deposit_path = DepositPath::Exact;
    cfg.controller = Some(fast_sorting());

    let mut a = Simulation::new(cfg.clone()).unwrap();
    a.run(20);
    assert_eq!(a.config().deposit_path, DepositPath::Exact);
    let snap = a.checkpoint();
    a.run(20);
    assert_eq!(a.config().deposit_path, DepositPath::Exact);

    let mut b = Simulation::new(cfg).unwrap();
    b.restore(&snap).unwrap();
    b.run(20);
    assert_eq!(a.checkpoint(), b.checkpoint());
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
