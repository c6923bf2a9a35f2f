//! Multi-species 2d3v electromagnetic validation gate.
//!
//! Runs the four checkpointable validation scenarios of
//! [`pic_core::em::EmConfig`] — cyclotron motion, magnetized two-stream,
//! bump-on-tail, and ion-acoustic waves — and gates on:
//!
//! * **cyclotron closed forms** — the simulated gyro-period and
//!   gyro-radius match `2πm/(|q|B)` and `v₀m/(|q|B)` within 1 %, and the
//!   Boris rotation conserves speed to rounding;
//! * **two-stream growth** — mode 1 of `E_x` grows through the linear
//!   phase (qualitative instability check);
//! * **per-species conservation** — total charge is exactly conserved
//!   (markers are never lost), the axial momentum component is untouched
//!   by `B ∥ ẑ`, and the unmagnetized scenarios conserve total momentum
//!   across the species exchange;
//! * **checkpoint determinism** — a mid-run snapshot resumes to a
//!   byte-identical final checkpoint in every scenario;
//! * **deposit parity** — one `LaneReduce` deposit stays within the
//!   reassociation bound of the exact order (bit-identity of a step to the
//!   scalar reference kernels is `tests/integration_species.rs`'s oracle).
//!
//! Results land in `results/BENCH_species.json`.
//!
//! Usage: bench_species [--particles N]

use pic_bench::cli::Args;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::Table;
use pic_core::em::{EmConfig, EmSimulation};
use pic_core::kernels::current::select_current_kernel;
use pic_core::kernels::deposit::{select_kernel, DepositPath};
use pic_core::sim::KernelPath;
use pic_core::PicError;
use std::f64::consts::PI;

fn gate(cond: bool, what: &str) -> Result<(), PicError> {
    if cond {
        Ok(())
    } else {
        Err(PicError::Diverged(format!("species gate: {what}")))
    }
}

/// Upper-bound scale for total-momentum drift: per species
/// `√(2·E_kin·m·N) = m·w·√(n·Σ|v|²) ≥ |Σ m·w·v|` by Cauchy–Schwarz.
fn momentum_scale(sim: &EmSimulation) -> f64 {
    sim.config()
        .species
        .iter()
        .zip(sim.moments())
        .map(|(def, m)| (2.0 * m.kinetic * def.mass * m.number).sqrt())
        .sum::<f64>()
        .max(f64::MIN_POSITIVE)
}

/// Conservation + mid-run checkpoint/restore gates shared by every
/// scenario. Returns the per-scenario JSON fragment.
fn run_scenario(t: &mut Table, name: &str, cfg: EmConfig, steps: usize) -> Result<Json, PicError> {
    let mut sim = EmSimulation::new(cfg.clone())?;
    let p0 = sim.total_momentum();
    let pscale = momentum_scale(&sim);

    let half = steps / 2;
    sim.run(half);
    let snap = sim.checkpoint();
    sim.run(steps - half);
    let final_ckpt = sim.checkpoint();

    let mut resumed = EmSimulation::from_snapshot(cfg.clone(), &snap)?;
    resumed.run(steps - half);
    let ckpt_exact = resumed.checkpoint() == final_ckpt;
    gate(
        ckpt_exact,
        &format!("{name}: mid-run checkpoint did not resume bit-exactly"),
    )?;

    let qscale = sim
        .moments()
        .iter()
        .map(|m| m.charge.abs())
        .sum::<f64>()
        .max(1.0);
    let charge_drift = (sim.total_charge() - sim.charge_reference()).abs() / qscale;
    gate(
        charge_drift < 1e-9,
        &format!("{name}: charge drift {charge_drift:.2e}"),
    )?;

    let p1 = sim.total_momentum();
    let magnetized = cfg.b0 != [0.0; 3];
    let (which, pdrift, ptol) = if magnetized {
        // B only rotates p⟂; with B ∥ ẑ and Ez = 0 the axial component
        // is bit-for-bit untouched by the Boris rotation.
        ("pz", (p1[2] - p0[2]).abs() / pscale, 1e-12)
    } else {
        let d =
            ((p1[0] - p0[0]).powi(2) + (p1[1] - p0[1]).powi(2) + (p1[2] - p0[2]).powi(2)).sqrt();
        ("|p|", d / pscale, 1e-6)
    };
    gate(
        pdrift < ptol,
        &format!("{name}: momentum ({which}) drift {pdrift:.2e} ≥ {ptol:.0e}"),
    )?;

    let energy_drift = if cfg.solve_e {
        let d = sim.diagnostics().relative_energy_drift();
        gate(d < 0.05, &format!("{name}: energy drift {d:.3}"))?;
        d
    } else {
        0.0
    };

    t.row(&[
        name.into(),
        format!("{} steps", steps),
        format!("q {charge_drift:.1e} / {which} {pdrift:.1e}"),
        format!("E {energy_drift:.4}"),
        "OK".into(),
    ]);

    Ok(Json::obj([
        ("steps", Json::Int(steps as i64)),
        ("checkpoint_bit_exact", Json::Bool(ckpt_exact)),
        ("charge_drift", Json::Num(charge_drift)),
        ("momentum_component", Json::s(which)),
        ("momentum_drift", Json::Num(pdrift)),
        ("energy_drift", Json::Num(energy_drift)),
    ]))
}

/// The bounded `LaneReduce` reassociation check on the simulation's own
/// stores: after `steps`, ρ and **J** deposited by the step's kernel and
/// by the scalar exact one may differ only by summation reassociation.
fn deposit_parity(name: &str, cfg: &EmConfig, steps: usize) -> Result<Json, PicError> {
    let mut sim = EmSimulation::new(cfg.clone())?;
    sim.run(steps);
    let ncells = sim.cell_layout().ncells();
    // Every species into one ρ₄ and one J₁₂, flattened to `[ρ, Jx, Jy, Jz]`.
    let deposit = |path| {
        let (rho_kernel, j_kernel) = (
            select_kernel(path, KernelPath::Scalar),
            select_current_kernel(path, KernelPath::Scalar),
        );
        let mut rho4 = vec![[0.0; 4]; ncells];
        let mut j12 = vec![[0.0; 12]; ncells];
        for s in sim.species() {
            let (p, w) = (&s.p, s.deposit_weight(sim.grid()));
            rho_kernel(&p.icell, &p.dx, &p.dy, &mut rho4, w);
            j_kernel(&p.icell, &p.dx, &p.dy, &p.vx, &p.vy, &s.vz, &mut j12, w);
        }
        let j = |c: usize| {
            j12.iter()
                .flat_map(|r| r[4 * c..4 * c + 4].iter().copied())
                .collect()
        };
        let rho: Vec<f64> = rho4.into_iter().flatten().collect();
        [rho, j(0), j(1), j(2)]
    };
    let rel_diff = |x: &[f64], y: &[f64]| {
        let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        x.iter()
            .zip(y)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / scale
    };
    let (exact, lane) = (
        deposit(DepositPath::Exact),
        deposit(DepositPath::LaneReduce),
    );
    let max_rel = (exact.iter().zip(&lane))
        .map(|(e, l)| rel_diff(e, l))
        .fold(0.0f64, f64::max);
    gate(
        max_rel < 1e-9,
        &format!("{name}: LaneReduce deposit off by {max_rel:.2e} relative"),
    )?;

    Ok(Json::obj([("lane_reduce_max_rel", Json::Num(max_rel))]))
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let particles: usize = args.get("particles", 4_000);
    let mut t = Table::new(&[
        "Scenario",
        "Run",
        "Drift (charge/momentum)",
        "Energy",
        "Verdict",
    ]);
    let mut scenarios: Vec<(&str, Json)> = Vec::new();

    // ---- Cyclotron: closed-form gyro-period and gyro-radius ----
    eprintln!("cyclotron ...");
    let cyc_cfg = EmConfig::cyclotron(particles.min(1_024));
    let dt = cyc_cfg.dt;
    let mut sim = EmSimulation::new(cyc_cfg.clone())?;
    let steps = 126; // ≈ one analytic period 2π at dt = 0.05
    let mut prev = sim.moments()[0].mean_v;
    let mut total_rotation = 0.0;
    let (mut x, mut min_x, mut max_x) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..steps {
        sim.step();
        let cur = sim.moments()[0].mean_v;
        // Per-step rotation of the mean velocity, wrapped to (−π, π].
        let da = cur[1].atan2(cur[0]) - prev[1].atan2(prev[0]);
        total_rotation += (da + PI).rem_euclid(2.0 * PI) - PI;
        prev = cur;
        // Integrated mean displacement: its x-extent spans one diameter.
        x += dt * cur[0];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
    }
    let period = steps as f64 * dt * 2.0 * PI / total_rotation.abs();
    let period_rel = (period - 2.0 * PI).abs() / (2.0 * PI);
    gate(
        period_rel < 0.01,
        &format!("cyclotron: gyro-period {period:.5} vs 2π ({period_rel:.2e} rel)"),
    )?;
    let radius = (max_x - min_x) / 2.0;
    let radius_rel = (radius - 0.5).abs() / 0.5;
    gate(
        radius_rel < 0.01,
        &format!("cyclotron: gyro-radius {radius:.5} vs 0.5 ({radius_rel:.2e} rel)"),
    )?;
    let m0 = sim.moments()[0];
    let speed = (m0.mean_v[0].powi(2) + m0.mean_v[1].powi(2)).sqrt();
    gate(
        (speed - 0.5).abs() < 1e-12,
        &format!("cyclotron: speed {speed} not conserved"),
    )?;
    t.row(&[
        "cyclotron".into(),
        format!("{steps} steps"),
        format!("T {period_rel:.1e} / r {radius_rel:.1e}"),
        "exact".into(),
        "OK".into(),
    ]);
    let mut cyc_json = match run_scenario(&mut t, "cyclotron-conservation", cyc_cfg.clone(), 64)? {
        Json::Obj(pairs) => pairs,
        _ => unreachable!(),
    };
    cyc_json.push(("gyro_period_rel".into(), Json::Num(period_rel)));
    cyc_json.push(("gyro_radius_rel".into(), Json::Num(radius_rel)));
    scenarios.push(("cyclotron", Json::Obj(cyc_json)));

    // ---- Magnetized two-stream: qualitative instability growth ----
    eprintln!("magnetized two-stream ...");
    // The growth gate needs the seeded mode above the marker noise floor,
    // so it runs at ≥ 40 k electrons regardless of the CLI knob.
    let ts_cfg = EmConfig::magnetized_two_stream(particles.max(40_000));
    let mut ts = EmSimulation::new(ts_cfg.clone())?;
    ts.run(500); // t = 25: linear growth, saturation, trapping oscillations
    let h = &ts.diagnostics().history;
    let peak = h.iter().map(|s| s.ex_mode).fold(0.0f64, f64::max);
    let growth_factor = peak / h[0].ex_mode.max(f64::MIN_POSITIVE);
    gate(
        growth_factor > 5.0,
        &format!("two-stream: mode 1 peaked only {growth_factor:.1}× above its seed"),
    )?;
    let growth_rate = ts
        .diagnostics()
        .mode_amplitude_rate(5.0, 15.0)
        .unwrap_or(f64::NAN);
    gate(
        growth_rate > 0.03,
        &format!("two-stream: linear-phase growth rate {growth_rate:.3} ≤ 0.03"),
    )?;
    let mut ts_json = match run_scenario(&mut t, "magnetized-two-stream", ts_cfg.clone(), 200)? {
        Json::Obj(pairs) => pairs,
        _ => unreachable!(),
    };
    ts_json.push(("mode1_growth_factor".into(), Json::Num(growth_factor)));
    scenarios.push(("magnetized_two_stream", Json::Obj(ts_json)));

    // ---- Bump-on-tail and ion-acoustic: conservation + checkpoints ----
    eprintln!("bump-on-tail ...");
    let bot_cfg = EmConfig::bump_on_tail(particles);
    scenarios.push((
        "bump_on_tail",
        run_scenario(&mut t, "bump-on-tail", bot_cfg.clone(), 200)?,
    ));
    eprintln!("ion-acoustic ...");
    let ia_cfg = EmConfig::ion_acoustic(particles);
    scenarios.push((
        "ion_acoustic",
        run_scenario(&mut t, "ion-acoustic", ia_cfg.clone(), 200)?,
    ));

    // ---- Exact-vs-LaneReduce deposit parity on every scenario ----
    let mut parity: Vec<(&str, Json)> = Vec::new();
    for (name, cfg) in [
        ("cyclotron", &cyc_cfg),
        ("magnetized_two_stream", &ts_cfg),
        ("bump_on_tail", &bot_cfg),
        ("ion_acoustic", &ia_cfg),
    ] {
        eprintln!("parity: {name} ...");
        parity.push((name, deposit_parity(name, cfg, 24)?));
    }
    t.row(&[
        "deposit parity".into(),
        "4 scenarios".into(),
        "-".into(),
        "bounded (LaneReduce)".into(),
        "OK".into(),
    ]);
    t.print();

    let json = Json::obj([
        ("bench", Json::s("species")),
        ("particles", Json::Int(particles as i64)),
        (
            "scenarios",
            Json::Obj(
                scenarios
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        (
            "parity",
            Json::Obj(
                parity
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ]);
    let path = results_path("BENCH_species.json");
    write_json_file(&path, &json).map_err(|e| PicError::Io(e.to_string()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}
