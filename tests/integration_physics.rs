//! Cross-crate integration tests: the full PIC loop (pic-core + spectral +
//! sfc) must produce identical physics for every configuration, and correct
//! plasma physics overall. (The paper's ablation variants — AoS, standard
//! arrays, fused loop, naive pushes — are held to the same ρ by the oracle
//! test in `pic_bench::reference`.)

use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::sfc::Ordering;

fn base_cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg
}

fn rho_after(cfg: PicConfig, steps: usize) -> Vec<f64> {
    let mut sim = Simulation::new(cfg).unwrap();
    sim.run(steps);
    sim.rho().to_vec()
}

#[test]
fn every_configuration_computes_the_same_physics() {
    // The paper's whole premise: the optimizations change performance, not
    // results. Every cell ordering `PicConfig` keeps must agree on ρ after
    // 4 steps (the paper's own ablation variants are held to the same ρ by
    // `pic_bench::reference`, the deposit kernels by `parity_kernel_path`).
    let reference = rho_after(base_cfg(2_000), 4);
    for ordering in Ordering::paper_set() {
        let mut cfg = base_cfg(2_000);
        cfg.ordering = ordering;
        let rho = rho_after(cfg, 4);
        for i in 0..reference.len() {
            assert!(
                (rho[i] - reference[i]).abs() < 1e-8,
                "{ordering}: rho[{i}] = {} vs {}",
                rho[i],
                reference[i]
            );
        }
    }
}

#[test]
fn l4d_tile_size_does_not_change_physics() {
    let reference = rho_after(base_cfg(1_500), 3);
    for size in [4usize, 8, 16] {
        let mut cfg = base_cfg(1_500);
        cfg.ordering = Ordering::L4D(size);
        let rho = rho_after(cfg, 3);
        for i in 0..reference.len() {
            assert!((rho[i] - reference[i]).abs() < 1e-9, "SIZE={size} rho[{i}]");
        }
    }
}

/// The seeds the statistical physics tests sweep: the configuration's own
/// default and seven more. One realization of a few hundred thousand
/// markers scatters a fitted rate by several hundredths, so a claim about
/// the physics is made over the sweep, not on one lucky draw.
fn swept_seeds() -> Vec<u64> {
    std::iter::once(PicConfig::landau_table1(1).seed)
        .chain(1..=7)
        .collect()
}

/// `run` on every swept seed, two seeds at a time; results in seed order.
fn over_seeds<T: Send>(run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let seeds = swept_seeds();
    let (first, second) = seeds.split_at(seeds.len() / 2);
    std::thread::scope(|s| {
        let other = s.spawn(|| second.iter().map(|&seed| run(seed)).collect::<Vec<T>>());
        let mut out: Vec<T> = first.iter().map(|&seed| run(seed)).collect();
        out.extend(other.join().unwrap());
        out
    })
}

#[test]
fn landau_damping_rate_matches_theory() {
    // γ ≈ −0.1533 for k = 0.5 — the validation the paper cites (§IV). The
    // median over the sweep must sit within 0.06 of the Z-function root.
    let theory = pic2d::spectral::dispersion::landau_damping_rate(0.5).unwrap();
    let mut rates = over_seeds(|seed| {
        let mut cfg = PicConfig::landau_table1(400_000);
        cfg.grid_nx = 64;
        cfg.grid_ny = 16;
        cfg.dt = 0.05;
        cfg.seed = seed;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(240); // t = 12
        sim.diagnostics().mode_envelope_rate(0.0, 11.0).unwrap()
    });
    eprintln!("linear Landau rates over the sweep: {rates:.3?}");
    rates.sort_by(f64::total_cmp);
    let median = 0.5 * (rates[3] + rates[4]);
    assert!(
        (median - theory).abs() < 0.06,
        "median Landau rate {median} over {rates:?}, Z-function theory {theory}"
    );
}

#[test]
fn two_stream_grows() {
    // The fundamental must grow at least ×10 by t = 20 — a rate of
    // ln 10 / 20 — on every seed of the sweep. The rate is a least-squares
    // fit of ln|Ex mode| over t ∈ [5, 20], not a ratio of two samples.
    let bar = 10f64.ln() / 20.0;
    let rates = over_seeds(|seed| {
        let mut cfg = PicConfig::two_stream(100_000);
        cfg.grid_nx = 64;
        cfg.grid_ny = 16;
        cfg.dt = 0.05;
        cfg.seed = seed;
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(400); // t = 20
        sim.diagnostics().mode_amplitude_rate(5.0, 20.0).unwrap()
    });
    eprintln!("two-stream rates over the sweep: {rates:.3?}");
    for (seed, rate) in swept_seeds().into_iter().zip(&rates) {
        assert!(
            *rate > bar,
            "seed {seed}: two-stream rate {rate} below ln 10 / 20 = {bar}"
        );
    }
}

#[test]
fn total_energy_is_conserved() {
    let mut cfg = base_cfg(30_000);
    cfg.dt = 0.05;
    let mut sim = Simulation::new(cfg).unwrap();
    sim.run(100);
    let drift = sim.diagnostics().relative_energy_drift();
    assert!(drift < 0.01, "energy drift {drift}");
}

#[test]
fn momentum_stays_near_zero() {
    // A symmetric Maxwellian carries no net momentum; the self-consistent
    // field must not create any (up to sampling noise).
    let mut cfg = base_cfg(50_000);
    cfg.distribution = pic2d::pic_core::particles::InitialDistribution::Uniform;
    let mut sim = Simulation::new(cfg).unwrap();
    let px0: f64 = sim.particles().vx.iter().sum();
    sim.run(20);
    let px: f64 = sim.particles().vx.iter().sum();
    let n = sim.particles().vx.len() as f64;
    // Velocities are grid-units/step here; compare drift per particle.
    assert!(
        ((px - px0) / n).abs() < 1e-3,
        "net momentum drift per particle: {}",
        (px - px0) / n
    );
}
