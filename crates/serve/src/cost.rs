//! Admission-time cost estimation from the calibrated analytic model.
//!
//! Early versions of the scheduler ranked jobs by *declared remaining
//! steps* — honest tenants only, and blind to the fact that a step of a
//! 100k-particle job costs far more than a step of a 1k-particle one. The
//! estimator below prices a quantum the way the paper prices a PIC step:
//! a per-particle term (push + deposit), a per-cell term (field solve and
//! ρ reduction), both divided across the shared pool, plus the step's one
//! ρ allreduce from
//! [`minimpi::cost::CostModel::allreduce`] — the same LogGP tree formula
//! the scaling projections use. The compute coefficients start at
//! plausible defaults and are recalibrated online from every committed
//! quantum's wall time ([`CostEstimator::observe`]), so the ranking
//! converges to this machine's actual throughput.

use minimpi::cost::CostModel;

/// Exponential-moving-average weight of one new calibration sample.
const EMA: f64 = 0.3;

/// Online-calibrated cost model for one scheduling quantum.
#[derive(Debug, Clone)]
pub struct CostEstimator {
    /// Seconds of single-thread compute per particle per step.
    per_particle_step: f64,
    /// Seconds of single-thread compute per grid cell per step.
    per_cell_step: f64,
    /// Communication model for the per-step ρ reduction.
    comm: CostModel,
    /// Worker-pool width the compute terms are divided by.
    threads: usize,
    /// Committed calibration samples absorbed so far.
    samples: u64,
}

impl CostEstimator {
    /// An estimator for a pool of `threads` workers, seeded with
    /// plausible-order defaults (≈20 ns per particle-step, ≈50 ns per
    /// cell-step) and the Curie-like communication constants. The seeds
    /// only matter until the first [`observe`](Self::observe): ratios
    /// between jobs are already meaningful because every estimate uses
    /// the same coefficients.
    pub fn new(threads: usize) -> Self {
        Self {
            per_particle_step: 2.0e-8,
            per_cell_step: 5.0e-8,
            comm: CostModel::curie_like(),
            threads: threads.max(1),
            samples: 0,
        }
    }

    /// Estimated wall seconds to run `steps` steps of a job with
    /// `particles` markers over `cells` grid cells. Both kinds reduce one
    /// grid array (ρ) per step: the EM kind deposits **J** only on request.
    pub fn estimate(&self, particles: usize, cells: usize, steps: u64) -> f64 {
        let compute = (particles as f64 * self.per_particle_step
            + cells as f64 * self.per_cell_step)
            / self.threads as f64;
        steps as f64 * (compute + self.comm_per_step(cells))
    }

    /// Modelled wall seconds of one step's ρ allreduce over `cells` cells.
    fn comm_per_step(&self, cells: usize) -> f64 {
        self.comm
            .allreduce(self.threads, cells * std::mem::size_of::<f64>())
    }

    /// Absorb the measured wall time of one committed quantum: subtract
    /// the modelled communication, attribute the rest to compute, and
    /// EMA-update the per-particle coefficient (holding the per-cell /
    /// per-particle ratio fixed — quanta don't vary the two
    /// independently, so a one-dimensional update is all the signal
    /// supports). Faulted quanta must not be observed — their wall time
    /// includes injected stalls, not throughput.
    pub fn observe(&mut self, particles: usize, cells: usize, steps: u64, elapsed_secs: f64) {
        if steps == 0 || particles == 0 || !elapsed_secs.is_finite() || elapsed_secs <= 0.0 {
            return;
        }
        let compute_per_step = (elapsed_secs / steps as f64 - self.comm_per_step(cells)).max(0.0);
        // compute_per_step = (p·a + c·(ratio·a)) / threads, solve for a.
        let ratio = self.per_cell_step / self.per_particle_step;
        let denom = particles as f64 + cells as f64 * ratio;
        let a = compute_per_step * self.threads as f64 / denom;
        if !a.is_finite() || a <= 0.0 {
            return;
        }
        self.per_particle_step = (1.0 - EMA) * self.per_particle_step + EMA * a;
        self.per_cell_step = ratio * self.per_particle_step;
        self.samples += 1;
    }

    /// Calibration samples absorbed so far (0 means the estimator still
    /// runs on its seed coefficients).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current per-particle-step compute coefficient, seconds.
    pub fn per_particle_step(&self) -> f64 {
        self.per_particle_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_jobs_cost_more() {
        let est = CostEstimator::new(4);
        let small = est.estimate(1_000, 256, 10);
        let big = est.estimate(100_000, 256, 10);
        // 100× the particles: not a full 100× (cell + comm terms are
        // shared) but far beyond any per-step constant.
        assert!(big > small * 20.0, "{big} vs {small}");
        // More steps scale linearly.
        assert!((est.estimate(1_000, 256, 20) - 2.0 * small).abs() < 1e-12);
    }

    #[test]
    fn observation_converges_to_measured_throughput() {
        let mut est = CostEstimator::new(1);
        // Pretend the machine really runs 1 µs per particle-step (50×
        // slower than the seed): repeated observations must converge.
        let (p, c) = (10_000, 256);
        let true_per_particle = 1.0e-6;
        let ratio = est.per_cell_step / est.per_particle_step;
        let elapsed_per_step = p as f64 * true_per_particle + c as f64 * ratio * true_per_particle;
        for _ in 0..40 {
            est.observe(p, c, 16, 16.0 * elapsed_per_step);
        }
        let rel = (est.per_particle_step() - true_per_particle).abs() / true_per_particle;
        assert!(
            rel < 0.01,
            "per-particle {} rel {rel}",
            est.per_particle_step()
        );
        assert_eq!(est.samples(), 40);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut est = CostEstimator::new(2);
        let before = est.per_particle_step();
        est.observe(0, 256, 16, 1.0);
        est.observe(1_000, 256, 0, 1.0);
        est.observe(1_000, 256, 16, f64::NAN);
        est.observe(1_000, 256, 16, -1.0);
        assert_eq!(est.per_particle_step(), before);
        assert_eq!(est.samples(), 0);
    }
}
