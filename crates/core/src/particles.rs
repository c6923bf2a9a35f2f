//! Particle storage (Structure-of-Arrays, §IV-C1) and initial
//! distributions.
//!
//! Each particle is a cell index plus normalized in-cell offsets (paper §II)
//! and a velocity. The cell coordinates `(ix, iy)` are stored explicitly as
//! well: the non-row-major layouts need them to recompute `icell` after a
//! move (paper §IV-B, the “3 extra seconds” of Table III), while the
//! row-major kernels simply ignore those arrays.
//!
//! Velocities are stored in *grid units per time step* when the coefficient
//! hoisting of §IV-D is enabled (`v_stored = v_phys·Δt/Δx`), or in physical
//! units otherwise; [`crate::sim::Simulation`] owns that convention.

use crate::grid::Grid2D;
use crate::rng::Rng;
use sfc::CellLayout;

/// Structure-of-Arrays storage (the layout that vectorizes, §IV-C1).
///
/// **Invariant:** every particle satisfies
/// `icell[i] == layout.encode(ix[i], iy[i])` under the store's active
/// layout. [`initialize_with_rng`] and [`reencode`] establish it, every
/// push kernel rewrites all three together, and migration moves whole
/// particles, so it holds at every step boundary. The out-of-place sort
/// ([`crate::sort`]) relies on it: `ix`/`iy` are functions of the sort key,
/// so it fills them per cell instead of permuting them (and checks the
/// invariant with a `debug_assert`). Code that writes the index columns
/// directly must keep the three consistent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticlesSoA {
    /// Flat cell indices.
    pub icell: Vec<u32>,
    /// Cell x-coordinates.
    pub ix: Vec<u32>,
    /// Cell y-coordinates.
    pub iy: Vec<u32>,
    /// In-cell x offsets.
    pub dx: Vec<f64>,
    /// In-cell y offsets.
    pub dy: Vec<f64>,
    /// x velocities.
    pub vx: Vec<f64>,
    /// y velocities.
    pub vy: Vec<f64>,
}

impl ParticlesSoA {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.icell.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.icell.is_empty()
    }

    /// Allocate `n` zeroed particles.
    pub fn zeroed(n: usize) -> Self {
        Self {
            icell: vec![0; n],
            ix: vec![0; n],
            iy: vec![0; n],
            dx: vec![0.0; n],
            dy: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
        }
    }
}

/// The physical test cases of the paper (§IV: linear/nonlinear Landau
/// damping and the two-stream instability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialDistribution {
    /// `f(x,v) ∝ (1 + α cos(k x)) exp(−|v|²/2)` — Landau damping.
    /// α = 0.01 is the linear regime, α = 0.5 the nonlinear one.
    Landau {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber along x (the domain must satisfy
        /// `Lx = 2π/k ×` integer).
        k: f64,
    },
    /// Two counter-streaming beams: `f ∝ (1 + α cos(kx)) [δ-ish beams ±v0]`,
    /// Gaussian-broadened with thermal spread `vt`.
    TwoStream {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber.
        k: f64,
        /// Beam drift speed.
        v0: f64,
        /// Thermal spread of each beam.
        vt: f64,
    },
    /// Spatially uniform Maxwellian (no perturbation) — useful for
    /// performance runs where physics is irrelevant.
    Uniform,
    /// A single drifting Maxwellian: density `∝ 1 + α cos(k x)`, mean
    /// x-velocity `v0x`, isotropic thermal spread `vt`. The building block
    /// for multi-species scenarios (beams, cold ion populations).
    DriftingMaxwellian {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber along x.
        k: f64,
        /// Mean drift velocity along x.
        v0x: f64,
        /// Isotropic thermal spread.
        vt: f64,
    },
}

impl InitialDistribution {
    /// The thermal spread this distribution samples velocities with —
    /// used to sample out-of-plane `vz` consistently with the in-plane
    /// components in 2d3v runs.
    pub fn thermal_spread(&self) -> f64 {
        match *self {
            InitialDistribution::Landau { .. } | InitialDistribution::Uniform => 1.0,
            InitialDistribution::TwoStream { vt, .. } => vt,
            InitialDistribution::DriftingMaxwellian { vt, .. } => vt,
        }
    }
}

/// Rejection-sample x in `[0, lx)` with density `∝ 1 + α cos(k x)`.
fn sample_perturbed_x(rng: &mut Rng, lx: f64, alpha: f64, k: f64) -> f64 {
    debug_assert!(alpha.abs() <= 1.0);
    loop {
        let x = rng.range(0.0, lx);
        let accept = rng.range(0.0, 1.0 + alpha.abs());
        if accept <= 1.0 + alpha * (k * x).cos() {
            return x;
        }
    }
}

/// Create `n` particles sampled from `dist` on `grid`, velocities in
/// *physical* units, positions encoded under `layout`. Deterministic in
/// `seed`.
pub fn initialize(
    grid: &Grid2D,
    layout: &dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    seed: u64,
) -> ParticlesSoA {
    let mut rng = Rng::seed_from_u64(seed);
    initialize_with_rng(grid, layout, dist, n, &mut rng)
}

/// [`initialize`] with a caller-owned generator, so the caller can retain
/// (and checkpoint) the stream position after sampling.
pub fn initialize_with_rng(
    grid: &Grid2D,
    layout: &dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    rng: &mut Rng,
) -> ParticlesSoA {
    let mut out = ParticlesSoA::zeroed(n);
    for i in 0..n {
        let (x_phys, y_phys, vx, vy) = match dist {
            InitialDistribution::Landau { alpha, k } => {
                let x = sample_perturbed_x(rng, grid.lx, alpha, k);
                let y = rng.range(0.0, grid.ly);
                (x, y, rng.normal(), rng.normal())
            }
            InitialDistribution::TwoStream { alpha, k, v0, vt } => {
                let x = sample_perturbed_x(rng, grid.lx, alpha, k);
                let y = rng.range(0.0, grid.ly);
                let sign = if rng.coin() { 1.0 } else { -1.0 };
                (x, y, sign * v0 + vt * rng.normal(), vt * rng.normal())
            }
            InitialDistribution::Uniform => (
                rng.range(0.0, grid.lx),
                rng.range(0.0, grid.ly),
                rng.normal(),
                rng.normal(),
            ),
            InitialDistribution::DriftingMaxwellian { alpha, k, v0x, vt } => {
                let x = if alpha == 0.0 {
                    rng.range(0.0, grid.lx)
                } else {
                    sample_perturbed_x(rng, grid.lx, alpha, k)
                };
                let y = rng.range(0.0, grid.ly);
                (x, y, v0x + vt * rng.normal(), vt * rng.normal())
            }
        };
        let (cx, ox) = grid.split_x(grid.to_grid_x(x_phys));
        let (cy, oy) = grid.split_y(grid.to_grid_y(y_phys));
        out.icell[i] = layout.encode(cx, cy) as u32;
        out.ix[i] = cx as u32;
        out.iy[i] = cy as u32;
        out.dx[i] = ox;
        out.dy[i] = oy;
        out.vx[i] = vx;
        out.vy[i] = vy;
    }
    out
}

/// The macro-particle weight: each of the `n` markers carries
/// `w = n₀·Lx·Ly/n` physical particles, with unit background density n₀ = 1.
pub fn particle_weight(grid: &Grid2D, n: usize) -> f64 {
    grid.lx * grid.ly / n as f64
}

/// Re-encode `icell` for every particle under a new layout (used when a
/// harness switches orderings on the same particle set).
pub fn reencode(particles: &mut ParticlesSoA, layout: &dyn CellLayout) {
    for i in 0..particles.len() {
        particles.icell[i] =
            layout.encode(particles.ix[i] as usize, particles.iy[i] as usize) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::RowMajor;

    fn grid() -> Grid2D {
        Grid2D::new(
            32,
            32,
            4.0 * std::f64::consts::PI,
            4.0 * std::f64::consts::PI,
        )
        .unwrap()
    }

    #[test]
    fn initialize_is_deterministic() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let a = initialize(&g, &l, InitialDistribution::Uniform, 1000, 42);
        let b = initialize(&g, &l, InitialDistribution::Uniform, 1000, 42);
        assert_eq!(a.icell, b.icell);
        assert_eq!(a.dx, b.dx);
        assert_eq!(a.vx, b.vx);
        let c = initialize(&g, &l, InitialDistribution::Uniform, 1000, 43);
        assert_ne!(a.icell, c.icell);
    }

    #[test]
    fn offsets_and_cells_in_range() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(
            &g,
            &l,
            InitialDistribution::Landau { alpha: 0.5, k: 0.5 },
            5000,
            1,
        );
        for i in 0..p.len() {
            assert!((p.ix[i] as usize) < 32);
            assert!((p.iy[i] as usize) < 32);
            assert!((0.0..1.0).contains(&p.dx[i]), "dx {}", p.dx[i]);
            assert!((0.0..1.0).contains(&p.dy[i]), "dy {}", p.dy[i]);
            assert_eq!(
                p.icell[i] as usize,
                l.encode(p.ix[i] as usize, p.iy[i] as usize)
            );
        }
    }

    #[test]
    fn landau_perturbation_shows_in_density() {
        // With α = 0.5, k = 0.5 on Lx = 4π: density at kx≈0 exceeds kx≈π.
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let k = 0.5;
        let p = initialize(
            &g,
            &l,
            InitialDistribution::Landau { alpha: 0.5, k },
            200_000,
            7,
        );
        let mut crest = 0usize; // cells where cos(kx) > 0.7
        let mut trough = 0usize; // cells where cos(kx) < −0.7
        for i in 0..p.len() {
            let x_phys = (p.ix[i] as f64 + p.dx[i]) * g.dx();
            let c = (k * x_phys).cos();
            if c > 0.7 {
                crest += 1;
            } else if c < -0.7 {
                trough += 1;
            }
        }
        let ratio = crest as f64 / trough as f64;
        // Expected ratio ≈ mean(1+0.5c | c>0.7)/mean(1+0.5c | c<−0.7) ≈ 2.6.
        assert!(ratio > 2.0, "crest/trough ratio {ratio}");
    }

    #[test]
    fn maxwellian_moments() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(&g, &l, InitialDistribution::Uniform, 100_000, 3);
        let n = p.len() as f64;
        let mean_vx: f64 = p.vx.iter().sum::<f64>() / n;
        let var_vx: f64 = p.vx.iter().map(|v| v * v).sum::<f64>() / n;
        assert!(mean_vx.abs() < 0.02, "mean vx {mean_vx}");
        assert!((var_vx - 1.0).abs() < 0.03, "var vx {var_vx}");
    }

    #[test]
    fn two_stream_is_bimodal() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(
            &g,
            &l,
            InitialDistribution::TwoStream {
                alpha: 0.01,
                k: 0.5,
                v0: 3.0,
                vt: 0.3,
            },
            50_000,
            11,
        );
        let fast = p.vx.iter().filter(|v| v.abs() > 2.0).count();
        let slow = p.vx.iter().filter(|v| v.abs() < 1.0).count();
        assert!(fast > 45_000, "beams at ±3: {fast}");
        assert!(slow < 500, "little mass near v=0: {slow}");
        // Roughly half in each beam.
        let pos = p.vx.iter().filter(|&&v| v > 0.0).count() as f64 / p.len() as f64;
        assert!((pos - 0.5).abs() < 0.02);
    }

    #[test]
    fn weight_normalization() {
        let g = grid();
        let w = particle_weight(&g, 1000);
        assert!((w * 1000.0 - g.lx * g.ly).abs() < 1e-9);
    }

    #[test]
    fn reencode_switches_layout() {
        let g = grid();
        let rm = RowMajor::new(32, 32).unwrap();
        let mo = sfc::Morton::new(32, 32).unwrap();
        let mut p = initialize(&g, &rm, InitialDistribution::Uniform, 500, 9);
        reencode(&mut p, &mo);
        for i in 0..p.len() {
            assert_eq!(
                p.icell[i] as usize,
                mo.encode(p.ix[i] as usize, p.iy[i] as usize)
            );
        }
    }
}
