//! Spectral solver for the periodic Poisson equation of the Vlasov–Poisson
//! system:
//!
//! ```text
//! −Δφ = ρ / ε₀        E = −∇φ
//! ```
//!
//! on a uniform `nx × ny` Cartesian grid over `[0, Lx) × [0, Ly)` with
//! periodic boundary conditions and normalized units (ε₀ = 1, the standard
//! choice for the Landau test cases of the paper).
//!
//! In Fourier space `φ̂_k = ρ̂_k / |k|²` and `Ê_k = −i k φ̂_k`. The `k = 0`
//! mode of ρ (the mean charge) is projected out: a periodic system must be
//! globally neutral, and PIC codes enforce this by subtracting the uniform
//! ion background — dropping the zero mode is exactly that subtraction.
//!
//! The field solve is built around what the data is. ρ is real, so the
//! forward row pass runs two grid rows per complex row transform
//! ([`FftPlan::forward_real_pairs`](crate::fft::FftPlan::forward_real_pairs));
//! Ex and Ey are real, so the spectral scale writes one combined
//! `Ẑ = Êx + i·Êy` ([`field_mode`]) and one complex inverse returns
//! `Ex = Re`, `Ey = Im`: half a row pass, a column pass and one inverse —
//! 1.75 complex 2-D transforms' work where a complex forward and one
//! inverse per component cost three.
//!
//! Pass order: forward rows, then the **column phase**
//! ([`PoissonSolver2D::column_phase`]) — forward columns, [`field_mode`],
//! inverse columns, one 32-column band at a time while the band is in
//! cache — then inverse rows. Every solve path runs that one column phase:
//! the serial solve in place on the whole grid, each pooled worker on its
//! own band tile, each slab rank on its column band. Each column transform
//! is independent and `field_mode` depends only on the mode, so every path
//! performs the same operations on every element: the bits are the same.

use crate::fft::{Direction, Fft2Plan, RowExecutor, SerialExec, COL_BAND};
use crate::{Complex64, SpectralError};

/// The signed angular wavenumbers of an `n`-point periodic axis of extent
/// `l`: `2π · s(i) / l` with `s(i) = i` for `i ≤ n/2` and `i − n` above —
/// the frequency convention of every solver in this crate, exposed so
/// distributed solvers scale spectral coefficients with bit-identical
/// values.
pub fn wavenumbers(n: usize, l: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let s = if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            };
            2.0 * std::f64::consts::PI * s / l
        })
        .collect()
}

/// The combined field coefficient `Ẑ = Êx + i·Êy` of mode `(ix, iy)` from
/// the density coefficient `rho_hat`, with `kx`, `ky` the axes'
/// [`wavenumbers`]: `Ê = −ik ρ̂ / |k|²`, the zero mode projected out.
///
/// **Nyquist rule:** Êx is zero on the row `ix = nx/2` and Êy on the column
/// `iy = ny/2`. There the `+k` and `−k` modes are one coefficient, so `−ik`
/// makes that component's contribution anti-Hermitian — purely imaginary in
/// real space. A per-component inverse dropped it by keeping `.re`; in the
/// combined inverse it would land in the other component, so it is zeroed
/// here. [`PoissonSolver2D::column_phase`] is its one caller on every solve
/// path — serial, pooled, slab — which is what keeps them bit-identical.
#[inline]
pub fn field_mode(rho_hat: Complex64, kx: &[f64], ky: &[f64], ix: usize, iy: usize) -> Complex64 {
    let (kxv, kyv) = (kx[ix], ky[iy]);
    let k2 = kxv * kxv + kyv * kyv;
    if k2 == 0.0 {
        return Complex64::ZERO;
    }
    // Ê = −ik · ρ̂/k²  (φ̂ = ρ̂/k², Ê = −ik φ̂).
    let phi_hat = rho_hat / k2;
    let ex = if ix == kx.len() / 2 {
        Complex64::ZERO
    } else {
        -phi_hat.mul_i().scale(kxv)
    };
    let ey = if iy == ky.len() / 2 {
        Complex64::ZERO
    } else {
        -phi_hat.mul_i().scale(kyv)
    };
    ex + ey.mul_i()
}

/// Reusable buffers for [`PoissonSolver2D::solve_e_with`]: the spectral
/// workspace that [`PoissonSolver2D::solve_e`] allocates on every call.
/// Own one per simulation and the per-step field solve allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct SolveScratch {
    /// ρ̂, then `Ẑ = Êx + i·Êy`, then `Ex + i·Ey`.
    hat: Vec<Complex64>,
    /// Column tiles of a multi-worker solve
    /// ([`PoissonSolver2D::solve_e_pooled`]); never grown by a width-1
    /// executor.
    tbuf: Vec<Complex64>,
}

impl SolveScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize, tiles: bool) {
        if self.hat.len() < n {
            self.hat.resize(n, Complex64::ZERO);
        }
        if tiles && self.tbuf.len() < n {
            self.tbuf.resize(n, Complex64::ZERO);
        }
    }
}

/// A reusable spectral Poisson solver for a fixed grid.
#[derive(Debug, Clone)]
pub struct PoissonSolver2D {
    nx: usize,
    ny: usize,
    lx: f64,
    ly: f64,
    plan: Fft2Plan,
    /// Signed wavenumbers along x: `kx[ix] = 2π·freq(ix)/Lx`.
    kx: Vec<f64>,
    /// Signed wavenumbers along y.
    ky: Vec<f64>,
}

impl PoissonSolver2D {
    /// Create a solver for an `nx × ny` power-of-two grid over `Lx × Ly`.
    pub fn new(nx: usize, ny: usize, lx: f64, ly: f64) -> Result<Self, SpectralError> {
        if nx == 0 || ny == 0 {
            return Err(SpectralError::ZeroDimension);
        }
        if lx.is_nan() || lx <= 0.0 {
            return Err(SpectralError::BadExtent { extent: lx });
        }
        if ly.is_nan() || ly <= 0.0 {
            return Err(SpectralError::BadExtent { extent: ly });
        }
        let plan = Fft2Plan::new(nx, ny)?;
        let kx = wavenumbers(nx, lx);
        let ky = wavenumbers(ny, ly);
        Ok(Self {
            nx,
            ny,
            lx,
            ly,
            plan,
            kx,
            ky,
        })
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Physical extent along x.
    pub fn lx(&self) -> f64 {
        self.lx
    }

    /// Physical extent along y.
    pub fn ly(&self) -> f64 {
        self.ly
    }

    /// Signed wavenumbers along x (`kx[ix] = 2π·s(ix)/Lx`).
    pub fn kx(&self) -> &[f64] {
        &self.kx
    }

    /// Signed wavenumbers along y.
    pub fn ky(&self) -> &[f64] {
        &self.ky
    }

    /// The 2-D plan whose row plan runs the row passes of a solve.
    pub fn plan(&self) -> &Fft2Plan {
        &self.plan
    }

    /// The fused column phase of the E solve on a tile of `width` grid
    /// columns starting at global column `c0`: `tile` holds all `nx` rows
    /// of those columns, row-major with stride `width`, as row-transformed
    /// ρ̂ on entry and as column-inverted `Êx + i·Êy` on return. Walks
    /// [`COL_BAND`]-column sub-bands; on each it runs the forward column
    /// transform, [`field_mode`] and the inverse column transform while the
    /// sub-band is still in cache.
    ///
    /// # Panics
    /// Panics if `tile.len() != nx * width` or `c0 + width > ny`.
    pub fn column_phase(&self, tile: &mut [Complex64], width: usize, c0: usize) {
        assert_eq!(tile.len(), self.nx * width, "column tile size mismatch");
        assert!(c0 + width <= self.ny, "column tile beyond the grid");
        let col = self.plan.col_plan();
        for b0 in (0..width).step_by(COL_BAND) {
            let cols = b0..(b0 + COL_BAND).min(width);
            col.transform_cols(tile, width, cols.clone(), Direction::Forward);
            for (ix, row) in tile.chunks_exact_mut(width).enumerate() {
                for (iy, z) in (c0 + b0..).zip(&mut row[cols.clone()]) {
                    *z = field_mode(*z, &self.kx, &self.ky, ix, iy);
                }
            }
            col.transform_cols(tile, width, cols, Direction::Inverse);
        }
    }

    /// Solve for the potential: given `rho` (row-major, `rho[ix*ny + iy]`),
    /// write φ into `phi`. The mean of φ is zero.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_phi(&self, rho: &[f64], phi: &mut [f64]) {
        let n = self.nx * self.ny;
        assert_eq!(rho.len(), n);
        assert_eq!(phi.len(), n);
        let mut hat: Vec<Complex64> = rho.iter().map(|&r| Complex64::from_re(r)).collect();
        self.plan.forward(&mut hat);
        for ix in 0..self.nx {
            for iy in 0..self.ny {
                let k2 = self.kx[ix] * self.kx[ix] + self.ky[iy] * self.ky[iy];
                let idx = ix * self.ny + iy;
                hat[idx] = if k2 == 0.0 {
                    Complex64::ZERO
                } else {
                    hat[idx] / k2
                };
            }
        }
        self.plan.inverse(&mut hat);
        for (p, h) in phi.iter_mut().zip(&hat) {
            *p = h.re;
        }
    }

    /// Solve directly for the electric field `E = −∇φ` with `−Δφ = ρ`.
    ///
    /// One real-input forward transform and one complex inverse of
    /// `Êx + i·Êy` ([`field_mode`]).
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e(&self, rho: &[f64], ex: &mut [f64], ey: &mut [f64]) {
        let mut scratch = SolveScratch::new();
        self.solve_e_with(rho, ex, ey, &mut scratch);
    }

    /// [`solve_e`](Self::solve_e) with caller-owned spectral workspaces:
    /// allocation-free once `scratch` has grown to the grid size.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e_with(
        &self,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        scratch: &mut SolveScratch,
    ) {
        self.solve_e_pooled(rho, ex, ey, scratch, &SerialExec);
    }

    /// [`solve_e_with`](Self::solve_e_with) with the passes run on `exec`
    /// (a thread pool in the simulation hot path): row batches striped
    /// across workers, and the [`column_phase`](Self::column_phase) on
    /// per-worker band tiles — each band copied into its tile once and back
    /// once. A width-1 executor runs the column phase in place on the whole
    /// grid and never touches the tile buffer. Bit-exact with the
    /// sequential path — every element sees the identical operation
    /// sequence on every executor width — and allocation-free once
    /// `scratch` has grown to the grid size.
    ///
    /// # Panics
    /// Panics if slice lengths differ from `nx * ny`.
    pub fn solve_e_pooled(
        &self,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        scratch: &mut SolveScratch,
        exec: &dyn RowExecutor,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let n = nx * ny;
        assert_eq!(rho.len(), n);
        assert_eq!(ex.len(), n);
        assert_eq!(ey.len(), n);
        let tiles = exec.width() > 1;
        scratch.ensure(n, tiles);
        let hat = &mut scratch.hat[..n];
        let row = self.plan.row_plan();

        // Forward rows: grid rows 2m and 2m + 1 packed as a + i·b.
        let pair = ny * nx.min(2);
        exec.run_rows(hat, pair, &|p0, block| {
            let src = &rho[p0 * pair..][..block.len()];
            for (z, s) in block.chunks_mut(2 * ny).zip(src.chunks(2 * ny)) {
                let (a, b) = s.split_at(ny);
                for (zi, &ai) in z.iter_mut().zip(a) {
                    zi.re = ai;
                }
                for (zi, &bi) in z.iter_mut().zip(b) {
                    zi.im = bi;
                }
            }
            row.forward_real_pairs(block);
        });

        if tiles {
            let band = COL_BAND.min(ny);
            let tile = nx * band;
            let tbuf = &mut scratch.tbuf[..n];
            let src = &*hat;
            exec.run_rows(tbuf, tile, &|t0, block| {
                for (t, tl) in block.chunks_exact_mut(tile).enumerate() {
                    let c0 = (t0 + t) * band;
                    for (r, seg) in tl.chunks_exact_mut(band).enumerate() {
                        seg.copy_from_slice(&src[r * ny + c0..][..band]);
                    }
                    self.column_phase(tl, band, c0);
                }
            });
            let bands = &*tbuf;
            exec.run_rows(hat, ny, &|r0, block| {
                for (r, line) in block.chunks_exact_mut(ny).enumerate() {
                    for (t, seg) in line.chunks_exact_mut(band).enumerate() {
                        seg.copy_from_slice(&bands[t * tile + (r0 + r) * band..][..band]);
                    }
                }
            });
        } else {
            self.column_phase(hat, ny, 0);
        }

        exec.run_rows(hat, ny, &|_, block| {
            for r in block.chunks_exact_mut(ny) {
                row.inverse(r);
            }
        });
        for ((x, y), z) in ex.iter_mut().zip(ey.iter_mut()).zip(hat.iter()) {
            *x = z.re;
            *y = z.im;
        }
    }

    /// The electrostatic field energy `½ ∫ |E|² dx dy` approximated on the
    /// grid — the diagnostic the paper's Landau-damping validation tracks.
    pub fn field_energy(&self, ex: &[f64], ey: &[f64]) -> f64 {
        let cell = (self.lx / self.nx as f64) * (self.ly / self.ny as f64);
        0.5 * cell * ex.iter().zip(ey).map(|(&x, &y)| x * x + y * y).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn grid_fn(nx: usize, ny: usize, lx: f64, ly: f64, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let (dx, dy) = (lx / nx as f64, ly / ny as f64);
        (0..nx * ny)
            .map(|i| {
                let (ix, iy) = (i / ny, i % ny);
                f(ix as f64 * dx, iy as f64 * dy)
            })
            .collect()
    }

    #[test]
    fn single_mode_phi() {
        // ρ = cos(x) on [0,2π)² ⇒ φ = cos(x) (since −Δcos = cos).
        let n = 64;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        let expect = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        for i in 0..n * n {
            assert!((phi[i] - expect[i]).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn single_mode_field() {
        // ρ = cos(x) ⇒ E_x = −∂φ/∂x = sin(x), E_y = 0.
        let n = 64;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.cos());
        let (mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let expect = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, _| x.sin());
        for i in 0..n * n {
            assert!((ex[i] - expect[i]).abs() < 1e-10, "i={i}");
            assert!(ey[i].abs() < 1e-10);
        }
    }

    #[test]
    fn mixed_mode_manufactured() {
        // φ = sin(2x)cos(3y) on [0,2π)² ⇒ ρ = −Δφ = 13 φ, E = −∇φ.
        let n = 128;
        let l = 2.0 * PI;
        let s = PoissonSolver2D::new(n, n, l, l).unwrap();
        let rho = grid_fn(n, n, l, l, |x, y| 13.0 * (2.0 * x).sin() * (3.0 * y).cos());
        let (mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let eex = grid_fn(n, n, l, l, |x, y| -2.0 * (2.0 * x).cos() * (3.0 * y).cos());
        let eey = grid_fn(n, n, l, l, |x, y| 3.0 * (2.0 * x).sin() * (3.0 * y).sin());
        for i in 0..n * n {
            assert!((ex[i] - eex[i]).abs() < 1e-9, "ex i={i}");
            assert!((ey[i] - eey[i]).abs() < 1e-9, "ey i={i}");
        }
    }

    #[test]
    fn non_square_domain() {
        // Landau grids use L = 2π/k with k = 0.5 ⇒ L = 4π; check a 4π × 2π box.
        let (nx, ny) = (64, 32);
        let (lx, ly) = (4.0 * PI, 2.0 * PI);
        let s = PoissonSolver2D::new(nx, ny, lx, ly).unwrap();
        // ρ = cos(kx·x) with kx = 2π/Lx = 0.5 ⇒ φ = ρ/kx², E_x = sin(kx x)/kx.
        let kx = 2.0 * PI / lx;
        let rho = grid_fn(nx, ny, lx, ly, |x, _| (kx * x).cos());
        let (mut ex, mut ey) = (vec![0.0; nx * ny], vec![0.0; nx * ny]);
        s.solve_e(&rho, &mut ex, &mut ey);
        let expect = grid_fn(nx, ny, lx, ly, |x, _| (kx * x).sin() / kx);
        for i in 0..nx * ny {
            assert!((ex[i] - expect[i]).abs() < 1e-10, "i={i}");
            assert!(ey[i].abs() < 1e-10);
        }
    }

    #[test]
    fn zero_mode_projected_out() {
        // A uniform ρ produces no field (neutralizing background).
        let n = 16;
        let s = PoissonSolver2D::new(n, n, 1.0, 1.0).unwrap();
        let rho = vec![3.7; n * n];
        let (mut ex, mut ey) = (vec![1.0; n * n], vec![1.0; n * n]);
        s.solve_e(&rho, &mut ex, &mut ey);
        assert!(ex.iter().chain(&ey).all(|&v| v.abs() < 1e-12));
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        assert!(phi.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn phi_has_zero_mean() {
        let n = 32;
        let s = PoissonSolver2D::new(n, n, 2.0 * PI, 2.0 * PI).unwrap();
        let rho = grid_fn(n, n, 2.0 * PI, 2.0 * PI, |x, y| {
            (x).cos() + 0.3 * (2.0 * y).sin() + 5.0
        });
        let mut phi = vec![0.0; n * n];
        s.solve_phi(&rho, &mut phi);
        let mean: f64 = phi.iter().sum::<f64>() / (n * n) as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn field_energy_of_plane_wave() {
        // E_x = sin(x), E_y = 0 on [0,2π)²: ½∫sin² = ½·(2π)²/2 = π².
        let n = 64;
        let l = 2.0 * PI;
        let s = PoissonSolver2D::new(n, n, l, l).unwrap();
        let ex = grid_fn(n, n, l, l, |x, _| x.sin());
        let ey = vec![0.0; n * n];
        let e = s.field_energy(&ex, &ey);
        assert!((e - PI * PI).abs() < 1e-8, "energy {e}");
    }

    /// A serial executor that still exercises the multi-block partition
    /// logic: splits every batch into `k` near-equal whole-row blocks.
    struct Blocks(usize);

    impl RowExecutor for Blocks {
        fn width(&self) -> usize {
            self.0
        }

        fn run_rows(
            &self,
            data: &mut [Complex64],
            row_len: usize,
            f: &(dyn Fn(usize, &mut [Complex64]) + Sync),
        ) {
            let nrows = data.len() / row_len.max(1);
            let k = self.0.clamp(1, nrows.max(1));
            let (base, extra) = (nrows / k, nrows % k);
            let mut rest = data;
            let mut first = 0;
            for c in 0..k {
                let take = base + usize::from(c < extra);
                let (head, tail) = rest.split_at_mut(take * row_len);
                if !head.is_empty() {
                    f(first, head);
                }
                first += take;
                rest = tail;
            }
        }
    }

    #[test]
    fn pooled_solve_bit_exact_with_sequential() {
        let shapes = [
            (16usize, 16usize),
            (32, 16),
            (8, 64),
            (64, 128),
            (1, 8),
            (8, 1),
        ];
        for (nx, ny) in shapes {
            let s = PoissonSolver2D::new(nx, ny, 2.0 * PI, 4.0 * PI).unwrap();
            let rho = grid_fn(nx, ny, 2.0 * PI, 4.0 * PI, |x, y| {
                (x).cos() * (0.5 * y).sin() + 0.25 * (2.0 * x).sin() + 0.1 * (7.0 * y).cos()
            });
            let n = nx * ny;
            let (mut ex_s, mut ey_s) = (vec![0.0; n], vec![0.0; n]);
            let mut scratch = SolveScratch::new();
            s.solve_e_with(&rho, &mut ex_s, &mut ey_s, &mut scratch);
            for exec in [&Blocks(2) as &dyn RowExecutor, &Blocks(3), &Blocks(64)] {
                let (mut ex_p, mut ey_p) = (vec![0.0; n], vec![0.0; n]);
                s.solve_e_pooled(&rho, &mut ex_p, &mut ey_p, &mut scratch, exec);
                let w = exec.width();
                for i in 0..n {
                    assert_eq!(
                        ex_s[i].to_bits(),
                        ex_p[i].to_bits(),
                        "ex {nx}x{ny} w={w} i={i}"
                    );
                    assert_eq!(
                        ey_s[i].to_bits(),
                        ey_p[i].to_bits(),
                        "ey {nx}x{ny} w={w} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_phase_matches_whole_grid_passes() {
        // The fused band-by-band phase against the three whole-grid sweeps
        // it replaced — forward column pass, field_mode, inverse column
        // pass — on tiles of every width, bands wider and narrower than
        // COL_BAND, at every column offset.
        let (nx, ny) = (16usize, 128usize);
        let s = PoissonSolver2D::new(nx, ny, 2.0 * PI, 3.0).unwrap();
        let sig: Vec<Complex64> = grid_fn(nx, ny, 1.0, 1.0, |x, y| (3.0 * x + y * y).sin())
            .iter()
            .zip(grid_fn(nx, ny, 1.0, 1.0, |x, y| (x * y).cos()))
            .map(|(&a, b)| Complex64::new(a, b))
            .collect();
        let mut want = sig.clone();
        let col = s.plan().col_plan();
        col.transform_cols(&mut want, ny, 0..ny, Direction::Forward);
        for (i, z) in want.iter_mut().enumerate() {
            *z = field_mode(*z, s.kx(), s.ky(), i / ny, i % ny);
        }
        col.transform_cols(&mut want, ny, 0..ny, Direction::Inverse);
        for width in [1usize, 11, 32, 43, 128] {
            for c0 in (0..=ny - width).step_by(width.max(37)) {
                let mut tile: Vec<Complex64> = sig
                    .chunks_exact(ny)
                    .flat_map(|r| r[c0..c0 + width].to_vec())
                    .collect();
                s.column_phase(&mut tile, width, c0);
                for (ix, got) in tile.chunks_exact(width).enumerate() {
                    for (j, z) in got.iter().enumerate() {
                        let w = want[ix * ny + c0 + j];
                        assert_eq!(
                            (z.re.to_bits(), z.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "width={width} c0={c0} ({ix},{})",
                            c0 + j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wavenumber_convention_matches_solver() {
        let s = PoissonSolver2D::new(8, 16, 1.0, 3.0).unwrap();
        assert_eq!(s.kx(), wavenumbers(8, 1.0).as_slice());
        assert_eq!(s.ky(), wavenumbers(16, 3.0).as_slice());
        assert!(wavenumbers(8, 1.0)[5] < 0.0, "upper half is negative");
    }

    #[test]
    fn bad_arguments_rejected() {
        assert!(PoissonSolver2D::new(0, 8, 1.0, 1.0).is_err());
        assert!(PoissonSolver2D::new(8, 8, -1.0, 1.0).is_err());
        assert!(PoissonSolver2D::new(8, 8, 1.0, f64::NAN).is_err());
        assert!(PoissonSolver2D::new(12, 8, 1.0, 1.0).is_err());
    }
}
