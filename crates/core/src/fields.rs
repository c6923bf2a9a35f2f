//! Grid-quantity storage: the standard 2-D arrays vs the redundant
//! cell-based arrays (the paper's central data structure, §II and §IV-B).
//!
//! **Standard layout** stores `Ex`, `Ey`, `ρ` at grid points, row-major.
//! Interpolating for a particle then touches four non-contiguous memory
//! locations per component.
//!
//! **Redundant layout** stores, per *cell* and contiguously, the values of
//! both field components at the cell's four corners
//! (`e8[icell] = [Ex₀₀, Ex₀₁, Ex₁₀, Ex₁₁, Ey₀₀, Ey₀₁, Ey₁₀, Ey₁₁]`) and the
//! four charge-accumulation corners (`rho4[icell]`). A particle's entire
//! field interpolation reads one 64-byte-aligned 8-double block; charge
//! deposition writes one 4-double block — contiguous, vectorizable, and laid
//! out along any space-filling curve via the `icell` mapping. The price is 4×
//! the memory of the standard layout.
//!
//! Corner order matches the paper's Fig. 2 coefficient tables:
//! corner 0 → `(ix, iy)`, 1 → `(ix, iy+1)`, 2 → `(ix+1, iy)`,
//! 3 → `(ix+1, iy+1)` (neighbours wrap periodically).

use crate::grid::Grid2D;
use crate::pool::ThreadPool;
use sfc::CellLayout;
use spectral::poisson::{PoissonSolver2D, SolveScratch};

/// The CIC corner-weight coefficient tables of Fig. 2:
/// `w[corner] = (CX[corner] + SX[corner]·dx) · (CY[corner] + SY[corner]·dy)`.
pub const CX: [f64; 4] = [1.0, 1.0, 0.0, 0.0];
/// See [`CX`].
pub const SX: [f64; 4] = [-1.0, -1.0, 1.0, 1.0];
/// See [`CX`].
pub const CY: [f64; 4] = [1.0, 0.0, 1.0, 0.0];
/// See [`CX`].
pub const SY: [f64; 4] = [-1.0, 1.0, -1.0, 1.0];

/// Standard 2-D grid-point storage (row-major `[ix * ncy + iy]`).
#[derive(Debug, Clone)]
pub struct Field2D {
    /// Cells along x.
    pub ncx: usize,
    /// Cells along y.
    pub ncy: usize,
    /// x-component of E at grid points.
    pub ex: Vec<f64>,
    /// y-component of E at grid points.
    pub ey: Vec<f64>,
    /// Charge density at grid points.
    pub rho: Vec<f64>,
}

impl Field2D {
    /// Allocate zeroed fields for `grid`.
    pub fn new(grid: &Grid2D) -> Self {
        let n = grid.ncells();
        Self {
            ncx: grid.ncx,
            ncy: grid.ncy,
            ex: vec![0.0; n],
            ey: vec![0.0; n],
            rho: vec![0.0; n],
        }
    }

    /// Row-major grid-point index.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        ix * self.ncy + iy
    }

    /// Zero the charge density (paper's Fig. 1, line 7).
    pub fn clear_rho(&mut self) {
        self.rho.fill(0.0);
    }

    /// Solve Poisson from `rho` into `ex`/`ey`, striping the FFT passes over
    /// `pool` when there is one ([`PoissonSolver2D::solve_e_pooled`]); the
    /// two paths are bit-exact, so trajectories stay invariant under the
    /// thread count.
    pub(crate) fn solve_e(
        &mut self,
        solver: &PoissonSolver2D,
        scratch: &mut SolveScratch,
        pool: Option<&ThreadPool>,
    ) {
        match pool {
            Some(pool) => {
                solver.solve_e_pooled(&self.rho, &mut self.ex, &mut self.ey, scratch, pool)
            }
            None => solver.solve_e_with(&self.rho, &mut self.ex, &mut self.ey, scratch),
        }
    }

    /// Amplitude of `E_x`'s Fourier mode `m` along x (averaged over y):
    /// `(2/ncx)·|Σ_x Ē_x(x) e^{−i 2π m x/ncx}|` with `Ē_x` the y-average.
    pub fn ex_mode_amplitude(&self, mode: usize) -> f64 {
        let (ncx, ncy) = (self.ncx, self.ncy);
        let mut re = 0.0;
        let mut im = 0.0;
        for ix in 0..ncx {
            let row: f64 = self.ex[ix * ncy..(ix + 1) * ncy].iter().sum();
            let theta = -2.0 * std::f64::consts::PI * (mode * ix) as f64 / ncx as f64;
            re += row * theta.cos();
            im += row * theta.sin();
        }
        2.0 * (re * re + im * im).sqrt() / (ncx * ncy) as f64
    }
}

/// Redundant cell-based storage for E (8 doubles per cell).
#[derive(Debug, Clone)]
pub struct RedundantE {
    /// `[Ex at corners 0..4, Ey at corners 0..4]` per cell, indexed by the
    /// active layout's `icell`.
    pub e8: Vec<[f64; 8]>,
}

/// Redundant cell-based accumulator for ρ (4 doubles per cell).
#[derive(Debug, Clone)]
pub struct RedundantRho {
    /// Per-cell corner accumulators, indexed by the active layout's `icell`.
    pub rho4: Vec<[f64; 4]>,
}

impl RedundantE {
    /// Allocate zeroed storage sized for `layout` (covers padded cells too).
    pub fn new(layout: &dyn CellLayout) -> Self {
        Self {
            e8: vec![[0.0; 8]; layout.ncells()],
        }
    }

    /// Fill from grid-point fields, scaling every value by `scale`
    /// (`scale = 1` for raw fields; the hoisted convention of §IV-D passes
    /// `q·Δt²/(m·Δx)`-style factors here so the particle loop needs no
    /// per-particle multiply).
    pub fn fill_from(&mut self, f: &Field2D, layout: &dyn CellLayout, scale_x: f64, scale_y: f64) {
        let (ncx, ncy) = (f.ncx, f.ncy);
        for ix in 0..ncx {
            let ixp = (ix + 1) & (ncx - 1);
            for iy in 0..ncy {
                let iyp = (iy + 1) & (ncy - 1);
                let c = layout.encode(ix, iy);
                let g00 = f.idx(ix, iy);
                let g01 = f.idx(ix, iyp);
                let g10 = f.idx(ixp, iy);
                let g11 = f.idx(ixp, iyp);
                self.e8[c] = [
                    f.ex[g00] * scale_x,
                    f.ex[g01] * scale_x,
                    f.ex[g10] * scale_x,
                    f.ex[g11] * scale_x,
                    f.ey[g00] * scale_y,
                    f.ey[g01] * scale_y,
                    f.ey[g10] * scale_y,
                    f.ey[g11] * scale_y,
                ];
            }
        }
    }
}

impl RedundantRho {
    /// Allocate zeroed storage sized for `layout`.
    pub fn new(layout: &dyn CellLayout) -> Self {
        Self {
            rho4: vec![[0.0; 4]; layout.ncells()],
        }
    }

    /// Zero all accumulators.
    pub fn clear(&mut self) {
        self.rho4.fill([0.0; 4]);
    }

    /// Scatter the per-cell corner accumulators back onto grid points
    /// (periodic), writing into `rho` (row-major). `rho` is overwritten.
    pub fn reduce_to_grid(&self, layout: &dyn CellLayout, rho: &mut [f64]) {
        let (ncx, ncy) = (layout.ncx(), layout.ncy());
        assert_eq!(rho.len(), ncx * ncy);
        rho.fill(0.0);
        for ix in 0..ncx {
            let ixp = (ix + 1) & (ncx - 1);
            for iy in 0..ncy {
                let iyp = (iy + 1) & (ncy - 1);
                let c = layout.encode(ix, iy);
                let v = &self.rho4[c];
                rho[ix * ncy + iy] += v[0];
                rho[ix * ncy + iyp] += v[1];
                rho[ixp * ncy + iy] += v[2];
                rho[ixp * ncy + iyp] += v[3];
            }
        }
    }

    /// Element-wise add another accumulator (the hand-coded OpenMP 4.5
    /// array-section reduction of §V-B2).
    pub fn add_assign(&mut self, other: &RedundantRho) {
        assert_eq!(self.rho4.len(), other.rho4.len());
        for (a, b) in self.rho4.iter_mut().zip(&other.rho4) {
            for k in 0..4 {
                a[k] += b[k];
            }
        }
    }
}

/// Redundant cell-based accumulator for the current density **J**
/// (12 doubles per cell): the 2d3v analogue of [`RedundantRho`], storing
/// `[Jx at corners 0..4, Jy at corners 0..4, Jz at corners 0..4]`
/// contiguously so a particle's whole current deposit writes one cache-line
/// pair, exactly like the 8-double E block on the gather side.
#[derive(Debug, Clone)]
pub struct RedundantJ {
    /// Per-cell corner accumulators, indexed by the active layout's
    /// `icell`: `[Jx₀..Jx₃, Jy₀..Jy₃, Jz₀..Jz₃]`.
    pub j12: Vec<[f64; 12]>,
}

impl RedundantJ {
    /// Allocate zeroed storage sized for `layout`.
    pub fn new(layout: &dyn CellLayout) -> Self {
        Self {
            j12: vec![[0.0; 12]; layout.ncells()],
        }
    }

    /// Zero all accumulators.
    pub fn clear(&mut self) {
        self.j12.fill([0.0; 12]);
    }

    /// Scatter the per-cell corner accumulators back onto grid points
    /// (periodic), overwriting `jx`, `jy`, `jz` (row-major).
    pub fn reduce_to_grid(
        &self,
        layout: &dyn CellLayout,
        jx: &mut [f64],
        jy: &mut [f64],
        jz: &mut [f64],
    ) {
        let (ncx, ncy) = (layout.ncx(), layout.ncy());
        assert_eq!(jx.len(), ncx * ncy);
        assert_eq!(jy.len(), ncx * ncy);
        assert_eq!(jz.len(), ncx * ncy);
        jx.fill(0.0);
        jy.fill(0.0);
        jz.fill(0.0);
        for ix in 0..ncx {
            let ixp = (ix + 1) & (ncx - 1);
            for iy in 0..ncy {
                let iyp = (iy + 1) & (ncy - 1);
                let c = layout.encode(ix, iy);
                let v = &self.j12[c];
                let g00 = ix * ncy + iy;
                let g01 = ix * ncy + iyp;
                let g10 = ixp * ncy + iy;
                let g11 = ixp * ncy + iyp;
                jx[g00] += v[0];
                jx[g01] += v[1];
                jx[g10] += v[2];
                jx[g11] += v[3];
                jy[g00] += v[4];
                jy[g01] += v[5];
                jy[g10] += v[6];
                jy[g11] += v[7];
                jz[g00] += v[8];
                jz[g01] += v[9];
                jz[g10] += v[10];
                jz[g11] += v[11];
            }
        }
    }

    /// Element-wise add another accumulator (per-worker arena merge).
    pub fn add_assign(&mut self, other: &RedundantJ) {
        assert_eq!(self.j12.len(), other.j12.len());
        for (a, b) in self.j12.iter_mut().zip(&other.j12) {
            for k in 0..12 {
                a[k] += b[k];
            }
        }
    }
}

/// Evaluate the four CIC corner weights for offsets `(dx, dy)`.
#[inline]
pub fn cic_weights(dx: f64, dy: f64) -> [f64; 4] {
    [
        (1.0 - dx) * (1.0 - dy),
        (1.0 - dx) * dy,
        dx * (1.0 - dy),
        dx * dy,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::{CellLayout, Morton, RowMajor};

    fn grid() -> Grid2D {
        Grid2D::new(8, 8, 1.0, 1.0).unwrap()
    }

    #[test]
    fn cic_weights_partition_of_unity() {
        for &(dx, dy) in &[(0.0, 0.0), (0.5, 0.5), (0.25, 0.75), (0.999, 0.001)] {
            let w = cic_weights(dx, dy);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-15, "({dx},{dy})");
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn cic_weights_match_fig2_tables() {
        let (dx, dy) = (0.3, 0.8);
        let w = cic_weights(dx, dy);
        for corner in 0..4 {
            let expect = (CX[corner] + SX[corner] * dx) * (CY[corner] + SY[corner] * dy);
            assert!((w[corner] - expect).abs() < 1e-15, "corner {corner}");
        }
    }

    #[test]
    fn fill_from_picks_right_corners() {
        let g = grid();
        let layout = RowMajor::new(8, 8).unwrap();
        let mut f = Field2D::new(&g);
        // Ex(ix, iy) = 100·ix + iy, Ey = −(100·ix + iy).
        for ix in 0..8 {
            for iy in 0..8 {
                let v = (100 * ix + iy) as f64;
                let i = f.idx(ix, iy);
                f.ex[i] = v;
                f.ey[i] = -v;
            }
        }
        let mut r = RedundantE::new(&layout);
        r.fill_from(&f, &layout, 1.0, 1.0);
        let c = layout.encode(3, 5);
        assert_eq!(r.e8[c][0], 305.0); // (3,5)
        assert_eq!(r.e8[c][1], 306.0); // (3,6)
        assert_eq!(r.e8[c][2], 405.0); // (4,5)
        assert_eq!(r.e8[c][3], 406.0); // (4,6)
        assert_eq!(r.e8[c][4], -305.0);
        assert_eq!(r.e8[c][7], -406.0);
        // Periodic wrap on the far edge: cell (7,7) corners include (0,0).
        let c = layout.encode(7, 7);
        assert_eq!(r.e8[c][0], 707.0);
        assert_eq!(r.e8[c][1], 700.0); // (7,0)
        assert_eq!(r.e8[c][2], 7.0); // (0,7)
        assert_eq!(r.e8[c][3], 0.0); // (0,0)
    }

    #[test]
    fn fill_from_applies_scale() {
        let g = grid();
        let layout = RowMajor::new(8, 8).unwrap();
        let mut f = Field2D::new(&g);
        f.ex.fill(2.0);
        f.ey.fill(3.0);
        let mut r = RedundantE::new(&layout);
        r.fill_from(&f, &layout, 10.0, 100.0);
        assert_eq!(r.e8[0][0], 20.0);
        assert_eq!(r.e8[0][4], 300.0);
    }

    #[test]
    fn rho_reduce_roundtrip_single_particle() {
        // Deposit w=1 at cell (2,3), offsets (0.25, 0.75); reducing must put
        // the CIC weights on the four surrounding grid points.
        let layout = Morton::new(8, 8).unwrap();
        let mut acc = RedundantRho::new(&layout);
        let w = cic_weights(0.25, 0.75);
        let c = layout.encode(2, 3);
        for (corner, &wc) in w.iter().enumerate() {
            acc.rho4[c][corner] += wc;
        }
        let mut rho = vec![0.0; 64];
        acc.reduce_to_grid(&layout, &mut rho);
        assert!((rho[2 * 8 + 3] - w[0]).abs() < 1e-15);
        assert!((rho[2 * 8 + 4] - w[1]).abs() < 1e-15);
        assert!((rho[3 * 8 + 3] - w[2]).abs() < 1e-15);
        assert!((rho[3 * 8 + 4] - w[3]).abs() < 1e-15);
        assert!((rho.iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rho_reduce_wraps_periodically() {
        let layout = RowMajor::new(8, 8).unwrap();
        let mut acc = RedundantRho::new(&layout);
        let c = layout.encode(7, 7);
        acc.rho4[c] = [1.0, 2.0, 4.0, 8.0];
        let mut rho = vec![0.0; 64];
        acc.reduce_to_grid(&layout, &mut rho);
        assert_eq!(rho[7 * 8 + 7], 1.0);
        assert_eq!(rho[7 * 8], 2.0); // iy wraps to column 0
        assert_eq!(rho[7], 4.0); // ix wraps to row 0
        assert_eq!(rho[0], 8.0); // both wrap
    }

    #[test]
    fn add_assign_reduces_thread_copies() {
        let layout = RowMajor::new(8, 8).unwrap();
        let mut a = RedundantRho::new(&layout);
        let mut b = RedundantRho::new(&layout);
        a.rho4[5] = [1.0, 1.0, 1.0, 1.0];
        b.rho4[5] = [0.5, 0.25, 0.0, 2.0];
        b.rho4[6] = [9.0, 0.0, 0.0, 0.0];
        a.add_assign(&b);
        assert_eq!(a.rho4[5], [1.5, 1.25, 1.0, 3.0]);
        assert_eq!(a.rho4[6], [9.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn clear_zeroes() {
        let layout = RowMajor::new(8, 8).unwrap();
        let mut a = RedundantRho::new(&layout);
        a.rho4[0] = [1.0; 4];
        a.clear();
        assert_eq!(a.rho4[0], [0.0; 4]);
    }
}
