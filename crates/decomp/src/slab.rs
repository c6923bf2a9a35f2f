//! Slab-distributed spectral Poisson solve: no rank ever holds the full
//! grid.
//!
//! The root-gather path assembles the whole `nx × ny` density on one rank
//! and solves there — O(grid) memory and solve time on the root, with every
//! other rank idle. This module distributes the row–column FFT instead:
//!
//! * each rank owns a contiguous **row slab** of whole row pairs
//!   (`chunk_range(nx/2, p, r)` pairs) for the y-direction passes, and a
//!   contiguous **column slab** (`chunk_range(ny, p, r)` transposed rows)
//!   for the x-direction passes;
//! * ρ is real, so grid rows `2m`, `2m + 1` arrive packed as `a + i·b` and
//!   share one row transform ([`FftPlan::forward_real_pairs`]) — which is
//!   why slabs hold whole pairs;
//! * the distributed transpose between the two layouts is one
//!   [`Comm::try_all_to_all`] block exchange — the classic slab/pencil
//!   dance of distributed FFTs;
//! * the spectral scale runs element-wise in the transposed layout through
//!   [`field_mode`], the one per-mode expression of every solve path, into
//!   the combined `Ẑ = Êx + i·Êy`; one inverse returns `Ex + i·Ey`, so the
//!   inverse transpose carries one complex field.
//!
//! Bit-exactness with [`PoissonSolver2D::solve_e`]: the serial 2-D forward
//! runs rows (y) then columns (x), the inverse columns then rows — and each
//! 1-D transform is an independent in-place butterfly over the same values
//! in the same order no matter which rank executes it. The slab pipeline
//! replicates those per-transform value sequences exactly (row pairs of the
//! row slab, then rows of the transposed column slab), so the solved E
//! matches the serial field bit for bit. The parity tests assert `to_bits`
//! equality.
//!
//! Per-rank memory is two slab buffers ≈ `32·nx·ny/p` bytes — it *shrinks*
//! as ranks are added, where the root-gather path pinned O(grid) on the
//! root regardless of `p` (see `results/BENCH_solver.json`).
//!
//! [`PoissonSolver2D::solve_e`]: spectral::poisson::PoissonSolver2D::solve_e

use crate::DecompError;
use minimpi::Comm;
use pic_core::pool::chunk_range;
use spectral::fft::{Fft2Plan, FftPlan};
use spectral::poisson::{field_mode, wavenumbers};
use spectral::Complex64;

/// Distributed slab solver state for one rank: 1-D plans, wavenumbers,
/// the point routing tables, and the reusable slab buffers.
pub struct SlabSolver {
    nx: usize,
    ny: usize,
    /// This rank's index within the communicator group.
    me: usize,
    /// Row-slab bounds `[r0, r1)` of every rank: grid rows for the
    /// y-direction passes, whole row pairs (`r0` even).
    row_bounds: Vec<(usize, usize)>,
    /// Column-slab bounds `[c0, c1)` of every rank: grid columns, i.e.
    /// rows of the transposed layout, for the x-direction passes.
    col_bounds: Vec<(usize, usize)>,
    /// Shared 1-D plans (one table on square grids).
    plan: Fft2Plan,
    kx: Vec<f64>,
    ky: Vec<f64>,
    /// `rho_send[q]`: this rank's owned points whose grid row lies in
    /// rank `q`'s slab (ascending point order on both endpoints).
    rho_send: Vec<Vec<usize>>,
    /// `rho_recv[q]`: rank `q`'s owned points within this rank's slab.
    rho_recv: Vec<Vec<usize>>,
    /// `e_send[q]`: rank `q`'s E points within this rank's slab.
    e_send: Vec<Vec<usize>>,
    /// `e_recv[q]`: this rank's E points within rank `q`'s slab.
    e_recv: Vec<Vec<usize>>,
    /// Row slab (`nrows × ny`): packed ρ row pairs, ρ̂ rows, then
    /// `Ex + i·Ey` on the way back.
    slab: Vec<Complex64>,
    /// Column slab (`ncols × nx`, transposed layout): ρ̂ᵀ, then
    /// `Êx + i·Êy`.
    tslab: Vec<Complex64>,
}

impl SlabSolver {
    /// Build the solver for rank `me` of `p`: slab bounds, FFT plans, and
    /// the all-to-all routing lists derived from every rank's owned/E point
    /// sets (both endpoints filter the same ascending lists, so sender and
    /// receiver agree on payload order without any index traffic).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        nx: usize,
        ny: usize,
        lx: f64,
        ly: f64,
        me: usize,
        p: usize,
        all_owned_points: &[Vec<usize>],
        all_e_points: &[Vec<usize>],
    ) -> Result<Self, DecompError> {
        let plan = Fft2Plan::new(nx, ny)
            .map_err(|e| DecompError::Config(format!("slab solver plan: {e}")))?;
        // Whole row pairs: `nx` is a power of two, so only `nx = 1` leaves
        // a lone row, held by the first rank as its one "pair".
        let row_bounds: Vec<_> = (0..p)
            .map(|r| {
                let (a, b) = chunk_range(nx.div_ceil(2), p, r);
                ((2 * a).min(nx), (2 * b).min(nx))
            })
            .collect();
        let col_bounds: Vec<_> = (0..p).map(|r| chunk_range(ny, p, r)).collect();
        let (r0, r1) = row_bounds[me];
        let (c0, c1) = col_bounds[me];

        let in_rows =
            |bounds: (usize, usize)| move |&&pt: &&usize| pt / ny >= bounds.0 && pt / ny < bounds.1;
        let rho_send: Vec<Vec<usize>> = (0..p)
            .map(|q| {
                all_owned_points[me]
                    .iter()
                    .filter(in_rows(row_bounds[q]))
                    .copied()
                    .collect()
            })
            .collect();
        let rho_recv: Vec<Vec<usize>> = (0..p)
            .map(|q| {
                all_owned_points[q]
                    .iter()
                    .filter(in_rows(row_bounds[me]))
                    .copied()
                    .collect()
            })
            .collect();
        let e_send: Vec<Vec<usize>> = (0..p)
            .map(|q| {
                all_e_points[q]
                    .iter()
                    .filter(in_rows(row_bounds[me]))
                    .copied()
                    .collect()
            })
            .collect();
        let e_recv: Vec<Vec<usize>> = (0..p)
            .map(|q| {
                all_e_points[me]
                    .iter()
                    .filter(in_rows(row_bounds[q]))
                    .copied()
                    .collect()
            })
            .collect();

        Ok(Self {
            nx,
            ny,
            me,
            row_bounds,
            col_bounds,
            plan,
            kx: wavenumbers(nx, lx),
            ky: wavenumbers(ny, ly),
            rho_send,
            rho_recv,
            e_send,
            e_recv,
            slab: vec![Complex64::ZERO; (r1 - r0) * ny],
            tslab: vec![Complex64::ZERO; (c1 - c0) * nx],
        })
    }

    /// Persistent per-rank buffer bytes — the slab path's grid memory
    /// footprint, which shrinks as ranks are added.
    pub fn solver_bytes(&self) -> u64 {
        ((self.slab.len() + self.tslab.len()) * std::mem::size_of::<Complex64>()) as u64
    }

    /// This rank's row-slab bounds `[r0, r1)`.
    pub fn rows(&self) -> (usize, usize) {
        self.row_bounds[self.me]
    }

    /// Distributed solve (collective): `rho` holds global density at this
    /// rank's owned points; on return `ex`/`ey` hold the solved field at
    /// this rank's E points. Uses tags `tag0 .. tag0+3` (ρ scatter,
    /// forward transpose, inverse transpose, E delivery).
    pub fn solve(
        &mut self,
        comm: &mut Comm,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        tag0: u64,
    ) -> Result<(), DecompError> {
        let (ny, nx) = (self.ny, self.nx);
        let (r0, _) = self.row_bounds[self.me];
        let (c0, c1) = self.col_bounds[self.me];
        let p = self.row_bounds.len();

        // 1. Route owned ρ to slab owners, packed two rows per complex
        //    row: row 2m into the real part, row 2m + 1 into the imaginary
        //    part of the pair's first row.
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|q| self.rho_send[q].iter().map(|&pt| rho[pt]).collect())
            .collect();
        let parts = comm.try_all_to_all(&blocks, tag0)?;
        for (q, vals) in parts.iter().enumerate() {
            debug_assert_eq!(vals.len(), self.rho_recv[q].len());
            for (&pt, &v) in self.rho_recv[q].iter().zip(vals) {
                let lr = pt / ny - r0;
                let z = &mut self.slab[(lr & !1) * ny + pt % ny];
                if lr % 2 == 0 {
                    z.re = v;
                } else {
                    z.im = v;
                }
            }
        }

        // 2. Forward y pass: one complex transform per grid row pair.
        self.plan.row_plan().forward_real_pairs(&mut self.slab);

        // 3. Distributed forward transpose: row slabs → column slabs.
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|q| {
                let (qc0, qc1) = self.col_bounds[q];
                let mut b = Vec::with_capacity(self.slab.len() / ny.max(1) * (qc1 - qc0) * 2);
                for row in self.slab.chunks_exact(ny) {
                    for &z in &row[qc0..qc1] {
                        b.push(z.re);
                        b.push(z.im);
                    }
                }
                b
            })
            .collect();
        let parts = comm.try_all_to_all(&blocks, tag0 + 1)?;
        for (q, vals) in parts.iter().enumerate() {
            let (qr0, qr1) = self.row_bounds[q];
            debug_assert_eq!(vals.len(), (qr1 - qr0) * (c1 - c0) * 2);
            let mut it = vals.chunks_exact(2);
            for i in 0..qr1 - qr0 {
                for jt in 0..c1 - c0 {
                    let v = it.next().expect("transpose payload underrun");
                    self.tslab[jt * nx + qr0 + i] = Complex64::new(v[0], v[1]);
                }
            }
        }

        // 4. Forward x pass: each transposed-slab row is a full grid column.
        for r in self.tslab.chunks_exact_mut(nx) {
            self.plan.col_plan().forward(r);
        }

        // 5. Spectral scale in the transposed layout through the one
        //    per-mode expression of every solve path: Ẑ = Êx + i·Êy.
        for (jt, r) in self.tslab.chunks_exact_mut(nx).enumerate() {
            for (ix, z) in r.iter_mut().enumerate() {
                *z = field_mode(*z, &self.kx, &self.ky, ix, c0 + jt);
            }
        }

        // 6. Inverse x pass (the serial inverse runs columns first, rows
        //    second — flip of the forward order).
        for r in self.tslab.chunks_exact_mut(nx) {
            self.plan.col_plan().inverse(r);
        }

        // 7. Inverse transpose of the one combined field.
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|q| {
                let (qr0, qr1) = self.row_bounds[q];
                let mut b = Vec::with_capacity((qr1 - qr0) * (c1 - c0) * 2);
                for jt in 0..c1 - c0 {
                    for &z in &self.tslab[jt * nx + qr0..jt * nx + qr1] {
                        b.push(z.re);
                        b.push(z.im);
                    }
                }
                b
            })
            .collect();
        let parts = comm.try_all_to_all(&blocks, tag0 + 2)?;
        let nrows = self.slab.len() / ny.max(1);
        for (q, vals) in parts.iter().enumerate() {
            let (qc0, qc1) = self.col_bounds[q];
            debug_assert_eq!(vals.len(), (qc1 - qc0) * nrows * 2);
            let mut it = vals.chunks_exact(2);
            for jt in 0..qc1 - qc0 {
                for i in 0..nrows {
                    let v = it.next().expect("transpose payload underrun");
                    self.slab[i * ny + qc0 + jt] = Complex64::new(v[0], v[1]);
                }
            }
        }

        // 8. Inverse y pass.
        for r in self.slab.chunks_exact_mut(ny) {
            self.plan.row_plan().inverse(r);
        }

        // 9. Deliver E to each rank's E points.
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|q| {
                let mut b = Vec::with_capacity(self.e_send[q].len() * 2);
                for &pt in &self.e_send[q] {
                    let i = (pt / ny - r0) * ny + pt % ny;
                    b.push(self.slab[i].re);
                    b.push(self.slab[i].im);
                }
                b
            })
            .collect();
        let parts = comm.try_all_to_all(&blocks, tag0 + 3)?;
        for (q, vals) in parts.iter().enumerate() {
            debug_assert_eq!(vals.len(), self.e_recv[q].len() * 2);
            for (&pt, v) in self.e_recv[q].iter().zip(vals.chunks_exact(2)) {
                ex[pt] = v[0];
                ey[pt] = v[1];
            }
        }
        Ok(())
    }

    /// The length-`ny` plan of the y passes (exposed for benchmarks).
    pub fn row_plan(&self) -> &FftPlan {
        self.plan.row_plan()
    }
}
