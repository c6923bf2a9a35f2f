//! Slab-distributed spectral Poisson solve: no rank ever holds the full
//! grid, and no rank gathers ρ to solve it alone. This is the decomposed
//! runtime's one field solve; it distributes the row–column FFT:
//!
//! * each rank owns a contiguous **row slab** of whole row pairs
//!   (`chunk_range(nx/2, p, r)` pairs) for the y-direction passes, and a
//!   contiguous **column band** (`chunk_range(ny, p, r)` grid columns, all
//!   `nx` rows, row-major) for the x-direction passes;
//! * ρ is real, so grid rows `2m`, `2m + 1` arrive packed as `a + i·b` and
//!   share one row transform ([`FftPlan::forward_real_pairs`]) — which is
//!   why slabs hold whole pairs;
//! * one [`Comm::try_all_to_all`] block exchange moves each rank's rows,
//!   cut to every band's columns, to the band owners. A block is a run of
//!   whole band rows in both layouts, so sending and receiving are row-slice
//!   copies — nothing is transposed element by element;
//! * on its band each rank runs [`PoissonSolver2D::column_phase`], the one
//!   column phase of every solve path: forward columns, [`field_mode`]
//!   into `Ẑ = Êx + i·Êy`, inverse columns, one sub-band at a time. One
//!   inverse returns `Ex + i·Ey`, so the return exchange carries one
//!   complex field;
//! * a rank's own share of each exchange is copied in place and never
//!   enters the transport. A rank holding the whole grid (one rank, one
//!   survivor) swaps its slab and band buffers instead of copying, so the
//!   1-rank solve costs what the serial solve costs.
//!
//! Bit-exactness with [`PoissonSolver2D::solve_e`]: every row transform and
//! every column transform is an independent butterfly over the same values
//! in the same order no matter which rank executes it, and `field_mode`
//! depends only on the mode. The slab pipeline runs the serial solve's row
//! passes on its row pairs and the serial column phase on its band, so the
//! solved E matches the serial field bit for bit. The parity tests assert
//! `to_bits` equality.
//!
//! Per-rank memory is the row slab plus the band ≈ `32·nx·ny/p` bytes — it
//! *shrinks* as ranks are added (see `results/BENCH_solver.json`).
//!
//! [`FftPlan::forward_real_pairs`]: spectral::fft::FftPlan::forward_real_pairs
//! [`PoissonSolver2D::column_phase`]: spectral::poisson::PoissonSolver2D::column_phase
//! [`PoissonSolver2D::solve_e`]: spectral::poisson::PoissonSolver2D::solve_e
//! [`field_mode`]: spectral::poisson::field_mode

use crate::DecompError;
use minimpi::Comm;
use pic_core::pool::chunk_range;
use spectral::poisson::PoissonSolver2D;
use spectral::Complex64;
use std::ops::Range;

/// Distributed slab solver state for one rank: the grid's solver (plans
/// and wavenumbers), the point routing tables, and the reusable buffers.
pub struct SlabSolver {
    /// This rank's index within the communicator group.
    me: usize,
    /// Row-slab bounds `[r0, r1)` of every rank: grid rows for the
    /// y-direction passes, whole row pairs (`r0` even).
    row_bounds: Vec<(usize, usize)>,
    /// Column-band bounds `[c0, c1)` of every rank: grid columns for the
    /// x-direction passes.
    col_bounds: Vec<(usize, usize)>,
    solver: PoissonSolver2D,
    /// `rho_send[q]`: this rank's owned points whose grid row lies in
    /// rank `q`'s slab (ascending point order on both endpoints); empty
    /// for `q = me`.
    rho_send: Vec<Vec<usize>>,
    /// `rho_recv[q]`: rank `q`'s owned points within this rank's slab;
    /// empty for `q = me`.
    rho_recv: Vec<Vec<usize>>,
    /// This rank's owned points within its own slab, copied locally: runs
    /// of consecutive points within one grid row.
    rho_self: Vec<Range<usize>>,
    /// `e_send[q]`: rank `q`'s E points within this rank's slab; empty for
    /// `q = me`.
    e_send: Vec<Vec<usize>>,
    /// `e_recv[q]`: this rank's E points within rank `q`'s slab; empty for
    /// `q = me`.
    e_recv: Vec<Vec<usize>>,
    /// This rank's E points within its own slab, copied locally: runs of
    /// consecutive points within one grid row.
    e_self: Vec<Range<usize>>,
    /// Row slab (`nrows × ny`): packed ρ row pairs, ρ̂ rows, then
    /// `Ex + i·Ey` on the way back.
    slab: Vec<Complex64>,
    /// Column band (`nx × (c1 − c0)`, row-major): ρ̂ rows cut to this
    /// rank's columns, then column-inverted `Êx + i·Êy`.
    band: Vec<Complex64>,
    /// Outgoing blocks, one per rank, refilled by each of a solve's four
    /// exchanges in turn: the exchanges run one after another, so one set
    /// serves them all and a solve allocates no send buffer once the set
    /// has grown. `send[me]` stays empty. Blocks received from other ranks
    /// are still allocated by [`Comm::try_all_to_all`].
    send: Vec<Vec<f64>>,
}

/// Append `zs` to `b` as interleaved `re, im` pairs.
fn push_complex(b: &mut Vec<f64>, zs: &[Complex64]) {
    b.reserve(2 * zs.len());
    for z in zs {
        b.push(z.re);
        b.push(z.im);
    }
}

/// Ascending points `pts` as maximal runs of consecutive points that stay
/// within one grid row of width `ny`.
fn row_runs(pts: &[usize], ny: usize) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &pt in pts {
        match runs.last_mut() {
            Some(run) if run.end == pt && !pt.is_multiple_of(ny) => run.end += 1,
            _ => runs.push(pt..pt + 1),
        }
    }
    runs
}

/// Overwrite `zs` from interleaved `re, im` pairs.
fn pull_complex(zs: &mut [Complex64], vals: &[f64]) {
    debug_assert_eq!(vals.len(), zs.len() * 2, "exchange payload size");
    for (z, v) in zs.iter_mut().zip(vals.chunks_exact(2)) {
        *z = Complex64::new(v[0], v[1]);
    }
}

impl SlabSolver {
    /// Build the solver for rank `me` of `p`: slab bounds, the grid solver, and
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
        let solver = PoissonSolver2D::new(nx, ny, lx, ly)
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

        // The points of `pts` whose grid row lies in `rows`.
        let pick = |pts: &[usize], (lo, hi): (usize, usize)| -> Vec<usize> {
            pts.iter()
                .copied()
                .filter(|&pt| (lo..hi).contains(&(pt / ny)))
                .collect()
        };
        let mine = row_bounds[me];
        let mut rho_send: Vec<_> = row_bounds
            .iter()
            .map(|&b| pick(&all_owned_points[me], b))
            .collect();
        let mut rho_recv: Vec<_> = all_owned_points.iter().map(|pts| pick(pts, mine)).collect();
        let mut e_send: Vec<_> = all_e_points.iter().map(|pts| pick(pts, mine)).collect();
        let mut e_recv: Vec<_> = row_bounds
            .iter()
            .map(|&b| pick(&all_e_points[me], b))
            .collect();
        // This rank's own entries are its share of each exchange, copied in
        // place: they leave the routing lists.
        rho_recv[me].clear();
        e_send[me].clear();
        let rho_self = row_runs(&std::mem::take(&mut rho_send[me]), ny);
        let e_self = row_runs(&std::mem::take(&mut e_recv[me]), ny);

        Ok(Self {
            me,
            row_bounds,
            col_bounds,
            solver,
            rho_send,
            rho_recv,
            rho_self,
            e_send,
            e_recv,
            e_self,
            slab: vec![Complex64::ZERO; (r1 - r0) * ny],
            band: vec![Complex64::ZERO; nx * (c1 - c0)],
            send: vec![Vec::new(); p],
        })
    }

    /// Persistent per-rank buffer bytes — the slab path's grid memory
    /// footprint, which shrinks as ranks are added.
    pub fn solver_bytes(&self) -> u64 {
        ((self.slab.len() + self.band.len()) * std::mem::size_of::<Complex64>()) as u64
    }

    /// This rank's row-slab bounds `[r0, r1)`.
    pub fn rows(&self) -> (usize, usize) {
        self.row_bounds[self.me]
    }

    /// Distributed solve (collective): `rho` holds global density at this
    /// rank's owned points; on return `ex`/`ey` hold the solved field at
    /// this rank's E points. Uses tags `tag0 .. tag0+3` (ρ scatter,
    /// forward band exchange, return exchange, E delivery).
    ///
    /// This rank's own share of each exchange never enters the transport:
    /// it is copied straight between its ρ, slab, band and E arrays, and
    /// its outgoing block stays empty. A 1-rank solve therefore moves no
    /// payload at all, and each round is still one
    /// [`Comm::try_all_to_all`] call, so op counts do not depend on how
    /// much of the grid a rank keeps.
    pub fn solve(
        &mut self,
        comm: &mut Comm,
        rho: &[f64],
        ex: &mut [f64],
        ey: &mut [f64],
        tag0: u64,
    ) -> Result<(), DecompError> {
        let Self {
            me,
            row_bounds,
            col_bounds,
            solver,
            rho_send,
            rho_recv,
            rho_self,
            e_send,
            e_recv,
            e_self,
            slab,
            band,
            send,
        } = self;
        let me = *me;
        let ny = solver.dims().1;
        let (r0, r1) = row_bounds[me];
        let (c0, c1) = col_bounds[me];
        let width = c1 - c0;
        let own_band = r0 * width..r1 * width;
        // A rank holding every row and column keeps the whole grid: its
        // band and slab share one layout, so they trade buffers instead
        // of copying.
        let whole = width == ny && slab.len() == band.len();
        let row = solver.plan().row_plan();

        // 1. Route owned ρ to slab owners, packed two rows per complex
        //    row: row 2m into the real part, row 2m + 1 into the imaginary
        //    part of the pair's first row.
        for (b, pts) in send.iter_mut().zip(rho_send.iter()) {
            b.clear();
            b.extend(pts.iter().map(|&pt| rho[pt]));
        }
        for run in rho_self.iter() {
            let off = run.start - r0 * ny;
            let pair = &mut slab[off & !ny..][..run.len()];
            if off & ny == 0 {
                pair.iter_mut()
                    .zip(&rho[run.clone()])
                    .for_each(|(z, &v)| z.re = v);
            } else {
                pair.iter_mut()
                    .zip(&rho[run.clone()])
                    .for_each(|(z, &v)| z.im = v);
            }
        }
        let parts = comm.try_all_to_all(send, tag0)?;
        for (vals, pts) in parts.iter().zip(rho_recv.iter()) {
            debug_assert_eq!(vals.len(), pts.len());
            for (&pt, &v) in pts.iter().zip(vals) {
                // `ny` is a power of two, so the slab offset's `ny` bit is
                // the local row's parity and clearing it lands on the
                // pair's first row.
                let off = pt - r0 * ny;
                let z = &mut slab[off & !ny];
                if off & ny == 0 {
                    z.re = v;
                } else {
                    z.im = v;
                }
            }
        }

        // 2. Forward y pass: one complex transform per grid row pair.
        row.forward_real_pairs(slab);

        // 3. Rows to band owners: rank q gets every slab row cut to its
        //    columns, which are whole rows `[r0, r1)` of q's band.
        for (q, (b, &(qc0, qc1))) in send.iter_mut().zip(col_bounds.iter()).enumerate() {
            b.clear();
            if q != me {
                for line in slab.chunks_exact(ny) {
                    push_complex(b, &line[qc0..qc1]);
                }
            }
        }
        if whole {
            std::mem::swap(slab, band);
        } else {
            for (dst, line) in band[own_band.clone()]
                .chunks_exact_mut(width.max(1))
                .zip(slab.chunks_exact(ny))
            {
                dst.copy_from_slice(&line[c0..c1]);
            }
        }
        let parts = comm.try_all_to_all(send, tag0 + 1)?;
        for (q, (vals, &(qr0, qr1))) in parts.iter().zip(row_bounds.iter()).enumerate() {
            if q != me {
                pull_complex(&mut band[qr0 * width..qr1 * width], vals);
            }
        }

        // 4. The column phase: forward x pass, Ẑ = Êx + i·Êy, inverse x pass.
        solver.column_phase(band, width, c0);

        // 5. Band rows back to their slab owners: rank q's rows of the band
        //    are the columns `[c0, c1)` of q's slab rows.
        for (q, (b, &(qr0, qr1))) in send.iter_mut().zip(row_bounds.iter()).enumerate() {
            b.clear();
            if q != me {
                push_complex(b, &band[qr0 * width..qr1 * width]);
            }
        }
        if whole {
            std::mem::swap(slab, band);
        } else {
            for (line, src) in slab
                .chunks_exact_mut(ny)
                .zip(band[own_band].chunks_exact(width.max(1)))
            {
                line[c0..c1].copy_from_slice(src);
            }
        }
        let parts = comm.try_all_to_all(send, tag0 + 2)?;
        for (q, (vals, &(qc0, qc1))) in parts.iter().zip(col_bounds.iter()).enumerate() {
            if q == me {
                continue;
            }
            let w = qc1 - qc0;
            for (line, v) in slab
                .chunks_exact_mut(ny)
                .zip(vals.chunks_exact(2 * w.max(1)))
            {
                pull_complex(&mut line[qc0..qc1], v);
            }
        }

        // 6. Inverse y pass.
        for r in slab.chunks_exact_mut(ny) {
            row.inverse(r);
        }

        // 7. Deliver E to each rank's E points.
        for (b, pts) in send.iter_mut().zip(e_send.iter()) {
            b.clear();
            for &pt in pts {
                let z = slab[pt - r0 * ny];
                b.extend([z.re, z.im]);
            }
        }
        for run in e_self.iter() {
            let zs = &slab[run.start - r0 * ny..run.end - r0 * ny];
            for ((x, y), z) in ex[run.clone()].iter_mut().zip(&mut ey[run.clone()]).zip(zs) {
                *x = z.re;
                *y = z.im;
            }
        }
        let parts = comm.try_all_to_all(send, tag0 + 3)?;
        for (vals, pts) in parts.iter().zip(e_recv.iter()) {
            debug_assert_eq!(vals.len(), pts.len() * 2);
            for (&pt, v) in pts.iter().zip(vals.chunks_exact(2)) {
                ex[pt] = v[0];
                ey[pt] = v[1];
            }
        }
        Ok(())
    }
}
