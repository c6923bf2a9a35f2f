//! Slab-distributed spectral Poisson solve: no rank ever holds the full
//! grid.
//!
//! The root-gather path assembles the whole `nx × ny` density on one rank
//! and solves there — O(grid) memory and solve time on the root, with every
//! other rank idle. This module distributes the row–column FFT instead:
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
//!   complex field.
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
//! *shrinks* as ranks are added, where the root-gather path pinned O(grid)
//! on the root regardless of `p` (see `results/BENCH_solver.json`).
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
    /// Column band (`nx × (c1 − c0)`, row-major): ρ̂ rows cut to this
    /// rank's columns, then column-inverted `Êx + i·Êy`.
    band: Vec<Complex64>,
    /// Outgoing blocks, one per rank, refilled by each of a solve's four
    /// exchanges in turn: the exchanges run one after another, so one set
    /// serves them all and a solve allocates no send buffer once the set
    /// has grown. Received blocks are still allocated by
    /// [`Comm::try_all_to_all`].
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
        let rho_send = row_bounds
            .iter()
            .map(|&b| pick(&all_owned_points[me], b))
            .collect();
        let rho_recv = all_owned_points.iter().map(|pts| pick(pts, mine)).collect();
        let e_send = all_e_points.iter().map(|pts| pick(pts, mine)).collect();
        let e_recv = row_bounds
            .iter()
            .map(|&b| pick(&all_e_points[me], b))
            .collect();

        Ok(Self {
            me,
            row_bounds,
            col_bounds,
            solver,
            rho_send,
            rho_recv,
            e_send,
            e_recv,
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
            e_send,
            e_recv,
            slab,
            band,
            send,
        } = self;
        let ny = solver.dims().1;
        let (r0, _) = row_bounds[*me];
        let (c0, c1) = col_bounds[*me];
        let width = c1 - c0;
        let row = solver.plan().row_plan();

        // 1. Route owned ρ to slab owners, packed two rows per complex
        //    row: row 2m into the real part, row 2m + 1 into the imaginary
        //    part of the pair's first row.
        for (b, pts) in send.iter_mut().zip(rho_send.iter()) {
            b.clear();
            b.extend(pts.iter().map(|&pt| rho[pt]));
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
        for (b, &(qc0, qc1)) in send.iter_mut().zip(col_bounds.iter()) {
            b.clear();
            for line in slab.chunks_exact(ny) {
                push_complex(b, &line[qc0..qc1]);
            }
        }
        let parts = comm.try_all_to_all(send, tag0 + 1)?;
        for (vals, &(qr0, qr1)) in parts.iter().zip(row_bounds.iter()) {
            pull_complex(&mut band[qr0 * width..qr1 * width], vals);
        }

        // 4. The column phase: forward x pass, Ẑ = Êx + i·Êy, inverse x pass.
        solver.column_phase(band, width, c0);

        // 5. Band rows back to their slab owners: rank q's rows of the band
        //    are the columns `[c0, c1)` of q's slab rows.
        for (b, &(qr0, qr1)) in send.iter_mut().zip(row_bounds.iter()) {
            b.clear();
            push_complex(b, &band[qr0 * width..qr1 * width]);
        }
        let parts = comm.try_all_to_all(send, tag0 + 2)?;
        for (vals, &(qc0, qc1)) in parts.iter().zip(col_bounds.iter()) {
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
