//! Vectorized current deposition for the 2d3v multi-species path: the
//! charge-deposit machinery of [`super::deposit`] generalized from one
//! scalar (`ρ`) to the three components of **J**, following the portable
//! SIMD charge/current deposition of Vincenti et al. (arXiv:1601.02056).
//!
//! Each particle contributes `w·v` to the four CIC corners of its cell,
//! stored as one contiguous `[f64; 12]` row per cell
//! (`[Jx₀..Jx₃, Jy₀..Jy₃, Jz₀..Jz₃]`, [`crate::fields::RedundantJ`]). The
//! kernel variants mirror the charge deposit one-for-one and share its
//! [`DepositPath`] selector:
//!
//! * `Exact` — per-particle read-modify-write in input order; the scalar
//!   and lane-blocked forms are bit-identical (the lane form only batches
//!   the row computation, never the scatter).
//! * `LaneReduce` — per-lane private rows, a 12-wide transposed tree
//!   reduction for uniform (single-cell) blocks, exact-order scatter for
//!   mixed blocks.
//!
//! The reassociated path differs from scalar by the same per-cell bound as
//! the charge deposit with `|w|` replaced by the largest per-particle
//! contribution magnitude: with `k` particles in a cell, every component
//! of every corner agrees with scalar to within `4 k² ε max_i |w·v_i|`
//! (DESIGN.md §16).

// SoA kernels take one slice per particle field by design, matching the
// sibling deposit kernels.
#![allow(clippy::too_many_arguments)]

use super::deposit::{corner_weights, DepositPath};
use crate::sim::KernelPath;

pub use super::simd::LANES;

/// SoA current-deposit kernel signature shared by every variant:
/// `(icell, dx, dy, vx, vy, vz, j12, w)`.
pub type CurrentFn = fn(&[u32], &[f64], &[f64], &[f64], &[f64], &[f64], &mut [[f64; 12]], f64);

/// One particle's 12-double current row: the CIC corner weights times each
/// velocity component, in the exact expression order every variant shares.
#[inline(always)]
pub fn current_row(odx: f64, ody: f64, vx: f64, vy: f64, vz: f64, w: f64) -> [f64; 12] {
    let wc = corner_weights(odx, ody, w);
    let mut r = [0.0f64; 12];
    for corner in 0..4 {
        r[corner] = wc[corner] * vx;
        r[4 + corner] = wc[corner] * vy;
        r[8 + corner] = wc[corner] * vz;
    }
    r
}

/// Scalar-order current deposit: the reference kernel body and the shared
/// `n mod LANES` tail for the blocked variants.
#[inline]
pub fn deposit_current_tail(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    j12: &mut [[f64; 12]],
    w: f64,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n && vz.len() == n);
    for i in 0..n {
        let cell = &mut j12[icell[i] as usize];
        let r = current_row(dx[i], dy[i], vx[i], vy[i], vz[i], w);
        for k in 0..12 {
            cell[k] += r[k];
        }
    }
}

/// Lane-blocked exact deposit: computes a block of [`LANES`] rows in one
/// straight-line pass, then scatters per lane in particle order —
/// bit-identical to [`deposit_current_tail`].
pub fn deposit_current_lanes(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    j12: &mut [[f64; 12]],
    w: f64,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n && vz.len() == n);
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = super::simd::block(icell, o);
        let bdx = super::simd::block(dx, o);
        let bdy = super::simd::block(dy, o);
        let bvx = super::simd::block(vx, o);
        let bvy = super::simd::block(vy, o);
        let bvz = super::simd::block(vz, o);
        let mut rows = [[0.0f64; 12]; LANES];
        for l in 0..LANES {
            rows[l] = current_row(bdx[l], bdy[l], bvx[l], bvy[l], bvz[l], w);
        }
        for l in 0..LANES {
            let cell = &mut j12[bc[l] as usize];
            for k in 0..12 {
                cell[k] += rows[l][k];
            }
        }
        o += LANES;
    }
    deposit_current_tail(
        &icell[main..],
        &dx[main..],
        &dy[main..],
        &vx[main..],
        &vy[main..],
        &vz[main..],
        j12,
        w,
    );
}

/// Pairwise tree reduction of the `LANES` private current rows into `acc`
/// (8 → 4 → 2 → 1) — the 12-wide counterpart of the charge deposit's
/// `tree_sum_rows`. Consumes `rows` as scratch.
#[inline(always)]
fn tree_sum_rows12(rows: &mut [[f64; 12]; LANES], acc: &mut [f64; 12]) {
    let (lo4, hi4) = rows.split_at_mut(4);
    for (a, b) in lo4.iter_mut().zip(hi4.iter()) {
        for k in 0..12 {
            a[k] += b[k];
        }
    }
    let (lo2, hi2) = lo4.split_at_mut(2);
    for (a, b) in lo2.iter_mut().zip(hi2.iter()) {
        for k in 0..12 {
            a[k] += b[k];
        }
    }
    for k in 0..12 {
        acc[k] += lo2[0][k] + lo2[1][k];
    }
}

/// Compute one full lane block of current rows and tree-reduce into `acc`.
#[inline(always)]
fn tree_reduce_current_block(
    bdx: &[f64; LANES],
    bdy: &[f64; LANES],
    bvx: &[f64; LANES],
    bvy: &[f64; LANES],
    bvz: &[f64; LANES],
    w: f64,
    acc: &mut [f64; 12],
) {
    let mut rows = [[0.0f64; 12]; LANES];
    for l in 0..LANES {
        rows[l] = current_row(bdx[l], bdy[l], bvx[l], bvy[l], bvz[l], w);
    }
    tree_sum_rows12(&mut rows, acc);
}

/// Per-lane private-J deposition with transposed lane-reduction: uniform
/// blocks (sorted input) collapse to one read-modify-write of the `j12`
/// row per block, mixed blocks scatter per lane in exact order — the same
/// branchless uniformity fold as the charge deposit.
pub fn deposit_current_lane_reduce(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    j12: &mut [[f64; 12]],
    w: f64,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n && vz.len() == n);
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = super::simd::block(icell, o);
        let bdx = super::simd::block(dx, o);
        let bdy = super::simd::block(dy, o);
        let bvx = super::simd::block(vx, o);
        let bvy = super::simd::block(vy, o);
        let bvz = super::simd::block(vz, o);
        let c0 = bc[0];
        let mut uniform = true;
        for &c in &bc[1..] {
            uniform &= c == c0;
        }
        if uniform {
            let mut acc = [0.0f64; 12];
            tree_reduce_current_block(bdx, bdy, bvx, bvy, bvz, w, &mut acc);
            let cell = &mut j12[c0 as usize];
            for k in 0..12 {
                cell[k] += acc[k];
            }
        } else {
            let mut rows = [[0.0f64; 12]; LANES];
            for l in 0..LANES {
                rows[l] = current_row(bdx[l], bdy[l], bvx[l], bvy[l], bvz[l], w);
            }
            for l in 0..LANES {
                let cell = &mut j12[bc[l] as usize];
                for k in 0..12 {
                    cell[k] += rows[l][k];
                }
            }
        }
        o += LANES;
    }
    deposit_current_tail(
        &icell[main..],
        &dx[main..],
        &dy[main..],
        &vx[main..],
        &vy[main..],
        &vz[main..],
        j12,
        w,
    );
}

/// The SoA current kernel for a `(DepositPath, KernelPath)` pair — the
/// single dispatch point, mirroring `deposit::select_kernel`.
pub fn select_current_kernel(path: DepositPath, kernel_path: KernelPath) -> CurrentFn {
    match (path, kernel_path) {
        (DepositPath::Exact, KernelPath::Scalar) => deposit_current_tail,
        (DepositPath::Exact, KernelPath::Lanes) => deposit_current_lanes,
        (DepositPath::LaneReduce, _) => deposit_current_lane_reduce,
    }
}

/// Pooled current deposit with per-worker arenas and a deterministic
/// worker-order merge — the J counterpart of
/// `accumulate::pool_accumulate_redundant`.
pub fn pool_deposit_current(
    pool: &crate::pool::ThreadPool,
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    out: &mut crate::fields::RedundantJ,
    arenas: &mut [crate::fields::RedundantJ],
    w: f64,
    path: DepositPath,
    kernel_path: KernelPath,
) {
    let kernel = select_current_kernel(path, kernel_path);
    let nw = pool.nthreads();
    let n = icell.len();
    if nw == 1 || n == 0 {
        kernel(icell, dx, dy, vx, vy, vz, &mut out.j12, w);
        return;
    }
    assert!(
        arenas.len() >= nw,
        "pool_deposit_current: {} arenas for {nw} workers",
        arenas.len()
    );
    pool.run_items(&mut arenas[..nw], |worker, arena| {
        let (s, e) = crate::pool::chunk_range(n, nw, worker);
        arena.clear();
        kernel(
            &icell[s..e],
            &dx[s..e],
            &dy[s..e],
            &vx[s..e],
            &vy[s..e],
            &vz[s..e],
            &mut arena.j12,
            w,
        );
    });
    for arena in &arenas[..nw] {
        out.add_assign(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(n: usize, ncells: usize, sorted: bool) -> (Vec<u32>, [Vec<f64>; 5]) {
        let mut rng = crate::rng::Rng::seed_from_u64(11);
        let mut icell: Vec<u32> = (0..n)
            .map(|_| (rng.uniform() * ncells as f64) as u32)
            .collect();
        if sorted {
            icell.sort_unstable();
        }
        let f = |rng: &mut crate::rng::Rng| (0..n).map(|_| rng.uniform()).collect::<Vec<_>>();
        let dx = f(&mut rng);
        let dy = f(&mut rng);
        let v = |rng: &mut crate::rng::Rng| {
            (0..n)
                .map(|_| crate::kernels::normal(rng))
                .collect::<Vec<_>>()
        };
        (icell, [dx, dy, v(&mut rng), v(&mut rng), v(&mut rng)])
    }

    #[test]
    fn exact_lanes_bit_identical_to_scalar() {
        for sorted in [false, true] {
            let (icell, [dx, dy, vx, vy, vz]) = mk(1003, 32, sorted);
            let mut a = vec![[0.0f64; 12]; 32];
            let mut b = vec![[0.0f64; 12]; 32];
            deposit_current_tail(&icell, &dx, &dy, &vx, &vy, &vz, &mut a, 0.37);
            deposit_current_lanes(&icell, &dx, &dy, &vx, &vy, &vz, &mut b, 0.37);
            assert_eq!(a, b, "sorted={sorted}");
        }
    }

    #[test]
    fn lane_reduce_within_bound() {
        for sorted in [false, true] {
            let (icell, [dx, dy, vx, vy, vz]) = mk(4096, 16, sorted);
            let w = 0.5;
            let mut reference = vec![[0.0f64; 12]; 16];
            deposit_current_tail(&icell, &dx, &dy, &vx, &vy, &vz, &mut reference, w);
            // Per-cell particle counts and max contribution magnitude.
            let mut k = [0usize; 16];
            let mut vmax = [0.0f64; 16];
            for i in 0..icell.len() {
                let c = icell[i] as usize;
                k[c] += 1;
                let m = vx[i].abs().max(vy[i].abs()).max(vz[i].abs());
                vmax[c] = vmax[c].max(m);
            }
            let mut got = vec![[0.0f64; 12]; 16];
            deposit_current_lane_reduce(&icell, &dx, &dy, &vx, &vy, &vz, &mut got, w);
            for c in 0..16 {
                let bound =
                    4.0 * (k[c] as f64).powi(2) * f64::EPSILON * (w * vmax[c]).abs() + 1e-300;
                for comp in 0..12 {
                    let err = (got[c][comp] - reference[c][comp]).abs();
                    assert!(err <= bound, "cell {c} comp {comp}: {err:e} > {bound:e}");
                }
            }
        }
    }

    #[test]
    fn total_current_conserved_across_paths() {
        let (icell, [dx, dy, vx, vy, vz]) = mk(2048, 64, true);
        let w = 1.25;
        let sum_vx: f64 = vx.iter().sum::<f64>() * w;
        for kernel in [
            deposit_current_tail as CurrentFn,
            deposit_current_lanes,
            deposit_current_lane_reduce,
        ] {
            let mut j12 = vec![[0.0f64; 12]; 64];
            kernel(&icell, &dx, &dy, &vx, &vy, &vz, &mut j12, w);
            let total_jx: f64 = j12.iter().map(|r| r[..4].iter().sum::<f64>()).sum();
            assert!(
                (total_jx - sum_vx).abs() < 1e-9 * sum_vx.abs().max(1.0),
                "{total_jx} vs {sum_vx}"
            );
        }
    }
}
