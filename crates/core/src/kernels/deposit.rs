//! Vectorized charge deposition: the reassociated deposit kernel that
//! breaks the scalar scatter-order dependence keeping
//! [`super::simd::accumulate_redundant_lanes`] at ~1.1x.
//!
//! The scalar/lane deposit preserves the exact per-particle accumulation
//! order, so on sorted populations consecutive particles read-modify-write
//! the *same* `rho4` row and the loop serializes on store-to-load
//! forwarding. [`accumulate_lane_reduce`] trades that exact order for an
//! equivalent reassociated one — per-lane private ρ rows following the
//! portable SIMD deposition of Vincenti et al. (arXiv:1601.02056): each of
//! the [`LANES`] lanes computes its own `[f64; 4]` corner-weight row, and a
//! transposed lane-reduction tree-sums the rows of a uniform (single-cell)
//! block *in registers* before one read-modify-write for the whole block;
//! mixed blocks scatter per lane in exact order.
//!
//! It is deterministic (summation order is a pure function of the input
//! ordering) and correct on *any* ordering — unsorted input just degrades
//! it to per-particle stores. Its per-cell rounding differs from the scalar
//! kernel by at most the reassociation bound proved in `DESIGN.md` §14 and
//! asserted in `tests/parity_kernel_path.rs`: with `k` particles in a cell
//! and weight magnitude `|w|`, every corner of that cell agrees with scalar
//! to within `4 k² ε |w|`. (The sorted-batch register deposit of Beck et
//! al., arXiv:1810.03949, was tried here as a third path, lost to
//! `LaneReduce` at every measured size and was removed — DESIGN.md §14.)
//!
//! The scalar kernel body itself lives here too ([`deposit_tail`]): it is
//! simultaneously the reference deposit, the `n mod LANES` tail shared by
//! every blocked variant, and the `Exact` path.

use crate::fields::{CX, CY, SX, SY};
use crate::sim::KernelPath;

pub use super::simd::LANES;

/// SoA deposit kernel signature shared by every variant.
pub type DepositFn = fn(&[u32], &[f64], &[f64], &mut [[f64; 4]], f64);

/// Which deposition kernel the split-redundant paths run.
///
/// Unlike [`KernelPath`] — whose two values are bit-identical by contract —
/// only `Exact` preserves the scalar accumulation order bit-for-bit;
/// `LaneReduce` reassociates the per-cell sums (within the proven FP bound
/// above) to break the scatter serialization. The knob is part of the
/// checkpoint fingerprint so exact and reassociated runs never
/// cross-restore silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositPath {
    /// Scalar accumulation order, bit-identical to
    /// [`super::accumulate::accumulate_redundant`] (the lane-blocked weight
    /// pass under [`KernelPath::Lanes`] keeps the same scatter order).
    Exact,
    /// Per-lane private ρ rows + transposed lane-reduction
    /// ([`accumulate_lane_reduce`]).
    LaneReduce,
}

/// The four CIC corner weights of one particle as a straight-line `[f64; 4]`
/// row — the exact expression (and evaluation order) of the scalar
/// reference kernel, shared by every deposit variant so that `Exact`
/// bit-identity and the reassociation bound both reduce to summation-order
/// arguments alone.
#[inline(always)]
pub fn corner_weights(odx: f64, ody: f64, w: f64) -> [f64; 4] {
    let mut wc = [0.0f64; 4];
    for corner in 0..4 {
        wc[corner] = w * (CX[corner] + SX[corner] * odx) * (CY[corner] + SY[corner] * ody);
    }
    wc
}

/// Scalar-order deposit of `icell.len()` particles: the reference kernel
/// body and the single shared tail for every lane-blocked variant (which
/// call it on the `n mod LANES` remainder instead of duplicating the
/// weight/bounds logic).
#[inline]
pub fn deposit_tail(icell: &[u32], dx: &[f64], dy: &[f64], rho4: &mut [[f64; 4]], w: f64) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n);
    for i in 0..n {
        let cell = &mut rho4[icell[i] as usize];
        let wc = corner_weights(dx[i], dy[i], w);
        for corner in 0..4 {
            cell[corner] += wc[corner];
        }
    }
}

/// Pairwise tree reduction of the `LANES` private weight rows into `acc`
/// (8 → 4 → 2 → 1), shortening the serial FP add chain from `LANES` to
/// `log2(LANES) + 1`. Consumes `wb` as scratch.
#[inline(always)]
fn tree_sum_rows(wb: &mut [[f64; 4]; LANES], acc: &mut [f64; 4]) {
    let (lo4, hi4) = wb.split_at_mut(4);
    for (a, b) in lo4.iter_mut().zip(hi4.iter()) {
        for corner in 0..4 {
            a[corner] += b[corner];
        }
    }
    let (lo2, hi2) = lo4.split_at_mut(2);
    for (a, b) in lo2.iter_mut().zip(hi2.iter()) {
        for corner in 0..4 {
            a[corner] += b[corner];
        }
    }
    for corner in 0..4 {
        acc[corner] += lo2[0][corner] + lo2[1][corner];
    }
}

/// Deposit one gathered lane block into `rho4`. A *uniform* block — every
/// lane in the same cell, the common case right after the counting sort —
/// computes its private weight rows and collapses them through the pairwise
/// tree reduction to a single read-modify-write. A *mixed* block runs the
/// exact lane-blocked body (weight pass + per-lane scatter in particle
/// order), bit-identical to [`super::simd::accumulate_redundant_lanes`].
///
/// The one uniform/mixed branch per block — with a branchless fold for the
/// uniformity test itself — is what makes the kernel degrade gracefully on
/// drifted populations: it predicts near-perfectly in both regimes, where
/// a data-dependent adjacent-lane merge loop mispredicts on every run
/// boundary and costs more than the merged stores save (measured 4.1 vs
/// 1.7 ns/particle on a one-step-drifted 1M population). Keeping each
/// arm's weight matrix local to the arm also lets the mixed arm stay in
/// registers instead of round-tripping through a shared stack slot.
#[inline(always)]
fn lane_reduce_block(
    bc: &[u32; LANES],
    bdx: &[f64; LANES],
    bdy: &[f64; LANES],
    w: f64,
    rho4: &mut [[f64; 4]],
) {
    let c0 = bc[0];
    let mut uniform = true;
    for &c in &bc[1..] {
        uniform &= c == c0;
    }
    if uniform {
        let mut acc = [0.0f64; 4];
        tree_reduce_block(bdx, bdy, w, &mut acc);
        let cell = &mut rho4[c0 as usize];
        for corner in 0..4 {
            cell[corner] += acc[corner];
        }
    } else {
        let mut wb = [[0.0f64; 4]; LANES];
        for l in 0..LANES {
            wb[l] = corner_weights(bdx[l], bdy[l], w);
        }
        for l in 0..LANES {
            let cell = &mut rho4[bc[l] as usize];
            for corner in 0..4 {
                cell[corner] += wb[l][corner];
            }
        }
    }
}

/// Per-lane private-ρ deposition with transposed lane-reduction.
///
/// Each block of [`LANES`] particles computes a private `LANES × 4`
/// corner-weight matrix in one straight-line vectorizable pass (no
/// dependence between lanes), then [`lane_reduce_block`] reduces across the
/// lane axis of the transposed matrix: uniform blocks (sorted input)
/// collapse to one read-modify-write of `rho4` per block, mixed blocks
/// scatter per lane exactly like the exact path.
pub fn accumulate_lane_reduce(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    rho4: &mut [[f64; 4]],
    w: f64,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n);
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = super::simd::block(icell, o);
        let bdx = super::simd::block(dx, o);
        let bdy = super::simd::block(dy, o);
        lane_reduce_block(bc, bdx, bdy, w, rho4);
        o += LANES;
    }
    deposit_tail(&icell[main..], &dx[main..], &dy[main..], rho4, w);
}

/// Accumulate one full lane block of corner weights into `acc` with a
/// pairwise tree reduction (8 → 4 → 2 → 1), shortening the serial FP add
/// chain from `LANES` to `log2(LANES) + 1` per block.
#[inline(always)]
fn tree_reduce_block(bdx: &[f64; LANES], bdy: &[f64; LANES], w: f64, acc: &mut [f64; 4]) {
    let mut wb = [[0.0f64; 4]; LANES];
    for l in 0..LANES {
        wb[l] = corner_weights(bdx[l], bdy[l], w);
    }
    tree_sum_rows(&mut wb, acc);
}

/// The SoA deposit kernel for a `(DepositPath, KernelPath)` pair — the
/// single dispatch point shared by the sequential step, the pooled
/// per-worker arenas, and the benches. Under `Exact` the [`KernelPath`]
/// picks between the scalar loop and the lane-blocked weight pass (both
/// bit-identical); the reassociated path has one kernel.
pub fn select_kernel(path: DepositPath, kernel_path: KernelPath) -> DepositFn {
    match (path, kernel_path) {
        (DepositPath::Exact, KernelPath::Scalar) => super::accumulate::accumulate_redundant,
        (DepositPath::Exact, KernelPath::Lanes) => super::simd::accumulate_redundant_lanes,
        (DepositPath::LaneReduce, _) => accumulate_lane_reduce,
    }
}

#[cfg(test)]
mod tests {
    use super::super::accumulate::accumulate_redundant;
    use super::*;
    use crate::particles::ParticlesSoA;
    use crate::rng::Rng;

    const EDGE_COUNTS: [usize; 8] = [0, 1, 7, 8, 9, 64, 1000, 1003];

    /// Random population over `ncells` cells; `sorted` controls whether the
    /// cell indices come out in nondecreasing order (long runs) or shuffled.
    fn mk(n: usize, ncells: usize, sorted: bool, seed: u64) -> ParticlesSoA {
        let mut rng = Rng::seed_from_u64(seed);
        let mut p = ParticlesSoA::zeroed(n);
        for i in 0..n {
            p.icell[i] = rng.below(ncells as u64) as u32;
            p.dx[i] = rng.uniform();
            p.dy[i] = rng.uniform();
        }
        if sorted {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| p.icell[i]);
            let mut q = ParticlesSoA::zeroed(n);
            for (to, &from) in idx.iter().enumerate() {
                q.icell[to] = p.icell[from];
                q.dx[to] = p.dx[from];
                q.dy[to] = p.dy[from];
            }
            q
        } else {
            p
        }
    }

    fn scalar_rho(p: &ParticlesSoA, ncells: usize, w: f64) -> Vec<[f64; 4]> {
        let mut rho = vec![[0.0f64; 4]; ncells];
        accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut rho, w);
        rho
    }

    /// Per-cell reassociation bound: `4 k² ε |w|` with `k` the cell's
    /// particle count (each ordering of a `k`-term sum of terms bounded by
    /// `|w|` carries error ≤ (k−1)·ε·k·|w|; doubling covers both sides).
    fn assert_within_cell_bound(got: &[[f64; 4]], want: &[[f64; 4]], icell: &[u32], w: f64) {
        let mut counts = vec![0usize; want.len()];
        for &c in icell {
            counts[c as usize] += 1;
        }
        for (cell, (a, b)) in got.iter().zip(want).enumerate() {
            let k = counts[cell] as f64;
            let bound = 4.0 * k * k * f64::EPSILON * w.abs();
            for corner in 0..4 {
                let d = (a[corner] - b[corner]).abs();
                assert!(
                    d <= bound,
                    "cell {cell} corner {corner}: |{} - {}| = {d} > {bound} (k={k})",
                    a[corner],
                    b[corner]
                );
            }
        }
    }

    #[test]
    fn deposit_tail_is_the_scalar_kernel() {
        let p = mk(1003, 64, false, 7);
        let mut a = vec![[0.0f64; 4]; 64];
        let mut b = vec![[0.0f64; 4]; 64];
        deposit_tail(&p.icell, &p.dx, &p.dy, &mut a, 1.5);
        accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut b, 1.5);
        for (x, y) in a.iter().zip(&b) {
            for corner in 0..4 {
                assert_eq!(x[corner].to_bits(), y[corner].to_bits());
            }
        }
    }

    #[test]
    fn lane_reduce_within_bound_all_orderings() {
        for &n in &EDGE_COUNTS {
            for sorted in [false, true] {
                let p = mk(n, 32, sorted, 0xC0FFEE ^ n as u64);
                let want = scalar_rho(&p, 32, 0.75);
                let mut got = vec![[0.0f64; 4]; 32];
                accumulate_lane_reduce(&p.icell, &p.dx, &p.dy, &mut got, 0.75);
                assert_within_cell_bound(&got, &want, &p.icell, 0.75);
            }
        }
    }

    #[test]
    fn lane_reduce_is_deterministic() {
        let p = mk(1003, 32, true, 99);
        let mut a = vec![[0.0f64; 4]; 32];
        let mut b = vec![[0.0f64; 4]; 32];
        accumulate_lane_reduce(&p.icell, &p.dx, &p.dy, &mut a, 1.0);
        accumulate_lane_reduce(&p.icell, &p.dx, &p.dy, &mut b, 1.0);
        for (x, y) in a.iter().zip(&b) {
            for corner in 0..4 {
                assert_eq!(x[corner].to_bits(), y[corner].to_bits());
            }
        }
    }

    #[test]
    fn lane_reduce_adds_to_existing_content() {
        let p = mk(100, 16, true, 3);
        let mut rho = vec![[0.0f64; 4]; 16];
        rho[3][1] = 5.0;
        accumulate_lane_reduce(&p.icell, &p.dx, &p.dy, &mut rho, 1.0);
        let total: f64 = rho.iter().flat_map(|c| c.iter()).sum();
        assert!((total - 105.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn select_kernel_exact_is_bit_identical_to_scalar() {
        let p = mk(1003, 32, true, 11);
        let want = scalar_rho(&p, 32, 1.0);
        for kp in [KernelPath::Scalar, KernelPath::Lanes] {
            let mut got = vec![[0.0f64; 4]; 32];
            select_kernel(DepositPath::Exact, kp)(&p.icell, &p.dx, &p.dy, &mut got, 1.0);
            for (a, b) in got.iter().zip(&want) {
                for corner in 0..4 {
                    assert_eq!(a[corner].to_bits(), b[corner].to_bits(), "{kp:?}");
                }
            }
        }
    }
}
