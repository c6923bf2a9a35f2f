//! The charge-accumulation (deposition) loop in the paper's redundant
//! vectorizable form (lower half of Fig. 2), plus the thread equivalent of
//! the OpenMP 4.5 array-section reduction (§V-B2). The standard scattered
//! form it is compared against lives in `pic_bench::reference`.

// SoA kernels take one slice per particle field by design; bundling them
// into a struct would obscure the loop shapes the paper compares.
#![allow(clippy::too_many_arguments)]

use super::deposit::{self, DepositPath};
use crate::fields::RedundantRho;
use crate::sim::KernelPath;

/// Redundant deposition (lower half of Fig. 2): the four corner updates of
/// one particle write a single contiguous `[f64; 4]` block, with the
/// coefficient tables turning the inner corner loop into straight-line
/// vectorizable arithmetic.
pub fn accumulate_redundant(icell: &[u32], dx: &[f64], dy: &[f64], rho4: &mut [[f64; 4]], w: f64) {
    // The scalar body is the shared tail helper of every blocked deposit
    // variant, so there is exactly one copy of the weight/bounds logic.
    deposit::deposit_tail(icell, dx, dy, rho4, w);
}

/// Zero-allocation parallel redundant deposition on a persistent pool.
///
/// Worker `w` deposits its particle chunk (boundaries from
/// [`crate::pool::chunk_range`]) into `arenas[w]` — a reusable private ρ₄
/// copy owned by the simulation — and the leader then merges the arenas
/// into `out` in worker order, so the floating-point reduction order is
/// deterministic regardless of thread timing. This is the hand-coded
/// OpenMP 4.5 `reduction(+: rho[0:ncells][0:4])` of §V-B2, with the inner
/// kernel chosen by the `(DepositPath, KernelPath)` pair through
/// [`deposit::select_kernel`]. Worker chunk boundaries may split a cell run,
/// so under the reassociated paths each worker's arena carries its own
/// partial sums — the merged result still satisfies the per-cell FP bound
/// because the worker-order merge only reassociates further.
///
/// # Panics
///
/// Panics when fewer arenas than pool workers are supplied (single-worker
/// pools need none: deposition then goes straight into `out`).
pub fn pool_accumulate_redundant(
    pool: &crate::pool::ThreadPool,
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    out: &mut RedundantRho,
    arenas: &mut [RedundantRho],
    w: f64,
    path: DepositPath,
    kernel_path: KernelPath,
) {
    let kernel = deposit::select_kernel(path, kernel_path);
    let nw = pool.nthreads();
    let n = icell.len();
    if nw == 1 || n == 0 {
        kernel(icell, dx, dy, &mut out.rho4, w);
        return;
    }
    assert!(
        arenas.len() >= nw,
        "pool_accumulate_redundant: {} arenas for {nw} workers",
        arenas.len()
    );
    pool.run_items(&mut arenas[..nw], |worker, arena| {
        let (s, e) = crate::pool::chunk_range(n, nw, worker);
        arena.clear();
        kernel(&icell[s..e], &dx[s..e], &dy[s..e], &mut arena.rho4, w);
    });
    for arena in &arenas[..nw] {
        out.add_assign(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::{CellLayout, Morton, RowMajor};

    fn mk(
        n: usize,
        ncx: usize,
        ncy: usize,
        layout: &dyn CellLayout,
    ) -> crate::particles::ParticlesSoA {
        let mut p = crate::particles::ParticlesSoA::zeroed(n);
        for i in 0..n {
            let cx = (i * 5 + 1) % ncx;
            let cy = (i * 11 + 2) % ncy;
            p.ix[i] = cx as u32;
            p.iy[i] = cy as u32;
            p.icell[i] = layout.encode(cx, cy) as u32;
            p.dx[i] = ((i * 29) % 97) as f64 / 97.0;
            p.dy[i] = ((i * 43) % 89) as f64 / 89.0;
        }
        p
    }

    #[test]
    fn charge_is_conserved_redundant() {
        let (ncx, ncy) = (8, 8);
        let l = Morton::new(ncx, ncy).unwrap();
        let p = mk(1000, ncx, ncy, &l);
        let mut acc = RedundantRho::new(&l);
        accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut acc.rho4, 0.5);
        let total: f64 = acc.rho4.iter().flat_map(|c| c.iter()).sum();
        assert!((total - 500.0).abs() < 1e-9);
    }

    #[test]
    fn single_particle_corner_weights() {
        let l = RowMajor::new(8, 8).unwrap();
        let icell = vec![l.encode(2, 3) as u32];
        let dx = vec![0.25f64];
        let dy = vec![0.75f64];
        let mut acc = RedundantRho::new(&l);
        accumulate_redundant(&icell, &dx, &dy, &mut acc.rho4, 1.0);
        let c = &acc.rho4[l.encode(2, 3)];
        assert!((c[0] - 0.75 * 0.25).abs() < 1e-15);
        assert!((c[1] - 0.75 * 0.75).abs() < 1e-15);
        assert!((c[2] - 0.25 * 0.25).abs() < 1e-15);
        assert!((c[3] - 0.25 * 0.75).abs() < 1e-15);
    }

    #[test]
    fn particle_on_node_deposits_to_single_point() {
        let l = RowMajor::new(8, 8).unwrap();
        let icell = vec![l.encode(5, 5) as u32];
        let mut acc = RedundantRho::new(&l);
        accumulate_redundant(&icell, &[0.0], &[0.0], &mut acc.rho4, 2.0);
        let c = &acc.rho4[l.encode(5, 5)];
        assert_eq!(c[0], 2.0);
        assert_eq!(c[1], 0.0);
        assert_eq!(c[2], 0.0);
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn pool_deposition_reusable_and_deterministic() {
        let (ncx, ncy) = (16, 16);
        let l = Morton::new(ncx, ncy).unwrap();
        let p = mk(10_000, ncx, ncy, &l);
        let mut seq = RedundantRho::new(&l);
        accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut seq.rho4, 1.0);
        let combos = [
            (DepositPath::Exact, KernelPath::Scalar),
            (DepositPath::Exact, KernelPath::Lanes),
            (DepositPath::LaneReduce, KernelPath::Lanes),
        ];
        for nthreads in [1usize, 2, 4] {
            let pool = crate::pool::ThreadPool::new(nthreads);
            for (path, kp) in combos {
                let mut arenas: Vec<RedundantRho> = (0..pool.nthreads())
                    .map(|_| RedundantRho::new(&l))
                    .collect();
                // Dirty the arenas: the helper must clear them itself.
                for a in &mut arenas {
                    a.rho4[0][0] = 99.0;
                }
                let run = |arenas: &mut [RedundantRho]| {
                    let mut out = RedundantRho::new(&l);
                    pool_accumulate_redundant(
                        &pool, &p.icell, &p.dx, &p.dy, &mut out, arenas, 1.0, path, kp,
                    );
                    out
                };
                let first = run(&mut arenas);
                let second = run(&mut arenas);
                for (cell, (a, b)) in first.rho4.iter().zip(&second.rho4).enumerate() {
                    for k in 0..4 {
                        // Re-running on reused arenas must be bit-identical.
                        assert_eq!(
                            a[k].to_bits(),
                            b[k].to_bits(),
                            "nthreads={nthreads} path={path:?} cell={cell}"
                        );
                        assert!(
                            (a[k] - seq.rho4[cell][k]).abs() < 1e-10,
                            "nthreads={nthreads} path={path:?} cell={cell}"
                        );
                    }
                }
            }
        }
    }
}
