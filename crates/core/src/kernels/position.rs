//! The update-positions loop in the paper's final shape (§IV-C3).
//!
//! A particle's position is `x = ix + dx` in grid units. The push adds the
//! (grid-unit) velocity, wraps periodically, and re-splits into
//! `(cell, offset)`: floor by int-cast minus sign bit, wrap by bitwise AND
//! with `nc − 1` (grid dims are powers of two). Pure straight-line
//! arithmetic, auto-vectorizable. The two shapes the paper climbs away from
//! (`if` + real modulo, integer modulo) live in `pic_bench::reference`.
//!
//! There is a row-major variant (recomputes `icell = ix·ncy + iy`
//! directly) and a layout-generic variant (calls `layout.encode`,
//! monomorphized — the “3 extra seconds” of Table III).

// SoA kernels take one slice per particle field by design; bundling them
// into a struct would obscure the loop shapes the paper compares.
#![allow(clippy::too_many_arguments)]

use sfc::CellLayout;

/// Row-major indexing: branchless floor + bitwise wrap, straight-line
/// arithmetic throughout.
pub fn update_positions_branchless(
    icell: &mut [u32],
    ix: &mut [u32],
    iy: &mut [u32],
    dx: &mut [f64],
    dy: &mut [f64],
    vx: &[f64],
    vy: &[f64],
    ncx: usize,
    ncy: usize,
    scale: f64,
) {
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let n = icell.len();
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for i in 0..n {
        let x = ix[i] as f64 + dx[i] + vx[i] * scale;
        let y = iy[i] as f64 + dy[i] + vy[i] * scale;
        // floor(x) = (int)x − (x < 0): exact unless x is a negative integer,
        // which has measure zero for PIC positions (paper §IV-C3).
        let fx = (x as i64) - i64::from(x < 0.0);
        let fy = (y as i64) - i64::from(y < 0.0);
        let cx = (fx & mx) as usize;
        let cy = (fy & my) as usize;
        dx[i] = x - fx as f64;
        dy[i] = y - fy as f64;
        ix[i] = cx as u32;
        iy[i] = cy as u32;
        icell[i] = (cx * ncy + cy) as u32;
    }
}

/// Under an arbitrary layout: same branchless arithmetic, then the
/// (monomorphized) `layout.encode` — the extra work Table III charges to
/// the L4D/Morton/Hilbert orderings.
pub fn update_positions_branchless_layout<L: CellLayout>(
    icell: &mut [u32],
    ix: &mut [u32],
    iy: &mut [u32],
    dx: &mut [f64],
    dy: &mut [f64],
    vx: &[f64],
    vy: &[f64],
    layout: &L,
    scale: f64,
) {
    let (ncx, ncy) = (layout.ncx(), layout.ncy());
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let n = icell.len();
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for i in 0..n {
        let x = ix[i] as f64 + dx[i] + vx[i] * scale;
        let y = iy[i] as f64 + dy[i] + vy[i] * scale;
        let fx = (x as i64) - i64::from(x < 0.0);
        let fy = (y as i64) - i64::from(y < 0.0);
        let cx = (fx & mx) as usize;
        let cy = (fy & my) as usize;
        dx[i] = x - fx as f64;
        dy[i] = y - fy as f64;
        ix[i] = cx as u32;
        iy[i] = cy as u32;
        icell[i] = layout.encode(cx, cy) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::{Morton, RowMajor};

    fn mk(n: usize, ncx: usize, ncy: usize) -> crate::particles::ParticlesSoA {
        let mut p = crate::particles::ParticlesSoA::zeroed(n);
        for i in 0..n {
            let cx = (i * 5) % ncx;
            let cy = (i * 11) % ncy;
            p.ix[i] = cx as u32;
            p.iy[i] = cy as u32;
            p.icell[i] = (cx * ncy + cy) as u32;
            p.dx[i] = ((i * 29) % 97) as f64 / 97.0;
            p.dy[i] = ((i * 43) % 89) as f64 / 89.0;
            // Velocities spanning multiple cells in both directions,
            // including the "crosses more than one cell" general case.
            p.vx[i] = ((i % 13) as f64 - 6.0) * 0.7;
            p.vy[i] = ((i % 17) as f64 - 8.0) * 0.9;
        }
        p
    }

    #[test]
    fn results_stay_in_range() {
        let (ncx, ncy) = (8, 8);
        let mut p = mk(300, ncx, ncy);
        let (vx, vy) = (p.vx.clone(), p.vy.clone());
        update_positions_branchless(
            &mut p.icell,
            &mut p.ix,
            &mut p.iy,
            &mut p.dx,
            &mut p.dy,
            &vx,
            &vy,
            ncx,
            ncy,
            1.0,
        );
        for i in 0..p.len() {
            assert!((p.ix[i] as usize) < ncx);
            assert!((p.iy[i] as usize) < ncy);
            assert!((0.0..1.0).contains(&p.dx[i]), "dx {}", p.dx[i]);
            assert!((0.0..1.0).contains(&p.dy[i]), "dy {}", p.dy[i]);
            assert_eq!(
                p.icell[i] as usize,
                p.ix[i] as usize * ncy + p.iy[i] as usize
            );
        }
    }

    #[test]
    fn periodic_wrap_is_exact() {
        // One particle at cell 7 + 0.5 moving +1.0 cells wraps to cell 0.
        let mut p = crate::particles::ParticlesSoA::zeroed(2);
        p.ix[0] = 7;
        p.dx[0] = 0.5;
        p.vx[0] = 1.0;
        // And one at cell 0 + 0.25 moving −1.0 wraps to cell 7.
        p.ix[1] = 0;
        p.dx[1] = 0.25;
        p.vx[1] = -1.0;
        let (vx, vy) = (p.vx.clone(), p.vy.clone());
        update_positions_branchless(
            &mut p.icell,
            &mut p.ix,
            &mut p.iy,
            &mut p.dx,
            &mut p.dy,
            &vx,
            &vy,
            8,
            8,
            1.0,
        );
        assert_eq!(p.ix[0], 0);
        assert!((p.dx[0] - 0.5).abs() < 1e-14);
        assert_eq!(p.ix[1], 7);
        assert!((p.dx[1] - 0.25).abs() < 1e-14);
    }

    #[test]
    fn multi_cell_crossing() {
        // The general case the paper insists on: moving 3.75 cells at once.
        let mut p = crate::particles::ParticlesSoA::zeroed(1);
        p.ix[0] = 6;
        p.dx[0] = 0.5;
        p.vx[0] = 3.75; // x: 6.5 → 10.25 → cell 2, offset 0.25 (mod 8)
        let (vx, vy) = (p.vx.clone(), p.vy.clone());
        update_positions_branchless(
            &mut p.icell,
            &mut p.ix,
            &mut p.iy,
            &mut p.dx,
            &mut p.dy,
            &vx,
            &vy,
            8,
            8,
            1.0,
        );
        assert_eq!(p.ix[0], 2);
        assert!((p.dx[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scale_factor_applies() {
        // Unhoisted path: physical v = 4, scale = Δt/Δx = 0.25 → 1 cell.
        let mut p = crate::particles::ParticlesSoA::zeroed(1);
        p.vx[0] = 4.0;
        let (vx, vy) = (p.vx.clone(), p.vy.clone());
        update_positions_branchless(
            &mut p.icell,
            &mut p.ix,
            &mut p.iy,
            &mut p.dx,
            &mut p.dy,
            &vx,
            &vy,
            8,
            8,
            0.25,
        );
        assert_eq!(p.ix[0], 1);
        assert_eq!(p.dx[0], 0.0);
    }

    #[test]
    fn layout_variant_matches_rowmajor_then_reencodes() {
        let (ncx, ncy) = (16, 16);
        let base = mk(400, ncx, ncy);
        let mo = Morton::new(ncx, ncy).unwrap();
        let rm = RowMajor::new(ncx, ncy).unwrap();

        let mut a = base.clone();
        let (vx, vy) = (a.vx.clone(), a.vy.clone());
        update_positions_branchless_layout(
            &mut a.icell,
            &mut a.ix,
            &mut a.iy,
            &mut a.dx,
            &mut a.dy,
            &vx,
            &vy,
            &mo,
            1.0,
        );
        let mut b = base.clone();
        update_positions_branchless(
            &mut b.icell,
            &mut b.ix,
            &mut b.iy,
            &mut b.dx,
            &mut b.dy,
            &vx,
            &vy,
            ncx,
            ncy,
            1.0,
        );
        // Same geometry; icell differs by the layout bijection only.
        assert_eq!(a.ix, b.ix);
        assert_eq!(a.iy, b.iy);
        for i in 0..a.len() {
            assert_eq!(
                a.icell[i] as usize,
                mo.encode(a.ix[i] as usize, a.iy[i] as usize)
            );
            assert_eq!(
                b.icell[i] as usize,
                rm.encode(b.ix[i] as usize, b.iy[i] as usize)
            );
        }
    }
}
