//! The SoA loops the paper optimizes *away from*: the kick and deposit over
//! standard grid-point arrays (upper half of Fig. 2), the two slower
//! update-positions shapes of §IV-C, and the single fused particle loop of
//! Fig. 1 before the loop splitting of §IV-A.
//!
//! * [`update_velocities_standard`] / [`accumulate_standard`] gather from and
//!   scatter to four grid points per particle instead of one contiguous
//!   redundant row — the "2d standard" row of Table III.
//! * [`update_positions_naive_if`] tests `if (x < 0 || x >= ncx)` and calls a
//!   real-valued modulo plus `floor()`: branches and a libm call, the shape
//!   compilers refuse to vectorize (GNU) or vectorize poorly (Intel);
//!   [`update_positions_modulo`] is the unconditional integer modulo
//!   (`rem_euclid`): branch-free but still an integer division. The
//!   branchless third shape is production code
//!   (`pic_core::kernels::position`).
//! * The fused loops scan the particle arrays once but interleave the E
//!   reads and ρ writes, spoiling both vectorization and the per-array
//!   memory behaviour; the paper measures an 18–25 % loss against the split
//!   loops (Tables IV and VII).

// SoA kernels take one slice per particle field by design; bundling them
// into a struct would obscure the loop shapes the paper compares.
#![allow(clippy::too_many_arguments)]

use pic_core::fields::{Field2D, CX, CY, SX, SY};
use pic_core::particles::ParticlesSoA;
use sfc::CellLayout;

/// Kick from standard grid-point storage: four scattered gathers per
/// component, with periodic neighbour wrap (grid dims are powers of two).
pub fn update_velocities_standard(
    ix: &[u32],
    iy: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    field: &Field2D,
    coeff_x: f64,
    coeff_y: f64,
) {
    let n = ix.len();
    assert!(iy.len() == n && dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    let (ncx, ncy) = (field.ncx, field.ncy);
    for i in 0..n {
        let cx = ix[i] as usize;
        let cy = iy[i] as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        let g00 = cx * ncy + cy;
        let g01 = cx * ncy + cyp;
        let g10 = cxp * ncy + cy;
        let g11 = cxp * ncy + cyp;
        let ex =
            w00 * field.ex[g00] + w01 * field.ex[g01] + w10 * field.ex[g10] + w11 * field.ex[g11];
        let ey =
            w00 * field.ey[g00] + w01 * field.ey[g01] + w10 * field.ey[g10] + w11 * field.ey[g11];
        vx[i] += coeff_x * ex;
        vy[i] += coeff_y * ey;
    }
}

/// Reference modulo over the reals (paper §IV-C2 footnote):
/// the unique value in `[0, b)` congruent to `a`.
#[inline]
pub fn modulo_real(a: f64, b: f64) -> f64 {
    a - (a / b).floor() * b
}

/// Shape 1: `if` + real modulo + `floor()` call. Row-major cell indexing.
pub fn update_positions_naive_if(
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
    let n = icell.len();
    let (fx, fy) = (ncx as f64, ncy as f64);
    for i in 0..n {
        let mut x = ix[i] as f64 + dx[i] + vx[i] * scale;
        let mut y = iy[i] as f64 + dy[i] + vy[i] * scale;
        if x < 0.0 || x >= fx {
            x = modulo_real(x, fx);
        }
        if y < 0.0 || y >= fy {
            y = modulo_real(y, fy);
        }
        let cx = x.floor();
        let cy = y.floor();
        dx[i] = x - cx;
        dy[i] = y - cy;
        // Guard the x == fx-ε rounding edge: floor may round up to fx.
        let cix = (cx as usize).min(ncx - 1);
        let ciy = (cy as usize).min(ncy - 1);
        ix[i] = cix as u32;
        iy[i] = ciy as u32;
        icell[i] = (cix * ncy + ciy) as u32;
    }
}

/// Shape 2: unconditional integer modulo (`rem_euclid`), no inside test.
pub fn update_positions_modulo(
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
    let n = icell.len();
    for i in 0..n {
        let x = ix[i] as f64 + dx[i] + vx[i] * scale;
        let y = iy[i] as f64 + dy[i] + vy[i] * scale;
        let fx = x.floor();
        let fy = y.floor();
        let cx = (fx as i64).rem_euclid(ncx as i64) as usize;
        let cy = (fy as i64).rem_euclid(ncy as i64) as usize;
        dx[i] = x - fx;
        dy[i] = y - fy;
        ix[i] = cx as u32;
        iy[i] = cy as u32;
        icell[i] = (cx * ncy + cy) as u32;
    }
}

/// Naive-if shape under an arbitrary layout (for the Table III Hilbert row).
pub fn update_positions_naive_if_layout<L: CellLayout>(
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
    let n = icell.len();
    let (fxm, fym) = (ncx as f64, ncy as f64);
    for i in 0..n {
        let mut x = ix[i] as f64 + dx[i] + vx[i] * scale;
        let mut y = iy[i] as f64 + dy[i] + vy[i] * scale;
        if x < 0.0 || x >= fxm {
            x = modulo_real(x, fxm);
        }
        if y < 0.0 || y >= fym {
            y = modulo_real(y, fym);
        }
        let cx = (x.floor() as usize).min(ncx - 1);
        let cy = (y.floor() as usize).min(ncy - 1);
        dx[i] = x - x.floor();
        dy[i] = y - y.floor();
        ix[i] = cx as u32;
        iy[i] = cy as u32;
        icell[i] = layout.encode(cx, cy) as u32;
    }
}

/// Standard deposition: four scattered adds onto grid points, periodic wrap
/// (upper half of Fig. 2).
pub fn accumulate_standard(
    ix: &[u32],
    iy: &[u32],
    dx: &[f64],
    dy: &[f64],
    rho: &mut [f64],
    ncx: usize,
    ncy: usize,
    w: f64,
) {
    let n = ix.len();
    assert!(iy.len() == n && dx.len() == n && dy.len() == n);
    assert_eq!(rho.len(), ncx * ncy);
    for i in 0..n {
        let cx = ix[i] as usize;
        let cy = iy[i] as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let (odx, ody) = (dx[i], dy[i]);
        rho[cx * ncy + cy] += w * (1.0 - odx) * (1.0 - ody);
        rho[cx * ncy + cyp] += w * (1.0 - odx) * ody;
        rho[cxp * ncy + cy] += w * odx * (1.0 - ody);
        rho[cxp * ncy + cyp] += w * odx * ody;
    }
}

/// Fused SoA loop over the *standard* field/ρ structures, unhoisted: the
/// per-particle multiplies by `coeff_*` (velocity kick) and `scale`
/// (position push) happen inside the loop, and the periodic wrap is the
/// naive `if` + real-modulo form. This is the Table IV baseline shape
/// (modulo its AoS storage — see [`super::aos`]).
pub fn fused_standard_soa(
    p: &mut ParticlesSoA,
    field: &Field2D,
    rho: &mut [f64],
    coeff_x: f64,
    coeff_y: f64,
    scale: f64,
    w: f64,
) {
    let n = p.len();
    let (ncx, ncy) = (field.ncx, field.ncy);
    assert_eq!(rho.len(), ncx * ncy);
    let (fx, fy) = (ncx as f64, ncy as f64);
    for i in 0..n {
        // Kick at the old position.
        let cx = p.ix[i] as usize;
        let cy = p.iy[i] as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let (odx, ody) = (p.dx[i], p.dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        let g00 = cx * ncy + cy;
        let g01 = cx * ncy + cyp;
        let g10 = cxp * ncy + cy;
        let g11 = cxp * ncy + cyp;
        let ex =
            w00 * field.ex[g00] + w01 * field.ex[g01] + w10 * field.ex[g10] + w11 * field.ex[g11];
        let ey =
            w00 * field.ey[g00] + w01 * field.ey[g01] + w10 * field.ey[g10] + w11 * field.ey[g11];
        p.vx[i] += coeff_x * ex;
        p.vy[i] += coeff_y * ey;

        // Push, naive-if wrap.
        let mut x = cx as f64 + odx + p.vx[i] * scale;
        let mut y = cy as f64 + ody + p.vy[i] * scale;
        if x < 0.0 || x >= fx {
            x = modulo_real(x, fx);
        }
        if y < 0.0 || y >= fy {
            y = modulo_real(y, fy);
        }
        let nx = (x.floor() as usize).min(ncx - 1);
        let ny = (y.floor() as usize).min(ncy - 1);
        let ndx = x - x.floor();
        let ndy = y - y.floor();
        p.ix[i] = nx as u32;
        p.iy[i] = ny as u32;
        p.dx[i] = ndx;
        p.dy[i] = ndy;
        p.icell[i] = (nx * ncy + ny) as u32;

        // Deposit at the new position, scattered.
        let nxp = (nx + 1) & (ncx - 1);
        let nyp = (ny + 1) & (ncy - 1);
        rho[nx * ncy + ny] += w * (1.0 - ndx) * (1.0 - ndy);
        rho[nx * ncy + nyp] += w * (1.0 - ndx) * ndy;
        rho[nxp * ncy + ny] += w * ndx * (1.0 - ndy);
        rho[nxp * ncy + nyp] += w * ndx * ndy;
    }
}

/// Fused SoA loop over the *redundant* structures with hoisted coefficients
/// and the branchless wrap — the optimized data structures in the
/// unsplit loop shape, i.e. the “SoA, 1 loop” column of Table VII.
pub fn fused_redundant_soa(
    p: &mut ParticlesSoA,
    e8: &[[f64; 8]],
    rho4: &mut [[f64; 4]],
    ncx: usize,
    ncy: usize,
    w: f64,
) {
    let ParticlesSoA {
        icell,
        ix,
        iy,
        dx,
        dy,
        vx,
        vy,
    } = p;
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let n = icell.len();
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for i in 0..n {
        // Kick (hoisted: e8 is pre-scaled, velocities in grid units/step).
        let e = &e8[icell[i] as usize];
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        vx[i] += w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        vy[i] += w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];

        // Push, branchless.
        let x = ix[i] as f64 + odx + vx[i];
        let y = iy[i] as f64 + ody + vy[i];
        let fxi = (x as i64) - i64::from(x < 0.0);
        let fyi = (y as i64) - i64::from(y < 0.0);
        let nx = (fxi & mx) as usize;
        let ny = (fyi & my) as usize;
        let ndx = x - fxi as f64;
        let ndy = y - fyi as f64;
        ix[i] = nx as u32;
        iy[i] = ny as u32;
        dx[i] = ndx;
        dy[i] = ndy;
        let cell = nx * ncy + ny;
        icell[i] = cell as u32;

        // Deposit (redundant, contiguous).
        let dst = &mut rho4[cell];
        for corner in 0..4 {
            dst[corner] += w * (CX[corner] + SX[corner] * ndx) * (CY[corner] + SY[corner] * ndy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::fields::{RedundantE, RedundantRho};
    use pic_core::grid::Grid2D;
    use pic_core::kernels::{accumulate, position, velocity};
    use pic_core::particles::reencode;
    use sfc::{Morton, RowMajor};

    fn mk_field(ncx: usize, ncy: usize) -> Field2D {
        let g = Grid2D::new(ncx, ncy, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = ((i * 37 + 3) % 41) as f64 * 0.05;
            f.ey[i] = ((i * 23 + 7) % 31) as f64 * -0.08;
        }
        f
    }

    /// Row-major test particles; [`reencode`] them for another layout.
    fn mk(n: usize, ncx: usize, ncy: usize) -> ParticlesSoA {
        let mut p = ParticlesSoA::zeroed(n);
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

    fn assert_same(a: &ParticlesSoA, b: &ParticlesSoA) {
        assert_eq!(a.icell, b.icell);
        assert_eq!(a.ix, b.ix);
        assert_eq!(a.iy, b.iy);
        for i in 0..a.len() {
            assert!((a.dx[i] - b.dx[i]).abs() < 1e-12, "dx i={i}");
            assert!((a.dy[i] - b.dy[i]).abs() < 1e-12, "dy i={i}");
        }
    }

    #[test]
    fn redundant_matches_standard() {
        // A deterministic "random" field; both storage paths must agree.
        let g = Grid2D::new(16, 16, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = ((i * 37 + 11) % 101) as f64 * 0.1;
            f.ey[i] = ((i * 53 + 29) % 97) as f64 * -0.2;
        }
        let layout = Morton::new(16, 16).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);

        let npart = 200;
        let mut icell = Vec::new();
        let mut ix = Vec::new();
        let mut iy = Vec::new();
        let mut dx = Vec::new();
        let mut dy = Vec::new();
        for i in 0..npart {
            let cx = (i * 7) % 16;
            let cy = (i * 13) % 16;
            ix.push(cx as u32);
            iy.push(cy as u32);
            icell.push(layout.encode(cx, cy) as u32);
            dx.push(((i * 31) % 100) as f64 / 100.0);
            dy.push(((i * 17) % 100) as f64 / 100.0);
        }
        let mut vx_a = vec![0.0; npart];
        let mut vy_a = vec![0.0; npart];
        let mut vx_b = vec![0.0; npart];
        let mut vy_b = vec![0.0; npart];
        velocity::update_velocities_redundant(
            &icell, &dx, &dy, &mut vx_a, &mut vy_a, &e8.e8, 1.5, 2.5,
        );
        update_velocities_standard(&ix, &iy, &dx, &dy, &mut vx_b, &mut vy_b, &f, 1.5, 2.5);
        for i in 0..npart {
            assert!((vx_a[i] - vx_b[i]).abs() < 1e-13, "i={i}");
            assert!((vy_a[i] - vy_b[i]).abs() < 1e-13, "i={i}");
        }
    }

    #[test]
    fn all_three_shapes_agree() {
        let (ncx, ncy) = (16, 32);
        let base = mk(500, ncx, ncy);
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        update_positions_naive_if(
            &mut a.icell,
            &mut a.ix,
            &mut a.iy,
            &mut a.dx,
            &mut a.dy,
            &a.vx.clone(),
            &a.vy.clone(),
            ncx,
            ncy,
            1.0,
        );
        update_positions_modulo(
            &mut b.icell,
            &mut b.ix,
            &mut b.iy,
            &mut b.dx,
            &mut b.dy,
            &b.vx.clone(),
            &b.vy.clone(),
            ncx,
            ncy,
            1.0,
        );
        position::update_positions_branchless(
            &mut c.icell,
            &mut c.ix,
            &mut c.iy,
            &mut c.dx,
            &mut c.dy,
            &c.vx.clone(),
            &c.vy.clone(),
            ncx,
            ncy,
            1.0,
        );
        assert_same(&a, &b);
        assert_same(&a, &c);
    }

    #[test]
    fn naive_layout_variant_agrees_with_branchless_layout() {
        let (ncx, ncy) = (32, 32);
        let base = mk(300, ncx, ncy);
        let mo = Morton::new(ncx, ncy).unwrap();
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        let mut a = base.clone();
        update_positions_naive_if_layout(
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
        position::update_positions_branchless_layout(
            &mut b.icell,
            &mut b.ix,
            &mut b.iy,
            &mut b.dx,
            &mut b.dy,
            &vx,
            &vy,
            &mo,
            1.0,
        );
        assert_eq!(a.icell, b.icell);
        for i in 0..a.len() {
            assert!((a.dx[i] - b.dx[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn modulo_real_reference() {
        assert_eq!(modulo_real(5.0, 8.0), 5.0);
        assert_eq!(modulo_real(8.5, 8.0), 0.5);
        assert_eq!(modulo_real(-0.5, 8.0), 7.5);
        assert_eq!(modulo_real(-16.25, 8.0), 7.75);
    }

    #[test]
    fn charge_is_conserved_standard() {
        let (ncx, ncy) = (8, 8);
        let p = mk(1000, ncx, ncy);
        let mut rho = vec![0.0; 64];
        accumulate_standard(&p.ix, &p.iy, &p.dx, &p.dy, &mut rho, ncx, ncy, 0.5);
        let total: f64 = rho.iter().sum();
        assert!((total - 500.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn redundant_reduces_to_standard() {
        // The paper's two code paths in Fig. 2 must produce identical grids.
        let (ncx, ncy) = (16, 16);
        for layout in [
            Box::new(RowMajor::new(ncx, ncy).unwrap()) as Box<dyn CellLayout>,
            Box::new(Morton::new(ncx, ncy).unwrap()),
        ] {
            let mut p = mk(2000, ncx, ncy);
            reencode(&mut p, layout.as_ref());
            let mut rho_std = vec![0.0; ncx * ncy];
            accumulate_standard(&p.ix, &p.iy, &p.dx, &p.dy, &mut rho_std, ncx, ncy, 1.25);
            let mut rho_red = vec![0.0; ncx * ncy];
            let mut rho4 = RedundantRho::new(layout.as_ref());
            accumulate::accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut rho4.rho4, 1.25);
            rho4.reduce_to_grid(layout.as_ref(), &mut rho_red);
            for i in 0..ncx * ncy {
                assert!(
                    (rho_std[i] - rho_red[i]).abs() < 1e-10,
                    "{}: cell {i}: {} vs {}",
                    layout.name(),
                    rho_std[i],
                    rho_red[i]
                );
            }
        }
    }

    /// The central invariant of §IV-A: splitting the loop must not change
    /// physics — fused and split pipelines produce identical states.
    #[test]
    fn fused_standard_equals_split_pipeline() {
        let (ncx, ncy) = (16, 16);
        let f = mk_field(ncx, ncy);
        let base = mk(500, ncx, ncy);
        let (coeff_x, coeff_y, scale, w) = (0.9, 1.1, 1.0, 0.75);

        // Fused.
        let mut a = base.clone();
        let mut rho_a = vec![0.0; ncx * ncy];
        fused_standard_soa(&mut a, &f, &mut rho_a, coeff_x, coeff_y, scale, w);

        // Split: kick, push, deposit.
        let mut b = base.clone();
        update_velocities_standard(
            &b.ix.clone(),
            &b.iy.clone(),
            &b.dx.clone(),
            &b.dy.clone(),
            &mut b.vx,
            &mut b.vy,
            &f,
            coeff_x,
            coeff_y,
        );
        let (vx, vy) = (b.vx.clone(), b.vy.clone());
        update_positions_naive_if(
            &mut b.icell,
            &mut b.ix,
            &mut b.iy,
            &mut b.dx,
            &mut b.dy,
            &vx,
            &vy,
            ncx,
            ncy,
            scale,
        );
        let mut rho_b = vec![0.0; ncx * ncy];
        accumulate_standard(&b.ix, &b.iy, &b.dx, &b.dy, &mut rho_b, ncx, ncy, w);

        assert_eq!(a.icell, b.icell);
        for i in 0..a.len() {
            assert!((a.vx[i] - b.vx[i]).abs() < 1e-13);
            assert!((a.dx[i] - b.dx[i]).abs() < 1e-12);
        }
        for i in 0..ncx * ncy {
            assert!((rho_a[i] - rho_b[i]).abs() < 1e-10, "cell {i}");
        }
    }

    #[test]
    fn fused_redundant_equals_split_pipeline() {
        let (ncx, ncy) = (16, 16);
        let layout = RowMajor::new(ncx, ncy).unwrap();
        let f = mk_field(ncx, ncy);
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        let base = mk(500, ncx, ncy);
        let w = 1.5;

        let mut a = base.clone();
        let mut rho4_a = RedundantRho::new(&layout);
        fused_redundant_soa(&mut a, &e8.e8, &mut rho4_a.rho4, ncx, ncy, w);

        let mut b = base.clone();
        velocity::update_velocities_redundant_hoisted(
            &b.icell.clone(),
            &b.dx.clone(),
            &b.dy.clone(),
            &mut b.vx,
            &mut b.vy,
            &e8.e8,
        );
        let (vx, vy) = (b.vx.clone(), b.vy.clone());
        position::update_positions_branchless(
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
        let mut rho4_b = RedundantRho::new(&layout);
        accumulate::accumulate_redundant(&b.icell, &b.dx, &b.dy, &mut rho4_b.rho4, w);

        assert_eq!(a.icell, b.icell);
        for i in 0..a.len() {
            assert!((a.vx[i] - b.vx[i]).abs() < 1e-13);
        }
        for (ca, cb) in rho4_a.rho4.iter().zip(&rho4_b.rho4) {
            for k in 0..4 {
                assert!((ca[k] - cb[k]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn fused_conserves_charge() {
        let (ncx, ncy) = (8, 8);
        let layout = RowMajor::new(ncx, ncy).unwrap();
        let f = mk_field(ncx, ncy);
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        let mut p = mk(1000, ncx, ncy);
        let mut rho4 = RedundantRho::new(&layout);
        fused_redundant_soa(&mut p, &e8.e8, &mut rho4.rho4, ncx, ncy, 2.0);
        let total: f64 = rho4.rho4.iter().flat_map(|c| c.iter()).sum();
        assert!((total - 2000.0).abs() < 1e-9);
    }
}
