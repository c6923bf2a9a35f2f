//! The update-velocities loop: interpolate E at each particle (CIC) and kick.
//!
//! Each particle reads one contiguous `[f64; 8]` block of the redundant
//! field. The hoisted variant assumes the stored field already carries the
//! `q·Δt/m` (and grid-unit) factors, so the loop body is pure
//! interpolate-and-add — the shape the paper reports for its optimized code.
//! (The standard-layout gather the paper compares against lives in
//! `pic_bench::reference`.)

// SoA kernels take one slice per particle field by design; bundling them
// into a struct would obscure the loop shapes the paper compares.
#![allow(clippy::too_many_arguments)]

/// Kick from the redundant field: `v += coeff · E_CIC(particle)`.
///
/// # Panics
/// Panics if the slice lengths disagree.
pub fn update_velocities_redundant(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    e8: &[[f64; 8]],
    coeff_x: f64,
    coeff_y: f64,
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    for i in 0..n {
        let e = &e8[icell[i] as usize];
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        let ex = w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        let ey = w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
        vx[i] += coeff_x * ex;
        vy[i] += coeff_y * ey;
    }
}

/// Hoisted kick: the field is pre-scaled, no per-particle coefficient.
pub fn update_velocities_redundant_hoisted(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    e8: &[[f64; 8]],
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    for i in 0..n {
        let e = &e8[icell[i] as usize];
        let (odx, ody) = (dx[i], dy[i]);
        let w00 = (1.0 - odx) * (1.0 - ody);
        let w01 = (1.0 - odx) * ody;
        let w10 = odx * (1.0 - ody);
        let w11 = odx * ody;
        vx[i] += w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        vy[i] += w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{Field2D, RedundantE};
    use crate::grid::Grid2D;
    use sfc::{CellLayout, RowMajor};

    fn constant_field(v: f64) -> Field2D {
        let g = Grid2D::new(8, 8, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        f.ex.fill(v);
        f.ey.fill(-v);
        f
    }

    #[test]
    fn constant_field_kicks_uniformly() {
        let f = constant_field(2.0);
        let layout = RowMajor::new(8, 8).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);

        let icell = vec![layout.encode(3, 4) as u32, layout.encode(0, 0) as u32];
        let dx = vec![0.3, 0.9];
        let dy = vec![0.7, 0.1];
        let mut vx = vec![1.0, -1.0];
        let mut vy = vec![0.0, 0.0];
        update_velocities_redundant(&icell, &dx, &dy, &mut vx, &mut vy, &e8.e8, 0.5, 0.5);
        // CIC of a constant is the constant: Δvx = 0.5·2 = 1.
        assert!((vx[0] - 2.0).abs() < 1e-14);
        assert!((vx[1] - 0.0).abs() < 1e-14);
        assert!((vy[0] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn hoisted_equals_scaled_coeff() {
        let f = constant_field(3.0);
        let layout = RowMajor::new(8, 8).unwrap();
        // Pre-scale by 0.25 in the redundant copy…
        let mut e8_scaled = RedundantE::new(&layout);
        e8_scaled.fill_from(&f, &layout, 0.25, 0.25);
        // …and compare against coeff = 0.25 on the raw copy.
        let mut e8_raw = RedundantE::new(&layout);
        e8_raw.fill_from(&f, &layout, 1.0, 1.0);

        let icell = vec![0u32; 16];
        let dx: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let dy: Vec<f64> = (0..16).map(|i| (15 - i) as f64 / 16.0).collect();
        let mut vx_a = vec![0.0; 16];
        let mut vy_a = vec![0.0; 16];
        let mut vx_b = vec![0.0; 16];
        let mut vy_b = vec![0.0; 16];
        update_velocities_redundant_hoisted(&icell, &dx, &dy, &mut vx_a, &mut vy_a, &e8_scaled.e8);
        update_velocities_redundant(
            &icell, &dx, &dy, &mut vx_b, &mut vy_b, &e8_raw.e8, 0.25, 0.25,
        );
        for i in 0..16 {
            assert!((vx_a[i] - vx_b[i]).abs() < 1e-14);
            assert!((vy_a[i] - vy_b[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn linear_field_interpolates_exactly() {
        // CIC reproduces linear fields exactly: Ex = ix + iy on an interior
        // patch; a particle at (2 + 0.25, 3 + 0.5) sees 2.25 + 3.5.
        let g = Grid2D::new(8, 8, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for ix in 0..8 {
            for iy in 0..8 {
                f.ex[ix * 8 + iy] = ix as f64 + iy as f64;
            }
        }
        let layout = RowMajor::new(8, 8).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        let icell = vec![layout.encode(2, 3) as u32];
        let (dx, dy) = (vec![0.25], vec![0.5]);
        let mut vx = vec![0.0];
        let mut vy = vec![0.0];
        update_velocities_redundant(&icell, &dx, &dy, &mut vx, &mut vy, &e8.e8, 1.0, 1.0);
        assert!((vx[0] - 5.75).abs() < 1e-14);
    }
}
