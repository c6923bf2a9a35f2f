//! Array-of-Structures particles and the AoS mirrors of the particle kernels.
//!
//! The paper's baseline stores particles as an array of structs; the SoA
//! conversion is worth 19–30 % (§IV-C1, Table IV) because AoS loads stride
//! through memory in units of the whole struct. These kernels reproduce the
//! AoS side of Tables IV and VII. They are intentionally written in the
//! same style as their SoA twins so the comparison isolates the layout.

use super::soa::modulo_real;
use crate::par;
use pic_core::fields::{Field2D, RedundantRho, CX, CY, SX, SY};
use pic_core::particles::ParticlesSoA;

/// One particle, AoS form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Particle {
    /// Flat cell index under the active layout.
    pub icell: u32,
    /// Cell x-coordinate.
    pub ix: u32,
    /// Cell y-coordinate.
    pub iy: u32,
    /// Offset within the cell along x, in `[0, 1)`.
    pub dx: f64,
    /// Offset within the cell along y, in `[0, 1)`.
    pub dy: f64,
    /// Velocity along x (units per the run's hoisting convention).
    pub vx: f64,
    /// Velocity along y.
    pub vy: f64,
}

/// Array-of-Structures storage (the paper's baseline particle layout).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticlesAoS {
    /// The particles.
    pub p: Vec<Particle>,
}

impl ParticlesAoS {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Copy a SoA store, value for value.
    pub fn from_soa(s: &ParticlesSoA) -> Self {
        let p = (0..s.len())
            .map(|i| Particle {
                icell: s.icell[i],
                ix: s.ix[i],
                iy: s.iy[i],
                dx: s.dx[i],
                dy: s.dy[i],
                vx: s.vx[i],
                vy: s.vy[i],
            })
            .collect();
        Self { p }
    }

    /// Convert to SoA, value for value.
    pub fn to_soa(&self) -> ParticlesSoA {
        let mut s = ParticlesSoA::zeroed(self.len());
        for (i, p) in self.p.iter().enumerate() {
            s.icell[i] = p.icell;
            s.ix[i] = p.ix;
            s.iy[i] = p.iy;
            s.dx[i] = p.dx;
            s.dy[i] = p.dy;
            s.vx[i] = p.vx;
            s.vy[i] = p.vy;
        }
        s
    }
}

/// AoS fused loop over standard structures, unhoisted, naive-if wrap —
/// the exact Table IV baseline.
#[allow(clippy::too_many_arguments)]
pub fn fused_standard_aos(
    particles: &mut [Particle],
    field: &Field2D,
    rho: &mut [f64],
    coeff_x: f64,
    coeff_y: f64,
    scale: f64,
    w: f64,
) {
    let (ncx, ncy) = (field.ncx, field.ncy);
    assert_eq!(rho.len(), ncx * ncy);
    let (fx, fy) = (ncx as f64, ncy as f64);
    for p in particles.iter_mut() {
        let cx = p.ix as usize;
        let cy = p.iy as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let w00 = (1.0 - p.dx) * (1.0 - p.dy);
        let w01 = (1.0 - p.dx) * p.dy;
        let w10 = p.dx * (1.0 - p.dy);
        let w11 = p.dx * p.dy;
        let g00 = cx * ncy + cy;
        let g01 = cx * ncy + cyp;
        let g10 = cxp * ncy + cy;
        let g11 = cxp * ncy + cyp;
        let ex =
            w00 * field.ex[g00] + w01 * field.ex[g01] + w10 * field.ex[g10] + w11 * field.ex[g11];
        let ey =
            w00 * field.ey[g00] + w01 * field.ey[g01] + w10 * field.ey[g10] + w11 * field.ey[g11];
        p.vx += coeff_x * ex;
        p.vy += coeff_y * ey;

        let mut x = cx as f64 + p.dx + p.vx * scale;
        let mut y = cy as f64 + p.dy + p.vy * scale;
        if x < 0.0 || x >= fx {
            x = modulo_real(x, fx);
        }
        if y < 0.0 || y >= fy {
            y = modulo_real(y, fy);
        }
        let nx = (x.floor() as usize).min(ncx - 1);
        let ny = (y.floor() as usize).min(ncy - 1);
        p.dx = x - x.floor();
        p.dy = y - y.floor();
        p.ix = nx as u32;
        p.iy = ny as u32;
        p.icell = (nx * ncy + ny) as u32;

        let nxp = (nx + 1) & (ncx - 1);
        let nyp = (ny + 1) & (ncy - 1);
        rho[nx * ncy + ny] += w * (1.0 - p.dx) * (1.0 - p.dy);
        rho[nx * ncy + nyp] += w * (1.0 - p.dx) * p.dy;
        rho[nxp * ncy + ny] += w * p.dx * (1.0 - p.dy);
        rho[nxp * ncy + nyp] += w * p.dx * p.dy;
    }
}

/// AoS split loop 1/3: velocity kick from standard field storage.
pub fn update_velocities_standard_aos(
    particles: &mut [Particle],
    field: &Field2D,
    coeff_x: f64,
    coeff_y: f64,
) {
    let (ncx, ncy) = (field.ncx, field.ncy);
    for p in particles.iter_mut() {
        let cx = p.ix as usize;
        let cy = p.iy as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        let w00 = (1.0 - p.dx) * (1.0 - p.dy);
        let w01 = (1.0 - p.dx) * p.dy;
        let w10 = p.dx * (1.0 - p.dy);
        let w11 = p.dx * p.dy;
        let g00 = cx * ncy + cy;
        let g01 = cx * ncy + cyp;
        let g10 = cxp * ncy + cy;
        let g11 = cxp * ncy + cyp;
        p.vx += coeff_x
            * (w00 * field.ex[g00]
                + w01 * field.ex[g01]
                + w10 * field.ex[g10]
                + w11 * field.ex[g11]);
        p.vy += coeff_y
            * (w00 * field.ey[g00]
                + w01 * field.ey[g01]
                + w10 * field.ey[g10]
                + w11 * field.ey[g11]);
    }
}

/// AoS split loop 1/3, redundant field storage, hoisted.
pub fn update_velocities_redundant_aos(particles: &mut [Particle], e8: &[[f64; 8]]) {
    for p in particles.iter_mut() {
        let e = &e8[p.icell as usize];
        let w00 = (1.0 - p.dx) * (1.0 - p.dy);
        let w01 = (1.0 - p.dx) * p.dy;
        let w10 = p.dx * (1.0 - p.dy);
        let w11 = p.dx * p.dy;
        p.vx += w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        p.vy += w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];
    }
}

/// AoS split loop 2/3: branchless position push, row-major indexing.
pub fn update_positions_branchless_aos(
    particles: &mut [Particle],
    ncx: usize,
    ncy: usize,
    scale: f64,
) {
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for p in particles.iter_mut() {
        let x = p.ix as f64 + p.dx + p.vx * scale;
        let y = p.iy as f64 + p.dy + p.vy * scale;
        let fx = (x as i64) - i64::from(x < 0.0);
        let fy = (y as i64) - i64::from(y < 0.0);
        let cx = (fx & mx) as usize;
        let cy = (fy & my) as usize;
        p.dx = x - fx as f64;
        p.dy = y - fy as f64;
        p.ix = cx as u32;
        p.iy = cy as u32;
        p.icell = (cx * ncy + cy) as u32;
    }
}

/// AoS split loop 2/3: branchless push under an arbitrary layout
/// (monomorphized `encode`, like the SoA twin).
pub fn update_positions_branchless_layout_aos<L: sfc::CellLayout>(
    particles: &mut [Particle],
    layout: &L,
    scale: f64,
) {
    let (ncx, ncy) = (layout.ncx(), layout.ncy());
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for p in particles.iter_mut() {
        let x = p.ix as f64 + p.dx + p.vx * scale;
        let y = p.iy as f64 + p.dy + p.vy * scale;
        let fx = (x as i64) - i64::from(x < 0.0);
        let fy = (y as i64) - i64::from(y < 0.0);
        let cx = (fx & mx) as usize;
        let cy = (fy & my) as usize;
        p.dx = x - fx as f64;
        p.dy = y - fy as f64;
        p.ix = cx as u32;
        p.iy = cy as u32;
        p.icell = layout.encode(cx, cy) as u32;
    }
}

/// Thread-parallel variant of [`update_positions_branchless_layout_aos`].
pub fn par_update_positions_branchless_layout_aos<L: sfc::CellLayout>(
    particles: &mut [Particle],
    layout: &L,
    scale: f64,
    chunk: usize,
) {
    par::for_each(particles.chunks_mut(chunk.max(1)).collect(), |c| {
        update_positions_branchless_layout_aos(c, layout, scale)
    });
}

/// AoS split loop 2/3: naive-if position push (baseline shape).
pub fn update_positions_naive_if_aos(
    particles: &mut [Particle],
    ncx: usize,
    ncy: usize,
    scale: f64,
) {
    let (fx, fy) = (ncx as f64, ncy as f64);
    for p in particles.iter_mut() {
        let mut x = p.ix as f64 + p.dx + p.vx * scale;
        let mut y = p.iy as f64 + p.dy + p.vy * scale;
        if x < 0.0 || x >= fx {
            x = modulo_real(x, fx);
        }
        if y < 0.0 || y >= fy {
            y = modulo_real(y, fy);
        }
        let cx = (x.floor() as usize).min(ncx - 1);
        let cy = (y.floor() as usize).min(ncy - 1);
        p.dx = x - x.floor();
        p.dy = y - y.floor();
        p.ix = cx as u32;
        p.iy = cy as u32;
        p.icell = (cx * ncy + cy) as u32;
    }
}

/// AoS split loop 3/3: standard scattered deposition.
pub fn accumulate_standard_aos(
    particles: &[Particle],
    rho: &mut [f64],
    ncx: usize,
    ncy: usize,
    w: f64,
) {
    assert_eq!(rho.len(), ncx * ncy);
    for p in particles {
        let cx = p.ix as usize;
        let cy = p.iy as usize;
        let cxp = (cx + 1) & (ncx - 1);
        let cyp = (cy + 1) & (ncy - 1);
        rho[cx * ncy + cy] += w * (1.0 - p.dx) * (1.0 - p.dy);
        rho[cx * ncy + cyp] += w * (1.0 - p.dx) * p.dy;
        rho[cxp * ncy + cy] += w * p.dx * (1.0 - p.dy);
        rho[cxp * ncy + cyp] += w * p.dx * p.dy;
    }
}

/// AoS split loop 3/3: redundant contiguous deposition, scalar order.
pub fn accumulate_redundant_aos(particles: &[Particle], rho4: &mut [[f64; 4]], w: f64) {
    for p in particles {
        let dst = &mut rho4[p.icell as usize];
        for corner in 0..4 {
            dst[corner] += w * (CX[corner] + SX[corner] * p.dx) * (CY[corner] + SY[corner] * p.dy);
        }
    }
}

/// AoS fused loop over the redundant structures (hoisted, branchless) —
/// Table VII's “AoS, 1 loop” on the optimized data structures.
pub fn fused_redundant_aos(
    particles: &mut [Particle],
    e8: &[[f64; 8]],
    rho4: &mut [[f64; 4]],
    ncx: usize,
    ncy: usize,
    w: f64,
) {
    debug_assert!(ncx.is_power_of_two() && ncy.is_power_of_two());
    let mx = ncx as i64 - 1;
    let my = ncy as i64 - 1;
    for p in particles.iter_mut() {
        let e = &e8[p.icell as usize];
        let w00 = (1.0 - p.dx) * (1.0 - p.dy);
        let w01 = (1.0 - p.dx) * p.dy;
        let w10 = p.dx * (1.0 - p.dy);
        let w11 = p.dx * p.dy;
        p.vx += w00 * e[0] + w01 * e[1] + w10 * e[2] + w11 * e[3];
        p.vy += w00 * e[4] + w01 * e[5] + w10 * e[6] + w11 * e[7];

        let x = p.ix as f64 + p.dx + p.vx;
        let y = p.iy as f64 + p.dy + p.vy;
        let fx = (x as i64) - i64::from(x < 0.0);
        let fy = (y as i64) - i64::from(y < 0.0);
        let cx = (fx & mx) as usize;
        let cy = (fy & my) as usize;
        p.dx = x - fx as f64;
        p.dy = y - fy as f64;
        p.ix = cx as u32;
        p.iy = cy as u32;
        let cell = cx * ncy + cy;
        p.icell = cell as u32;

        let dst = &mut rho4[cell];
        for corner in 0..4 {
            dst[corner] += w * (CX[corner] + SX[corner] * p.dx) * (CY[corner] + SY[corner] * p.dy);
        }
    }
}

/// Thread-parallel AoS redundant kick.
pub fn par_update_velocities_redundant_aos(
    particles: &mut [Particle],
    e8: &[[f64; 8]],
    chunk: usize,
) {
    par::for_each(particles.chunks_mut(chunk.max(1)).collect(), |c| {
        update_velocities_redundant_aos(c, e8)
    });
}

/// Thread-parallel AoS branchless push.
pub fn par_update_positions_branchless_aos(
    particles: &mut [Particle],
    ncx: usize,
    ncy: usize,
    scale: f64,
    chunk: usize,
) {
    par::for_each(particles.chunks_mut(chunk.max(1)).collect(), |c| {
        update_positions_branchless_aos(c, ncx, ncy, scale)
    });
}

/// Thread-parallel AoS redundant deposition with per-task ρ₄ copies,
/// merged in deterministic chunk order.
pub fn par_accumulate_redundant_aos(
    particles: &[Particle],
    rho4: &mut RedundantRho,
    w: f64,
    chunk: usize,
) {
    let chunks = particles.chunks(chunk.max(1)).collect();
    reduce_private_rho4(chunks, rho4, |c, local| {
        accumulate_redundant_aos(c, local, w)
    });
}

/// Thread-parallel AoS fused redundant loop.
pub fn par_fused_redundant_aos(
    particles: &mut [Particle],
    e8: &[[f64; 8]],
    rho4: &mut RedundantRho,
    ncx: usize,
    ncy: usize,
    w: f64,
    chunk: usize,
) {
    let chunks = particles.chunks_mut(chunk.max(1)).collect();
    reduce_private_rho4(chunks, rho4, |c, local| {
        fused_redundant_aos(c, e8, local, ncx, ncy, w)
    });
}

/// Deposit every chunk into a private ρ₄ copy on the pool, then add the
/// copies into `rho4` in chunk order — the hand-coded OpenMP 4.5
/// array-section reduction of §V-B2.
fn reduce_private_rho4<C: Send>(
    chunks: Vec<C>,
    rho4: &mut RedundantRho,
    deposit: impl Fn(C, &mut [[f64; 4]]) + Sync,
) {
    let ncells = rho4.rho4.len();
    let locals = par::map_collect(chunks, |c| {
        let mut local = vec![[0.0f64; 4]; ncells];
        deposit(c, &mut local);
        local
    });
    for local in locals {
        for (dst, src) in rho4.rho4.iter_mut().zip(&local) {
            for k in 0..4 {
                dst[k] += src[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::soa::{fused_standard_soa, update_velocities_standard};
    use pic_core::fields::RedundantE;
    use pic_core::grid::Grid2D;
    use pic_core::kernels::{accumulate, position, velocity};
    use sfc::RowMajor;

    fn mk(n: usize, ncx: usize, ncy: usize) -> ParticlesSoA {
        let mut p = ParticlesSoA::zeroed(n);
        for i in 0..n {
            let cx = (i * 3 + 2) % ncx;
            let cy = (i * 7 + 1) % ncy;
            p.ix[i] = cx as u32;
            p.iy[i] = cy as u32;
            p.icell[i] = (cx * ncy + cy) as u32;
            p.dx[i] = ((i * 31) % 101) as f64 / 101.0;
            p.dy[i] = ((i * 37) % 103) as f64 / 103.0;
            p.vx[i] = ((i % 15) as f64 - 7.0) * 0.35;
            p.vy[i] = ((i % 13) as f64 - 6.0) * 0.45;
        }
        p
    }

    fn mk_field(ncx: usize, ncy: usize) -> Field2D {
        let g = Grid2D::new(ncx, ncy, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = ((i * 19 + 5) % 43) as f64 * 0.07;
            f.ey[i] = ((i * 29 + 11) % 37) as f64 * -0.09;
        }
        f
    }

    /// AoS and SoA kernels must be bit-for-bit interchangeable.
    #[test]
    fn aos_split_pipeline_matches_soa() {
        let (ncx, ncy) = (16, 16);
        let f = mk_field(ncx, ncy);
        let layout = RowMajor::new(ncx, ncy).unwrap();
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        let soa = mk(400, ncx, ncy);
        let mut aos = ParticlesAoS::from_soa(&soa);

        // SoA pipeline.
        let mut s = soa.clone();
        velocity::update_velocities_redundant_hoisted(
            &s.icell.clone(),
            &s.dx.clone(),
            &s.dy.clone(),
            &mut s.vx,
            &mut s.vy,
            &e8.e8,
        );
        let (vx, vy) = (s.vx.clone(), s.vy.clone());
        position::update_positions_branchless(
            &mut s.icell,
            &mut s.ix,
            &mut s.iy,
            &mut s.dx,
            &mut s.dy,
            &vx,
            &vy,
            ncx,
            ncy,
            1.0,
        );
        let mut rho4_s = RedundantRho::new(&layout);
        accumulate::accumulate_redundant(&s.icell, &s.dx, &s.dy, &mut rho4_s.rho4, 1.0);

        // AoS pipeline.
        update_velocities_redundant_aos(&mut aos.p, &e8.e8);
        update_positions_branchless_aos(&mut aos.p, ncx, ncy, 1.0);
        let mut rho4_a = RedundantRho::new(&layout);
        accumulate_redundant_aos(&aos.p, &mut rho4_a.rho4, 1.0);

        for i in 0..s.len() {
            let q = aos.p[i];
            assert_eq!(q.icell, s.icell[i], "i={i}");
            assert!((q.vx - s.vx[i]).abs() < 1e-14);
            assert!((q.dx - s.dx[i]).abs() < 1e-14);
        }
        for (a, b) in rho4_a.rho4.iter().zip(&rho4_s.rho4) {
            for k in 0..4 {
                assert!((a[k] - b[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn aos_fused_matches_soa_fused() {
        let (ncx, ncy) = (16, 16);
        let f = mk_field(ncx, ncy);
        let soa = mk(300, ncx, ncy);
        let mut aos = ParticlesAoS::from_soa(&soa);
        let mut s = soa.clone();
        let mut rho_a = vec![0.0; ncx * ncy];
        let mut rho_s = vec![0.0; ncx * ncy];
        fused_standard_aos(&mut aos.p, &f, &mut rho_a, 0.8, 1.2, 1.0, 0.5);
        fused_standard_soa(&mut s, &f, &mut rho_s, 0.8, 1.2, 1.0, 0.5);
        for i in 0..s.len() {
            assert_eq!(aos.p[i].icell, s.icell[i]);
            assert!((aos.p[i].vy - s.vy[i]).abs() < 1e-14);
        }
        for i in 0..rho_a.len() {
            assert!((rho_a[i] - rho_s[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn aos_standard_velocity_matches_soa() {
        let (ncx, ncy) = (8, 8);
        let f = mk_field(ncx, ncy);
        let soa = mk(200, ncx, ncy);
        let mut aos = ParticlesAoS::from_soa(&soa);
        let mut s = soa.clone();
        update_velocities_standard_aos(&mut aos.p, &f, 1.5, -0.5);
        update_velocities_standard(
            &s.ix.clone(),
            &s.iy.clone(),
            &s.dx.clone(),
            &s.dy.clone(),
            &mut s.vx,
            &mut s.vy,
            &f,
            1.5,
            -0.5,
        );
        for i in 0..s.len() {
            assert!((aos.p[i].vx - s.vx[i]).abs() < 1e-14);
            assert!((aos.p[i].vy - s.vy[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn aos_naive_position_matches_branchless() {
        let (ncx, ncy) = (32, 32);
        let soa = mk(300, ncx, ncy);
        let mut a = ParticlesAoS::from_soa(&soa);
        let mut b = a.clone();
        update_positions_naive_if_aos(&mut a.p, ncx, ncy, 1.0);
        update_positions_branchless_aos(&mut b.p, ncx, ncy, 1.0);
        for i in 0..a.len() {
            assert_eq!(a.p[i].icell, b.p[i].icell, "i={i}");
            assert!((a.p[i].dx - b.p[i].dx).abs() < 1e-12);
        }
    }

    #[test]
    fn aos_soa_roundtrip() {
        let soa = mk(100, 32, 32);
        assert_eq!(ParticlesAoS::from_soa(&soa).to_soa(), soa);
    }

    #[test]
    fn aos_standard_accumulate_conserves_charge() {
        let (ncx, ncy) = (8, 8);
        let aos = ParticlesAoS::from_soa(&mk(500, ncx, ncy));
        let mut rho = vec![0.0; 64];
        accumulate_standard_aos(&aos.p, &mut rho, ncx, ncy, 0.4);
        assert!((rho.iter().sum::<f64>() - 200.0).abs() < 1e-10);
    }
}
