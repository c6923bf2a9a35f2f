//! Explicit lane-blocked kernels: fixed-width blocks of [`LANES`] particles
//! processed through array-of-lanes temporaries, with a scalar tail.
//!
//! The scalar kernels in [`super::position`] / [`super::velocity`] /
//! [`super::accumulate`] iterate seven parallel slices whose lengths the
//! compiler cannot prove equal, so every access carries a bounds check and
//! the loops do not autovectorize. These variants convert each block to
//! `&mut [T; LANES]` references first (one length check per block, then
//! provably in-bounds indexing), which lets LLVM emit full-width vector code
//! for the straight-line arithmetic — the explicit-SIMD discipline of
//! Vincenti et al.'s portable deposition algorithm, in safe Rust.
//!
//! Every lane expression either is written with *exactly* the same
//! operations and order as its scalar counterpart, or (the position
//! kernels' floor→wrap pipeline) is an exact float-domain reformulation:
//! Rust's checked `f64 as i64` cast lowers to a scalar `cvttsd2si` plus
//! NaN/saturation fixups per element, so the push instead computes the
//! scalar kernel's `trunc(x) − (x < 0)` floor in f64 (exact for
//! `|x| < 2⁵¹`) and extracts the wrapped cell index with the 2⁵² magic-
//! constant bit trick; blocks containing positions outside that range (or
//! NaN) fall back to the scalar kernel, so results stay bit-identical to
//! the scalar path for *all* inputs and particle counts — the property the
//! kernel-path parity tests pin down. The tail (`n mod LANES` particles)
//! always runs the scalar kernel. Deposition computes the four corner
//! weights lane-blocked but scatters them in particle order, preserving
//! the scalar accumulation order exactly.

// Lane kernels mirror the scalar kernels' slice-per-field signatures.
#![allow(clippy::too_many_arguments)]

use sfc::CellLayout;

/// Lane-block width: 8 × f64 fills one AVX-512 register (two AVX2).
pub const LANES: usize = 8;

/// 1.5 × 2⁵², the classic float→int bit trick: for any integer-valued
/// `f` with `|f| < 2⁵¹`, `f + MAGIC` is exact and the low 32 mantissa bits
/// of the sum are `f`'s two's-complement low 32 bits. Rust's checked
/// `as i64` cast lowers to a scalar `cvttsd2si` plus NaN/saturation fixups
/// per element, which defeats vectorization of the whole loop; this trick
/// keeps the floor→wrap pipeline in vector registers.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// Positions with `|x| < FLOOR_LIMIT` (= 2⁵¹) take the vectorized
/// floor-by-bit-trick path; a block containing anything larger (or NaN)
/// falls back to the scalar kernel, which preserves the saturating-cast
/// semantics of `as i64` exactly.
const FLOOR_LIMIT: f64 = (1u64 << 51) as f64;

/// Borrow a lane block starting at `o` from a slice as a fixed-size array.
#[inline(always)]
pub(crate) fn block<T>(s: &[T], o: usize) -> &[T; LANES] {
    s[o..o + LANES].try_into().expect("block within bounds")
}

/// Mutable counterpart of [`block`].
#[inline(always)]
pub(crate) fn block_mut<T>(s: &mut [T], o: usize) -> &mut [T; LANES] {
    (&mut s[o..o + LANES])
        .try_into()
        .expect("block within bounds")
}

/// Lane-blocked branchless push, row-major indexing. Bit-identical to
/// [`super::position::update_positions_branchless`].
pub fn update_positions_branchless_lanes(
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
    assert!(
        ix.len() == n
            && iy.len() == n
            && dx.len() == n
            && dy.len() == n
            && vx.len() == n
            && vy.len() == n
    );
    let mxu = ncx as u32 - 1;
    let myu = ncy as u32 - 1;
    let ncyu = ncy as u32;
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = block_mut(icell, o);
        let bix = block_mut(ix, o);
        let biy = block_mut(iy, o);
        let bdx = block_mut(dx, o);
        let bdy = block_mut(dy, o);
        let bvx = block(vx, o);
        let bvy = block(vy, o);
        let mut xs = [0.0f64; LANES];
        let mut ys = [0.0f64; LANES];
        let mut ok = true;
        for l in 0..LANES {
            xs[l] = bix[l] as f64 + bdx[l] + bvx[l] * scale;
            ys[l] = biy[l] as f64 + bdy[l] + bvy[l] * scale;
            // NaN fails the comparison, routing the block to the scalar
            // fallback whose `as i64` semantics handle it.
            ok &= xs[l].abs() < FLOOR_LIMIT;
            ok &= ys[l].abs() < FLOOR_LIMIT;
        }
        if ok {
            for l in 0..LANES {
                let (x, y) = (xs[l], ys[l]);
                // floor(x) as the scalar kernel computes it — trunc minus
                // one when negative — kept in the float domain, where every
                // step is exact for |x| < 2⁵¹.
                let fx = x.trunc() - if x < 0.0 { 1.0 } else { 0.0 };
                let fy = y.trunc() - if y < 0.0 { 1.0 } else { 0.0 };
                let cx = ((fx + MAGIC).to_bits() as u32) & mxu;
                let cy = ((fy + MAGIC).to_bits() as u32) & myu;
                bdx[l] = x - fx;
                bdy[l] = y - fy;
                bix[l] = cx;
                biy[l] = cy;
                bc[l] = cx * ncyu + cy;
            }
        } else {
            super::position::update_positions_branchless(
                &mut bc[..],
                &mut bix[..],
                &mut biy[..],
                &mut bdx[..],
                &mut bdy[..],
                &bvx[..],
                &bvy[..],
                ncx,
                ncy,
                scale,
            );
        }
        o += LANES;
    }
    super::position::update_positions_branchless(
        &mut icell[main..],
        &mut ix[main..],
        &mut iy[main..],
        &mut dx[main..],
        &mut dy[main..],
        &vx[main..],
        &vy[main..],
        ncx,
        ncy,
        scale,
    );
}

/// Lane-blocked branchless push under an arbitrary layout: the wrap/floor
/// arithmetic vectorizes; `layout.encode` stays scalar per lane (the same
/// extra cost Table III charges the SFC orderings). Bit-identical to
/// [`super::position::update_positions_branchless_layout`].
///
/// Kept out of line: per layout its one production caller is a strip
/// closure, and folded into that the push would show up in profiles and
/// symbol tables under a closure's name.
#[inline(never)]
pub fn update_positions_branchless_layout_lanes<L: CellLayout>(
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
    assert!(
        ix.len() == n
            && iy.len() == n
            && dx.len() == n
            && dy.len() == n
            && vx.len() == n
            && vy.len() == n
    );
    let mxu = ncx as u32 - 1;
    let myu = ncy as u32 - 1;
    let main = n - n % LANES;
    let mut o = 0;
    while o < main {
        let bc = block_mut(icell, o);
        let bix = block_mut(ix, o);
        let biy = block_mut(iy, o);
        let bdx = block_mut(dx, o);
        let bdy = block_mut(dy, o);
        let bvx = block(vx, o);
        let bvy = block(vy, o);
        let mut xs = [0.0f64; LANES];
        let mut ys = [0.0f64; LANES];
        let mut ok = true;
        for l in 0..LANES {
            xs[l] = bix[l] as f64 + bdx[l] + bvx[l] * scale;
            ys[l] = biy[l] as f64 + bdy[l] + bvy[l] * scale;
            ok &= xs[l].abs() < FLOOR_LIMIT;
            ok &= ys[l].abs() < FLOOR_LIMIT;
        }
        if ok {
            // Vector part: positions, floor, wrap, offsets (see the
            // row-major kernel for the float-domain floor argument).
            for l in 0..LANES {
                let (x, y) = (xs[l], ys[l]);
                let fx = x.trunc() - if x < 0.0 { 1.0 } else { 0.0 };
                let fy = y.trunc() - if y < 0.0 { 1.0 } else { 0.0 };
                bdx[l] = x - fx;
                bdy[l] = y - fy;
                bix[l] = ((fx + MAGIC).to_bits() as u32) & mxu;
                biy[l] = ((fy + MAGIC).to_bits() as u32) & myu;
            }
            // Scalar part: the (monomorphized) space-filling-curve encode.
            for l in 0..LANES {
                bc[l] = layout.encode(bix[l] as usize, biy[l] as usize) as u32;
            }
        } else {
            super::position::update_positions_branchless_layout(
                &mut bc[..],
                &mut bix[..],
                &mut biy[..],
                &mut bdx[..],
                &mut bdy[..],
                &bvx[..],
                &bvy[..],
                layout,
                scale,
            );
        }
        o += LANES;
    }
    super::position::update_positions_branchless_layout(
        &mut icell[main..],
        &mut ix[main..],
        &mut iy[main..],
        &mut dx[main..],
        &mut dy[main..],
        &vx[main..],
        &vy[main..],
        layout,
        scale,
    );
}

/// Lane-blocked hoisted kick: gather the 8 redundant E values per lane, then
/// a vectorized weight-and-add block. Bit-identical to
/// [`super::velocity::update_velocities_redundant_hoisted`].
pub fn update_velocities_redundant_hoisted_lanes(
    icell: &[u32],
    dx: &[f64],
    dy: &[f64],
    vx: &mut [f64],
    vy: &mut [f64],
    e8: &[[f64; 8]],
) {
    let n = icell.len();
    assert!(dx.len() == n && dy.len() == n && vx.len() == n && vy.len() == n);
    let main = n - n % LANES;
    let mut o = 0;
    let mut e = [[0.0f64; 8]; LANES];
    while o < main {
        let bc = block(icell, o);
        let bdx = block(dx, o);
        let bdy = block(dy, o);
        let bvx = block_mut(vx, o);
        let bvy = block_mut(vy, o);
        // Gather: one contiguous 8-double block per lane (data-dependent
        // indices — the part that stays a gather on any hardware).
        for l in 0..LANES {
            e[l] = e8[bc[l] as usize];
        }
        for l in 0..LANES {
            let (odx, ody) = (bdx[l], bdy[l]);
            let w00 = (1.0 - odx) * (1.0 - ody);
            let w01 = (1.0 - odx) * ody;
            let w10 = odx * (1.0 - ody);
            let w11 = odx * ody;
            bvx[l] += w00 * e[l][0] + w01 * e[l][1] + w10 * e[l][2] + w11 * e[l][3];
            bvy[l] += w00 * e[l][4] + w01 * e[l][5] + w10 * e[l][6] + w11 * e[l][7];
        }
        o += LANES;
    }
    super::velocity::update_velocities_redundant_hoisted(
        &icell[main..],
        &dx[main..],
        &dy[main..],
        &mut vx[main..],
        &mut vy[main..],
        e8,
    );
}

/// Lane-blocked redundant deposition: the 4-wide corner weights of a whole
/// lane block are computed in one vectorizable pass, then scattered in
/// particle order (so the accumulation order — and therefore every rounding
/// — matches [`super::accumulate::accumulate_redundant`] exactly).
pub fn accumulate_redundant_lanes(
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
    let mut wb = [[0.0f64; 4]; LANES];
    while o < main {
        let bc = block(icell, o);
        let bdx = block(dx, o);
        let bdy = block(dy, o);
        // Vector part: 4 corner weights × LANES particles, straight-line.
        for l in 0..LANES {
            wb[l] = super::deposit::corner_weights(bdx[l], bdy[l], w);
        }
        // Scatter part: particle order, one contiguous 4-double block each.
        for l in 0..LANES {
            let cell = &mut rho4[bc[l] as usize];
            for corner in 0..4 {
                cell[corner] += wb[l][corner];
            }
        }
        o += LANES;
    }
    super::deposit::deposit_tail(&icell[main..], &dx[main..], &dy[main..], rho4, w);
}

/// Lane-blocked `Σ (sx·vx)² + (sy·vy)²`: `4·LANES` running partials over the
/// full blocks (four independent vector add chains, none across
/// neighbouring particles, so the loop vectorizes and overlaps the add
/// latency), a pairwise reduction of the partials, then the remainder added
/// in particle order. The summation order is a pure function of the slice
/// length, so equal slices give equal bits.
pub fn sum_speed_sq_lanes(vx: &[f64], vy: &[f64], sx: f64, sy: f64) -> f64 {
    const WIDTH: usize = 4 * LANES;
    assert!(vx.len() == vy.len());
    let speed_sq = |ux: f64, uy: f64| {
        let (px, py) = (ux * sx, uy * sy);
        px * px + py * py
    };
    let mut acc = [0.0f64; WIDTH];
    let (bx, by) = (vx.chunks_exact(WIDTH), vy.chunks_exact(WIDTH));
    let (tx, ty) = (bx.remainder(), by.remainder());
    for (bvx, bvy) in bx.zip(by) {
        for l in 0..WIDTH {
            acc[l] += speed_sq(bvx[l], bvy[l]);
        }
    }
    let mut width = WIDTH;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    let mut sum = acc[0];
    for (&ux, &uy) in tx.iter().zip(ty) {
        sum += speed_sq(ux, uy);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::super::{accumulate, position, velocity};
    use super::*;
    use crate::fields::{Field2D, RedundantE, RedundantRho};
    use crate::grid::Grid2D;
    use crate::particles::ParticlesSoA;
    use sfc::{Hilbert, Morton, RowMajor, L4D};

    /// Particle counts around the lane width: empty, single, sub-block,
    /// exact blocks, and ragged tails.
    const EDGE_COUNTS: [usize; 8] = [0, 1, 7, 8, 9, 64, 1000, 1003];

    fn mk(n: usize, ncx: usize, ncy: usize) -> ParticlesSoA {
        let mut p = ParticlesSoA::zeroed(n);
        for i in 0..n {
            let cx = (i * 5 + 3) % ncx;
            let cy = (i * 11 + 1) % ncy;
            p.ix[i] = cx as u32;
            p.iy[i] = cy as u32;
            p.icell[i] = (cx * ncy + cy) as u32;
            p.dx[i] = ((i * 29) % 97) as f64 / 97.0;
            p.dy[i] = ((i * 43) % 89) as f64 / 89.0;
            p.vx[i] = ((i % 13) as f64 - 6.0) * 0.7;
            p.vy[i] = ((i % 17) as f64 - 8.0) * 0.9;
        }
        p
    }

    fn test_field(ncx: usize, ncy: usize) -> Field2D {
        let g = Grid2D::new(ncx, ncy, 1.0, 1.0).unwrap();
        let mut f = Field2D::new(&g);
        for i in 0..f.ex.len() {
            f.ex[i] = ((i * 37 + 11) % 101) as f64 * 0.1;
            f.ey[i] = ((i * 53 + 29) % 97) as f64 * -0.2;
        }
        f
    }

    #[test]
    fn positions_bit_identical_rowmajor() {
        let (ncx, ncy) = (16, 32);
        for n in EDGE_COUNTS {
            let base = mk(n, ncx, ncy);
            let (vx, vy) = (base.vx.clone(), base.vy.clone());
            let mut a = base.clone();
            let mut b = base.clone();
            position::update_positions_branchless(
                &mut a.icell,
                &mut a.ix,
                &mut a.iy,
                &mut a.dx,
                &mut a.dy,
                &vx,
                &vy,
                ncx,
                ncy,
                1.0,
            );
            update_positions_branchless_lanes(
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
            assert_eq!(a.icell, b.icell, "n={n}");
            assert_eq!(a.ix, b.ix, "n={n}");
            assert_eq!(a.iy, b.iy, "n={n}");
            // Bitwise, not approximate: identical expressions must give
            // identical doubles.
            for i in 0..n {
                assert_eq!(a.dx[i].to_bits(), b.dx[i].to_bits(), "dx n={n} i={i}");
                assert_eq!(a.dy[i].to_bits(), b.dy[i].to_bits(), "dy n={n} i={i}");
            }
        }
    }

    #[test]
    fn positions_bit_identical_all_layouts() {
        let (ncx, ncy) = (16, 16);
        let n = 1003;
        let base = mk(n, ncx, ncy);
        let (vx, vy) = (base.vx.clone(), base.vy.clone());
        macro_rules! check {
            ($layout:expr) => {{
                let l = $layout;
                let mut a = base.clone();
                let mut b = base.clone();
                position::update_positions_branchless_layout(
                    &mut a.icell,
                    &mut a.ix,
                    &mut a.iy,
                    &mut a.dx,
                    &mut a.dy,
                    &vx,
                    &vy,
                    &l,
                    1.0,
                );
                update_positions_branchless_layout_lanes(
                    &mut b.icell,
                    &mut b.ix,
                    &mut b.iy,
                    &mut b.dx,
                    &mut b.dy,
                    &vx,
                    &vy,
                    &l,
                    1.0,
                );
                assert_eq!(a.icell, b.icell);
                for i in 0..n {
                    assert_eq!(a.dx[i].to_bits(), b.dx[i].to_bits());
                    assert_eq!(a.dy[i].to_bits(), b.dy[i].to_bits());
                }
            }};
        }
        check!(RowMajor::new(ncx, ncy).unwrap());
        check!(L4D::new(ncx, ncy, 4).unwrap());
        check!(Morton::new(ncx, ncy).unwrap());
        check!(Hilbert::new(ncx, ncy).unwrap());
    }

    #[test]
    fn velocities_bit_identical() {
        let (ncx, ncy) = (16, 16);
        let layout = Morton::new(ncx, ncy).unwrap();
        let f = test_field(ncx, ncy);
        let mut e8 = RedundantE::new(&layout);
        e8.fill_from(&f, &layout, 1.0, 1.0);
        for n in EDGE_COUNTS {
            let mut base = mk(n, ncx, ncy);
            for i in 0..n {
                base.icell[i] = layout.encode(base.ix[i] as usize, base.iy[i] as usize) as u32;
            }
            let mut a = base.clone();
            let mut b = base.clone();
            velocity::update_velocities_redundant_hoisted(
                &a.icell.clone(),
                &a.dx.clone(),
                &a.dy.clone(),
                &mut a.vx,
                &mut a.vy,
                &e8.e8,
            );
            update_velocities_redundant_hoisted_lanes(
                &b.icell.clone(),
                &b.dx.clone(),
                &b.dy.clone(),
                &mut b.vx,
                &mut b.vy,
                &e8.e8,
            );
            for i in 0..n {
                assert_eq!(a.vx[i].to_bits(), b.vx[i].to_bits(), "vx n={n} i={i}");
                assert_eq!(a.vy[i].to_bits(), b.vy[i].to_bits(), "vy n={n} i={i}");
            }
        }
    }

    #[test]
    fn deposition_bit_identical() {
        let (ncx, ncy) = (16, 16);
        let layout = Morton::new(ncx, ncy).unwrap();
        for n in EDGE_COUNTS {
            let mut p = mk(n, ncx, ncy);
            for i in 0..n {
                p.icell[i] = layout.encode(p.ix[i] as usize, p.iy[i] as usize) as u32;
            }
            let mut a = RedundantRho::new(&layout);
            let mut b = RedundantRho::new(&layout);
            accumulate::accumulate_redundant(&p.icell, &p.dx, &p.dy, &mut a.rho4, 0.75);
            accumulate_redundant_lanes(&p.icell, &p.dx, &p.dy, &mut b.rho4, 0.75);
            for (c, (x, y)) in a.rho4.iter().zip(&b.rho4).enumerate() {
                for k in 0..4 {
                    assert_eq!(x[k].to_bits(), y[k].to_bits(), "n={n} cell={c} corner={k}");
                }
            }
        }
    }

    #[test]
    fn speed_sq_sum_tracks_plain_sum() {
        for n in EDGE_COUNTS {
            let p = mk(n, 16, 16);
            let (sx, sy) = (0.7, 1.3);
            let plain: f64 = (0..n)
                .map(|i| (p.vx[i] * sx).powi(2) + (p.vy[i] * sy).powi(2))
                .sum();
            let lanes = sum_speed_sq_lanes(&p.vx, &p.vy, sx, sy);
            assert!(
                (lanes - plain).abs() <= 1e-12 * plain.abs(),
                "n={n}: {lanes} vs {plain}"
            );
        }
    }
}
