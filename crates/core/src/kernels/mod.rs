//! The particle-loop kernels of the paper's optimized code path.
//!
//! Layout of this module tree:
//!
//! * [`velocity`] — the update-velocities loop (field interpolation) over
//!   the redundant field storage;
//! * [`position`] — the branchless update-positions loop (§IV-C3);
//! * [`accumulate`] — the redundant (contiguous, vectorizable — Fig. 2)
//!   charge-deposition loop;
//! * [`deposit`] — the reassociated vectorized deposit
//!   ([`deposit::DepositPath`]): per-lane private ρ with transposed
//!   lane-reduction;
//! * [`simd`] — explicit lane-blocked twins of the three loops;
//! * [`boris`], [`current`] — the 2d3v push and current deposit.
//!
//! The shapes the paper optimizes *away from* — AoS particles, standard
//! grid arrays, the fused loop, the naive position updates — are reference
//! kernels in `pic_bench::reference`, driven by the table harnesses only.
//!
//! All SoA kernels take plain slices so that a pool worker can be handed a
//! disjoint chunk; [`split_soa_mut_into`] produces those chunks safely.
//!
//! ### Hoisting convention
//!
//! Every kernel exists in a *coefficient* form (multiplies by `coeff` /
//! `scale` per particle — the unhoisted baseline) and callers get the
//! hoisted variant of §IV-D by pre-scaling the stored fields/velocities and
//! passing `1.0`; the dedicated `*_hoisted` entry points omit the multiply
//! entirely so the generated loop body matches the paper's optimized code.

pub mod accumulate;
pub mod boris;
pub mod current;
pub mod deposit;
pub mod position;
pub mod simd;
pub mod velocity;

use crate::particles::ParticlesSoA;

/// A mutable view over one contiguous range of a particle store — a
/// [`ParticlesSoA`] plus the optional `vz` column of a 2d3v store; the
/// default is the empty view.
#[derive(Default)]
pub struct SoaViewMut<'a> {
    /// Cell indices.
    pub icell: &'a mut [u32],
    /// Cell x-coordinates.
    pub ix: &'a mut [u32],
    /// Cell y-coordinates.
    pub iy: &'a mut [u32],
    /// In-cell x offsets.
    pub dx: &'a mut [f64],
    /// In-cell y offsets.
    pub dy: &'a mut [f64],
    /// x velocities.
    pub vx: &'a mut [f64],
    /// y velocities.
    pub vy: &'a mut [f64],
    /// z velocities: index-parallel with the rest, or empty for a 2d2v store.
    pub vz: &'a mut [f64],
}

impl<'a> SoaViewMut<'a> {
    /// Particles in this view.
    pub fn len(&self) -> usize {
        self.icell.len()
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.icell.is_empty()
    }

    /// Reborrow the sub-range `start..end` of this view.
    pub fn range_mut(&mut self, start: usize, end: usize) -> SoaViewMut<'_> {
        let nz = self.vz.len();
        SoaViewMut {
            icell: &mut self.icell[start..end],
            ix: &mut self.ix[start..end],
            iy: &mut self.iy[start..end],
            dx: &mut self.dx[start..end],
            dy: &mut self.dy[start..end],
            vx: &mut self.vx[start..end],
            vy: &mut self.vy[start..end],
            vz: &mut self.vz[start.min(nz)..end.min(nz)],
        }
    }
}

/// Split a particle store — `p` plus its `vz` column, empty for a 2d2v
/// store — into `nchunks` disjoint mutable views of near-equal size (for
/// thread fan-out), larger chunks first, without allocating: the views go
/// into `out` (a stack array on the hot path) and the count produced is
/// returned — fewer than `nchunks` when there are fewer particles than
/// chunks.
///
/// # Panics
///
/// Panics if `out` is shorter than the number of chunks produced
/// (`min(nchunks.max(1), n.max(1))`), or if a non-empty `vz` is not
/// index-parallel with `p`.
pub fn split_soa_mut_into<'a>(
    p: &'a mut ParticlesSoA,
    vz: &'a mut [f64],
    nchunks: usize,
    out: &mut [Option<SoaViewMut<'a>>],
) -> usize {
    let n = p.len();
    assert!(vz.is_empty() || vz.len() == n, "vz not parallel with p");
    let nchunks = nchunks.max(1).min(n.max(1));
    assert!(
        out.len() >= nchunks,
        "split_soa_mut_into: {} slots for {nchunks} chunks",
        out.len()
    );
    let base = n / nchunks;
    let extra = n % nchunks;

    /// Cut the first `len` elements (all of a shorter column) off `s`.
    fn take<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
        let whole = std::mem::take(s);
        let (head, rest) = whole.split_at_mut(len.min(whole.len()));
        *s = rest;
        head
    }
    let (mut icell, mut ix, mut iy) = (&mut p.icell[..], &mut p.ix[..], &mut p.iy[..]);
    let (mut dx, mut dy) = (&mut p.dx[..], &mut p.dy[..]);
    let (mut vx, mut vy, mut vz) = (&mut p.vx[..], &mut p.vy[..], vz);
    for (c, slot) in out.iter_mut().enumerate().take(nchunks) {
        let len = base + usize::from(c < extra);
        *slot = Some(SoaViewMut {
            icell: take(&mut icell, len),
            ix: take(&mut ix, len),
            iy: take(&mut iy, len),
            dx: take(&mut dx, len),
            dy: take(&mut dy, len),
            vx: take(&mut vx, len),
            vy: take(&mut vy, len),
            vz: take(&mut vz, len),
        });
    }
    nchunks
}

/// A standard normal draw for the kernel tests' random velocities: the
/// libm Box–Muller transform, the first uniform clamped away from zero.
#[cfg(test)]
pub(crate) fn normal(rng: &mut crate::rng::Rng) -> f64 {
    let u1 = rng.uniform().max(f64::EPSILON);
    let u2 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_once_with_larger_chunks_first() {
        for (n, nchunks, want) in [
            (10, 3, vec![4, 3, 3]),
            (2, 8, vec![1, 1]),
            (0, 4, vec![0]),
            (100, 7, vec![15, 15, 14, 14, 14, 14, 14]),
        ] {
            for has_vz in [false, true] {
                let mut p = ParticlesSoA::zeroed(n);
                for i in 0..n {
                    p.icell[i] = i as u32;
                }
                let mut vz = vec![0.0; if has_vz { n } else { 0 }];
                let mut slots: [Option<SoaViewMut>; 16] = [const { None }; 16];
                let nv = split_soa_mut_into(&mut p, &mut vz, nchunks, &mut slots);
                let mut views: Vec<&mut SoaViewMut> = slots[..nv].iter_mut().flatten().collect();
                let lens: Vec<usize> = views.iter().map(|v| v.len()).collect();
                assert_eq!(lens, want, "n={n} nchunks={nchunks}");
                let seen: Vec<u32> = views.iter().flat_map(|v| v.icell.iter().copied()).collect();
                assert_eq!(seen, (0..n as u32).collect::<Vec<u32>>());
                // `vz` travels with the chunk and with any sub-range of it.
                for v in &mut views {
                    let len = v.len();
                    assert_eq!(v.vz.len(), if has_vz { len } else { 0 });
                    let tail = v.range_mut(len / 2, len);
                    assert_eq!(tail.vz.len(), if has_vz { tail.len() } else { 0 });
                }
            }
        }
    }
}
