//! The particle-loop kernels, one per optimization variant of the paper.
//!
//! Layout of this module tree:
//!
//! * [`velocity`] — the update-velocities loop (field interpolation), over
//!   standard vs redundant field storage;
//! * [`position`] — the update-positions loop in the paper's three shapes:
//!   `if`+real-modulo, integer-modulo, and branchless bitwise (§IV-C);
//! * [`accumulate`] — the charge-deposition loop, standard (scattered) vs
//!   redundant (contiguous, vectorizable — Fig. 2);
//! * [`deposit`] — the reassociated vectorized deposit variants
//!   ([`deposit::DepositPath`]): per-lane private ρ with transposed
//!   lane-reduction, and the sorted-batch register deposit;
//! * [`fused`] — the single fused particle loop (velocity + position +
//!   deposition in one pass), the shape the paper *splits away from*
//!   (§IV-A), for AoS and SoA;
//! * [`aos`] — AoS mirrors of the split kernels for the Table IV / VII
//!   comparisons.
//!
//! All SoA kernels take plain slices so that the parallel wrappers can hand
//! them disjoint chunks; [`SoaChunksMut`] produces those chunks safely.
//!
//! ### Hoisting convention
//!
//! Every kernel exists in a *coefficient* form (multiplies by `coeff` /
//! `scale` per particle — the unhoisted baseline) and callers get the
//! hoisted variant of §IV-D by pre-scaling the stored fields/velocities and
//! passing `1.0`; the dedicated `*_hoisted` entry points omit the multiply
//! entirely so the generated loop body matches the paper's optimized code.

pub mod accumulate;
pub mod aos;
pub mod boris;
pub mod boundary;
pub mod current;
pub mod deposit;
pub mod fused;
pub mod position;
pub mod simd;
pub mod velocity;

use crate::particles::ParticlesSoA;

/// A mutable view over one contiguous range of a [`ParticlesSoA`]; the
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
        SoaViewMut {
            icell: &mut self.icell[start..end],
            ix: &mut self.ix[start..end],
            iy: &mut self.iy[start..end],
            dx: &mut self.dx[start..end],
            dy: &mut self.dy[start..end],
            vx: &mut self.vx[start..end],
            vy: &mut self.vy[start..end],
        }
    }
}

/// Split a particle store into `nchunks` disjoint mutable views of
/// near-equal size (for thread fan-out). Returns fewer chunks when there are
/// fewer particles than chunks.
pub fn split_soa_mut(p: &mut ParticlesSoA, nchunks: usize) -> Vec<SoaViewMut<'_>> {
    let n = p.len();
    let nchunks = nchunks.max(1).min(n.max(1));
    let base = n / nchunks;
    let extra = n % nchunks;

    let mut views = Vec::with_capacity(nchunks);
    let (mut icell, mut ix, mut iy, mut dx, mut dy, mut vx, mut vy) = (
        p.icell.as_mut_slice(),
        p.ix.as_mut_slice(),
        p.iy.as_mut_slice(),
        p.dx.as_mut_slice(),
        p.dy.as_mut_slice(),
        p.vx.as_mut_slice(),
        p.vy.as_mut_slice(),
    );
    for c in 0..nchunks {
        let len = base + usize::from(c < extra);
        let (a, b) = icell.split_at_mut(len);
        icell = b;
        let (a2, b2) = ix.split_at_mut(len);
        ix = b2;
        let (a3, b3) = iy.split_at_mut(len);
        iy = b3;
        let (a4, b4) = dx.split_at_mut(len);
        dx = b4;
        let (a5, b5) = dy.split_at_mut(len);
        dy = b5;
        let (a6, b6) = vx.split_at_mut(len);
        vx = b6;
        let (a7, b7) = vy.split_at_mut(len);
        vy = b7;
        views.push(SoaViewMut {
            icell: a,
            ix: a2,
            iy: a3,
            dx: a4,
            dy: a5,
            vx: a6,
            vy: a7,
        });
    }
    views
}

/// Alias kept for discoverability in docs.
pub type SoaChunksMut<'a> = Vec<SoaViewMut<'a>>;

/// Allocation-free variant of [`split_soa_mut`]: writes the views into
/// `out` (a stack array on the hot path) and returns how many were
/// produced. Chunk boundaries are identical to [`split_soa_mut`] — larger
/// chunks first — so the two fan-out paths assign the same particles to the
/// same worker.
///
/// # Panics
///
/// Panics if `out` is shorter than the number of chunks produced
/// (`min(nchunks.max(1), n.max(1))`).
pub fn split_soa_mut_into<'a>(
    p: &'a mut ParticlesSoA,
    nchunks: usize,
    out: &mut [Option<SoaViewMut<'a>>],
) -> usize {
    let n = p.len();
    let nchunks = nchunks.max(1).min(n.max(1));
    assert!(
        out.len() >= nchunks,
        "split_soa_mut_into: {} slots for {nchunks} chunks",
        out.len()
    );
    let base = n / nchunks;
    let extra = n % nchunks;

    let (mut icell, mut ix, mut iy, mut dx, mut dy, mut vx, mut vy) = (
        p.icell.as_mut_slice(),
        p.ix.as_mut_slice(),
        p.iy.as_mut_slice(),
        p.dx.as_mut_slice(),
        p.dy.as_mut_slice(),
        p.vx.as_mut_slice(),
        p.vy.as_mut_slice(),
    );
    for (c, slot) in out.iter_mut().enumerate().take(nchunks) {
        let len = base + usize::from(c < extra);
        let (a, b) = icell.split_at_mut(len);
        icell = b;
        let (a2, b2) = ix.split_at_mut(len);
        ix = b2;
        let (a3, b3) = iy.split_at_mut(len);
        iy = b3;
        let (a4, b4) = dx.split_at_mut(len);
        dx = b4;
        let (a5, b5) = dy.split_at_mut(len);
        dy = b5;
        let (a6, b6) = vx.split_at_mut(len);
        vx = b6;
        let (a7, b7) = vy.split_at_mut(len);
        vy = b7;
        *slot = Some(SoaViewMut {
            icell: a,
            ix: a2,
            iy: a3,
            dx: a4,
            dy: a5,
            vx: a6,
            vy: a7,
        });
    }
    nchunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_once() {
        let mut p = ParticlesSoA::zeroed(10);
        for i in 0..10 {
            p.icell[i] = i as u32;
        }
        let views = split_soa_mut(&mut p, 3);
        assert_eq!(views.len(), 3);
        let lens: Vec<usize> = views.iter().map(|v| v.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        let all: Vec<u32> = views.iter().flat_map(|v| v.icell.iter().copied()).collect();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn split_more_chunks_than_particles() {
        let mut p = ParticlesSoA::zeroed(2);
        let views = split_soa_mut(&mut p, 8);
        assert_eq!(views.len(), 2);
        assert!(views.iter().all(|v| v.len() == 1));
    }

    #[test]
    fn split_empty_store() {
        let mut p = ParticlesSoA::zeroed(0);
        let views = split_soa_mut(&mut p, 4);
        assert_eq!(views.len(), 1);
        assert!(views[0].is_empty());
    }

    #[test]
    fn split_into_matches_vec_variant() {
        for (n, nchunks) in [(10, 3), (2, 8), (0, 4), (100, 7)] {
            let mut p = ParticlesSoA::zeroed(n);
            for i in 0..n {
                p.icell[i] = i as u32;
            }
            let mut q = p.clone();
            let vec_lens: Vec<usize> = split_soa_mut(&mut p, nchunks)
                .iter()
                .map(|v| v.len())
                .collect();
            let mut slots: [Option<SoaViewMut>; 16] = [const { None }; 16];
            let nv = split_soa_mut_into(&mut q, nchunks, &mut slots);
            assert_eq!(nv, vec_lens.len());
            let mut seen = Vec::new();
            for slot in slots.iter().take(nv) {
                let v = slot.as_ref().unwrap();
                seen.extend(v.icell.iter().copied());
            }
            assert_eq!(seen, (0..n as u32).collect::<Vec<u32>>());
            let into_lens: Vec<usize> = slots[..nv]
                .iter()
                .map(|s| s.as_ref().unwrap().len())
                .collect();
            assert_eq!(into_lens, vec_lens);
        }
    }
}
