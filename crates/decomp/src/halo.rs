//! Halo planning and ρ exchange for the redundant cell structures.
//!
//! Between two sorts a rank's particles can drift out of its owned cells,
//! so its deposition writes a *halo* of grid points beyond the subdomain.
//! Conversely the points it owns receive contributions from neighbors whose
//! particles drifted toward it. [`HaloPlan`] precomputes, from the
//! partition alone (no runtime negotiation), exactly which point values
//! travel where; both endpoints of every message derive the same list, so
//! neighbor discovery needs no communication.
//!
//! Grid points are identified by their row-major index `ix * ncy + iy`
//! (the `Field2D` convention); each point corresponds 1:1 to the cell with
//! the same coordinates, and a point is *owned* by the rank owning that
//! cell. A cell's deposition and interpolation touch its four corner
//! points `(ix, iy)`, `(ix, iy+1)`, `(ix+1, iy)`, `(ix+1, iy+1)` (periodic
//! wrap) — the redundant `[4]`/`[8]` corner order of `pic_core::fields`.

use crate::{DecompError, Partition};
use minimpi::Comm;

/// The communication plan of one rank, derived purely from the partition.
pub struct HaloPlan {
    /// Halo width in cells (Chebyshev distance particles may travel
    /// between migrations — i.e. in one step).
    pub halo_width: usize,
    /// Mask over cells: `true` where this rank's particles may sit at
    /// deposit time (owned cells dilated by `halo_width`, periodic). A
    /// particle outside this region after a push is a
    /// [`DecompError::Leakage`].
    pub write_cells: Vec<bool>,
    /// Points owned by this rank (cell 1:1 point), ascending.
    pub owned_points: Vec<usize>,
    /// Corner points of owned cells, ascending — the points where this
    /// rank needs E to kick particles (owned points plus a one-point ring).
    pub e_points: Vec<usize>,
    /// Per peer (ascending): points of `peer`'s subdomain this rank's
    /// deposition may touch — their partial values are sent to `peer`.
    pub send: Vec<(usize, Vec<usize>)>,
    /// Per peer (ascending): owned points `peer`'s deposition may touch —
    /// partial values received from `peer` and accumulated.
    pub recv: Vec<(usize, Vec<usize>)>,
    /// Ranks owning any cell of the write region (minus self), ascending —
    /// the only possible sources/destinations of migrating particles.
    pub neighbors: Vec<usize>,
}

/// Mask over cells within Chebyshev distance `h` (periodic) of rank `r`'s
/// owned cells.
fn write_cell_mask(part: &Partition, r: usize, h: usize) -> Vec<bool> {
    let layout = part.layout();
    let (ncx, ncy) = (layout.ncx() as isize, layout.ncy() as isize);
    let mut mask = vec![false; part.ncells()];
    let h = h as isize;
    for c in part.range(r) {
        let (ix, iy) = layout.decode(c);
        for dx in -h..=h {
            let x = (ix as isize + dx).rem_euclid(ncx) as usize;
            for dy in -h..=h {
                let y = (iy as isize + dy).rem_euclid(ncy) as usize;
                mask[layout.encode(x, y)] = true;
            }
        }
    }
    mask
}

/// Mask over grid points touched by depositing in the masked cells: the
/// union of every masked cell's four corner points.
pub(crate) fn corner_point_mask(part: &Partition, cells: &[bool]) -> Vec<bool> {
    let layout = part.layout();
    let (ncx, ncy) = (layout.ncx(), layout.ncy());
    let mut pts = vec![false; ncx * ncy];
    for (c, &m) in cells.iter().enumerate() {
        if !m {
            continue;
        }
        let (ix, iy) = layout.decode(c);
        let (ixp, iyp) = ((ix + 1) % ncx, (iy + 1) % ncy);
        pts[ix * ncy + iy] = true;
        pts[ix * ncy + iyp] = true;
        pts[ixp * ncy + iy] = true;
        pts[ixp * ncy + iyp] = true;
    }
    pts
}

pub(crate) fn mask_of_range(part: &Partition, r: usize) -> Vec<bool> {
    let mut m = vec![false; part.ncells()];
    for c in part.range(r) {
        m[c] = true;
    }
    m
}

/// Owner part of every grid point (row-major `ix * ncy + iy` index): the
/// owner of the 1:1 cell with the same coordinates. Shared by the plan
/// builder and the live re-partition's field handoff.
pub(crate) fn point_owner_map(part: &Partition) -> Vec<usize> {
    let layout = part.layout();
    let ncy = layout.ncy();
    let mut po = vec![0usize; part.ncells()];
    for c in 0..part.ncells() {
        let (ix, iy) = layout.decode(c);
        po[ix * ncy + iy] = part.owner(c);
    }
    po
}

impl HaloPlan {
    /// Build rank `rank`'s plan. Every rank calling this with the same
    /// partition computes mutually consistent send/recv lists (rank A's
    /// send list toward B equals B's recv list from A, in the same point
    /// order), so the exchange needs no handshake.
    pub fn build(part: &Partition, rank: usize, halo_width: usize) -> Self {
        // Owner of each point = owner of the 1:1 cell.
        let point_owner = point_owner_map(part);

        let write_cells = write_cell_mask(part, rank, halo_width);
        let my_write_pts = corner_point_mask(part, &write_cells);

        let owned_points: Vec<usize> = (0..part.ncells())
            .filter(|&p| point_owner[p] == rank)
            .collect();
        let e_points: Vec<usize> = corner_point_mask(part, &mask_of_range(part, rank))
            .iter()
            .enumerate()
            .filter_map(|(p, &m)| m.then_some(p))
            .collect();

        let mut send: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut recv: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut neighbors: Vec<usize> = Vec::new();
        for peer in 0..part.nranks() {
            if peer == rank {
                continue;
            }
            let to_peer: Vec<usize> = (0..part.ncells())
                .filter(|&p| my_write_pts[p] && point_owner[p] == peer)
                .collect();
            if !to_peer.is_empty() {
                send.push((peer, to_peer));
            }
            let peer_write_pts = corner_point_mask(part, &write_cell_mask(part, peer, halo_width));
            let from_peer: Vec<usize> = (0..part.ncells())
                .filter(|&p| peer_write_pts[p] && point_owner[p] == rank)
                .collect();
            if !from_peer.is_empty() {
                recv.push((peer, from_peer));
            }
        }
        for (c, &m) in write_cells.iter().enumerate() {
            if m {
                let o = part.owner(c);
                if o != rank && !neighbors.contains(&o) {
                    neighbors.push(o);
                }
            }
        }
        neighbors.sort_unstable();

        Self {
            halo_width,
            write_cells,
            owned_points,
            e_points,
            send,
            recv,
            neighbors,
        }
    }
}

/// Exchange partial ρ: send this rank's contributions at foreign-owned
/// points, then accumulate neighbors' contributions into owned points.
/// After the call, `rho` holds the *global* density at every owned point
/// (and stale partials elsewhere).
///
/// Deadlock-free by construction: minimpi sends complete without a posted
/// receive (frames park in the receiver's stash), and under a fault plan
/// the sender's ack wait services incoming data frames — so the
/// send-all-then-receive-all order below cannot cycle; injected faults
/// surface as [`DecompError::Comm`].
pub fn exchange_rho(
    comm: &mut Comm,
    plan: &HaloPlan,
    rho: &mut [f64],
    tag: u64,
) -> Result<(), DecompError> {
    exchange_rho_impl(comm, plan, rho, tag, None)
}

/// [`exchange_rho`] with a *slot routing table*: the plan's peer indices
/// are partition slots, and the frame for slot `s` travels to world rank
/// `route[s]`. This is how the elastic driver keeps one halo plan valid
/// across rank deaths and rejoins — the plan (pure partition geometry)
/// survives; only the slot → rank table changes.
pub fn exchange_rho_routed(
    comm: &mut Comm,
    plan: &HaloPlan,
    rho: &mut [f64],
    tag: u64,
    route: &[usize],
) -> Result<(), DecompError> {
    exchange_rho_impl(comm, plan, rho, tag, Some(route))
}

fn exchange_rho_impl(
    comm: &mut Comm,
    plan: &HaloPlan,
    rho: &mut [f64],
    tag: u64,
    route: Option<&[usize]>,
) -> Result<(), DecompError> {
    let dst = |slot: usize| route.map_or(slot, |r| r[slot]);
    for (peer, pts) in &plan.send {
        let payload: Vec<f64> = pts.iter().map(|&p| rho[p]).collect();
        comm.try_send(dst(*peer), tag, &payload)?;
    }
    for (peer, pts) in &plan.recv {
        let data = comm.try_recv_group(dst(*peer), tag)?;
        if data.len() != pts.len() {
            return Err(DecompError::Config(format!(
                "halo payload from slot {peer}: {} values for {} points",
                data.len(),
                pts.len()
            )));
        }
        for (v, &p) in data.iter().zip(pts) {
            rho[p] += v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::Ordering;

    fn plan_all(part: &Partition, h: usize) -> Vec<HaloPlan> {
        (0..part.nranks())
            .map(|r| HaloPlan::build(part, r, h))
            .collect()
    }

    #[test]
    fn send_recv_lists_are_mutually_consistent() {
        for ord in [Ordering::RowMajor, Ordering::Morton, Ordering::Hilbert] {
            let part = Partition::new(ord, 16, 16, 4).unwrap();
            let plans = plan_all(&part, 2);
            for (r, plan) in plans.iter().enumerate() {
                for (peer, pts) in &plan.send {
                    let back = plans[*peer]
                        .recv
                        .iter()
                        .find(|(p, _)| *p == r)
                        .unwrap_or_else(|| panic!("{ord}: {peer} missing recv from {r}"));
                    assert_eq!(&back.1, pts, "{ord}: {r}->{peer} point lists differ");
                }
            }
        }
    }

    #[test]
    fn owned_points_tile_the_grid() {
        let part = Partition::new(Ordering::Hilbert, 16, 16, 5).unwrap();
        let plans = plan_all(&part, 1);
        let mut seen = vec![0usize; 16 * 16];
        for plan in &plans {
            for &p in &plan.owned_points {
                seen[p] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "points not tiled exactly once"
        );
    }

    #[test]
    fn e_points_cover_owned_cell_corners() {
        let part = Partition::new(Ordering::Morton, 8, 8, 3).unwrap();
        let layout = part.layout();
        for r in 0..3 {
            let plan = HaloPlan::build(&part, r, 2);
            for c in part.range(r) {
                let (ix, iy) = layout.decode(c);
                for (px, py) in [
                    (ix, iy),
                    (ix, (iy + 1) % 8),
                    ((ix + 1) % 8, iy),
                    ((ix + 1) % 8, (iy + 1) % 8),
                ] {
                    assert!(
                        plan.e_points.binary_search(&(px * 8 + py)).is_ok(),
                        "rank {r} missing corner of cell {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_region_contains_owned_and_respects_width() {
        let part = Partition::new(Ordering::Morton, 16, 16, 4).unwrap();
        let layout = part.layout();
        let plan = HaloPlan::build(&part, 1, 2);
        for c in part.range(1) {
            assert!(plan.write_cells[c]);
        }
        // Every write cell is within Chebyshev distance 2 of an owned cell.
        for (c, &m) in plan.write_cells.iter().enumerate() {
            if !m {
                continue;
            }
            let (ix, iy) = layout.decode(c);
            let near = part.range(1).any(|oc| {
                let (ox, oy) = layout.decode(oc);
                let d = |a: usize, b: usize, n: usize| {
                    let d = (a as isize - b as isize).rem_euclid(n as isize) as usize;
                    d.min(n - d)
                };
                d(ix, ox, 16).max(d(iy, oy, 16)) <= 2
            });
            assert!(near, "cell {c} too far from rank 1's subdomain");
        }
    }
}
