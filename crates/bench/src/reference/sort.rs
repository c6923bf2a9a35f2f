//! The paper's §V-B1 in-place sort, kept as the ablation it is measured
//! against: `pic_core::sort` runs only the out-of-place counting sort.

use pic_core::particles::ParticlesSoA;
use pic_core::sort::{cell_counts, cell_starts};

/// In-place cycle-chasing counting sort (no scratch array; ~3 moves per
/// displaced particle — the paper's measured 2× slower variant). Unstable:
/// equal cells may leave in any order.
pub fn sort_in_place(p: &mut ParticlesSoA, ncells: usize) {
    let starts = cell_starts(&cell_counts(&p.icell, ncells));
    // `next[c]`: next free slot within cell c's output range.
    let mut next = starts[..ncells].to_vec();
    // Walk output slots; for each, chase the displacement cycle.
    for cell in 0..ncells {
        let end = starts[cell + 1];
        while next[cell] < end {
            let i = next[cell] as usize;
            let c = p.icell[i] as usize;
            if c == cell {
                next[cell] += 1;
            } else {
                // Swap particle i to its destination cell's cursor.
                let j = next[c] as usize;
                next[c] += 1;
                p.icell.swap(i, j);
                p.ix.swap(i, j);
                p.iy.swap(i, j);
                p.dx.swap(i, j);
                p.dy.swap(i, j);
                p.vx.swap(i, j);
                p.vy.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::sort::{is_sorted_by_cell, sort_out_of_place};

    fn mk(n: usize, ncells: usize, seed: u64) -> ParticlesSoA {
        let mut p = ParticlesSoA::zeroed(n);
        let mut s = seed | 1;
        for i in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let c = (s % ncells as u64) as u32;
            p.icell[i] = c;
            p.ix[i] = c / 8;
            p.iy[i] = c % 8;
            p.dx[i] = (i as f64 * 0.37) % 1.0;
            p.vx[i] = i as f64; // unique payload to check permutation fidelity
        }
        p
    }

    fn payload_multiset(p: &ParticlesSoA) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = (0..p.len())
            .map(|i| (p.icell[i], p.vx[i].to_bits()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn in_place_sorts_and_permutes() {
        for (n, ncells, seed) in [(5000, 64, 43), (2000, 16, 50), (500, 16, 51)] {
            let mut p = mk(n, ncells, seed);
            let before = payload_multiset(&p);
            sort_in_place(&mut p, ncells);
            assert!(is_sorted_by_cell(&p), "n={n}");
            assert_eq!(payload_multiset(&p), before, "n={n}");
        }
    }

    #[test]
    fn already_sorted_is_noop_permutation() {
        let mut p = mk(1000, 16, 46);
        sort_out_of_place(&mut p, 16);
        let snapshot = p.clone();
        sort_in_place(&mut p, 16);
        assert_eq!(p.icell, snapshot.icell);
        assert_eq!(p.vx, snapshot.vx);
    }

    #[test]
    fn empty_single_and_one_cell() {
        let mut p = ParticlesSoA::zeroed(0);
        sort_in_place(&mut p, 16);
        assert!(p.is_empty());

        let mut p = mk(1, 16, 47);
        sort_in_place(&mut p, 16);
        assert_eq!(p.len(), 1);

        let mut p = mk(100, 64, 48);
        p.icell.fill(5);
        let before = payload_multiset(&p);
        sort_in_place(&mut p, 64);
        assert_eq!(payload_multiset(&p), before);
    }
}
