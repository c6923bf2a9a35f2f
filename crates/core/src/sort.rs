//! Periodic particle sorting by cell index (paper §II and §V-B1).
//!
//! The number of cells is far smaller than the number of particles, so a
//! counting (bucket) sort runs in `O(N)`:
//!
//! * [`sort_out_of_place`] / [`sort_out_of_place_with`] /
//!   [`pool_sort_out_of_place`] — one *permutation-first* engine: histogram,
//!   prefix sums, then a single scan of `icell` that writes the stable
//!   permutation `perm[dst] = src` (the only scattered store stream, four
//!   bytes per particle), then one **gather** per payload column
//!   `out[d] = in[perm[d]]` (sequential stores, independent loads). The three
//!   index columns are not permuted at all: they are functions of the sort
//!   key (`icell == layout.encode(ix, iy)`, see
//!   [`ParticlesSoA`](crate::particles::ParticlesSoA)), so `icell` is
//!   run-length-filled from the prefix sums and `ix`/`iy` are filled per
//!   cell from the cell's first source particle. The permutation lives in the
//!   scratch `ix` column, which is written last, so the sort owns no `O(N)`
//!   buffer beyond the second particle array the paper already pays for.
//!   Scattering all seven columns directly — the textbook loop — costs
//!   2–2.5× more here: the price is per scattered store stream (DESIGN.md
//!   §18).
//! * On a pool the *cells* are partitioned into contiguous ranges, one per
//!   worker (the paper's scheme); the destination of a cell range is a
//!   contiguous slice of every output column, so each worker scans the whole
//!   `icell` array (the paper accepts this read amplification), builds its
//!   own slice of the permutation and gathers its own slices inside a single
//!   fan-out. The result is the exact stable order of the sequential sort.
//!
//! The paper's §V-B1 in-place ablation (cycle chasing, roughly three moves
//! per displaced particle) lives in `pic_bench::reference::sort`.

use crate::particles::ParticlesSoA;
use crate::pool::{ThreadPool, MAX_THREADS};

/// Largest particle count a store may hold: histogram, prefix sums, write
/// cursors and the permutation are all `u32`.
pub const MAX_PARTICLES: usize = u32::MAX as usize;

/// Histogram of particles per cell. `ncells` must exceed every `icell`.
pub fn cell_counts(icell: &[u32], ncells: usize) -> Vec<u32> {
    let mut counts = vec![0u32; ncells];
    cell_counts_into(icell, &mut counts);
    counts
}

/// Fill an existing histogram buffer (allocation-free [`cell_counts`]).
pub fn cell_counts_into(icell: &[u32], counts: &mut [u32]) {
    counts.fill(0);
    for &c in icell {
        counts[c as usize] += 1;
    }
}

/// Exclusive prefix sum of the histogram: `starts[c]` = first output slot of
/// cell `c`. The returned vector has `ncells + 1` entries (the last is `n`).
pub fn cell_starts(counts: &[u32]) -> Vec<u32> {
    let mut starts = vec![0u32; counts.len() + 1];
    cell_starts_into(counts, &mut starts);
    starts
}

/// Fill an existing prefix-sum buffer of `counts.len() + 1` entries
/// (allocation-free [`cell_starts`]).
pub fn cell_starts_into(counts: &[u32], starts: &mut [u32]) {
    assert_eq!(starts.len(), counts.len() + 1);
    let mut acc = 0u32;
    starts[0] = 0;
    for (c, s) in counts.iter().zip(&mut starts[1..]) {
        acc += c;
        *s = acc;
    }
}

/// Reusable scratch buffers for the counting sorts: the per-cell histogram,
/// prefix sums, and write cursors that the plain entry points allocate per
/// call. Owned by the simulation so steady-state sorting allocates nothing
/// once the arena has grown to the grid size.
#[derive(Debug, Default, Clone)]
pub struct SortArena {
    counts: Vec<u32>,
    starts: Vec<u32>,
    cursor: Vec<u32>,
}

impl SortArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to cover `ncells` (no-op, and no allocation, once
    /// large enough).
    pub fn ensure(&mut self, ncells: usize) {
        if self.counts.len() < ncells {
            self.counts.resize(ncells, 0);
            self.cursor.resize(ncells, 0);
        }
        if self.starts.len() < ncells + 1 {
            self.starts.resize(ncells + 1, 0);
        }
    }
}

/// Out-of-place counting sort. `scratch` is resized as needed and holds the
/// sorted result, which is swapped back into `p`.
pub fn sort_out_of_place(p: &mut ParticlesSoA, scratch: &mut ParticlesSoA, ncells: usize) {
    let mut arena = SortArena::new();
    sort_out_of_place_with(p, scratch, ncells, &mut arena);
}

/// [`sort_out_of_place`] with caller-owned scratch buffers: allocation-free
/// when `arena` has seen `ncells` before and `scratch` is already sized.
pub fn sort_out_of_place_with(
    p: &mut ParticlesSoA,
    scratch: &mut ParticlesSoA,
    ncells: usize,
    arena: &mut SortArena,
) {
    sort_columns(p, scratch, None, ncells, None, arena);
}

/// Zero-allocation parallel out-of-place counting sort on a persistent
/// pool: one cell range per pool worker, with the histogram, prefix sums,
/// per-range cursors and task descriptors all in caller-owned or stack
/// storage. Produces the exact stable order of the sequential sort.
pub fn pool_sort_out_of_place(
    p: &mut ParticlesSoA,
    scratch: &mut ParticlesSoA,
    ncells: usize,
    pool: &ThreadPool,
    arena: &mut SortArena,
) {
    sort_columns(p, scratch, None, ncells, Some(pool), arena);
}

/// One worker's share of a sort: the cells `c0..c0 + cursor.len()` and the
/// contiguous output slots they own in every scratch column.
struct CellRange<'a> {
    c0: usize,
    /// `starts[c0..=c1]`: absolute first output slot of each cell.
    starts: &'a [u32],
    /// Per-cell write cursors, relative to this range's first slot.
    cursor: &'a mut [u32],
    icell: &'a mut [u32],
    /// Holds the permutation until the index fill overwrites it.
    ix: &'a mut [u32],
    iy: &'a mut [u32],
    /// `dx dy vx vy`, then the optional extra column (`vz`).
    payload: [&'a mut [f64]; 5],
}

impl CellRange<'_> {
    /// Permutation, gathers and index fill for this range. `src_payload`
    /// is index-parallel with `self.payload`.
    fn run(&mut self, src: &ParticlesSoA, src_payload: [&[f64]; 5]) {
        let base = self.starts[0];
        for (cur, &start) in self.cursor.iter_mut().zip(self.starts) {
            *cur = start - base;
        }
        // The one scattered store stream: `perm[dst] = src`. Sources are
        // visited in input order, so equal cells keep their order (stable).
        let perm = &mut *self.ix;
        for (i, &c) in src.icell.iter().enumerate() {
            // One compare both selects this range's cells and bounds the
            // cursor lookup.
            if let Some(cur) = self.cursor.get_mut((c as usize).wrapping_sub(self.c0)) {
                perm[*cur as usize] = i as u32;
                *cur += 1;
            }
        }
        for (out, col) in self.payload.iter_mut().zip(src_payload) {
            for (o, &s) in out.iter_mut().zip(perm.iter()) {
                *o = col[s as usize];
            }
        }
        // The index columns are functions of the key: fill them per cell,
        // `ix` last because it still holds the permutation.
        for (k, w) in self.starts.windows(2).enumerate() {
            let (s, e) = ((w[0] - base) as usize, (w[1] - base) as usize);
            if s == e {
                continue;
            }
            let first = self.ix[s] as usize;
            debug_assert!(
                self.ix[s..e].iter().all(|&i| {
                    let i = i as usize;
                    (src.ix[i], src.iy[i]) == (src.ix[first], src.iy[first])
                }),
                "particles of cell {} disagree on (ix, iy): icell != encode(ix, iy)",
                self.c0 + k
            );
            self.icell[s..e].fill((self.c0 + k) as u32);
            self.iy[s..e].fill(src.iy[first]);
            self.ix[s..e].fill(src.ix[first]);
        }
    }
}

/// Split `len` elements off the front of `*s`.
fn take_front<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    s.split_off_mut(..len)
        .expect("the prefix sums cover every column")
}

/// The permutation-first engine behind every out-of-place entry point (see
/// the module docs). Sorts `p` — and `extra`, an index-parallel column with
/// its own scratch (the species arenas' `vz`) — stably by `icell` into
/// `scratch`, then swaps the buffers. With a pool the cells are split into
/// one contiguous range per worker; without, one range covers them all.
pub(crate) fn sort_columns(
    p: &mut ParticlesSoA,
    scratch: &mut ParticlesSoA,
    extra: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
    ncells: usize,
    pool: Option<&ThreadPool>,
    arena: &mut SortArena,
) {
    let n = p.len();
    assert!(
        n <= MAX_PARTICLES,
        "sort: {n} particles overflow the u32 counts and permutation"
    );
    if scratch.len() != n {
        *scratch = ParticlesSoA::zeroed(n);
    }
    let (mut no_in, mut no_out) = (Vec::new(), Vec::new());
    let has_extra = extra.is_some();
    let (extra_in, extra_out) = extra.unwrap_or((&mut no_in, &mut no_out));
    assert_eq!(extra_in.len(), if has_extra { n } else { 0 });
    extra_out.resize(extra_in.len(), 0.0);

    arena.ensure(ncells);
    let SortArena {
        counts,
        starts,
        cursor,
    } = arena;
    let (counts, starts) = (&mut counts[..ncells], &mut starts[..ncells + 1]);
    cell_counts_into(&p.icell, counts);
    cell_starts_into(counts, starts);
    let starts = &*starts;

    // Greedy cell partition into contiguous ranges of near-equal particle
    // count, in a stack array (ntasks ≤ pool width ≤ MAX_THREADS).
    let ntasks = match pool {
        Some(pool) if n > 0 => pool.nthreads().min(ncells).max(1),
        _ => 1,
    };
    let mut ranges = [(0usize, 0usize); MAX_THREADS];
    let mut nranges = 0usize;
    {
        let target = n.div_ceil(ntasks).max(1);
        let mut begin = 0usize;
        let mut acc = 0usize;
        for (cell, &count) in counts.iter().enumerate() {
            acc += count as usize;
            if acc >= target && nranges + 1 < ntasks {
                ranges[nranges] = (begin, cell + 1);
                nranges += 1;
                begin = cell + 1;
                acc = 0;
            }
        }
        ranges[nranges] = (begin, ncells);
        nranges += 1;
    }

    // Hand each range its disjoint slice of every output column.
    let mut tasks: [Option<CellRange>; MAX_THREADS] = [const { None }; MAX_THREADS];
    {
        let mut cursor = &mut cursor[..ncells];
        let mut index = [&mut scratch.icell[..], &mut scratch.ix, &mut scratch.iy];
        let mut payload = [
            &mut scratch.dx[..],
            &mut scratch.dy,
            &mut scratch.vx,
            &mut scratch.vy,
        ];
        let mut extra = &mut extra_out[..];
        for (task, &(c0, c1)) in tasks.iter_mut().zip(&ranges[..nranges]) {
            let len = (starts[c1] - starts[c0]) as usize;
            let [icell, ix, iy] = index.each_mut().map(|s| take_front(s, len));
            let [dx, dy, vx, vy] = payload.each_mut().map(|s| take_front(s, len));
            let extra = take_front(&mut extra, if has_extra { len } else { 0 });
            *task = Some(CellRange {
                c0,
                starts: &starts[c0..=c1],
                cursor: take_front(&mut cursor, c1 - c0),
                icell,
                ix,
                iy,
                payload: [dx, dy, vx, vy, extra],
            });
        }
    }

    let src = &*p;
    let src_payload: [&[f64]; 5] = [&src.dx, &src.dy, &src.vx, &src.vy, extra_in];
    let run = |task: &mut Option<CellRange>| {
        task.as_mut()
            .expect("task slot filled above")
            .run(src, src_payload)
    };
    match pool {
        Some(pool) if nranges > 1 => pool.run_items(&mut tasks[..nranges], |_, task| run(task)),
        _ => run(&mut tasks[0]),
    }
    std::mem::swap(p, scratch);
    std::mem::swap(extra_in, extra_out);
}

/// True if particles are sorted by cell index (diagnostic).
pub fn is_sorted_by_cell(p: &ParticlesSoA) -> bool {
    p.icell.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn out_of_place_sorts_and_permutes() {
        let mut p = mk(5000, 64, 42);
        let before = payload_multiset(&p);
        let mut scratch = ParticlesSoA::zeroed(0);
        sort_out_of_place(&mut p, &mut scratch, 64);
        assert!(is_sorted_by_cell(&p));
        assert_eq!(payload_multiset(&p), before);
    }

    #[test]
    fn out_of_place_is_stable() {
        // Counting sort with a forward scan is stable: equal cells keep
        // their relative order (vx payload ascends within each cell).
        let mut p = mk(2000, 16, 7);
        let mut scratch = ParticlesSoA::zeroed(0);
        sort_out_of_place(&mut p, &mut scratch, 16);
        for w in 0..p.len() - 1 {
            if p.icell[w] == p.icell[w + 1] {
                assert!(p.vx[w] < p.vx[w + 1], "stability broken at {w}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let mut p = ParticlesSoA::zeroed(0);
        let mut scratch = ParticlesSoA::zeroed(0);
        sort_out_of_place(&mut p, &mut scratch, 16);
        assert!(p.is_empty());

        let mut p = mk(1, 16, 47);
        sort_out_of_place(&mut p, &mut scratch, 16);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn all_same_cell() {
        let mut p = mk(100, 64, 48);
        p.icell.fill(5);
        p.ix.fill(0);
        p.iy.fill(5);
        let before = payload_multiset(&p);
        let mut scratch = ParticlesSoA::zeroed(0);
        sort_out_of_place(&mut p, &mut scratch, 64);
        assert_eq!(payload_multiset(&p), before);
    }

    #[test]
    fn pool_sort_matches_sequential_exactly() {
        for nthreads in [1usize, 2, 3, 4] {
            let pool = ThreadPool::new(nthreads);
            let mut arena = SortArena::new();
            let mut a = mk(3000, 32, 49);
            let mut b = a.clone();
            let mut s1 = ParticlesSoA::zeroed(0);
            let mut s2 = ParticlesSoA::zeroed(0);
            sort_out_of_place(&mut a, &mut s1, 32);
            // Sort twice through the same arena: the second run (already
            // sorted input) must also match, proving the arena re-primes.
            pool_sort_out_of_place(&mut b, &mut s2, 32, &pool, &mut arena);
            pool_sort_out_of_place(&mut b, &mut s2, 32, &pool, &mut arena);
            assert_eq!(a.icell, b.icell, "nthreads={nthreads}");
            assert_eq!(a.vx, b.vx, "nthreads={nthreads}");
        }
    }

    #[test]
    fn counts_and_starts() {
        let icell = vec![2u32, 0, 2, 3, 2];
        let counts = cell_counts(&icell, 4);
        assert_eq!(counts, vec![1, 0, 3, 1]);
        let starts = cell_starts(&counts);
        assert_eq!(starts, vec![0, 1, 1, 4, 5]);
    }

    /// All eight columns of one store, gathered through `order`.
    fn gathered(p: &ParticlesSoA, vz: &[f64], order: &[usize]) -> (ParticlesSoA, Vec<f64>) {
        let g32 = |v: &[u32]| order.iter().map(|&i| v[i]).collect::<Vec<_>>();
        let g64 = |v: &[f64]| order.iter().map(|&i| v[i]).collect::<Vec<_>>();
        let q = ParticlesSoA {
            icell: g32(&p.icell),
            ix: g32(&p.ix),
            iy: g32(&p.iy),
            dx: g64(&p.dx),
            dy: g64(&p.dy),
            vx: g64(&p.vx),
            vy: g64(&p.vy),
        };
        (q, g64(vz))
    }

    /// Pools of width 1 to 4.
    fn pools() -> Vec<ThreadPool> {
        (1..=4).map(ThreadPool::new).collect()
    }

    /// Sort `(p, vz)` through the engine on every pool and compare all
    /// eight columns with std's stable sort of an index vector.
    fn check_against_std(
        p: &ParticlesSoA,
        vz: &[f64],
        ncells: usize,
        pools: &[ThreadPool],
        arena: &mut SortArena,
    ) {
        let mut order: Vec<usize> = (0..p.len()).collect();
        order.sort_by_key(|&i| p.icell[i]);
        let (want, want_vz) = gathered(p, vz, &order);
        for pool in pools {
            let (mut q, mut qz) = (p.clone(), vz.to_vec());
            let (mut scratch, mut scratch_z) = (ParticlesSoA::default(), Vec::new());
            let extra = Some((&mut qz, &mut scratch_z));
            sort_columns(&mut q, &mut scratch, extra, ncells, Some(pool), arena);
            let what = format!("n={} ncells={ncells} width={}", p.len(), pool.nthreads());
            assert_eq!(q, want, "{what}");
            assert_eq!(qz, want_vz, "{what}");
        }
    }

    #[test]
    fn engine_matches_std_stable_sort_on_all_columns() {
        // One arena across every case: `ncells` goes up and down.
        let mut arena = SortArena::new();
        let pools = pools();
        let mut rng = crate::rng::Rng::seed_from_u64(0x50f7);
        for n in [0usize, 1, 7, 8, 9, 1000, 100_003] {
            for ncells in [1usize, 3, 100, 16_384] {
                for kind in 0..4 {
                    let mut p = ParticlesSoA::zeroed(n);
                    for i in 0..n {
                        let c = match kind {
                            0 => rng.below(ncells as u64) as usize, // uniform random
                            1 => ncells / 2,                        // one cell
                            2 => i * ncells / n,                    // already sorted
                            _ => (n - 1 - i) * ncells / n,          // reverse sorted
                        } as u32;
                        // (ix, iy) are any function of the key; every
                        // payload value is unique to its particle.
                        p.icell[i] = c;
                        p.ix[i] = c.wrapping_mul(2_654_435_761) >> 7;
                        p.iy[i] = c ^ 0x55;
                        p.dx[i] = i as f64;
                        p.dy[i] = i as f64 + 0.25;
                        p.vx[i] = -(i as f64);
                        p.vy[i] = 3.0 * i as f64;
                    }
                    let vz: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
                    check_against_std(&p, &vz, ncells, &pools, &mut arena);
                }
            }
        }
    }

    #[test]
    fn engine_matches_std_stable_sort_on_a_drifted_landau_state() {
        // What a run hands the sort: sorted at init, then 19 pushes.
        let mut cfg = crate::sim::PicConfig::landau_table1(100_003);
        cfg.sort_period = 0;
        let mut sim = crate::sim::Simulation::new(cfg).unwrap();
        sim.run(19);
        let p = sim.particles();
        assert!(!is_sorted_by_cell(p));
        let vz: Vec<f64> = p.vx.iter().map(|v| 2.0 * v + 1.0).collect();
        check_against_std(p, &vz, 128 * 128, &pools(), &mut SortArena::new());
    }

    #[test]
    #[should_panic(expected = "disagree on (ix, iy)")]
    #[cfg(debug_assertions)]
    fn index_fill_checks_the_key_invariant_in_debug_builds() {
        let mut p = mk(100, 4, 52);
        p.ix[17] ^= 1;
        sort_out_of_place(&mut p, &mut ParticlesSoA::default(), 4);
    }
}
