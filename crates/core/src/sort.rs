//! Periodic particle sorting by cell index (paper §II and §V-B1).
//!
//! The number of cells is far smaller than the number of particles, so a
//! counting (bucket) sort runs in `O(N)`. One *permutation-first* engine
//! sits behind [`sort_out_of_place`], [`sort_out_of_place_with`],
//! [`pool_sort_out_of_place`] and `SpeciesArena::sort`:
//!
//! 1. a histogram of `icell` and its prefix sums;
//! 2. one scan of `icell` writes the stable permutation `perm[dst] = src`
//!    (the only scattered store stream, four bytes per particle) and takes
//!    each cell's `(ix, iy)` from its first source particle;
//! 3. per payload column (`dx dy vx vy`, plus `vz` for a species) one
//!    **gather** `spare[d] = col[perm[d]]` (sequential stores, independent
//!    loads), then `mem::swap` makes the spare the column and the old
//!    column the spare;
//! 4. the three index columns are not permuted at all: they are functions
//!    of the sort key (`icell == layout.encode(ix, iy)`, see
//!    [`ParticlesSoA`]), so they are refilled in place from the prefix
//!    sums and the per-cell `(ix, iy)`.
//!
//! Both per-particle loops wait on memory, not on bandwidth: on the state a
//! run hands the sort (sorted, then 19 pushes) the scan's scattered `perm`
//! stores and the gathers' loads miss cache one by one. Each loop therefore
//! asks for its line a fixed distance ahead with a software prefetch — the
//! scan for the slot particle `i + SCAN_AHEAD` will be stored to, the gather
//! for `src[perm[d + GATHER_AHEAD]]` — and keeps every load, store and
//! their order as they were (DESIGN.md §18).
//!
//! The store moves one column at a time, so besides it the sort owns one
//! spare `f64` column and the `u32` permutation — 12 bytes per particle in
//! a [`SortArena`], where a second particle store would cost 44 (52 with
//! `vz`). Scattering all seven columns directly — the textbook loop — costs
//! 2–2.5× more here: the price is per scattered store stream (DESIGN.md
//! §18).
//!
//! On a pool every worker counts its own [`chunk_range`] of `icell` into
//! its own histogram row, and the rows are added in worker order. The
//! *cells* are then partitioned into contiguous ranges, one per worker (the
//! paper's scheme): a cell range owns a contiguous slice of the permutation
//! and of every column, so each worker scans the whole `icell` array (the
//! paper accepts this read amplification) to build its slice of the
//! permutation and gathers its slice of the first column in the same
//! fan-out, then its slice of each further column, one fan-out per column.
//! The result is the exact stable order of the sequential sort.
//!
//! The paper's §V-B1 in-place ablation (cycle chasing, roughly three moves
//! per displaced particle) lives in `pic_bench::reference::sort`.

use crate::particles::ParticlesSoA;
use crate::pool::{chunk_range, ThreadPool, MAX_THREADS};

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

/// Everything the sort owns besides the store it sorts: per-cell buffers
/// (histogram and one row of it per pool worker, prefix sums, cursors, each
/// cell's `(ix, iy)`) and per-particle ones (the permutation and the spare
/// column). Owned by the driver, so steady-state sorting allocates nothing
/// once the arena has grown to the grid and the store; a store that
/// shrinks keeps the allocations, and stores that sort one after another
/// (a driver's species) share one arena.
#[derive(Debug, Default, Clone)]
pub struct SortArena {
    counts: Vec<u32>,
    rows: Vec<u32>,
    starts: Vec<u32>,
    cursor: Vec<u32>,
    reps: Vec<(u32, u32)>,
    /// `perm[dst] = src`, the stable order.
    perm: Vec<u32>,
    /// The column each gather writes, then swaps with the store's.
    spare: Vec<f64>,
}

impl SortArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every buffer for `ncells` cells and stores of up to `n`
    /// particles sorted on `pool`, and first-touch the per-particle ones
    /// on the pool's workers, each its [`chunk_range`] share — about the
    /// slice its cell range will write. A sort of that size then allocates
    /// and faults in nothing.
    pub fn reserve(&mut self, ncells: usize, n: usize, pool: Option<&ThreadPool>) {
        let width = pool.map_or(1, ThreadPool::nthreads);
        fit(&mut self.counts, ncells);
        fit(&mut self.starts, ncells + 1);
        fit(&mut self.cursor, ncells);
        fit(&mut self.reps, ncells);
        if width > 1 {
            fit(&mut self.rows, width * ncells);
        }
        fit(&mut self.perm, n);
        fit(&mut self.spare, n);
        let mut items: [(&mut [u32], &mut [f64]); MAX_THREADS] =
            std::array::from_fn(|_| Default::default());
        let (mut perm, mut spare) = (&mut self.perm[..], &mut self.spare[..]);
        for (w, item) in items.iter_mut().take(width).enumerate() {
            let (a, b) = chunk_range(n, width, w);
            *item = (take_front(&mut perm, b - a), take_front(&mut spare, b - a));
        }
        fan_out(pool, &mut items[..width], |_, (perm, spare)| {
            perm.fill(0);
            spare.fill(0.0);
        });
    }
}

/// Size a scratch buffer to `n` elements. Shrinking keeps the allocation;
/// growing frees it and takes a fresh zeroed one, whose pages are first
/// touched by the fan-out that fills them.
fn fit<T: Copy + Default>(v: &mut Vec<T>, n: usize) {
    if n > v.capacity() {
        *v = Vec::new();
        *v = vec![T::default(); n];
    } else {
        v.resize(n, T::default());
    }
}

/// Out-of-place counting sort through a fresh [`SortArena`].
pub fn sort_out_of_place(p: &mut ParticlesSoA, ncells: usize) {
    sort_columns(p, None, ncells, None, &mut SortArena::new());
}

/// [`sort_out_of_place`] through a caller-owned arena: allocation-free once
/// `arena` has sorted `ncells` cells and `p.len()` particles. `scratch` is
/// ignored — the arena holds everything the sort needs — and stays in the
/// signature for existing callers.
pub fn sort_out_of_place_with(
    p: &mut ParticlesSoA,
    scratch: &mut ParticlesSoA,
    ncells: usize,
    arena: &mut SortArena,
) {
    let _ = scratch;
    sort_columns(p, None, ncells, None, arena);
}

/// [`sort_out_of_place_with`] on a persistent pool: one histogram row and
/// one cell range per pool worker, task descriptors in stack storage.
/// Produces the exact stable order of the sequential sort. `scratch` is
/// ignored, as in [`sort_out_of_place_with`].
pub fn pool_sort_out_of_place(
    p: &mut ParticlesSoA,
    scratch: &mut ParticlesSoA,
    ncells: usize,
    pool: &ThreadPool,
    arena: &mut SortArena,
) {
    let _ = scratch;
    sort_columns(p, None, ncells, Some(pool), arena);
}

/// Split `len` elements off the front of `*s`.
fn take_front<'a, T>(s: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    s.split_off_mut(..len)
        .expect("the prefix sums cover every column")
}

/// Run `f(k, &mut items[k])` for every item: on the pool, item `k` on
/// worker `k`, or inline without one.
fn fan_out<T: Send>(pool: Option<&ThreadPool>, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    match pool {
        Some(pool) => pool.run_items(items, f),
        None => items
            .iter_mut()
            .enumerate()
            .for_each(|(k, item)| f(k, item)),
    }
}

/// Histogram of `icell` into `counts`. On a pool, worker `w` counts its
/// [`chunk_range`] of `icell` into row `w` of `rows`, and the rows are
/// added in worker order (integer sums: exact at every width).
fn histogram(icell: &[u32], counts: &mut [u32], rows: &mut Vec<u32>, pool: Option<&ThreadPool>) {
    let Some(pool) = pool else {
        return cell_counts_into(icell, counts);
    };
    let (width, ncells) = (pool.nthreads(), counts.len());
    fit(rows, width * ncells);
    let mut items: [&mut [u32]; MAX_THREADS] = std::array::from_fn(|_| Default::default());
    for (item, row) in items.iter_mut().zip(rows.chunks_mut(ncells)) {
        *item = row;
    }
    pool.run_items(&mut items[..width], |w, row| {
        let (a, b) = chunk_range(icell.len(), width, w);
        cell_counts_into(&icell[a..b], row);
    });
    let (first, rest) = rows.split_at(ncells);
    counts.copy_from_slice(first);
    for row in rest.chunks(ncells) {
        for (c, &r) in counts.iter_mut().zip(row) {
            *c += r;
        }
    }
}

/// One cell range's share of the permutation scan, and of the first
/// column's gather.
struct ScanTask<'a> {
    cursor: &'a mut [u32],
    reps: &'a mut [(u32, u32)],
    perm: &'a mut [u32],
    out: &'a mut [f64],
}

/// One cell range's share of a later column's gather; the second gather
/// also refills the range's index columns.
struct GatherTask<'a> {
    out: &'a mut [f64],
    index: Option<[&'a mut [u32]; 3]>,
}

/// The engine behind every out-of-place entry point (see the module docs):
/// sorts `p` — and `vz`, an index-parallel column (a species' out-of-plane
/// velocity) — stably by `icell`. With a pool the histogram is counted per
/// worker and the cells are split into one contiguous range per worker;
/// without, one range covers them all.
pub(crate) fn sort_columns(
    p: &mut ParticlesSoA,
    vz: Option<&mut Vec<f64>>,
    ncells: usize,
    pool: Option<&ThreadPool>,
    arena: &mut SortArena,
) {
    let n = p.len();
    assert!(
        n <= MAX_PARTICLES,
        "sort: {n} particles overflow the u32 counts and permutation"
    );
    let pool = pool.filter(|pool| pool.nthreads() > 1 && n > 0);
    let SortArena {
        counts,
        rows,
        starts,
        cursor,
        reps,
        perm,
        spare,
    } = arena;
    fit(counts, ncells);
    fit(starts, ncells + 1);
    fit(cursor, ncells);
    fit(reps, ncells);
    fit(perm, n);
    fit(spare, n);
    let spare_capacity = spare.capacity();

    // 1. Histogram and prefix sums.
    histogram(&p.icell, counts, rows, pool);
    cell_starts_into(counts, starts);
    let starts = &starts[..];

    // Greedy cell partition into contiguous ranges of near-equal particle
    // count, in a stack array (ntasks ≤ pool width ≤ MAX_THREADS).
    let ntasks = pool.map_or(1, |pool| pool.nthreads().min(ncells));
    let mut ranges = [(0usize, 0usize); MAX_THREADS];
    let mut nranges = 0usize;
    {
        let target = n.div_ceil(ntasks).max(1);
        let mut begin = 0usize;
        let mut acc = 0usize;
        for (cell, &count) in counts.iter().enumerate() {
            if nranges + 1 == ntasks {
                break; // the last range takes the rest
            }
            acc += count as usize;
            if acc >= target {
                ranges[nranges] = (begin, cell + 1);
                nranges += 1;
                begin = cell + 1;
                acc = 0;
            }
        }
        ranges[nranges] = (begin, ncells);
        nranges += 1;
    }
    let ranges = &ranges[..nranges];
    let slots = |(c0, c1): (usize, usize)| (starts[c1] - starts[c0]) as usize;

    let ParticlesSoA {
        icell,
        ix,
        iy,
        dx,
        dy,
        vx,
        vy,
    } = p;
    let mut cols = [Some(dx), Some(dy), Some(vx), Some(vy), vz];
    assert!(
        cols.iter().flatten().all(|col| col.len() == n),
        "every column holds every particle"
    );
    let mut cols = cols.iter_mut().flatten();

    // 2. One fan-out: each range writes its slice of the permutation and
    // the representatives of its cells, before anything is overwritten,
    // then gathers its slice of the first column into the spare.
    let first = cols.next().expect("dx is always sorted");
    {
        let mut tasks: [Option<ScanTask>; MAX_THREADS] = [const { None }; MAX_THREADS];
        let (mut cursor, mut reps, mut perm) = (&mut cursor[..], &mut reps[..], &mut perm[..]);
        let mut out = &mut spare[..];
        for (task, &(c0, c1)) in tasks.iter_mut().zip(ranges) {
            *task = Some(ScanTask {
                cursor: take_front(&mut cursor, c1 - c0),
                reps: take_front(&mut reps, c1 - c0),
                perm: take_front(&mut perm, slots((c0, c1))),
                out: take_front(&mut out, slots((c0, c1))),
            });
        }
        let (icell, ix, iy, src) = (&icell[..], &ix[..], &iy[..], &first[..]);
        fan_out(pool, &mut tasks[..nranges], |k, task| {
            let task = task.as_mut().expect("task slot filled above");
            let (c0, c1) = ranges[k];
            scan(icell, ix, iy, c0, &starts[c0..=c1], task);
            gather(task.out, task.perm, src);
        });
    }
    std::mem::swap(*first, spare);

    // 3 and 4. Per further column one fan-out gathers into the spare, which
    // then swaps with the column; the first of them also refills the index
    // columns, which nothing reads any more.
    let (perm, reps) = (&perm[..], &reps[..]);
    let mut index = Some([&mut icell[..], &mut ix[..], &mut iy[..]]);
    for col in cols {
        let mut tasks: [Option<GatherTask>; MAX_THREADS] = [const { None }; MAX_THREADS];
        {
            let mut out = &mut spare[..];
            let mut refill = index.take();
            for (task, &range) in tasks.iter_mut().zip(ranges) {
                let len = slots(range);
                *task = Some(GatherTask {
                    out: take_front(&mut out, len),
                    index: refill
                        .as_mut()
                        .map(|cols| cols.each_mut().map(|s| take_front(s, len))),
                });
            }
        }
        let src = &col[..];
        fan_out(pool, &mut tasks[..nranges], |k, task| {
            let task = task.as_mut().expect("task slot filled above");
            let (c0, c1) = ranges[k];
            gather(
                task.out,
                &perm[starts[c0] as usize..starts[c1] as usize],
                src,
            );
            if let Some(index) = &mut task.index {
                fill_index(c0, &starts[c0..=c1], &reps[c0..c1], index);
            }
        });
        std::mem::swap(*col, spare);
    }
    // The swaps moved the arena's spare into the first column and left the
    // last column's buffer as the spare. If that buffer is shorter (a
    // smaller store sharing the arena with a larger one), copy the first
    // column into it and swap back, so the spare keeps the capacity of the
    // largest store and no store keeps a buffer sized for another.
    if spare.capacity() < spare_capacity {
        spare.copy_from_slice(first);
        std::mem::swap(*first, spare);
    }
}

/// How many destinations ahead [`gather`] hints its source element.
const GATHER_AHEAD: usize = 128;

/// How many source particles ahead [`scan`] hints its destination slot.
const SCAN_AHEAD: usize = 64;

/// Ask the cache for the line holding `p`, ahead of the load or store that
/// will need it. Only a hint: no value is read and nothing can change.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch dereferences nothing and cannot fault, so any
    // address — one past a slice's end included — is sound to pass.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// `out[d] = src[perm[d]]`: sequential stores, independent loads, each
/// load's line requested `GATHER_AHEAD` destinations before it is read.
fn gather(out: &mut [f64], perm: &[u32], src: &[f64]) {
    for (d, (o, &i)) in out.iter_mut().zip(perm).enumerate() {
        if let Some(&ahead) = perm.get(d + GATHER_AHEAD) {
            prefetch(src.as_ptr().wrapping_add(ahead as usize));
        }
        *o = src[i as usize];
    }
}

/// Permutation scan of one cell range: `perm[dst] = src` for the cells
/// `c0..c0 + task.cursor.len()` (absolute first slots `starts`), then each
/// non-empty cell's `(ix, iy)` from its first source particle.
fn scan(icell: &[u32], ix: &[u32], iy: &[u32], c0: usize, starts: &[u32], task: &mut ScanTask) {
    let base = starts[0];
    for (cur, &start) in task.cursor.iter_mut().zip(starts) {
        *cur = start - base;
    }
    // The one scattered store stream. Sources are visited in input order,
    // so equal cells keep their order (stable). Each store's line is
    // requested `SCAN_AHEAD` sources before it, at the slot its cell's
    // cursor points to now.
    for (i, &c) in icell.iter().enumerate() {
        if let Some(&ahead) = icell.get(i + SCAN_AHEAD) {
            if let Some(&slot) = task.cursor.get((ahead as usize).wrapping_sub(c0)) {
                prefetch(task.perm.as_ptr().wrapping_add(slot as usize));
            }
        }
        // One compare both selects this range's cells and bounds the
        // cursor lookup.
        if let Some(cur) = task.cursor.get_mut((c as usize).wrapping_sub(c0)) {
            task.perm[*cur as usize] = i as u32;
            *cur += 1;
        }
    }
    for (k, (rep, w)) in task.reps.iter_mut().zip(starts.windows(2)).enumerate() {
        if w[0] == w[1] {
            continue;
        }
        let cell = &task.perm[(w[0] - base) as usize..(w[1] - base) as usize];
        let first = cell[0] as usize;
        *rep = (ix[first], iy[first]);
        debug_assert!(
            cell.iter()
                .all(|&i| (ix[i as usize], iy[i as usize]) == *rep),
            "particles of cell {} disagree on (ix, iy): icell != encode(ix, iy)",
            c0 + k
        );
    }
}

/// Refill one cell range's index columns: `icell` run-length from the
/// prefix sums, `ix`/`iy` from each cell's representative.
fn fill_index(
    c0: usize,
    starts: &[u32],
    reps: &[(u32, u32)],
    [icell, ix, iy]: &mut [&mut [u32]; 3],
) {
    let base = starts[0];
    for (k, (w, &(x, y))) in starts.windows(2).zip(reps).enumerate() {
        let (s, e) = ((w[0] - base) as usize, (w[1] - base) as usize);
        if s < e {
            icell[s..e].fill((c0 + k) as u32);
            ix[s..e].fill(x);
            iy[s..e].fill(y);
        }
    }
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
        sort_out_of_place(&mut p, 64);
        assert!(is_sorted_by_cell(&p));
        assert_eq!(payload_multiset(&p), before);
    }

    #[test]
    fn out_of_place_is_stable() {
        // Counting sort with a forward scan is stable: equal cells keep
        // their relative order (vx payload ascends within each cell).
        let mut p = mk(2000, 16, 7);
        sort_out_of_place(&mut p, 16);
        for w in 0..p.len() - 1 {
            if p.icell[w] == p.icell[w + 1] {
                assert!(p.vx[w] < p.vx[w + 1], "stability broken at {w}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let mut p = ParticlesSoA::zeroed(0);
        sort_out_of_place(&mut p, 16);
        assert!(p.is_empty());

        let mut p = mk(1, 16, 47);
        sort_out_of_place(&mut p, 16);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn all_same_cell() {
        let mut p = mk(100, 64, 48);
        p.icell.fill(5);
        p.ix.fill(0);
        p.iy.fill(5);
        let before = payload_multiset(&p);
        sort_out_of_place(&mut p, 64);
        assert_eq!(payload_multiset(&p), before);
    }

    #[test]
    fn pool_sort_matches_sequential_exactly() {
        for nthreads in [1usize, 2, 3, 4] {
            let pool = ThreadPool::new(nthreads);
            let mut arena = SortArena::new();
            let mut a = mk(3000, 32, 49);
            let mut b = a.clone();
            let mut ignored = ParticlesSoA::default();
            sort_out_of_place(&mut a, 32);
            // Sort twice through the same arena: the second run (already
            // sorted input) must also match, proving the arena re-primes.
            pool_sort_out_of_place(&mut b, &mut ignored, 32, &pool, &mut arena);
            pool_sort_out_of_place(&mut b, &mut ignored, 32, &pool, &mut arena);
            assert!(ignored.is_empty(), "the scratch argument is not used");
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
            sort_columns(&mut q, Some(&mut qz), ncells, Some(pool), arena);
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
        // Besides small and large stores, n straddles both look-ahead
        // distances, so every hint loop runs with and without a tail.
        let (g, s) = (GATHER_AHEAD, SCAN_AHEAD);
        for n in [0, 1, 7, 8, 9, s - 1, s + 1, g - 1, g, g + 1, 1000, 100_003] {
            for ncells in [1usize, 3, 100, 16_384] {
                for kind in 0..5 {
                    let mut p = ParticlesSoA::zeroed(n);
                    for i in 0..n {
                        let c = match kind {
                            0 => rng.below(ncells as u64) as usize, // uniform random
                            1 => ncells / 2,                        // one cell
                            2 => i * ncells / n,                    // already sorted
                            3 => (n - 1 - i) * ncells / n,          // reverse sorted
                            // All but g / 2 particles in cell 0: on a pool
                            // the first range is that cell, and the later
                            // ones hold fewer particles than one gather's
                            // look-ahead.
                            _ if i < g / 2 => (g / 2 - i) % ncells,
                            _ => 0,
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
    fn one_arena_follows_a_store_that_shrinks_and_grows() {
        // A decomposed rank's pattern: the store loses particles to its
        // neighbours (its columns keep their buffers), then gains more than
        // it lost. Every sort is exact, and the shrink reallocates nothing.
        let ncells = 100;
        let full = mk(60_000, ncells, 53);
        let full_vz: Vec<f64> = (0..full.len()).map(|i| i as f64 + 0.5).collect();
        for pool in &pools() {
            let mut arena = SortArena::new();
            let (mut q, mut qz) = (full.clone(), full_vz.clone());
            for n in [40_000usize, 9_000, 60_000] {
                // The first `n` particles of the full store, in its buffers.
                for (c, f) in [&mut q.icell, &mut q.ix, &mut q.iy].into_iter().zip([
                    &full.icell,
                    &full.ix,
                    &full.iy,
                ]) {
                    c.clear();
                    c.extend_from_slice(&f[..n]);
                }
                for (c, f) in [&mut q.dx, &mut q.dy, &mut q.vx, &mut q.vy, &mut qz]
                    .into_iter()
                    .zip([&full.dx, &full.dy, &full.vx, &full.vy, &full_vz])
                {
                    c.clear();
                    c.extend_from_slice(&f[..n]);
                }
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| q.icell[i]);
                let (want, want_vz) = gathered(&q, &qz, &order);
                let before = (arena.perm.capacity(), arena.spare.capacity());
                sort_columns(&mut q, Some(&mut qz), ncells, Some(pool), &mut arena);
                let what = format!("n={n} width={}", pool.nthreads());
                assert_eq!(q, want, "{what}");
                assert_eq!(qz, want_vz, "{what}");
                if n < before.0 {
                    let after = (arena.perm.capacity(), arena.spare.capacity());
                    assert_eq!(after, before, "{what}: the shrink kept the buffers");
                }
            }

            // A driver's species: stores of different sizes sort one after
            // another through the arena, and each keeps buffers of its own
            // size while the spare keeps the largest one's.
            let mut stores = [
                (q.clone(), qz.clone()),
                (mk(5_000, ncells, 54), vec![0.25; 5_000]),
            ];
            let caps = |(p, vz): &(ParticlesSoA, Vec<f64>)| {
                [&p.dx, &p.dy, &p.vx, &p.vy, vz].map(|c| c.capacity())
            };
            let want_caps = stores.each_ref().map(caps);
            for _ in 0..2 {
                for (store, want_caps) in stores.iter_mut().zip(want_caps) {
                    let mut order: Vec<usize> = (0..store.0.len()).collect();
                    order.sort_by_key(|&i| store.0.icell[i]);
                    let want = gathered(&store.0, &store.1, &order);
                    let (p, vz) = store;
                    sort_columns(p, Some(vz), ncells, Some(pool), &mut arena);
                    assert_eq!((&*p, &*vz), (&want.0, &want.1));
                    assert_eq!(caps(store), want_caps);
                    assert_eq!(arena.spare.capacity(), 60_000);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree on (ix, iy)")]
    #[cfg(debug_assertions)]
    fn index_fill_checks_the_key_invariant_in_debug_builds() {
        let mut p = mk(100, 4, 52);
        p.ix[17] ^= 1;
        sort_out_of_place(&mut p, 4);
    }
}
