//! Particle storage (Structure-of-Arrays, §IV-C1) and initial
//! distributions.
//!
//! Each particle is a cell index plus normalized in-cell offsets (paper §II)
//! and a velocity. The cell coordinates `(ix, iy)` are stored explicitly as
//! well: the non-row-major layouts need them to recompute `icell` after a
//! move (paper §IV-B, the “3 extra seconds” of Table III), while the
//! row-major kernels simply ignore those arrays.
//!
//! Velocities are stored in *grid units per time step* when the coefficient
//! hoisting of §IV-D is enabled (`v_stored = v_phys·Δt/Δx`), or in physical
//! units otherwise; [`crate::sim::Simulation`] owns that convention.
//!
//! Every initial population comes from one [`Loader`]: fixed chunks of
//! [`CHUNK`] particles, each drawn from its own xoshiro stream keyed by
//! `(seed, species, chunk)`. Particle `i` is therefore a pure function of
//! `(seed, species, i)` — the same at every pool width, and addressable by
//! index or cell range without sampling the rest of the population.
//!
//! The drivers construct in *block-cell order* ([`Loader::load_blocks`]):
//! each worker sorts every [`BLOCK`] of particles by cell while it is still
//! in cache, so the initial sort of the whole store streams through
//! ordered runs instead of missing on every line (DESIGN.md §19). Only
//! the draws are scalar: positions and velocities are computed [`LANES`]
//! particles at a time, without libm (§19.2).

use crate::grid::Grid2D;
use crate::kernels::simd::LANES;
use crate::kernels::{split_soa_mut_into, SoaViewMut};
use crate::pool::{chunk_range, ThreadPool};
use crate::rng::{box_muller_lanes, hash_words, Rng};
use crate::sort::{sort_columns, SortArena};
use sfc::CellLayout;
use std::ops::Range;

/// Structure-of-Arrays storage (the layout that vectorizes, §IV-C1).
///
/// **Invariant:** every particle satisfies
/// `icell[i] == layout.encode(ix[i], iy[i])` under the store's active
/// layout. [`Loader`] and [`reencode`] establish it, every
/// push kernel rewrites all three together, and migration moves whole
/// particles, so it holds at every step boundary. The out-of-place sort
/// ([`crate::sort`]) relies on it: `ix`/`iy` are functions of the sort key,
/// so it fills them per cell instead of permuting them (and checks the
/// invariant with a `debug_assert`). Code that writes the index columns
/// directly must keep the three consistent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticlesSoA {
    /// Flat cell indices.
    pub icell: Vec<u32>,
    /// Cell x-coordinates.
    pub ix: Vec<u32>,
    /// Cell y-coordinates.
    pub iy: Vec<u32>,
    /// In-cell x offsets.
    pub dx: Vec<f64>,
    /// In-cell y offsets.
    pub dy: Vec<f64>,
    /// x velocities.
    pub vx: Vec<f64>,
    /// y velocities.
    pub vy: Vec<f64>,
}

impl ParticlesSoA {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.icell.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.icell.is_empty()
    }

    /// Drop every particle, keeping the allocations.
    fn clear(&mut self) {
        self.icell.clear();
        self.ix.clear();
        self.iy.clear();
        self.dx.clear();
        self.dy.clear();
        self.vx.clear();
        self.vy.clear();
    }

    /// Allocate `n` zeroed particles.
    pub fn zeroed(n: usize) -> Self {
        Self {
            icell: vec![0; n],
            ix: vec![0; n],
            iy: vec![0; n],
            dx: vec![0.0; n],
            dy: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
        }
    }
}

/// The physical test cases of the paper (§IV: linear/nonlinear Landau
/// damping and the two-stream instability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialDistribution {
    /// `f(x,v) ∝ (1 + α cos(k x)) exp(−|v|²/2)` — Landau damping.
    /// α = 0.01 is the linear regime, α = 0.5 the nonlinear one.
    Landau {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber along x (the domain must satisfy
        /// `Lx = 2π/k ×` integer).
        k: f64,
    },
    /// Two counter-streaming beams: `f ∝ (1 + α cos(kx)) [δ-ish beams ±v0]`,
    /// Gaussian-broadened with thermal spread `vt`.
    TwoStream {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber.
        k: f64,
        /// Beam drift speed.
        v0: f64,
        /// Thermal spread of each beam.
        vt: f64,
    },
    /// Spatially uniform Maxwellian (no perturbation) — useful for
    /// performance runs where physics is irrelevant.
    Uniform,
    /// A single drifting Maxwellian: density `∝ 1 + α cos(k x)`, mean
    /// x-velocity `v0x`, isotropic thermal spread `vt`. The building block
    /// for multi-species scenarios (beams, cold ion populations).
    DriftingMaxwellian {
        /// Perturbation amplitude.
        alpha: f64,
        /// Perturbation wavenumber along x.
        k: f64,
        /// Mean drift velocity along x.
        v0x: f64,
        /// Isotropic thermal spread.
        vt: f64,
    },
}

impl InitialDistribution {
    /// The thermal spread this distribution samples velocities with —
    /// used to sample out-of-plane `vz` consistently with the in-plane
    /// components in 2d3v runs.
    pub fn thermal_spread(&self) -> f64 {
        match *self {
            InitialDistribution::Landau { .. } | InitialDistribution::Uniform => 1.0,
            InitialDistribution::TwoStream { vt, .. } => vt,
            InitialDistribution::DriftingMaxwellian { vt, .. } => vt,
        }
    }
}

/// Particles per sampling chunk. Chunk `c` holds particles
/// `c·CHUNK .. (c + 1)·CHUNK` and draws them from its own xoshiro stream,
/// seeded by `hash_words(seed, [species, c])`, so a chunk can be sampled
/// on any worker and any range of the population without the chunks
/// before it.
pub const CHUNK: usize = 65_536;

/// Particles per construction block. [`Loader::load_blocks`] cuts the
/// population at every multiple of `BLOCK` (and at the ends of the loaded
/// range) and sorts each block by cell while it is in cache. A divisor of
/// [`CHUNK`], so a block never straddles two chunks or two workers; the
/// size is DESIGN.md §19's sweep.
pub const BLOCK: usize = 32_768;
const _: () = assert!(CHUNK.is_multiple_of(BLOCK));

/// Rejection-sample x in `[0, lx)` with density `∝ 1 + α cos(k x)`.
///
/// A draw with `accept ≤ 1 − |α|` is taken without evaluating the cosine.
/// The squeeze is exact: `|cos| ≤ 1` and rounding is monotone, so
/// `|fl(α·cos kx)| ≤ |α|` and `fl(1 + fl(α·cos kx)) ≥ fl(1 − |α|)` for
/// every x — the test accepts exactly the draws the full test accepts, and
/// skips `cos` for all but about `2|α|/(1 + |α|)` of them.
fn sample_perturbed_x(rng: &mut Rng, lx: f64, alpha: f64, k: f64) -> f64 {
    debug_assert!(alpha.abs() <= 1.0);
    let squeeze = 1.0 - alpha.abs();
    loop {
        let x = rng.range(0.0, lx);
        let accept = rng.range(0.0, 1.0 + alpha.abs());
        if accept <= squeeze || accept <= 1.0 + alpha * (k * x).cos() {
            return x;
        }
    }
}

/// A seeded particle population: `n` particles of `dist` on `grid`,
/// positions encoded under `layout`, velocities in *physical* units.
///
/// **Determinism.** Particle `i` is a pure function of `(seed, species,
/// i)`: it is the `i mod CHUNK`-th draw sequence of chunk `i / CHUNK`'s
/// stream ([`CHUNK`]). A load is therefore bit-identical at every pool
/// width, and any index range or cell range of the population equals the
/// matching part of a full load — which is how a replicated rank samples
/// only its own share and a decomposed rank only its own cells.
///
/// Each particle draws, in order: x (rejection-sampled when the density is
/// perturbed), y, the beam sign (two-stream only) and the two uniforms of
/// one Box–Muller pair for (vx, vy). A 2d3v species draws `vz` — the
/// cosine half of one more pair — from a second stream per chunk,
/// `hash_words(seed, [species, c, 1])`, so its in-plane columns are those
/// of the 2d2v population with the same seed and species.
///
/// Sampling runs in stages over lane blocks of [`LANES`] particles
/// (DESIGN.md §19.2). A scalar walk makes the draws; a position stage
/// splits each block's (x, y) into cells and offsets and encodes the cells
/// in one batch; the particles a cell filter keeps are gathered into new
/// blocks, and a velocity stage turns their uniforms into Box–Muller pairs
/// ([`crate::rng::box_muller_lanes`]). A short block is padded. Every lane
/// is a function of its own draws only, so velocities too are a pure
/// function of `(seed, species, i)`, and a particle that a cell filter
/// drops (or that [`cell_counts`](Self::cell_counts) only counts) never
/// reaches the velocity stage.
#[derive(Clone, Copy)]
pub struct Loader<'a> {
    grid: &'a Grid2D,
    layout: &'a dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    seed: u64,
    species: u64,
    vz: bool,
}

impl<'a> Loader<'a> {
    /// The population of species 0, without `vz`.
    pub fn new(
        grid: &'a Grid2D,
        layout: &'a dyn CellLayout,
        dist: InitialDistribution,
        n: usize,
        seed: u64,
    ) -> Self {
        Self {
            grid,
            layout,
            dist,
            n,
            seed,
            species: 0,
            vz: false,
        }
    }

    /// Species `index` of a multi-species run, with an out-of-plane `vz`
    /// column sampled at the distribution's thermal spread.
    pub fn species(self, index: usize) -> Self {
        Self {
            species: index as u64,
            vz: true,
            ..self
        }
    }

    /// Sample the particles with index in `range` and, if `cells` is set,
    /// an initial cell index in `cells`, in index order — on `pool`, one
    /// contiguous run of chunks per worker. Returns the store and its `vz`
    /// column (empty without [`species`](Self::species)).
    pub fn load(
        &self,
        range: Range<usize>,
        cells: Option<Range<u32>>,
        pool: Option<&ThreadPool>,
    ) -> (ParticlesSoA, Vec<f64>) {
        let end = |c: usize| chunk_end(c, &range);
        match cells {
            None => self.fill_in_place(&range, pool, |chunks, first, view| {
                for c in chunks {
                    let mut s = self.stream(c, range.start);
                    s.sample(end(c), |_| true, |i, run| run.write(view, i - first));
                }
            }),
            Some(cells) => self.fill_appending(&range, pool, |chunks, p, vz| {
                for c in chunks {
                    let mut s = self.stream(c, range.start);
                    let keep = |icell| cells.contains(&icell);
                    s.sample(end(c), keep, |_, run| run.append(p, vz));
                }
            }),
        }
    }

    /// The particles of [`load`](Self::load) in *block-cell order*: cut at
    /// every multiple of [`BLOCK`] of the population index and at the ends
    /// of `range`, each block stably sorted by `icell` through the sort
    /// engine while it is in the worker's cache, the blocks in index order.
    ///
    /// A stable sort of consecutive, stably sorted blocks is the stable
    /// sort of their concatenation, so sorting this store gives what
    /// sorting `load`'s gives, bit for bit, with its gathers streaming
    /// through ordered runs. The blocks do not depend on the pool, so the
    /// store is bit-identical at every pool width too. Each worker holds
    /// one block and its sort scratch, freed on return.
    pub fn load_blocks(
        &self,
        range: Range<usize>,
        cells: Option<Range<u32>>,
        pool: Option<&ThreadPool>,
    ) -> (ParticlesSoA, Vec<f64>) {
        let ncells = self.layout.ncells();
        let end = |c: usize| chunk_end(c, &range);
        // The next block edge after particle `i` of chunk `c`.
        let edge = |c: usize, i: usize| ((i / BLOCK + 1) * BLOCK).min(end(c));
        match cells {
            None => self.fill_in_place(&range, pool, |chunks, first, view| {
                let mut b = Block::default();
                for c in chunks {
                    let mut s = self.stream(c, range.start);
                    while s.next < end(c) {
                        let start = s.next;
                        s.sample(
                            edge(c, start),
                            |_| true,
                            |_, run| run.append(&mut b.p, &mut b.vz),
                        );
                        b.flush(ncells, |run| run.write(view, start - first));
                    }
                }
            }),
            Some(cells) => self.fill_appending(&range, pool, |chunks, out, out_vz| {
                let mut b = Block::default();
                for c in chunks {
                    let mut s = self.stream(c, range.start);
                    while s.next < end(c) {
                        let keep = |icell| cells.contains(&icell);
                        s.sample(edge(c, s.next), keep, |_, run| {
                            run.append(&mut b.p, &mut b.vz)
                        });
                        b.flush(ncells, |run| run.append(out, out_vz));
                    }
                }
            }),
        }
    }

    /// A load of known size: every worker fills its own slice of the
    /// columns in place, so each first-touches the pages it fills. `fill`
    /// runs once per worker, on its chunks, the index of its slice's first
    /// particle and the slice.
    fn fill_in_place(
        &self,
        range: &Range<usize>,
        pool: Option<&ThreadPool>,
        fill: impl Fn(Range<usize>, usize, &mut SoaViewMut<'_>) + Sync,
    ) -> (ParticlesSoA, Vec<f64>) {
        assert!(range.start <= range.end && range.end <= self.n);
        let len = range.len();
        let mut p = ParticlesSoA::zeroed(len);
        let mut vz = vec![0.0; if self.vz { len } else { 0 }];
        let mut whole = [None];
        split_soa_mut_into(&mut p, &mut vz, 1, &mut whole);
        let mut rest = whole[0].take().expect("one view");
        let first = |c: usize| (c * CHUNK).clamp(range.start, range.end);
        let shares = self.worker_shares(range, pool);
        let mut items = Vec::with_capacity(shares.len());
        for chunks in shares {
            let (a, b) = (first(chunks.start), first(chunks.end));
            let (head, tail) = rest.split_at(b - a);
            rest = tail;
            items.push((chunks, a, head));
        }
        run_workers(pool, &mut items, |(chunks, first, view)| {
            fill(chunks.clone(), *first, view)
        });
        (p, vz)
    }

    /// A load of unknown size (a cell filter): each worker appends what it
    /// keeps to its own store, and the stores are joined in worker (index)
    /// order. `fill` runs once per worker, on its chunks, its store and
    /// its `vz` column.
    fn fill_appending(
        &self,
        range: &Range<usize>,
        pool: Option<&ThreadPool>,
        fill: impl Fn(Range<usize>, &mut ParticlesSoA, &mut Vec<f64>) + Sync,
    ) -> (ParticlesSoA, Vec<f64>) {
        assert!(range.start <= range.end && range.end <= self.n);
        let mut items: Vec<_> = self
            .worker_shares(range, pool)
            .into_iter()
            .map(|chunks| (chunks, ParticlesSoA::default(), Vec::new()))
            .collect();
        run_workers(pool, &mut items, |(chunks, p, vz)| {
            fill(chunks.clone(), p, vz)
        });
        let mut runs = items.into_iter().map(|(_, p, vz)| (p, vz));
        let (mut p, mut vz) = runs.next().expect("at least one worker");
        for (q, qz) in runs {
            Run::of(&q, &qz).append(&mut p, &mut vz);
        }
        (p, vz)
    }

    /// Particles per cell of the whole population (`layout.ncells()`
    /// entries) without storing it — the load histogram a weighted
    /// partition cuts. Sampled on `pool` like [`load`](Self::load).
    pub fn cell_counts(&self, pool: Option<&ThreadPool>) -> Vec<f64> {
        let ncells = self.layout.ncells();
        let range = 0..self.n;
        let mut items: Vec<_> = self
            .worker_shares(&range, pool)
            .into_iter()
            .map(|chunks| (chunks, vec![0.0f64; ncells]))
            .collect();
        run_workers(pool, &mut items, |(chunks, counts)| {
            for c in chunks.clone() {
                let (mut s, end) = (self.stream(c, 0), chunk_end(c, &range));
                let mut b = Lanes::default();
                while s.next < end {
                    s.next_block(end, &mut b);
                    for &cell in &b.icell[..b.len] {
                        counts[cell as usize] += 1.0;
                    }
                }
            }
        });
        let mut runs = items.into_iter().map(|(_, counts)| counts);
        let mut total = runs.next().expect("at least one worker");
        for counts in runs {
            for (t, c) in total.iter_mut().zip(&counts) {
                *t += c;
            }
        }
        total
    }

    /// The chunks that overlap `range`, cut into one contiguous run per
    /// worker of `pool` (one run without a pool).
    fn worker_shares(&self, range: &Range<usize>, pool: Option<&ThreadPool>) -> Vec<Range<usize>> {
        let (c0, c1) = (range.start / CHUNK, range.end.div_ceil(CHUNK));
        let width = pool.map_or(1, ThreadPool::nthreads);
        (0..width)
            .map(|w| {
                let (a, b) = chunk_range(c1 - c0, width, w);
                c0 + a..c0 + b
            })
            .collect()
    }

    /// Chunk `c`'s streams, walked up to particle `from` (the draws before
    /// it made and dropped).
    fn stream(&self, c: usize, from: usize) -> ChunkStream<'a> {
        let key = [self.species, c as u64, 1];
        let mut s = ChunkStream {
            loader: *self,
            rng: Rng::seed_from_u64(hash_words(self.seed, &key[..2])),
            vz_rng: self
                .vz
                .then(|| Rng::seed_from_u64(hash_words(self.seed, &key))),
            next: c * CHUNK,
        };
        let mut dropped = Lanes::default();
        while s.next < from {
            dropped.len = 0;
            s.draw(&mut dropped);
        }
        s
    }
}

/// One past the last particle of chunk `c` inside `range`.
fn chunk_end(c: usize, range: &Range<usize>) -> usize {
    ((c + 1) * CHUNK).min(range.end)
}

/// A chunk's draw streams, at particle `next` (see [`Loader`] for the
/// draws and their order).
struct ChunkStream<'a> {
    loader: Loader<'a>,
    rng: Rng,
    vz_rng: Option<Rng>,
    next: usize,
}

impl ChunkStream<'_> {
    /// The scalar walk: particle `next`'s draws, into lane `b.len` of `b`.
    #[inline]
    fn draw(&mut self, b: &mut Lanes) {
        let Loader { grid, dist, .. } = self.loader;
        let rng = &mut self.rng;
        let x = match dist {
            InitialDistribution::Landau { alpha, k }
            | InitialDistribution::TwoStream { alpha, k, .. } => {
                sample_perturbed_x(rng, grid.lx, alpha, k)
            }
            InitialDistribution::DriftingMaxwellian { alpha, k, .. } if alpha != 0.0 => {
                sample_perturbed_x(rng, grid.lx, alpha, k)
            }
            _ => rng.range(0.0, grid.lx),
        };
        let y = rng.range(0.0, grid.ly);
        let shift = match dist {
            InitialDistribution::TwoStream { v0, .. } => {
                if rng.coin() {
                    v0
                } else {
                    -v0
                }
            }
            InitialDistribution::DriftingMaxwellian { v0x, .. } => v0x,
            InitialDistribution::Landau { .. } | InitialDistribution::Uniform => 0.0,
        };
        let l = b.len;
        (b.u1[l], b.u2[l]) = (rng.uniform(), rng.uniform());
        if let Some(z) = self.vz_rng.as_mut() {
            (b.z1[l], b.z2[l]) = (z.uniform(), z.uniform());
        }
        (b.index[l], b.x[l], b.y[l], b.shift[l]) = (self.next, x, y, shift);
        b.len += 1;
        self.next += 1;
    }

    /// The next (up to) [`LANES`] particles before `end`: drawn by the
    /// scalar walk, then placed in their cells together.
    #[inline]
    fn next_block(&mut self, end: usize, b: &mut Lanes) {
        b.len = 0;
        while b.len < LANES && self.next < end {
            self.draw(b);
        }
        b.place(self.loader.grid, self.loader.layout);
    }

    /// Sample particles `next..end`: draw and place them [`LANES`] at a
    /// time, gather the ones whose cell `keep` accepts, and give those
    /// their velocities [`LANES`] at a time. `emit` gets them in index
    /// order, as runs of at most [`LANES`] with the index of each run's
    /// first particle (consecutive indices when `keep` accepts all).
    #[inline]
    fn sample(
        &mut self,
        end: usize,
        keep: impl Fn(u32) -> bool,
        mut emit: impl FnMut(usize, Run<'_>),
    ) {
        let (vt, vz) = (self.loader.dist.thermal_spread(), self.loader.vz);
        let mut drawn = Lanes::default();
        let mut kept = Lanes::default();
        while self.next < end {
            self.next_block(end, &mut drawn);
            for l in 0..drawn.len {
                if keep(drawn.icell[l]) {
                    kept.take(&drawn, l);
                    if kept.len == LANES {
                        kept.finish(vt, vz);
                        emit(kept.index[0], kept.run(vz));
                        kept.len = 0;
                    }
                }
            }
        }
        if kept.len > 0 {
            kept.finish(vt, vz);
            emit(kept.index[0], kept.run(vz));
        }
    }
}

/// Up to [`LANES`] particles on their way through the stages, column by
/// column. Lanes past `len` keep whatever they held: every stage computes
/// all [`LANES`] lanes, each from its own inputs only, so padding never
/// reaches a particle.
#[derive(Default)]
struct Lanes {
    len: usize,
    /// Each particle's population index.
    index: [usize; LANES],
    // The scalar walk's draws: the position, the mean x-velocity (the
    // beam's `±v0`, the drift `v0x`, or zero), and the uniforms of the
    // (vx, vy) pair and of the `vz` pair (zero without `vz`).
    x: [f64; LANES],
    y: [f64; LANES],
    shift: [f64; LANES],
    u1: [f64; LANES],
    u2: [f64; LANES],
    z1: [f64; LANES],
    z2: [f64; LANES],
    // The position stage's cells and offsets.
    icell: [u32; LANES],
    ix: [u32; LANES],
    iy: [u32; LANES],
    dx: [f64; LANES],
    dy: [f64; LANES],
    // The velocity stage's output.
    vx: [f64; LANES],
    vy: [f64; LANES],
    vz: [f64; LANES],
}

impl Lanes {
    /// The position stage: every lane's cell and in-cell offsets, by the
    /// grid's own split (so bit for bit those of a scalar split) and one
    /// batched encode.
    #[inline]
    fn place(&mut self, grid: &Grid2D, layout: &dyn CellLayout) {
        let (mut cx, mut cy, mut cell) = ([0; LANES], [0; LANES], [0; LANES]);
        for l in 0..LANES {
            (cx[l], self.dx[l]) = grid.split_x(grid.to_grid_x(self.x[l]));
            (cy[l], self.dy[l]) = grid.split_y(grid.to_grid_y(self.y[l]));
        }
        layout.encode_batch(&cx, &cy, &mut cell);
        for l in 0..LANES {
            self.icell[l] = cell[l] as u32;
            self.ix[l] = cx[l] as u32;
            self.iy[l] = cy[l] as u32;
        }
    }

    /// Append lane `l` of `from` (drawn and placed) to this block.
    #[inline]
    fn take(&mut self, from: &Lanes, l: usize) {
        let k = self.len;
        self.index[k] = from.index[l];
        (self.icell[k], self.ix[k], self.iy[k]) = (from.icell[l], from.ix[l], from.iy[l]);
        (self.dx[k], self.dy[k], self.shift[k]) = (from.dx[l], from.dy[l], from.shift[l]);
        (self.u1[k], self.u2[k]) = (from.u1[l], from.u2[l]);
        (self.z1[k], self.z2[k]) = (from.z1[l], from.z2[l]);
        self.len += 1;
    }

    /// The velocity stage: every lane's Box–Muller pair (and `vz`'s, when
    /// the load has it), scaled by the thermal spread `vt`.
    #[inline]
    fn finish(&mut self, vt: f64, vz: bool) {
        let (gx, gy) = box_muller_lanes(&self.u1, &self.u2);
        for l in 0..LANES {
            self.vx[l] = self.shift[l] + vt * gx[l];
            self.vy[l] = vt * gy[l];
        }
        if vz {
            let (gz, _) = box_muller_lanes(&self.z1, &self.z2);
            for (v, g) in self.vz.iter_mut().zip(gz) {
                *v = vt * g;
            }
        }
    }

    /// The particles of the block (with `vz`, when the load has it).
    fn run(&self, vz: bool) -> Run<'_> {
        let n = self.len;
        Run {
            icell: &self.icell[..n],
            ix: &self.ix[..n],
            iy: &self.iy[..n],
            dx: &self.dx[..n],
            dy: &self.dy[..n],
            vx: &self.vx[..n],
            vy: &self.vy[..n],
            vz: if vz { &self.vz[..n] } else { &[] },
        }
    }
}

/// A run of sampled particles, column by column: a lane block or a
/// sorted construction block. `vz` is empty when the load has none.
#[derive(Clone, Copy)]
struct Run<'r> {
    icell: &'r [u32],
    ix: &'r [u32],
    iy: &'r [u32],
    dx: &'r [f64],
    dy: &'r [f64],
    vx: &'r [f64],
    vy: &'r [f64],
    vz: &'r [f64],
}

impl<'r> Run<'r> {
    /// Every particle of `p`, with its `vz` column.
    fn of(p: &'r ParticlesSoA, vz: &'r [f64]) -> Self {
        Run {
            icell: &p.icell,
            ix: &p.ix,
            iy: &p.iy,
            dx: &p.dx,
            dy: &p.dy,
            vx: &p.vx,
            vy: &p.vy,
            vz,
        }
    }

    /// Copy into `view` from slot `j` on.
    fn write(&self, view: &mut SoaViewMut<'_>, j: usize) {
        let r = j..j + self.icell.len();
        view.icell[r.clone()].copy_from_slice(self.icell);
        view.ix[r.clone()].copy_from_slice(self.ix);
        view.iy[r.clone()].copy_from_slice(self.iy);
        view.dx[r.clone()].copy_from_slice(self.dx);
        view.dy[r.clone()].copy_from_slice(self.dy);
        view.vx[r.clone()].copy_from_slice(self.vx);
        view.vy[r.clone()].copy_from_slice(self.vy);
        if !self.vz.is_empty() {
            view.vz[r].copy_from_slice(self.vz);
        }
    }

    /// Append to `p` and its `vz` column.
    fn append(&self, p: &mut ParticlesSoA, vz: &mut Vec<f64>) {
        p.icell.extend_from_slice(self.icell);
        p.ix.extend_from_slice(self.ix);
        p.iy.extend_from_slice(self.iy);
        p.dx.extend_from_slice(self.dx);
        p.dy.extend_from_slice(self.dy);
        p.vx.extend_from_slice(self.vx);
        p.vy.extend_from_slice(self.vy);
        vz.extend_from_slice(self.vz);
    }
}

/// One worker's construction block: the particles it kept since the last
/// block edge, and the sort's scratch for them.
#[derive(Default)]
struct Block {
    p: ParticlesSoA,
    vz: Vec<f64>,
    arena: SortArena,
}

impl Block {
    /// Sort the block stably by `icell` while it is in cache, hand it to
    /// `out` and empty it.
    fn flush(&mut self, ncells: usize, out: impl FnOnce(Run<'_>)) {
        let vz = Some(&mut self.vz).filter(|vz| !vz.is_empty());
        sort_columns(&mut self.p, vz, ncells, None, &mut self.arena);
        out(Run::of(&self.p, &self.vz));
        self.p.clear();
        self.vz.clear();
    }
}

/// Run `f` on every item: one item per worker of `pool`, or inline.
fn run_workers<T: Send>(pool: Option<&ThreadPool>, items: &mut [T], f: impl Fn(&mut T) + Sync) {
    match pool {
        Some(pool) => pool.run_items(items, |_, item| f(item)),
        None => items.iter_mut().for_each(f),
    }
}

/// Create `n` particles sampled from `dist` on `grid`, velocities in
/// *physical* units, positions encoded under `layout`: the whole
/// population of a [`Loader`], sampled on the calling thread.
pub fn initialize(
    grid: &Grid2D,
    layout: &dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    seed: u64,
) -> ParticlesSoA {
    Loader::new(grid, layout, dist, n, seed)
        .load(0..n, None, None)
        .0
}

/// The macro-particle weight: each of the `n` markers carries
/// `w = n₀·Lx·Ly/n` physical particles, with unit background density n₀ = 1.
pub fn particle_weight(grid: &Grid2D, n: usize) -> f64 {
    grid.lx * grid.ly / n as f64
}

/// Re-encode `icell` for every particle under a new layout (used when a
/// harness switches orderings on the same particle set).
pub fn reencode(particles: &mut ParticlesSoA, layout: &dyn CellLayout) {
    for i in 0..particles.len() {
        particles.icell[i] =
            layout.encode(particles.ix[i] as usize, particles.iy[i] as usize) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::RowMajor;

    fn grid() -> Grid2D {
        Grid2D::new(
            32,
            32,
            4.0 * std::f64::consts::PI,
            4.0 * std::f64::consts::PI,
        )
        .unwrap()
    }

    #[test]
    fn initialize_is_deterministic() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let a = initialize(&g, &l, InitialDistribution::Uniform, 1000, 42);
        let b = initialize(&g, &l, InitialDistribution::Uniform, 1000, 42);
        assert_eq!(a.icell, b.icell);
        assert_eq!(a.dx, b.dx);
        assert_eq!(a.vx, b.vx);
        let c = initialize(&g, &l, InitialDistribution::Uniform, 1000, 43);
        assert_ne!(a.icell, c.icell);
    }

    #[test]
    fn offsets_and_cells_in_range() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(
            &g,
            &l,
            InitialDistribution::Landau { alpha: 0.5, k: 0.5 },
            5000,
            1,
        );
        for i in 0..p.len() {
            assert!((p.ix[i] as usize) < 32);
            assert!((p.iy[i] as usize) < 32);
            assert!((0.0..1.0).contains(&p.dx[i]), "dx {}", p.dx[i]);
            assert!((0.0..1.0).contains(&p.dy[i]), "dy {}", p.dy[i]);
            assert_eq!(
                p.icell[i] as usize,
                l.encode(p.ix[i] as usize, p.iy[i] as usize)
            );
        }
    }

    #[test]
    fn landau_perturbation_shows_in_density() {
        // With α = 0.5, k = 0.5 on Lx = 4π: density at kx≈0 exceeds kx≈π.
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let k = 0.5;
        let p = initialize(
            &g,
            &l,
            InitialDistribution::Landau { alpha: 0.5, k },
            200_000,
            7,
        );
        let mut crest = 0usize; // cells where cos(kx) > 0.7
        let mut trough = 0usize; // cells where cos(kx) < −0.7
        for i in 0..p.len() {
            let x_phys = (p.ix[i] as f64 + p.dx[i]) * g.dx();
            let c = (k * x_phys).cos();
            if c > 0.7 {
                crest += 1;
            } else if c < -0.7 {
                trough += 1;
            }
        }
        let ratio = crest as f64 / trough as f64;
        // Expected ratio ≈ mean(1+0.5c | c>0.7)/mean(1+0.5c | c<−0.7) ≈ 2.6.
        assert!(ratio > 2.0, "crest/trough ratio {ratio}");
    }

    #[test]
    fn maxwellian_moments() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(&g, &l, InitialDistribution::Uniform, 100_000, 3);
        let n = p.len() as f64;
        let mean_vx: f64 = p.vx.iter().sum::<f64>() / n;
        let var_vx: f64 = p.vx.iter().map(|v| v * v).sum::<f64>() / n;
        assert!(mean_vx.abs() < 0.02, "mean vx {mean_vx}");
        assert!((var_vx - 1.0).abs() < 0.03, "var vx {var_vx}");
    }

    #[test]
    fn two_stream_is_bimodal() {
        let g = grid();
        let l = RowMajor::new(32, 32).unwrap();
        let p = initialize(
            &g,
            &l,
            InitialDistribution::TwoStream {
                alpha: 0.01,
                k: 0.5,
                v0: 3.0,
                vt: 0.3,
            },
            50_000,
            11,
        );
        let fast = p.vx.iter().filter(|v| v.abs() > 2.0).count();
        let slow = p.vx.iter().filter(|v| v.abs() < 1.0).count();
        assert!(fast > 45_000, "beams at ±3: {fast}");
        assert!(slow < 500, "little mass near v=0: {slow}");
        // Roughly half in each beam.
        let pos = p.vx.iter().filter(|&&v| v > 0.0).count() as f64 / p.len() as f64;
        assert!((pos - 0.5).abs() < 0.02);
    }

    #[test]
    fn weight_normalization() {
        let g = grid();
        let w = particle_weight(&g, 1000);
        assert!((w * 1000.0 - g.lx * g.ly).abs() < 1e-9);
    }

    #[test]
    fn reencode_switches_layout() {
        let g = grid();
        let rm = RowMajor::new(32, 32).unwrap();
        let mo = sfc::Morton::new(32, 32).unwrap();
        let mut p = initialize(&g, &rm, InitialDistribution::Uniform, 500, 9);
        reencode(&mut p, &mo);
        for i in 0..p.len() {
            assert_eq!(
                p.icell[i] as usize,
                mo.encode(p.ix[i] as usize, p.iy[i] as usize)
            );
        }
    }
}
