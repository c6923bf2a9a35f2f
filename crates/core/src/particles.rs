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
//! Every initial population comes from one [`Loader`], born sorted by
//! cell: it draws each cell's particle count as one exact multinomial,
//! then samples each cell's particles in place from the cell's own xoshiro
//! stream, keyed by `(seed, species, cell)`. A particle is therefore a
//! pure function of the seed, its species, its cell and its rank in the
//! cell — the same at every pool width and under every layout, and
//! addressable by index or cell range without sampling the rest of the
//! population. No construction sorts (DESIGN.md §19).

use crate::grid::Grid2D;
use crate::kernels::simd::LANES;
use crate::kernels::{split_soa_mut_into, SoaViewMut};
use crate::pool::{chunk_range, ThreadPool};
use crate::rng::{box_muller_lanes, hash_words, Rng};
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

/// The last key word of the count stream, `hash_words(seed, [species,
/// COUNT_STREAM])`: no cell index reaches it.
const COUNT_STREAM: u64 = u64::MAX;

/// Rejection-sample an in-cell x offset in `[0, 1)` with density
/// `∝ 1 + α cos(k x)`, `x = (cx + offset)·h` (`cx` the cell's column, `h`
/// the cell width).
///
/// A draw with `accept ≤ 1 − |α|` is taken without evaluating the cosine.
/// The squeeze is exact: `|cos| ≤ 1` and rounding is monotone, so
/// `|fl(α·cos kx)| ≤ |α|` and `fl(1 + fl(α·cos kx)) ≥ fl(1 − |α|)` for
/// every x — the test accepts exactly the draws the full test accepts, and
/// skips `cos` for all but about `2|α|/(1 + |α|)` of them.
fn sample_offset(rng: &mut Rng, cx: f64, h: f64, (alpha, k): (f64, f64)) -> f64 {
    debug_assert!(alpha.abs() <= 1.0);
    let squeeze = 1.0 - alpha.abs();
    loop {
        let offset = rng.uniform();
        let accept = rng.range(0.0, 1.0 + alpha.abs());
        if accept <= squeeze || accept <= 1.0 + alpha * (k * ((cx + offset) * h)).cos() {
            return offset;
        }
    }
}

/// A seeded particle population: `n` particles of `dist` on `grid`,
/// encoded under `layout`, velocities in *physical* units, born sorted by
/// cell (DESIGN.md §19).
///
/// **Counts.** The loader first draws how many particles each cell holds
/// as one exact multinomial: a chain of exact binomials over the cells in
/// row-major order `r = ix·ncy + iy`,
/// `n_r ~ Bin(n − Σ_{r′<r} n_r′, p_r / Σ_{r′≥r} p_r′)`, from one stream
/// keyed by `(seed, species)`, with `p_r` the closed-form integral of the
/// density over the cell. In the store, cell `c` of `layout` holds the
/// particles `C(c) ≤ i < C(c + 1)`, `C` the prefix sums of the counts in
/// `icell` order. Every loader draws all the counts, in O(cells).
///
/// **Particles.** Cell `r` samples its particles from its own xoshiro
/// stream, `hash_words(seed, [species, r])`: each draws its x offset (by
/// [`sample_offset`] when the density is perturbed), its y offset, the beam
/// sign (two-stream only) and the two uniforms of one Box–Muller pair for
/// (vx, vy). A 2d3v species draws `vz` — the cosine half of one more pair —
/// from a second stream per cell, `hash_words(seed, [species, r, 1])`, so
/// its in-plane columns are those of the 2d2v population with the same
/// seed and species. Given the counts, the offsets are i.i.d. from the
/// density restricted to the cell, so the store has the law of `n` i.i.d.
/// particles, stably sorted by cell.
///
/// **Determinism.** The `k`-th particle of a cell is a pure function of
/// `(seed, species, ix, iy, k)`: every layout holds the same particles, in
/// the same order within each cell; a load is bit-identical at every pool
/// width; and any index range equals the matching part of a full load. A
/// cell range is the index range [`cell_range`](Self::cell_range) gives,
/// so a decomposed rank samples only its own particles.
///
/// Velocities are computed [`LANES`] particles at a time
/// ([`crate::rng::box_muller_lanes`]); each lane is a function of its own
/// uniforms only.
#[derive(Clone)]
pub struct Loader<'a> {
    grid: &'a Grid2D,
    layout: &'a dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    seed: u64,
    species: u64,
    vz: bool,
    /// `C(c)`, the first particle of cell `c`: `ncells + 1` entries, the
    /// last `n`.
    starts: Vec<usize>,
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
        Self::build(grid, layout, dist, n, seed, 0, false)
    }

    /// Species `index` of a multi-species run, with an out-of-plane `vz`
    /// column sampled at the distribution's thermal spread.
    pub fn species(
        grid: &'a Grid2D,
        layout: &'a dyn CellLayout,
        dist: InitialDistribution,
        n: usize,
        seed: u64,
        index: usize,
    ) -> Self {
        Self::build(grid, layout, dist, n, seed, index as u64, true)
    }

    fn build(
        grid: &'a Grid2D,
        layout: &'a dyn CellLayout,
        dist: InitialDistribution,
        n: usize,
        seed: u64,
        species: u64,
        vz: bool,
    ) -> Self {
        let mut loader = Self {
            grid,
            layout,
            dist,
            n,
            seed,
            species,
            vz,
            starts: Vec::new(),
        };
        loader.starts = loader.draw_starts();
        loader
    }

    /// `(α, k)` of a perturbed density, `None` for a uniform one.
    fn perturbation(&self) -> Option<(f64, f64)> {
        match self.dist {
            InitialDistribution::Landau { alpha, k }
            | InitialDistribution::TwoStream { alpha, k, .. }
            | InitialDistribution::DriftingMaxwellian { alpha, k, .. }
                if alpha != 0.0 =>
            {
                Some((alpha, k))
            }
            _ => None,
        }
    }

    /// Cell `c`'s `(ix, iy)` and row-major index `r`, which keys its
    /// streams.
    fn cell(&self, c: usize) -> (usize, usize, usize) {
        let (cx, cy) = self.layout.decode(c);
        (cx, cy, cx * self.grid.ncy + cy)
    }

    /// The counts' prefix sums in `icell` order: the binomial chain over the
    /// cells in row-major order, each weighted by `∫ (1 + α cos kx) dx`
    /// over its column.
    fn draw_starts(&self) -> Vec<usize> {
        let (ncx, ncy) = (self.grid.ncx, self.grid.ncy);
        let h = self.grid.dx();
        let column = |cx: usize| match self.perturbation() {
            Some((alpha, k)) => {
                let x0 = cx as f64 * h;
                (h + alpha / k * ((k * (x0 + h)).sin() - (k * x0).sin())).max(0.0)
            }
            None => h,
        };
        let columns: Vec<f64> = (0..ncx).map(column).collect();
        let weight = |r: usize| columns[r / ncy];
        let mut tail = vec![0.0; ncx * ncy + 1];
        for r in (0..ncx * ncy).rev() {
            tail[r] = weight(r) + tail[r + 1];
        }
        let mut rng = Rng::seed_from_u64(hash_words(self.seed, &[self.species, COUNT_STREAM]));
        let mut placed = 0;
        let counts: Vec<usize> = (0..ncx * ncy)
            .map(|r| {
                // The last cell of positive weight has `tail == weight`:
                // share 1, so it takes every particle still unplaced.
                let left = self.n - placed;
                let share = if tail[r] > 0.0 {
                    weight(r) / tail[r]
                } else {
                    0.0
                };
                let k = rng.binomial(left as u64, share.min(1.0)) as usize;
                placed += k;
                k
            })
            .collect();
        assert_eq!(placed, self.n, "the count chain places every particle");
        let mut starts = Vec::with_capacity(counts.len() + 1);
        starts.push(0);
        for c in 0..counts.len() {
            starts.push(starts[c] + counts[self.cell(c).2]);
        }
        starts
    }

    /// Particles per cell, in `icell` order: the drawn counts.
    pub fn cell_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts.windows(2).map(|w| w[1] - w[0])
    }

    /// The index range of the particles in `cells`.
    pub fn cell_range(&self, cells: Range<u32>) -> Range<usize> {
        self.starts[cells.start as usize]..self.starts[cells.end as usize]
    }

    /// Sample the particles with index in `range` — on `pool`, one
    /// [`chunk_range`] share per worker, each filling its own slice of the
    /// columns in place (so it first-touches the pages it fills). Returns
    /// the store, sorted by cell, and its `vz` column (empty without
    /// [`species`](Self::species)).
    pub fn load(&self, range: Range<usize>, pool: Option<&ThreadPool>) -> (ParticlesSoA, Vec<f64>) {
        assert!(range.start <= range.end && range.end <= self.n);
        let len = range.len();
        let mut p = ParticlesSoA::zeroed(len);
        let mut vz = vec![0.0; if self.vz { len } else { 0 }];
        let width = pool.map_or(1, ThreadPool::nthreads);
        let mut views: Vec<_> = (0..width).map(|_| None).collect();
        split_soa_mut_into(&mut p, &mut vz, width, &mut views);
        let mut items: Vec<_> = views
            .into_iter()
            .enumerate()
            .filter_map(|(w, view)| Some((range.start + chunk_range(len, width, w).0, view?)))
            .collect();
        let fill = |(first, view): &mut (usize, SoaViewMut<'_>)| {
            let first = *first;
            // First touch, one column at a time: each column's pages then
            // lie together in memory, as a sort's column-by-column gathers
            // leave them, where writing all columns lane block by lane
            // block would interleave them (DESIGN.md §19).
            self.fill_cells(first, view);
            for col in [
                &mut view.dx,
                &mut view.dy,
                &mut view.vx,
                &mut view.vy,
                &mut view.vz,
            ] {
                col.fill(0.0);
            }
            let mut walk = Walk::new(self, first);
            walk.sample(first + view.len(), |i, lanes| lanes.write(view, i - first));
        };
        match pool {
            Some(pool) => pool.run_items(&mut items, |_, item| fill(item)),
            None => items.iter_mut().for_each(fill),
        }
        (p, vz)
    }

    /// Write the index columns of `view`, whose first particle is `first`:
    /// each cell's run of `icell`, `ix` and `iy`, one column after the
    /// other.
    fn fill_cells(&self, first: usize, view: &mut SoaViewMut<'_>) {
        let end = first + view.len();
        if first == end {
            return;
        }
        let runs = || {
            (self.cell_of(first)..=self.cell_of(end - 1)).filter_map(move |c| {
                let (a, b) = (self.starts[c].max(first), self.starts[c + 1].min(end));
                (a < b).then(|| (c, a - first..b - first))
            })
        };
        for (c, run) in runs() {
            view.icell[run].fill(c as u32);
        }
        for (c, run) in runs() {
            view.ix[run].fill(self.cell(c).0 as u32);
        }
        for (c, run) in runs() {
            view.iy[run].fill(self.cell(c).1 as u32);
        }
    }

    /// The cell particle `i < n` lives in.
    fn cell_of(&self, i: usize) -> usize {
        self.starts[1..].partition_point(|&s| s <= i)
    }
}

/// A walk through the population in index order, at particle `next` of
/// cell `cell`, holding that cell's draw streams (see [`Loader`] for the
/// draws and their order).
struct Walk<'l> {
    loader: &'l Loader<'l>,
    next: usize,
    cell: usize,
    /// One past the last particle of `cell`.
    cell_end: usize,
    /// `cell`'s column, as the density's phase needs it.
    cx: f64,
    rng: Rng,
    vz_rng: Option<Rng>,
    /// The loader's density perturbation and the cell width.
    wave: Option<(f64, f64)>,
    h: f64,
}

impl<'l> Walk<'l> {
    /// A walk at particle `from`: its cell's streams, with the draws of
    /// the cell's particles before it made and dropped.
    fn new(loader: &'l Loader<'l>, from: usize) -> Self {
        let mut walk = Self {
            loader,
            next: from,
            cell: 0,
            cell_end: 0,
            cx: 0.0,
            rng: Rng::seed_from_u64(0),
            vz_rng: None,
            wave: loader.perturbation(),
            h: loader.grid.dx(),
        };
        if from < loader.n {
            walk.enter(loader.cell_of(from));
            let mut dropped = Lanes::default();
            while walk.next < from {
                dropped.len = 0;
                walk.draw(&mut dropped);
            }
        }
        walk
    }

    /// Move to the first particle of cell `c` and seed its streams.
    fn enter(&mut self, c: usize) {
        let loader = self.loader;
        let (cx, _, r) = loader.cell(c);
        let key = [loader.species, r as u64, 1];
        self.rng = Rng::seed_from_u64(hash_words(loader.seed, &key[..2]));
        self.vz_rng = loader
            .vz
            .then(|| Rng::seed_from_u64(hash_words(loader.seed, &key)));
        (self.cell, self.cx) = (c, cx as f64);
        (self.next, self.cell_end) = (loader.starts[c], loader.starts[c + 1]);
    }

    /// Particle `next`'s draws, into lane `b.len` of `b`.
    #[inline]
    fn draw(&mut self, b: &mut Lanes) {
        let mut c = self.cell;
        while self.next >= self.cell_end {
            c += 1;
            self.cell_end = self.loader.starts[c + 1];
            if self.next < self.cell_end {
                self.enter(c);
            }
        }
        let rng = &mut self.rng;
        let dx = match self.wave {
            Some(wave) => sample_offset(rng, self.cx, self.h, wave),
            None => rng.uniform(),
        };
        let dy = rng.uniform();
        let shift = match self.loader.dist {
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
        (b.dx[l], b.dy[l], b.shift[l]) = (dx, dy, shift);
        b.len += 1;
        self.next += 1;
    }

    /// Sample particles `next..end` [`LANES`] at a time: `emit` gets each
    /// lane block with the index of its first particle.
    #[inline]
    fn sample(&mut self, end: usize, mut emit: impl FnMut(usize, &Lanes)) {
        let (vt, vz) = (self.loader.dist.thermal_spread(), self.loader.vz);
        let mut b = Lanes::default();
        while self.next < end {
            let first = self.next;
            b.len = 0;
            while b.len < LANES && self.next < end {
                self.draw(&mut b);
            }
            b.finish(vt, vz);
            emit(first, &b);
        }
    }
}

/// Up to [`LANES`] consecutive particles on their way from their draws to
/// the store, column by column. Lanes past `len` keep whatever they held:
/// the velocity stage computes all [`LANES`] lanes, each from its own
/// inputs only, so padding never reaches a particle.
#[derive(Default)]
struct Lanes {
    len: usize,
    // The draws: the offsets, the mean x-velocity (the beam's `±v0`, the
    // drift `v0x`, or zero), and the uniforms of the (vx, vy) pair and of
    // the `vz` pair (zero without `vz`).
    dx: [f64; LANES],
    dy: [f64; LANES],
    shift: [f64; LANES],
    u1: [f64; LANES],
    u2: [f64; LANES],
    z1: [f64; LANES],
    z2: [f64; LANES],
    // The velocity stage's output.
    vx: [f64; LANES],
    vy: [f64; LANES],
    vz: [f64; LANES],
}

impl Lanes {
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

    /// Copy the block's payload columns into `view` from slot `j` on.
    fn write(&self, view: &mut SoaViewMut<'_>, j: usize) {
        let (r, n) = (j..j + self.len, self.len);
        view.dx[r.clone()].copy_from_slice(&self.dx[..n]);
        view.dy[r.clone()].copy_from_slice(&self.dy[..n]);
        view.vx[r.clone()].copy_from_slice(&self.vx[..n]);
        view.vy[r.clone()].copy_from_slice(&self.vy[..n]);
        if !view.vz.is_empty() {
            view.vz[r].copy_from_slice(&self.vz[..n]);
        }
    }
}

/// Create `n` particles sampled from `dist` on `grid`, velocities in
/// *physical* units, positions encoded under `layout`, sorted by cell: the
/// whole population of a [`Loader`], sampled on the calling thread.
pub fn initialize(
    grid: &Grid2D,
    layout: &dyn CellLayout,
    dist: InitialDistribution,
    n: usize,
    seed: u64,
) -> ParticlesSoA {
    Loader::new(grid, layout, dist, n, seed).load(0..n, None).0
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
