//! Multi-species particle storage: per-species charge/mass and SoA arenas.
//!
//! The paper's data structures were built for one electrostatic species;
//! this module generalizes them following the per-species SoA container
//! approach of SoAx (arXiv:1710.03462): each species keeps its *own*
//! [`ParticlesSoA`] arena — so every existing position/sort/deposit kernel
//! runs on it unchanged — plus a parallel out-of-plane `vz` array that only
//! the 2d3v kernels ([`crate::kernels::boris`], [`crate::kernels::current`])
//! touch. It travels as the optional `vz` slice of the kernels' one view
//! type ([`SoaViewMut`], empty for a 2d2v store), so both stores step
//! through the same streaming pass and the 2d2v hot path pays nothing.
//!
//! Velocities in a species arena are always in *physical* units (the
//! multi-species driver does not hoist; see `kernels/boris.rs`).

use crate::grid::Grid2D;
use crate::kernels::{split_soa_mut_into, SoaViewMut};
use crate::particles::{InitialDistribution, Loader, ParticlesSoA};
use crate::pool::{chunk_range, ThreadPool};
use crate::sort::{sort_columns, SortArena};
use sfc::CellLayout;
use std::ops::Range;

/// Static description of one particle species.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesDef {
    /// Human-readable label ("electrons", "ions", …); part of the
    /// checkpoint fingerprint.
    pub name: String,
    /// Charge in units of the elementary charge (electron = −1).
    pub charge: f64,
    /// Mass in electron masses.
    pub mass: f64,
    /// Background number density this species contributes (sets the
    /// macro-particle weight `density·Lx·Ly/n`).
    pub density: f64,
    /// Marker count.
    pub n_particles: usize,
    /// Initial phase-space distribution (in-plane; `vz` is sampled with
    /// the same thermal spread).
    pub distribution: InitialDistribution,
}

impl SpeciesDef {
    /// An electron species (q = −1, m = 1, unit density).
    pub fn electrons(n: usize, distribution: InitialDistribution) -> Self {
        Self {
            name: "electrons".into(),
            charge: -1.0,
            mass: 1.0,
            density: 1.0,
            n_particles: n,
            distribution,
        }
    }

    /// A singly-charged ion species with the given (reduced) mass ratio.
    pub fn ions(n: usize, mass: f64, distribution: InitialDistribution) -> Self {
        Self {
            name: "ions".into(),
            charge: 1.0,
            mass,
            density: 1.0,
            n_particles: n,
            distribution,
        }
    }

    /// Rename the species (labels must be unique within a config).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Scale the background density (and thus the particle weight).
    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }
}

/// One species' live storage: the classic SoA arena plus `vz`. It holds no
/// sort scratch: the driver's species share one [`SortArena`].
#[derive(Debug, Clone)]
pub struct SpeciesArena {
    /// The static definition.
    pub def: SpeciesDef,
    /// In-plane SoA storage — the exact shape every 2d2v kernel expects.
    pub p: ParticlesSoA,
    /// Out-of-plane velocities, index-parallel with `p`.
    pub vz: Vec<f64>,
    /// Macro-particle weight `density·Lx·Ly/n`.
    pub weight: f64,
}

impl SpeciesArena {
    /// Initialize species number `index` of a run seeded `seed` on `grid`
    /// under `layout`: positions and all three velocity components come
    /// from the [`Loader`] of `(seed, index)`, sampled on `pool` and born
    /// sorted by cell.
    ///
    /// An optional `slice = (rank, nranks)` samples only this rank's
    /// contiguous index range — the replicated-decomposition convention
    /// where every rank owns `1/nranks` of each species and the deposited
    /// ρ is summed by an allreduce. The slice equals the same range of
    /// the whole species bit for bit.
    pub fn initialize(
        def: SpeciesDef,
        grid: &Grid2D,
        layout: &dyn CellLayout,
        seed: u64,
        index: usize,
        slice: Option<(usize, usize)>,
        pool: Option<&ThreadPool>,
    ) -> Self {
        let (loader, range) = Self::loader(&def, grid, layout, seed, index, slice);
        let (p, vz) = loader.load(range, pool);
        Self::from_parts(def, p, vz, grid)
    }

    /// The [`Loader`] of species `index` and the index range `slice`
    /// keeps (see [`initialize`](Self::initialize)).
    pub(crate) fn loader<'a>(
        def: &SpeciesDef,
        grid: &'a Grid2D,
        layout: &'a dyn CellLayout,
        seed: u64,
        index: usize,
        slice: Option<(usize, usize)>,
    ) -> (Loader<'a>, Range<usize>) {
        let n = def.n_particles;
        let (s, e) = slice.map_or((0, n), |(rank, nranks)| chunk_range(n, nranks, rank));
        let loader = Loader::species(grid, layout, def.distribution, n, seed, index);
        (loader, s..e)
    }

    /// Build an arena directly from loaded or checkpointed storage. `vz` is
    /// empty for a 2d2v store, index-parallel with `p` otherwise.
    pub fn from_parts(def: SpeciesDef, p: ParticlesSoA, vz: Vec<f64>, grid: &Grid2D) -> Self {
        assert!(
            vz.is_empty() || vz.len() == p.len(),
            "vz must be empty or index-parallel with p"
        );
        let weight = def.density * grid.lx * grid.ly / def.n_particles as f64;
        Self { def, p, vz, weight }
    }

    /// Marker count in this arena (after any replication slice).
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when the arena holds no markers.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// The signed grid-deposit factor `weight·q/(Δx·Δy)` — what one marker
    /// adds to ρ (times a CIC weight) or to J (times a CIC weight and a
    /// velocity component).
    pub fn deposit_weight(&self, grid: &Grid2D) -> f64 {
        self.weight * self.def.charge / (grid.dx() * grid.dy())
    }

    /// Kinetic energy `½·m·w·Σ|v|²` of this species from its `Σ|v|²`.
    pub fn kinetic(&self, speed_sq: f64) -> f64 {
        0.5 * self.def.mass * self.weight * speed_sq
    }

    /// Stable counting sort by `icell` carrying a non-empty `vz` as an
    /// eighth column through the shared permutation-first engine
    /// ([`crate::sort`]).
    /// Runs on `pool` when there is one; the sort is stable, so the result
    /// does not depend on the pool or its width. Allocation-free once
    /// `arena` has sorted this many particles.
    pub fn sort(&mut self, ncells: usize, pool: Option<&ThreadPool>, arena: &mut SortArena) {
        let vz = Some(&mut self.vz).filter(|vz| !vz.is_empty());
        sort_columns(&mut self.p, vz, ncells, pool, arena);
    }
}

/// Split a species arena into exactly `nchunks` disjoint contiguous views
/// (the trailing ones empty when there are fewer particles than chunks) on
/// the [`chunk_range`] partition of the streaming pass and the pooled
/// deposits — the allocating whole-array form the oracle tests and
/// `benchmark/` fan out over; the step itself uses
/// [`split_soa_mut_into`].
pub fn split_species_mut<'a>(
    p: &'a mut ParticlesSoA,
    vz: &'a mut [f64],
    nchunks: usize,
) -> Vec<SoaViewMut<'a>> {
    assert_eq!(vz.len(), p.len());
    let mut out: Vec<_> = (0..nchunks).map(|_| None).collect();
    split_soa_mut_into(p, vz, nchunks, &mut out);
    out.into_iter().map(Option::unwrap_or_default).collect()
}

/// Zeroth/first/second velocity moments of one species, in physical units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeciesMoments {
    /// Zeroth moment: total physical particle count `n·w`.
    pub number: f64,
    /// Total charge `q·n·w` (exactly conserved — markers are never lost).
    pub charge: f64,
    /// First moment: total momentum `m·w·Σv`, per component.
    pub momentum: [f64; 3],
    /// Mean velocity, per component.
    pub mean_v: [f64; 3],
    /// Second central moment: temperature `m·⟨(v−⟨v⟩)²⟩`, per component.
    pub temperature: [f64; 3],
    /// Kinetic energy `½·m·w·Σ|v|²`.
    pub kinetic: f64,
}

/// Compute the velocity moments of one species arena.
pub fn species_moments(arena: &SpeciesArena) -> SpeciesMoments {
    let n = arena.len();
    let (m, w) = (arena.def.mass, arena.weight);
    let mut sum = [0.0f64; 3];
    let mut sumsq = [0.0f64; 3];
    let comps: [&[f64]; 3] = [&arena.p.vx, &arena.p.vy, &arena.vz];
    for (c, vs) in comps.iter().enumerate() {
        for &v in vs.iter() {
            sum[c] += v;
            sumsq[c] += v * v;
        }
    }
    let nf = (n as f64).max(1.0);
    let mean = [sum[0] / nf, sum[1] / nf, sum[2] / nf];
    // Two-pass central moment: `Σ(v−⟨v⟩)²` avoids the catastrophic
    // cancellation of `⟨v²⟩−⟨v⟩²` for cold drifting populations.
    let mut central = [0.0f64; 3];
    for (c, vs) in comps.iter().enumerate() {
        for &v in vs.iter() {
            let d = v - mean[c];
            central[c] += d * d;
        }
    }
    let temperature = [
        m * central[0] / nf,
        m * central[1] / nf,
        m * central[2] / nf,
    ];
    SpeciesMoments {
        number: n as f64 * w,
        charge: arena.def.charge * n as f64 * w,
        momentum: [m * w * sum[0], m * w * sum[1], m * w * sum[2]],
        mean_v: mean,
        temperature,
        kinetic: arena.kinetic(sumsq[0] + sumsq[1] + sumsq[2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc::RowMajor;

    fn grid() -> Grid2D {
        Grid2D::new(16, 16, 8.0, 8.0).unwrap()
    }

    #[test]
    fn initialize_samples_vz_with_thermal_spread() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        let def = SpeciesDef::ions(
            20_000,
            25.0,
            InitialDistribution::DriftingMaxwellian {
                alpha: 0.0,
                k: 1.0,
                v0x: 0.0,
                vt: 0.05,
            },
        );
        let a = SpeciesArena::initialize(def, &g, &l, 1, 0, None, None);
        let n = a.len() as f64;
        let var: f64 = a.vz.iter().map(|v| v * v).sum::<f64>() / n;
        assert!(
            (var.sqrt() - 0.05).abs() < 0.005,
            "vz spread {}",
            var.sqrt()
        );
    }

    #[test]
    fn sort_carries_vz() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        let def = SpeciesDef::electrons(5000, InitialDistribution::Uniform);
        let mut a = SpeciesArena::initialize(def, &g, &l, 2, 0, None, None);
        // The store is born sorted: deal it out by a stride coprime to its
        // length so the sort has particles to move.
        fn deal<T: Copy>(v: &mut Vec<T>) {
            *v = (0..v.len()).map(|i| v[i * 7919 % v.len()]).collect();
        }
        let p = &mut a.p;
        deal(&mut p.icell);
        deal(&mut p.ix);
        deal(&mut p.iy);
        deal(&mut p.dx);
        deal(&mut p.dy);
        deal(&mut p.vx);
        deal(&mut p.vy);
        assert!(!crate::sort::is_sorted_by_cell(&a.p));
        // Tag each particle: vz = f(icell, vx) so the pairing survives any
        // permutation check.
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for i in 0..a.len() {
            a.vz[i] = a.p.vx[i] * 3.0 + 1.0;
            pairs.push((a.p.vx[i].to_bits(), a.vz[i].to_bits()));
        }
        pairs.sort_unstable();
        let unsorted = a.clone();
        a.sort(256, None, &mut SortArena::new());
        assert!(crate::sort::is_sorted_by_cell(&a.p));
        let mut after: Vec<(u64, u64)> = (0..a.len())
            .map(|i| (a.p.vx[i].to_bits(), a.vz[i].to_bits()))
            .collect();
        after.sort_unstable();
        assert_eq!(pairs, after);

        // The sort is stable, so a pool of any width gives the same columns.
        let mut arena = SortArena::new();
        for width in 1..=3 {
            let pool = ThreadPool::new(width);
            let mut b = unsorted.clone();
            b.sort(256, Some(&pool), &mut arena);
            assert_eq!(b.p, a.p, "pool width {width}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b.vz), bits(&a.vz), "pool width {width}: vz");
        }
    }

    #[test]
    fn replication_slices_partition_the_species() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        let def = SpeciesDef::electrons(1001, InitialDistribution::Uniform);
        let whole = SpeciesArena::initialize(def.clone(), &g, &l, 3, 0, None, None);
        let mut total = 0usize;
        let mut vx_cat: Vec<f64> = Vec::new();
        for rank in 0..3 {
            let part = SpeciesArena::initialize(def.clone(), &g, &l, 3, 0, Some((rank, 3)), None);
            total += part.len();
            vx_cat.extend_from_slice(&part.p.vx);
        }
        assert_eq!(total, 1001);
        assert_eq!(vx_cat, whole.p.vx);
    }

    #[test]
    fn moments_of_a_cold_drifting_species() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        let def = SpeciesDef::electrons(
            4000,
            InitialDistribution::DriftingMaxwellian {
                alpha: 0.0,
                k: 1.0,
                v0x: 2.0,
                vt: 1e-12,
            },
        );
        let a = SpeciesArena::initialize(def, &g, &l, 4, 0, None, None);
        let m = species_moments(&a);
        assert!((m.mean_v[0] - 2.0).abs() < 1e-9);
        assert!(m.mean_v[1].abs() < 1e-9);
        assert!(m.temperature[0] < 1e-20);
        // number = n·w = density·Lx·Ly.
        assert!((m.number - 64.0).abs() < 1e-9);
        assert!((m.charge + 64.0).abs() < 1e-9);
        // kinetic ≈ ½·w·n·v0² = ½·64·4.
        assert!((m.kinetic - 128.0).abs() < 1e-6);
    }

    #[test]
    fn split_species_views_cover_all_particles() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        // Always `nchunks` views on the `chunk_range` cut, empty past `n`.
        for n in [103, 2] {
            let def = SpeciesDef::electrons(n, InitialDistribution::Uniform);
            let mut a = SpeciesArena::initialize(def, &g, &l, 5, 0, None, None);
            let views = split_species_mut(&mut a.p, &mut a.vz, 4);
            assert_eq!(views.len(), 4);
            for (c, v) in views.iter().enumerate() {
                let (s, e) = chunk_range(n, 4, c);
                assert_eq!((v.icell.len(), v.vz.len()), (e - s, e - s));
            }
        }
    }
}
