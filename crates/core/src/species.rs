//! Multi-species particle storage: per-species charge/mass and SoA arenas.
//!
//! The paper's data structures were built for one electrostatic species;
//! this module generalizes them following the per-species SoA container
//! approach of SoAx (arXiv:1710.03462): each species keeps its *own*
//! [`ParticlesSoA`] arena — so every existing position/sort/deposit kernel
//! runs on it unchanged — plus a parallel out-of-plane `vz` array that only
//! the 2d3v kernels ([`crate::kernels::boris`], [`crate::kernels::current`])
//! touch. The 2d2v hot path pays nothing for the extension.
//!
//! Velocities in a species arena are always in *physical* units (the
//! multi-species driver does not hoist; see `kernels/boris.rs`).

use crate::grid::Grid2D;
use crate::particles::{initialize_with_rng, InitialDistribution, ParticlesSoA};
use crate::pool::chunk_range;
use crate::rng::Rng;
use crate::sort::{sort_columns, SortArena};
use sfc::CellLayout;

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

/// One species' live storage: the classic SoA arena plus `vz`, with
/// caller-invisible sort scratch so the counting sort stays allocation-free
/// at steady state.
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
    scratch: ParticlesSoA,
    vz_scratch: Vec<f64>,
    sort_arena: SortArena,
}

impl SpeciesArena {
    /// Initialize a species on `grid` under `layout`, drawing positions
    /// and all three velocity components from `rng` (deterministic in the
    /// stream position; species initialized in order share one stream).
    ///
    /// An optional `slice = (rank, nranks)` keeps only this rank's
    /// contiguous index range — the replicated-decomposition convention
    /// where every rank owns `1/nranks` of each species and the deposited
    /// ρ/J are summed by an allreduce.
    pub fn initialize(
        def: SpeciesDef,
        grid: &Grid2D,
        layout: &dyn CellLayout,
        rng: &mut Rng,
        slice: Option<(usize, usize)>,
    ) -> Self {
        let n = def.n_particles;
        let mut p = initialize_with_rng(grid, layout, def.distribution, n, rng);
        let vt = def.distribution.thermal_spread();
        let mut vz: Vec<f64> = (0..n).map(|_| vt * rng.normal()).collect();
        if let Some((rank, nranks)) = slice {
            let (s, e) = chunk_range(n, nranks, rank);
            p = slice_soa(&p, s, e);
            vz = vz[s..e].to_vec();
        }
        let weight = def.density * grid.lx * grid.ly / n as f64;
        Self {
            def,
            p,
            vz,
            weight,
            scratch: ParticlesSoA::default(),
            vz_scratch: Vec::new(),
            sort_arena: SortArena::new(),
        }
    }

    /// Build an arena directly from checkpointed storage.
    pub fn from_parts(def: SpeciesDef, p: ParticlesSoA, vz: Vec<f64>, grid: &Grid2D) -> Self {
        assert_eq!(p.len(), vz.len(), "vz must be index-parallel with p");
        let weight = def.density * grid.lx * grid.ly / def.n_particles as f64;
        Self {
            def,
            p,
            vz,
            weight,
            scratch: ParticlesSoA::default(),
            vz_scratch: Vec::new(),
            sort_arena: SortArena::new(),
        }
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

    /// Stable counting sort by `icell` carrying `vz` as an eighth column
    /// through the shared permutation-first engine ([`crate::sort`]).
    /// Allocation-free once the scratch buffers are sized.
    pub fn sort(&mut self, ncells: usize) {
        sort_columns(
            &mut self.p,
            &mut self.scratch,
            Some((&mut self.vz, &mut self.vz_scratch)),
            ncells,
            None,
            &mut self.sort_arena,
        );
    }
}

/// Copy the index range `[s, e)` of a [`ParticlesSoA`].
fn slice_soa(p: &ParticlesSoA, s: usize, e: usize) -> ParticlesSoA {
    ParticlesSoA {
        icell: p.icell[s..e].to_vec(),
        ix: p.ix[s..e].to_vec(),
        iy: p.iy[s..e].to_vec(),
        dx: p.dx[s..e].to_vec(),
        dy: p.dy[s..e].to_vec(),
        vx: p.vx[s..e].to_vec(),
        vy: p.vy[s..e].to_vec(),
    }
}

/// A mutable view over one contiguous range of a species arena — the 2d3v
/// counterpart of [`crate::kernels::SoaViewMut`], carrying `vz`.
pub struct SpeciesViewMut<'a> {
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
    /// z velocities.
    pub vz: &'a mut [f64],
}

/// Split a species arena into `nchunks` disjoint contiguous views using
/// the same [`chunk_range`] partition as the pooled deposit, so the push
/// and deposit fan-outs see identical ranges.
pub fn split_species_mut<'a>(
    p: &'a mut ParticlesSoA,
    vz: &'a mut [f64],
    nchunks: usize,
) -> Vec<SpeciesViewMut<'a>> {
    let n = p.len();
    assert_eq!(vz.len(), n);
    let mut out = Vec::with_capacity(nchunks);
    let (mut icell, mut ix, mut iy) = (&mut p.icell[..], &mut p.ix[..], &mut p.iy[..]);
    let (mut dx, mut dy) = (&mut p.dx[..], &mut p.dy[..]);
    let (mut vx, mut vy, mut vz) = (&mut p.vx[..], &mut p.vy[..], vz);
    let mut taken = 0usize;
    for c in 0..nchunks {
        let (s, e) = chunk_range(n, nchunks, c);
        let len = e - s;
        debug_assert_eq!(s, taken);
        taken += len;
        let (a, rest) = icell.split_at_mut(len);
        icell = rest;
        let (b, rest) = ix.split_at_mut(len);
        ix = rest;
        let (c2, rest) = iy.split_at_mut(len);
        iy = rest;
        let (d, rest) = dx.split_at_mut(len);
        dx = rest;
        let (e2, rest) = dy.split_at_mut(len);
        dy = rest;
        let (f, rest) = vx.split_at_mut(len);
        vx = rest;
        let (g, rest) = vy.split_at_mut(len);
        vy = rest;
        let (h, rest) = vz.split_at_mut(len);
        vz = rest;
        out.push(SpeciesViewMut {
            icell: a,
            ix: b,
            iy: c2,
            dx: d,
            dy: e2,
            vx: f,
            vy: g,
            vz: h,
        });
    }
    out
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
        kinetic: 0.5 * m * w * (sumsq[0] + sumsq[1] + sumsq[2]),
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
        let mut rng = Rng::seed_from_u64(1);
        let a = SpeciesArena::initialize(def, &g, &l, &mut rng, None);
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
        let mut rng = Rng::seed_from_u64(2);
        let mut a = SpeciesArena::initialize(def, &g, &l, &mut rng, None);
        // Tag each particle: vz = f(icell, vx) so the pairing survives any
        // permutation check.
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for i in 0..a.len() {
            a.vz[i] = a.p.vx[i] * 3.0 + 1.0;
            pairs.push((a.p.vx[i].to_bits(), a.vz[i].to_bits()));
        }
        pairs.sort_unstable();
        a.sort(256);
        assert!(crate::sort::is_sorted_by_cell(&a.p));
        let mut after: Vec<(u64, u64)> = (0..a.len())
            .map(|i| (a.p.vx[i].to_bits(), a.vz[i].to_bits()))
            .collect();
        after.sort_unstable();
        assert_eq!(pairs, after);
    }

    #[test]
    fn replication_slices_partition_the_species() {
        let g = grid();
        let l = RowMajor::new(16, 16).unwrap();
        let def = SpeciesDef::electrons(1001, InitialDistribution::Uniform);
        let whole = {
            let mut rng = Rng::seed_from_u64(3);
            SpeciesArena::initialize(def.clone(), &g, &l, &mut rng, None)
        };
        let mut total = 0usize;
        let mut vx_cat: Vec<f64> = Vec::new();
        for rank in 0..3 {
            let mut rng = Rng::seed_from_u64(3);
            let part = SpeciesArena::initialize(def.clone(), &g, &l, &mut rng, Some((rank, 3)));
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
        let mut rng = Rng::seed_from_u64(4);
        let a = SpeciesArena::initialize(def, &g, &l, &mut rng, None);
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
        let def = SpeciesDef::electrons(103, InitialDistribution::Uniform);
        let mut rng = Rng::seed_from_u64(5);
        let mut a = SpeciesArena::initialize(def, &g, &l, &mut rng, None);
        let views = split_species_mut(&mut a.p, &mut a.vz, 4);
        let total: usize = views.iter().map(|v| v.icell.len()).sum();
        assert_eq!(total, 103);
        for v in &views {
            assert_eq!(v.vz.len(), v.icell.len());
        }
    }
}
