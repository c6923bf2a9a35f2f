//! The particle loader: every store is born sorted by cell. The per-cell
//! counts are one exact multinomial draw, and each cell's particles come
//! from the cell's own streams, so a particle is a pure function of (seed,
//! species, cell, rank in the cell): a load is bit-identical at every pool
//! width and holds the same particles under every layout, any index or
//! cell range equals the matching part of a full load, and the counts and
//! moments follow the distribution's law. A libm reference sampler, one
//! particle at a time, holds the loader's staged sampler to its positions
//! bit for bit and to its velocities within a few `ε·r`.

use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::grid::Grid2D;
use pic2d::pic_core::particles::{InitialDistribution, Loader, ParticlesSoA};
use pic2d::pic_core::pool::{chunk_range, ThreadPool};
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::rng::{hash_words, Rng};
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::sort::is_sorted_by_cell;
use pic2d::pic_core::species::{SpeciesArena, SpeciesDef};
use pic2d::sfc::{CellLayout, Morton, Ordering};
use std::ops::Range;

const SEED: u64 = 0x10ad;

fn grid() -> Grid2D {
    let l = 4.0 * std::f64::consts::PI;
    Grid2D::new(32, 32, l, l).unwrap()
}

fn layout() -> Morton {
    Morton::new(32, 32).unwrap()
}

const LANDAU: InitialDistribution = InitialDistribution::Landau { alpha: 0.5, k: 0.5 };
const TWO_STREAM: InitialDistribution = InitialDistribution::TwoStream {
    alpha: 0.01,
    k: 0.5,
    v0: 3.0,
    vt: 0.3,
};

/// Every distribution the loader samples: perturbed and not, with and
/// without a drift.
const DISTRIBUTIONS: [InitialDistribution; 5] = [
    LANDAU,
    TWO_STREAM,
    InitialDistribution::Uniform,
    InitialDistribution::DriftingMaxwellian {
        alpha: 0.3,
        k: 0.5,
        v0x: 1.5,
        vt: 0.7,
    },
    InitialDistribution::DriftingMaxwellian {
        alpha: 0.0,
        k: 0.5,
        v0x: -0.4,
        vt: 1.3,
    },
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Two stores (with their `vz` columns) are identical bit for bit.
fn assert_same(a: &(ParticlesSoA, Vec<f64>), b: &(ParticlesSoA, Vec<f64>), what: &str) {
    let (p, q) = (&a.0, &b.0);
    assert_eq!(p.len(), q.len(), "{what}: length");
    assert_eq!(p.icell, q.icell, "{what}: icell");
    assert_eq!(p.ix, q.ix, "{what}: ix");
    assert_eq!(p.iy, q.iy, "{what}: iy");
    assert_eq!(bits(&p.dx), bits(&q.dx), "{what}: dx");
    assert_eq!(bits(&p.dy), bits(&q.dy), "{what}: dy");
    assert_eq!(bits(&p.vx), bits(&q.vx), "{what}: vx");
    assert_eq!(bits(&p.vy), bits(&q.vy), "{what}: vy");
    assert_eq!(bits(&a.1), bits(&b.1), "{what}: vz");
}

/// Particles `range` of a full load.
fn part_of(full: &(ParticlesSoA, Vec<f64>), range: Range<usize>) -> (ParticlesSoA, Vec<f64>) {
    let (p, vz) = full;
    let r = range.clone();
    let out = ParticlesSoA {
        icell: p.icell[r.clone()].to_vec(),
        ix: p.ix[r.clone()].to_vec(),
        iy: p.iy[r.clone()].to_vec(),
        dx: p.dx[r.clone()].to_vec(),
        dy: p.dy[r.clone()].to_vec(),
        vx: p.vx[r.clone()].to_vec(),
        vy: p.vy[r].to_vec(),
    };
    let vz = if vz.is_empty() {
        Vec::new()
    } else {
        vz[range].to_vec()
    };
    (out, vz)
}

/// The loader of `dist`: species 0 without `vz`, or species `s` with it.
fn loader<'a>(
    (g, l): (&'a Grid2D, &'a dyn CellLayout),
    dist: InitialDistribution,
    n: usize,
    species: Option<usize>,
) -> Loader<'a> {
    match species {
        None => Loader::new(g, l, dist, n, SEED),
        Some(s) => Loader::species(g, l, dist, n, SEED, s),
    }
}

/// One Box–Muller pair through libm, and its radius: the transform the
/// loader makes per particle in its lane stage.
fn normal_pair(rng: &mut Rng) -> (f64, f64, f64) {
    let u1 = rng.uniform().max(f64::EPSILON);
    let u2 = rng.uniform();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * cos, r * sin, r)
}

/// An in-cell x offset by rejection with the full test (no squeeze).
fn perturbed_offset(rng: &mut Rng, cx: f64, h: f64, alpha: f64, k: f64) -> f64 {
    loop {
        let offset = rng.uniform();
        let accept = rng.range(0.0, 1.0 + alpha.abs());
        if accept <= 1.0 + alpha * (k * ((cx + offset) * h)).cos() {
            return offset;
        }
    }
}

/// A reference load: the store, its `vz` column, and each particle's
/// Box–Muller radii (in-plane, `vz`).
struct Reference {
    p: ParticlesSoA,
    vz: Vec<f64>,
    r: Vec<f64>,
    rz: Vec<f64>,
}

/// The libm reference sampler: the particles of `range` of the population
/// with per-cell `counts` in `l`'s cell order, seeded `seed`, of species
/// `species` (with `vz`) or of species 0 without `vz`. Each cell draws its
/// particles one at a time from its own streams, keyed by its row-major
/// index, with libm's `cos` in the rejection test and libm's
/// `ln`/`sqrt`/`sin_cos` in every Box–Muller pair.
fn reference_load(
    (g, l): (&Grid2D, &dyn CellLayout),
    dist: InitialDistribution,
    seed: u64,
    species: Option<usize>,
    counts: &[usize],
    range: Range<usize>,
) -> Reference {
    let mut out = Reference {
        p: ParticlesSoA::default(),
        vz: Vec::new(),
        r: Vec::new(),
        rz: Vec::new(),
    };
    let s = species.unwrap_or(0) as u64;
    let vt = dist.thermal_spread();
    let mut i = 0;
    for (c, &count) in counts.iter().enumerate() {
        let (cx, cy) = l.decode(c);
        let key = [s, (cx * g.ncy + cy) as u64, 1];
        let mut rng = Rng::seed_from_u64(hash_words(seed, &key[..2]));
        let mut z_rng = species.map(|_| Rng::seed_from_u64(hash_words(seed, &key)));
        for _ in 0..count {
            let dx = match dist {
                InitialDistribution::Landau { alpha, k }
                | InitialDistribution::TwoStream { alpha, k, .. }
                | InitialDistribution::DriftingMaxwellian { alpha, k, .. }
                    if alpha != 0.0 =>
                {
                    perturbed_offset(&mut rng, cx as f64, g.dx(), alpha, k)
                }
                _ => rng.uniform(),
            };
            let dy = rng.uniform();
            let (vx, vy, r) = match dist {
                InitialDistribution::Landau { .. } | InitialDistribution::Uniform => {
                    normal_pair(&mut rng)
                }
                InitialDistribution::TwoStream { v0, vt, .. } => {
                    let sign = if rng.coin() { 1.0 } else { -1.0 };
                    let (gx, gy, r) = normal_pair(&mut rng);
                    (sign * v0 + vt * gx, vt * gy, r)
                }
                InitialDistribution::DriftingMaxwellian { v0x, vt, .. } => {
                    let (gx, gy, r) = normal_pair(&mut rng);
                    (v0x + vt * gx, vt * gy, r)
                }
            };
            let (gz, _, rz) = z_rng.as_mut().map_or((0.0, 0.0, 0.0), normal_pair);
            if range.contains(&i) {
                let p = &mut out.p;
                p.icell.push(c as u32);
                p.ix.push(cx as u32);
                p.iy.push(cy as u32);
                p.dx.push(dx);
                p.dy.push(dy);
                p.vx.push(vx);
                p.vy.push(vy);
                out.r.push(r);
                if species.is_some() {
                    out.vz.push(vt * gz);
                    out.rz.push(rz);
                }
            }
            i += 1;
        }
    }
    out
}

/// The loader's store against the reference: every index and position
/// column bit for bit; each velocity within `4·ε·r` of the reference in
/// units of the thermal spread `vt` (`r` the pair's Box–Muller radius),
/// plus one rounding of the drift sum, `ε·|v|`.
fn assert_matches_reference(got: &(ParticlesSoA, Vec<f64>), want: &Reference, vt: f64, what: &str) {
    let (p, q) = (&got.0, &want.p);
    assert_eq!(p.len(), q.len(), "{what}: length");
    assert_eq!(p.icell, q.icell, "{what}: icell");
    assert_eq!(p.ix, q.ix, "{what}: ix");
    assert_eq!(p.iy, q.iy, "{what}: iy");
    assert_eq!(bits(&p.dx), bits(&q.dx), "{what}: dx");
    assert_eq!(bits(&p.dy), bits(&q.dy), "{what}: dy");
    assert_eq!(got.1.len(), want.vz.len(), "{what}: vz length");
    let close = |got: f64, want: f64, r: f64| {
        (got - want).abs() <= 4.0 * f64::EPSILON * r * vt + f64::EPSILON * want.abs()
    };
    for i in 0..p.len() {
        let r = want.r[i];
        assert!(
            close(p.vx[i], q.vx[i], r),
            "{what}: vx[{i}] {} vs {}",
            p.vx[i],
            q.vx[i]
        );
        assert!(
            close(p.vy[i], q.vy[i], r),
            "{what}: vy[{i}] {} vs {}",
            p.vy[i],
            q.vy[i]
        );
    }
    for (i, (&a, &b)) in got.1.iter().zip(&want.vz).enumerate() {
        assert!(close(a, b, want.rz[i]), "{what}: vz[{i}] {a} vs {b}");
    }
}

/// The staged sampler (per-cell streams, the squeezed rejection test,
/// lane-blocked Box–Muller) against the libm reference: every
/// distribution, a `vz` species, sizes around a lane block and up to many
/// particles per cell, index ranges that start and end inside a cell and
/// inside a lane block, a cell range, and pool widths 1–4.
#[test]
fn loader_matches_the_libm_reference_sampler() {
    let (g, l) = (grid(), layout());
    let species = [None, Some(1), None, Some(2), None];
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    for n in [1, 7, 8, 9, 1_000, 70_001] {
        for (dist, species) in DISTRIBUTIONS.into_iter().zip(species) {
            let loader = loader((&g, &l), dist, n, species);
            let counts: Vec<usize> = loader.cell_counts().collect();
            let inside = 3.min(n)..n - n / 5;
            for range in [0..n, inside, loader.cell_range(300..900)] {
                let want = reference_load((&g, &l), dist, SEED, species, &counts, range.clone());
                let what = format!("{dist:?} species {species:?} n={n} {range:?}");
                let got = loader.load(range.clone(), None);
                assert_matches_reference(&got, &want, dist.thermal_spread(), &what);
                for pool in &pools {
                    let pooled = loader.load(range.clone(), Some(pool));
                    assert_same(&pooled, &got, &format!("{what} width {}", pool.nthreads()));
                }
            }
        }
    }
}

#[test]
fn loads_are_bitwise_identical_at_every_pool_width() {
    let (g, l) = (grid(), layout());
    let n = 140_001;
    // The electrostatic driver's loader (no vz) and an EM species (vz).
    for (what, species) in [("2d2v", None), ("2d3v", Some(1))] {
        let loader = loader((&g, &l), TWO_STREAM, n, species);
        let serial = loader.load(0..n, None);
        let cells = loader.cell_range(100..700);
        let serial_cells = loader.load(cells.clone(), None);
        for width in 1..=4 {
            let pool = ThreadPool::new(width);
            let what = format!("{what}, pool width {width}");
            assert_same(&loader.load(0..n, Some(&pool)), &serial, &what);
            let pooled = loader.load(cells.clone(), Some(&pool));
            assert_same(&pooled, &serial_cells, &format!("{what}, cells"));
        }
    }
}

#[test]
fn constructed_particles_are_identical_at_every_pool_width() {
    let mut cfg = PicConfig::landau_table1(70_001);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    let reference = Simulation::new(cfg.clone()).unwrap();
    let mut ecfg = EmConfig::magnetized_two_stream(70_001);
    ecfg.grid_nx = 32;
    ecfg.grid_ny = 32;
    let em_reference = EmSimulation::new(ecfg.clone()).unwrap();
    for threads in 2..=4 {
        cfg.threads = threads;
        let sim = Simulation::new(cfg.clone()).unwrap();
        let (a, b) = (sim.particles(), reference.particles());
        let what = format!("threads {threads}");
        assert_same(&(a.clone(), vec![]), &(b.clone(), vec![]), &what);
        assert_eq!(bits(sim.rho()), bits(reference.rho()), "{what}: rho");

        ecfg.threads = threads;
        let em = EmSimulation::new(ecfg.clone()).unwrap();
        for (s, r) in em.species().iter().zip(em_reference.species()) {
            let what = format!("EM {} threads {threads}", s.def.name);
            assert_same(
                &(s.p.clone(), s.vz.clone()),
                &(r.p.clone(), r.vz.clone()),
                &what,
            );
        }
    }
}

/// Any index range and any cell range of the population, on one thread
/// and at pool widths 1–4, is the matching slice of a full load.
#[test]
fn range_loads_equal_the_matching_part_of_a_full_load() {
    let (g, l) = (grid(), layout());
    let n = 200_777;
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    for loader in [
        Loader::new(&g, &l, LANDAU, n, SEED),
        Loader::species(&g, &l, TWO_STREAM, n, SEED, 2),
    ] {
        let full = loader.load(0..n, None);
        let cell = |c: u32| loader.cell_range(c..c + 1);
        let mut ranges = vec![
            0..n,
            17..18,                               // one particle
            cell(5).start + 3..cell(5).end - 3,   // inside one cell
            cell(5).start + 3..cell(9).start + 2, // across cells
            n - 100..n,                           // the last cells
            100_000..100_003,                     // inside a lane block
        ];
        for cells in [0..1, 5..6, 300..900, 0..1024, 1023..1024, 7..7] {
            ranges.push(loader.cell_range(cells));
        }
        for range in ranges {
            let want = part_of(&full, range.clone());
            let what = format!("range {range:?}");
            assert_same(&loader.load(range.clone(), None), &want, &what);
            for pool in &pools {
                let got = loader.load(range.clone(), Some(pool));
                assert_same(&got, &want, &format!("{what} width {}", pool.nthreads()));
            }
        }
    }
}

#[test]
fn replicated_and_decomposed_ranks_load_their_part_of_the_population() {
    let (g, l) = (grid(), layout());
    let n = 140_999;
    let ncells = l.ncells() as u32;
    let loader = Loader::new(&g, &l, LANDAU, n, SEED);
    let full = loader.load(0..n, None);

    // keep_cells: each decomposed rank's cell range, through the
    // simulation, at pool widths 1–4 — the rank's positions are the rows
    // of the cells' index range in the whole store. (Velocities differ:
    // the half-kick sees the rank's own ρ.)
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.ordering = Ordering::Morton;
    cfg.seed = SEED;
    cfg.distribution = LANDAU;
    cfg.lx = g.lx;
    cfg.ly = g.ly;
    let cuts = [0, 100, ncells / 2 + 3, ncells];
    for threads in 1..=4 {
        let mut total = 0;
        for w in cuts.windows(2) {
            let c = PicConfig {
                threads,
                keep_cells: Some((w[0], w[1])),
                ..cfg.clone()
            };
            let sim = Simulation::new(c).unwrap();
            let rows = loader.cell_range(w[0]..w[1]);
            let (mine, what) = (sim.particles(), format!("cells {w:?} threads {threads}"));
            let want = &part_of(&full, rows.clone()).0;
            assert_eq!(mine.icell, want.icell, "{what}: icell");
            assert_eq!(mine.ix, want.ix, "{what}: ix");
            assert_eq!(mine.iy, want.iy, "{what}: iy");
            assert_eq!(bits(&mine.dx), bits(&want.dx), "{what}: dx");
            assert_eq!(bits(&mine.dy), bits(&want.dy), "{what}: dy");
            total += mine.len();
        }
        assert_eq!(total, n);
    }

    // A decomposed rank inside a replicated slice: both cuts intersect.
    let slice = (20_000, 90_000);
    let c = PicConfig {
        keep_range: Some(slice),
        keep_cells: Some((100, 700)),
        ..cfg.clone()
    };
    let sim = Simulation::new(c).unwrap();
    let cells = loader.cell_range(100..700);
    let rows = cells.start.max(slice.0)..cells.end.min(slice.1);
    assert_eq!(bits(&sim.particles().dx), bits(&full.0.dx[rows]));

    // EM `replica` slices: each rank's arena is its index range of the
    // whole species, vz included.
    let def = SpeciesDef::electrons(n, TWO_STREAM);
    let whole = SpeciesArena::initialize(def.clone(), &g, &l, SEED, 1, None, None);
    let whole = (whole.p, whole.vz);
    for rank in 0..3 {
        let part = SpeciesArena::initialize(def.clone(), &g, &l, SEED, 1, Some((rank, 3)), None);
        let (s, e) = chunk_range(n, 3, rank);
        assert_same(
            &(part.p, part.vz),
            &part_of(&whole, s..e),
            &format!("rank {rank}"),
        );
    }
}

/// Every store is born sorted by cell: the loader's under every layout,
/// and the drivers' (`Simulation` whole, `keep_range` and `keep_cells`;
/// each `EmSimulation` species whole and as a replica) at pool widths 1–4.
/// Every layout holds the same particles, in the same order within each
/// cell.
#[test]
fn constructed_stores_are_born_sorted() {
    let g = grid();
    let n = 50_003;
    let row_major = Ordering::RowMajor.build(32, 32).unwrap();
    let base = Loader::species(&g, row_major.as_ref(), TWO_STREAM, n, SEED, 1).load(0..n, None);
    let by_cell = |(p, vz): &(ParticlesSoA, Vec<f64>)| {
        let mut rows: Vec<_> = (0..p.len())
            .map(|i| {
                (
                    p.ix[i],
                    p.iy[i],
                    i,
                    p.dx[i].to_bits(),
                    p.vx[i].to_bits(),
                    vz[i].to_bits(),
                )
            })
            .collect();
        rows.sort_by_key(|&(x, y, i, ..)| (x, y, i));
        rows.into_iter()
            .map(|(x, y, _, dx, vx, vz)| (x, y, dx, vx, vz))
            .collect::<Vec<_>>()
    };
    for ordering in Ordering::paper_set() {
        let l = ordering.build(32, 32).unwrap();
        let store = Loader::species(&g, l.as_ref(), TWO_STREAM, n, SEED, 1).load(0..n, None);
        assert!(is_sorted_by_cell(&store.0), "{ordering}: loader");
        assert_eq!(by_cell(&store), by_cell(&base), "{ordering}: particles");
        for (i, &c) in store.0.icell.iter().enumerate() {
            let (x, y) = (store.0.ix[i] as usize, store.0.iy[i] as usize);
            assert_eq!(c as usize, l.encode(x, y), "{ordering}: icell");
        }

        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg.ordering = ordering;
        let mut ecfg = EmConfig::magnetized_two_stream(n);
        ecfg.grid_nx = 32;
        ecfg.grid_ny = 32;
        ecfg.ordering = ordering;
        for threads in 1..=4 {
            for (keep_range, keep_cells) in [
                (None, None),
                (Some((n / 3, n - 7)), None),
                (None, Some((300, 900))),
            ] {
                let sim = Simulation::new(PicConfig {
                    threads,
                    keep_range,
                    keep_cells,
                    ..cfg.clone()
                })
                .unwrap();
                let what = format!("{ordering} {keep_range:?} {keep_cells:?} threads {threads}");
                assert!(is_sorted_by_cell(sim.particles()), "{what}");
            }
            for replica in [None, Some((1, 3))] {
                let em = EmSimulation::new(EmConfig {
                    threads,
                    replica,
                    ..ecfg.clone()
                })
                .unwrap();
                for s in em.species() {
                    let what =
                        format!("EM {} {ordering} {replica:?} threads {threads}", s.def.name);
                    assert!(is_sorted_by_cell(&s.p), "{what}");
                }
            }
        }
    }

    // Construction feeds every trajectory: both production pins hold.
    // Re-pinned once when the loader became born sorted
    // (0xc4b7e881c86e5ebe → 0x8c9007a13ec9e3bd, 0x800819b7624f87a5 →
    // 0x826b90181fd6b460): each cell's count is drawn first and each cell
    // samples its particles from its own streams, a new realization of the
    // same law (`cell_counts_follow_the_multinomial_law`), and construction
    // no longer sorts.
    let mut c = PicConfig::landau_table1(100_003);
    c.seed = 7;
    let mut sim = Simulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0x8c9007a13ec9e3bd);
    let mut c = EmConfig::magnetized_two_stream(20_000);
    c.threads = 2;
    c.seed = 7;
    let mut sim = EmSimulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0x826b90181fd6b460);
}

#[test]
fn cell_counts_histogram_the_full_load() {
    let (g, l) = (grid(), layout());
    for n in [0, 1, 999, 70_001] {
        let loader = Loader::new(&g, &l, LANDAU, n, SEED);
        let (p, _) = loader.load(0..n, None);
        let mut want = vec![0; l.ncells()];
        for &c in &p.icell {
            want[c as usize] += 1;
        }
        assert_eq!(loader.cell_counts().collect::<Vec<_>>(), want, "n={n}");
        assert_eq!(loader.cell_range(0..l.ncells() as u32), 0..n, "n={n}");
    }
}

/// The probability of each cell of `l` under `dist` on `g`, in `icell`
/// order: the density integrated over the cell by a 64-point midpoint
/// rule, normalized.
fn cell_probabilities(g: &Grid2D, l: &dyn CellLayout, dist: InitialDistribution) -> Vec<f64> {
    let (alpha, k) = match dist {
        InitialDistribution::Landau { alpha, k }
        | InitialDistribution::TwoStream { alpha, k, .. }
        | InitialDistribution::DriftingMaxwellian { alpha, k, .. } => (alpha, k),
        InitialDistribution::Uniform => (0.0, 1.0),
    };
    let column = |cx: usize| {
        (0..64)
            .map(|j| 1.0 + alpha * (k * (cx as f64 + (j as f64 + 0.5) / 64.0) * g.dx()).cos())
            .sum::<f64>()
    };
    let w: Vec<f64> = (0..l.ncells()).map(|c| column(l.decode(c).0)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// Pearson's χ² of the drawn counts against `n·p_c`, at 1 M particles on
/// 128², lies within 5σ of its mean `cells − 1` (σ = √(2(cells − 1))) for
/// linear and nonlinear Landau, two-stream and uniform: counts drawn from
/// another law read far above it, rounded (quiet) counts far below.
#[test]
fn cell_counts_follow_the_multinomial_law() {
    let l4 = 4.0 * std::f64::consts::PI;
    let g = Grid2D::new(128, 128, l4, l4).unwrap();
    let l = Morton::new(128, 128).unwrap();
    let n = 1_000_000;
    let dof = (l.ncells() - 1) as f64;
    for dist in [
        InitialDistribution::Landau {
            alpha: 0.01,
            k: 0.5,
        },
        InitialDistribution::Landau { alpha: 0.5, k: 0.5 },
        TWO_STREAM,
        InitialDistribution::Uniform,
    ] {
        let loader = Loader::new(&g, &l, dist, n, SEED);
        let p = cell_probabilities(&g, &l, dist);
        let counts: Vec<usize> = loader.cell_counts().collect();
        assert_eq!(counts.iter().sum::<usize>(), n, "{dist:?}: Σ n_c");
        let chi2: f64 = counts
            .iter()
            .zip(&p)
            .map(|(&c, &p)| (c as f64 - n as f64 * p).powi(2) / (n as f64 * p))
            .sum();
        let sigma = (2.0 * dof).sqrt();
        assert!(
            (chi2 - dof).abs() <= 5.0 * sigma,
            "{dist:?}: χ² {chi2} against {dof} ± 5·{sigma}"
        );
    }
}

/// The counts place every particle, whatever the size, distribution and
/// species.
#[test]
fn cell_counts_sum_to_n_exactly() {
    let (g, l) = (grid(), layout());
    for n in [0, 1, 2, 1_023, 1_024, 1_025, 333_333] {
        for (dist, species) in DISTRIBUTIONS
            .into_iter()
            .zip([None, Some(0), Some(3)].into_iter().cycle())
        {
            let loader = loader((&g, &l), dist, n, species);
            assert_eq!(loader.cell_counts().sum::<usize>(), n, "{dist:?} n={n}");
        }
    }
}

/// The markers' `k = 0.5` Fourier mode carries the α perturbation at its
/// amplitude, checked where each stage puts it. The counts: at 10⁹
/// particles (the counts alone cost O(cells)),
/// `Σ_c n_c·E[cos kx | c] / N` lies within 5σ of `α/2`, σ² ≤ ½/N — 2 % of
/// the amplitude at α = 0.01. The in-cell offsets: at 1 M particles
/// `⟨cos kx − E[cos kx | c]⟩` lies within 5σ of zero. The whole load:
/// `⟨cos kx⟩` within 5σ of `α/2` and `⟨sin kx⟩` of zero, where at
/// α = 0.01 the expectation sits more than 5σ from zero, so a load that
/// lost the perturbation fails every part.
#[test]
fn initial_density_mode_carries_the_perturbation() {
    let l4 = 4.0 * std::f64::consts::PI;
    let g = Grid2D::new(128, 128, l4, l4).unwrap();
    let l = Morton::new(128, 128).unwrap();
    let (k, h) = (0.5, g.dx());
    let pool = ThreadPool::new(2);
    for alpha in [0.01, 0.5] {
        let dist = InitialDistribution::Landau { alpha, k };
        // E[cos kx | column cx] under the density 1 + α cos kx.
        let given_cell = |cx: u32| {
            let (x0, x1) = (cx as f64 * h, (cx + 1) as f64 * h);
            let sin = |a: f64| (a * x1).sin() - (a * x0).sin();
            let mass = h + alpha * sin(k) / k;
            (sin(k) / k + alpha * (h / 2.0 + sin(2.0 * k) / (4.0 * k))) / mass
        };

        let big = 1_000_000_000;
        let loader = Loader::new(&g, &l, dist, big, SEED);
        let counted: f64 = loader
            .cell_counts()
            .enumerate()
            .map(|(c, count)| count as f64 * given_cell(l.decode(c).0 as u32))
            .sum();
        let sigma = (0.5 / big as f64).sqrt();
        within_sigmas(
            5.0,
            &format!("α = {alpha}: counts' <cos kx>"),
            (counted / big as f64, sigma),
            alpha / 2.0,
        );

        let n = 1_000_000;
        let (p, _) = Loader::new(&g, &l, dist, n, SEED).load(0..n, Some(&pool));
        let phase = |i: usize| k * (p.ix[i] as f64 + p.dx[i]) * h;
        let offsets = mean_and_sigma(n, |i| phase(i).cos() - given_cell(p.ix[i]));
        within_sigmas(5.0, &format!("α = {alpha}: in-cell <cos kx>"), offsets, 0.0);
        let (cos, sigma) = mean_and_sigma(n, |i| phase(i).cos());
        assert!(
            alpha / 2.0 > 5.0 * sigma,
            "α = {alpha}: the test has no power"
        );
        within_sigmas(
            5.0,
            &format!("α = {alpha}: <cos kx>"),
            (cos, sigma),
            alpha / 2.0,
        );
        let sin = mean_and_sigma(n, |i| phase(i).sin());
        within_sigmas(5.0, &format!("α = {alpha}: <sin kx>"), sin, 0.0);
    }
}

/// `Rng::binomial` against its pmf: Pearson's χ² over bins of at least
/// five expected draws lies within 5σ of its degrees of freedom, at small
/// `n·p`, at `p > 1/2` (the mirrored draw) and at the count chain's first
/// link of a 16 M population on 128² (`n·p ≈ 977`).
#[test]
fn binomial_sampler_matches_its_pmf() {
    let mut rng = Rng::seed_from_u64(SEED);
    for (n, p) in [
        (1u64, 0.4),
        (12, 0.2),
        (200, 0.03),
        (5_000, 0.6),
        (16_000_000, 1.0 / 16_384.0),
        (1_000_000, 0.5),
    ] {
        let draws = 40_000;
        // The pmf from k = 0 by the ratio recurrence, in logs, up to far
        // past the mean.
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let kmax = ((n as f64 * p + 15.0 * sd + 10.0) as u64).min(n);
        let mut ln_f = n as f64 * (-p).ln_1p();
        let mut pmf = Vec::with_capacity(kmax as usize + 1);
        for k in 0..=kmax {
            pmf.push(ln_f.exp());
            ln_f += ((n - k) as f64 / (k + 1) as f64).ln() + (p / (1.0 - p)).ln();
        }
        let mut seen = vec![0u64; kmax as usize + 2];
        for _ in 0..draws {
            let k = rng.binomial(n, p);
            assert!(k <= n, "Bin({n}, {p}) drew {k}");
            seen[(k.min(kmax + 1)) as usize] += 1;
        }
        // Bins of at least five expected draws; the last takes the rest.
        let (mut chi2, mut bins) = (0.0, 0);
        let (mut expected, mut observed) = (0.0, 0u64);
        let mut total_expected = 0.0;
        for k in 0..=kmax as usize {
            expected += draws as f64 * pmf[k];
            observed += seen[k];
            if expected >= 5.0 && draws as f64 - total_expected - expected >= 5.0 {
                chi2 += (observed as f64 - expected).powi(2) / expected;
                total_expected += expected;
                (expected, observed, bins) = (0.0, 0, bins + 1);
            }
        }
        let rest = draws as f64 - total_expected;
        let observed_rest = observed + seen[kmax as usize + 1];
        chi2 += (observed_rest as f64 - rest).powi(2) / rest;
        bins += 1;
        let dof = (bins - 1) as f64;
        let sigma = (2.0 * dof).sqrt().max(1.0);
        assert!(
            (chi2 - dof).abs() <= 5.0 * sigma,
            "Bin({n}, {p}): χ² {chi2} over {bins} bins"
        );
    }
}

/// Mean and standard error of `f` over the sample.
fn mean_and_sigma(n: usize, f: impl Fn(usize) -> f64) -> (f64, f64) {
    let mean = (0..n).map(&f).sum::<f64>() / n as f64;
    let var = (0..n).map(|i| (f(i) - mean).powi(2)).sum::<f64>() / n as f64;
    (mean, (var / n as f64).sqrt())
}

/// `|got − want| ≤ k·σ`.
fn within_sigmas(k: f64, what: &str, (got, sigma): (f64, f64), want: f64) {
    assert!(
        (got - want).abs() <= k * sigma,
        "{what}: {got} vs {want} ({k}σ = {})",
        k * sigma
    );
}

#[test]
fn landau_moments_match_the_distribution() {
    let (g, l) = (grid(), layout());
    let n = 1_000_000;
    let pool = ThreadPool::new(2);
    let (p, _) = Loader::new(&g, &l, LANDAU, n, SEED).load(0..n, Some(&pool));
    // Density ∝ 1 + α cos kx over whole periods: ⟨cos kx⟩ = α/2.
    let cos_kx = |i: usize| (0.5 * (p.ix[i] as f64 + p.dx[i]) * g.dx()).cos();
    within_sigmas(4.0, "<cos kx>", mean_and_sigma(n, cos_kx), 0.25);
    within_sigmas(4.0, "<vx>", mean_and_sigma(n, |i| p.vx[i]), 0.0);
    within_sigmas(4.0, "<vy>", mean_and_sigma(n, |i| p.vy[i]), 0.0);
    within_sigmas(4.0, "<vx^2>", mean_and_sigma(n, |i| p.vx[i] * p.vx[i]), 1.0);
    within_sigmas(4.0, "<vy^2>", mean_and_sigma(n, |i| p.vy[i] * p.vy[i]), 1.0);
    // The two halves of one Box–Muller draw are independent.
    within_sigmas(
        4.0,
        "<vx vy>",
        mean_and_sigma(n, |i| p.vx[i] * p.vy[i]),
        0.0,
    );
}

#[test]
fn two_stream_beams_split_evenly_and_em_vz_has_the_thermal_spread() {
    let (g, l) = (grid(), layout());
    let n = 400_000;
    let pool = ThreadPool::new(2);
    let loader = Loader::species(&g, &l, TWO_STREAM, n, SEED, 0);
    let (p, vz) = loader.load(0..n, Some(&pool));
    let forward = |i: usize| f64::from(u8::from(p.vx[i] > 0.0));
    within_sigmas(4.0, "beam split", mean_and_sigma(n, forward), 0.5);
    let vt = 0.3;
    within_sigmas(4.0, "<vz>", mean_and_sigma(n, |i| vz[i]), 0.0);
    within_sigmas(4.0, "<vz^2>", mean_and_sigma(n, |i| vz[i] * vz[i]), vt * vt);
    within_sigmas(
        4.0,
        "<vy^2>",
        mean_and_sigma(n, |i| p.vy[i] * p.vy[i]),
        vt * vt,
    );
}
