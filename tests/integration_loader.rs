//! The particle loader: particle `i` is a pure function of (seed, species,
//! i), so a load is bit-identical at every pool width, a replicated rank's
//! index range or a decomposed rank's cell range equals the matching part
//! of a full load, and the sampled moments are those of the distribution.
//! A libm reference sampler, one particle at a time, holds the loader's
//! staged sampler to its positions bit for bit and to its velocities
//! within a few `ε·r`.

use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::grid::Grid2D;
use pic2d::pic_core::particles::{InitialDistribution, Loader, ParticlesSoA, BLOCK, CHUNK};
use pic2d::pic_core::pool::{chunk_range, ThreadPool};
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::rng::{hash_words, Rng};
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::sort::sort_out_of_place;
use pic2d::pic_core::species::{SpeciesArena, SpeciesDef};
use pic2d::sfc::{CellLayout, Morton, RowMajor};

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

/// Particles `range` of a full load, and of those the ones in `cells`.
fn part_of(
    full: &(ParticlesSoA, Vec<f64>),
    range: std::ops::Range<usize>,
    cells: Option<std::ops::Range<u32>>,
) -> (ParticlesSoA, Vec<f64>) {
    let (p, vz) = full;
    let keep: Vec<usize> = range
        .filter(|&i| cells.as_ref().is_none_or(|c| c.contains(&p.icell[i])))
        .collect();
    let pick = |v: &[f64]| keep.iter().map(|&i| v[i]).collect::<Vec<f64>>();
    let picku = |v: &[u32]| keep.iter().map(|&i| v[i]).collect::<Vec<u32>>();
    let out = ParticlesSoA {
        icell: picku(&p.icell),
        ix: picku(&p.ix),
        iy: picku(&p.iy),
        dx: pick(&p.dx),
        dy: pick(&p.dy),
        vx: pick(&p.vx),
        vy: pick(&p.vy),
    };
    let vz = if vz.is_empty() { Vec::new() } else { pick(vz) };
    (out, vz)
}

/// One Box–Muller pair through libm, and its radius: the transform the
/// loader made per particle before its lane stage.
fn normal_pair(rng: &mut Rng) -> (f64, f64, f64) {
    let u1 = rng.uniform().max(f64::EPSILON);
    let u2 = rng.uniform();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * cos, r * sin, r)
}

/// x by rejection with the full test (no squeeze).
fn perturbed_x(rng: &mut Rng, lx: f64, alpha: f64, k: f64) -> f64 {
    loop {
        let x = rng.range(0.0, lx);
        let accept = rng.range(0.0, 1.0 + alpha.abs());
        if accept <= 1.0 + alpha * (k * x).cos() {
            return x;
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

/// The libm reference sampler: the particles of `range` (and of `cells`)
/// of the population `Loader::new(g, l, dist, _, seed)` —
/// `.species(s)` when `species` is `Some(s)` — drawn one at a time from
/// the same per-chunk streams in the same order, with libm's `cos` in the
/// rejection test and libm's `ln`/`sqrt`/`sin_cos` in every Box–Muller
/// pair.
fn reference_load(
    (g, l): (&Grid2D, &dyn CellLayout),
    dist: InitialDistribution,
    seed: u64,
    species: Option<usize>,
    range: std::ops::Range<usize>,
    cells: Option<std::ops::Range<u32>>,
) -> Reference {
    let mut out = Reference {
        p: ParticlesSoA::default(),
        vz: Vec::new(),
        r: Vec::new(),
        rz: Vec::new(),
    };
    let s = species.unwrap_or(0) as u64;
    let vt = dist.thermal_spread();
    for c in range.start / CHUNK..range.end.div_ceil(CHUNK) {
        let key = [s, c as u64, 1];
        let mut rng = Rng::seed_from_u64(hash_words(seed, &key[..2]));
        let mut z_rng = species.map(|_| Rng::seed_from_u64(hash_words(seed, &key)));
        for i in c * CHUNK..((c + 1) * CHUNK).min(range.end) {
            let x = match dist {
                InitialDistribution::Landau { alpha, k }
                | InitialDistribution::TwoStream { alpha, k, .. } => {
                    perturbed_x(&mut rng, g.lx, alpha, k)
                }
                InitialDistribution::DriftingMaxwellian { alpha, k, .. } if alpha != 0.0 => {
                    perturbed_x(&mut rng, g.lx, alpha, k)
                }
                _ => rng.range(0.0, g.lx),
            };
            let y = rng.range(0.0, g.ly);
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
            let (cx, ox) = g.split_x(g.to_grid_x(x));
            let (cy, oy) = g.split_y(g.to_grid_y(y));
            let icell = l.encode(cx, cy) as u32;
            if i < range.start || cells.as_ref().is_some_and(|c| !c.contains(&icell)) {
                continue;
            }
            let p = &mut out.p;
            p.icell.push(icell);
            p.ix.push(cx as u32);
            p.iy.push(cy as u32);
            p.dx.push(ox);
            p.dy.push(oy);
            p.vx.push(vx);
            p.vy.push(vy);
            out.r.push(r);
            if species.is_some() {
                out.vz.push(vt * gz);
                out.rz.push(rz);
            }
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

/// The staged sampler (a scalar walk with the squeezed rejection test,
/// lane-blocked positions, lane-blocked Box–Muller) against the libm
/// reference: every
/// distribution, a `vz` species, sizes around a lane block, a construction
/// block and a chunk, index ranges that start and end inside a lane block,
/// a cell filter, and pool widths 1–4.
#[test]
fn loader_matches_the_libm_reference_sampler() {
    let (g, l) = (grid(), layout());
    let drifting = InitialDistribution::DriftingMaxwellian {
        alpha: 0.3,
        k: 0.5,
        v0x: 1.5,
        vt: 0.7,
    };
    let unperturbed_drift = InitialDistribution::DriftingMaxwellian {
        alpha: 0.0,
        k: 0.5,
        v0x: -0.4,
        vt: 1.3,
    };
    let cases = [
        (LANDAU, None),
        (TWO_STREAM, Some(1)),
        (InitialDistribution::Uniform, None),
        (drifting, Some(2)),
        (unperturbed_drift, None),
    ];
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    for n in [1, 7, 8, 9, BLOCK - 1, BLOCK + 1, CHUNK - 1, CHUNK + 1] {
        for (dist, species) in cases {
            let loader = Loader::new(&g, &l, dist, n, SEED);
            let loader = species.map_or(loader, |s| loader.species(s));
            let inside = 3.min(n)..n - n / 5;
            for (range, cells) in [
                (0..n, None),
                (inside.clone(), None),
                (0..n, Some(300..900)),
                (inside, Some(0..500)),
            ] {
                let want =
                    reference_load((&g, &l), dist, SEED, species, range.clone(), cells.clone());
                let what = format!("{dist:?} species {species:?} n={n} {range:?} cells {cells:?}");
                let vt = dist.thermal_spread();
                let got = loader.load(range.clone(), cells.clone(), None);
                assert_matches_reference(&got, &want, vt, &what);
                for pool in &pools {
                    let pooled = loader.load(range.clone(), cells.clone(), Some(pool));
                    assert_same(&pooled, &got, &format!("{what} width {}", pool.nthreads()));
                }
            }
            if species.is_none() {
                let mut counts = vec![0.0; l.ncells()];
                let full = reference_load((&g, &l), dist, SEED, None, 0..n, None);
                for &c in &full.p.icell {
                    counts[c as usize] += 1.0;
                }
                assert_eq!(
                    loader.cell_counts(Some(&pools[1])),
                    counts,
                    "{dist:?} n={n}"
                );
            }
        }
    }
}

#[test]
fn loads_are_bitwise_identical_at_every_pool_width() {
    let (g, l) = (grid(), layout());
    let n = 2 * CHUNK + 1_234;
    // The electrostatic driver's loader (no vz) and an EM species (vz).
    for (what, loader) in [
        ("2d2v", Loader::new(&g, &l, LANDAU, n, SEED)),
        ("2d3v", Loader::new(&g, &l, TWO_STREAM, n, SEED).species(1)),
    ] {
        let serial = loader.load(0..n, None, None);
        let cells = Some(100..700);
        let serial_cells = loader.load(0..n, cells.clone(), None);
        for width in 1..=4 {
            let pool = ThreadPool::new(width);
            let what = format!("{what}, pool width {width}");
            assert_same(&loader.load(0..n, None, Some(&pool)), &serial, &what);
            let pooled = loader.load(0..n, cells.clone(), Some(&pool));
            assert_same(&pooled, &serial_cells, &format!("{what}, cells"));
            assert_eq!(
                loader.cell_counts(Some(&pool)),
                loader.cell_counts(None),
                "{what}: cell counts"
            );
        }
    }
}

#[test]
fn constructed_particles_are_identical_at_every_pool_width() {
    let mut cfg = PicConfig::landau_table1(CHUNK + 4_321);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    let reference = Simulation::new(cfg.clone()).unwrap();
    let mut ecfg = EmConfig::magnetized_two_stream(CHUNK + 4_321);
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

#[test]
fn range_loads_equal_the_matching_part_of_a_full_load() {
    let (g, l) = (grid(), layout());
    let n = 3 * CHUNK + 777; // the last chunk is partial
    let pool = ThreadPool::new(3);
    for loader in [
        Loader::new(&g, &l, LANDAU, n, SEED),
        Loader::new(&g, &l, TWO_STREAM, n, SEED).species(2),
    ] {
        let full = loader.load(0..n, None, None);
        for range in [
            0..n,
            CHUNK - 5..CHUNK + 5,   // straddles one chunk edge
            100..2 * CHUNK + 100,   // straddles two
            3 * CHUNK - 1..n,       // the last, partial chunk and one before
            3 * CHUNK + 10..n - 10, // inside the partial chunk
            CHUNK..2 * CHUNK,       // exactly one chunk
            17..18,                 // one particle
        ] {
            let want = part_of(&full, range.clone(), None);
            let what = format!("range {range:?}");
            assert_same(&loader.load(range.clone(), None, None), &want, &what);
            assert_same(&loader.load(range.clone(), None, Some(&pool)), &want, &what);
            // A decomposed rank inside a replicated slice: both filters.
            let cells = Some(300..900);
            let want = part_of(&full, range.clone(), cells.clone());
            let got = loader.load(range.clone(), cells, Some(&pool));
            assert_same(&got, &want, &format!("{what} cells 300..900"));
        }
    }
}

#[test]
fn replicated_and_decomposed_ranks_load_their_part_of_the_population() {
    let (g, l) = (grid(), layout());
    let n = 2 * CHUNK + 999;
    let ncells = l.ncells() as u32;
    let full = Loader::new(&g, &l, LANDAU, n, SEED).load(0..n, None, None);

    // keep_cells: each rank's cell range, through the simulation. The
    // construction sorts, so compare as the sorted filter of a full load.
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.ordering = pic2d::sfc::Ordering::Morton;
    cfg.seed = SEED;
    cfg.distribution = LANDAU;
    cfg.lx = g.lx;
    cfg.ly = g.ly;
    let whole = Simulation::new(cfg.clone()).unwrap();
    let cuts = [0, 100, ncells / 2 + 3, ncells];
    let mut total = 0;
    for w in cuts.windows(2) {
        let mut c = cfg.clone();
        c.keep_cells = Some((w[0], w[1]));
        let sim = Simulation::new(c).unwrap();
        let part = part_of(&full, 0..n, Some(w[0]..w[1]));
        assert_eq!(sim.particles().len(), part.0.len(), "cells {w:?}");
        // Sorting is stable and the filter keeps index order, so the rank's
        // positions are the same rows of the whole simulation's sorted
        // store. (Velocities differ: the half-kick sees the rank's own ρ.)
        let (mine, all) = (sim.particles(), whole.particles());
        let start = all.icell.partition_point(|&c| c < w[0]);
        let rows = start..start + part.0.len();
        assert_eq!(
            mine.icell[..],
            all.icell[rows.clone()],
            "cells {w:?}: icell"
        );
        assert_eq!(
            bits(&mine.dx),
            bits(&all.dx[rows.clone()]),
            "cells {w:?}: dx"
        );
        assert_eq!(bits(&mine.dy), bits(&all.dy[rows]), "cells {w:?}: dy");
        total += part.0.len();
    }
    assert_eq!(total, n);

    // EM `replica` slices: each rank's arena is its index range of the
    // whole species, vz included.
    let def = SpeciesDef::electrons(n, TWO_STREAM);
    let whole = SpeciesArena::initialize(def.clone(), &g, &l, SEED, 1, None, None);
    let whole = (whole.p, whole.vz);
    for rank in 0..3 {
        let part = SpeciesArena::initialize(def.clone(), &g, &l, SEED, 1, Some((rank, 3)), None);
        let (s, e) = pic2d::pic_core::pool::chunk_range(n, 3, rank);
        assert_same(
            &(part.p, part.vz),
            &part_of(&whole, s..e, None),
            &format!("rank {rank}"),
        );
    }
}

/// `(p, vz)` sorted stably by `icell` through `sort_out_of_place`. The
/// `vz` column rides along in a second store with the same keys, since a
/// stable sort of the same keys moves every column alike.
fn stable_sorted((p, vz): &(ParticlesSoA, Vec<f64>), ncells: usize) -> (ParticlesSoA, Vec<f64>) {
    let mut q = p.clone();
    sort_out_of_place(&mut q, ncells);
    if vz.is_empty() {
        return (q, Vec::new());
    }
    let mut carrier = ParticlesSoA {
        dx: vz.clone(),
        ..p.clone()
    };
    sort_out_of_place(&mut carrier, ncells);
    (q, carrier.dx)
}

/// Construction samples in block-cell order (every [`BLOCK`] sorted by
/// cell in the loader) and then sorts the whole store. A stable sort of
/// consecutive, stably sorted blocks is the stable sort of their
/// concatenation, so each driver, load shape and pool width must build
/// exactly the index-order load followed by one stable sort.
///
/// The stores are compared column by column where construction leaves the
/// sampled values: every column of the loader's block-ordered store once
/// sorted; every column of an `EmSimulation` run with the field solve off
/// (E = 0, so the half-kick back adds zero); and the index and position
/// columns of a `Simulation`, whose velocities carry the half-kick of its
/// own field — those are held by the electrostatic pin at the end, beside
/// the electromagnetic one.
#[test]
fn construction_equals_the_stable_sort_of_the_index_order_load() {
    let (g, l) = (grid(), layout());
    let ncells = l.ncells();
    let pools: Vec<ThreadPool> = (1..=4).map(ThreadPool::new).collect();
    let widths = || std::iter::once(None).chain(pools.iter().map(Some));
    let width = |pool: Option<&ThreadPool>| pool.map_or(0, ThreadPool::nthreads);
    let sizes = [
        1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        CHUNK - 1,
        CHUNK + 1,
        3 * CHUNK + 5,
    ];

    // The loader: full, an index slice that starts and ends inside a
    // block, a cell range, both, and an EM species with vz.
    for n in sizes {
        for (what, loader) in [
            ("2d2v", Loader::new(&g, &l, LANDAU, n, SEED)),
            ("2d3v", Loader::new(&g, &l, TWO_STREAM, n, SEED).species(1)),
        ] {
            let slice = n / 3..n - n / 5;
            for (range, cells) in [
                (0..n, None),
                (slice.clone(), None),
                (0..n, Some(300..900)),
                (slice, Some(0..500)),
            ] {
                let want = stable_sorted(&loader.load(range.clone(), cells.clone(), None), ncells);
                let serial = loader.load_blocks(range.clone(), cells.clone(), None);
                for pool in widths() {
                    let got = loader.load_blocks(range.clone(), cells.clone(), pool);
                    let what = format!(
                        "{what} n={n} range {range:?} cells {cells:?} width {}",
                        width(pool)
                    );
                    assert_same(&got, &serial, &format!("{what}, unsorted"));
                    assert_same(&stable_sorted(&got, ncells), &want, &what);
                }
            }
        }
    }

    // A one-cell pile-up: every key equal, so only a stable block sort
    // keeps the index order.
    let (one, row) = (
        Grid2D::new(1, 1, g.lx, g.ly).unwrap(),
        RowMajor::new(1, 1).unwrap(),
    );
    let n = 2 * CHUNK + BLOCK / 2 + 3;
    let loader = Loader::new(&one, &row, TWO_STREAM, n, SEED).species(0);
    let want = loader.load(0..n, None, None);
    for pool in widths() {
        let got = loader.load_blocks(0..n, None, pool);
        assert_same(&got, &want, &format!("one cell, width {}", width(pool)));
    }

    // The drivers, at every width: `Simulation` whole, as a replicated
    // rank's index slice and as a decomposed rank's cell range; a
    // two-species `EmSimulation` whole and as a replica slice.
    for n in sizes {
        let mut cfg = PicConfig::landau_table1(n);
        cfg.grid_nx = 32;
        cfg.grid_ny = 32;
        cfg.seed = SEED;
        cfg.distribution = LANDAU;
        cfg.lx = g.lx;
        cfg.ly = g.ly;
        let loader = Loader::new(&g, &l, LANDAU, n, SEED);
        let slice = (n / 3, n - n / 5);
        for (keep_range, keep_cells) in
            [(None, None), (Some(slice), None), (None, Some((300, 900)))]
        {
            let (range, cells) = (
                keep_range.map_or(0..n, |(a, b)| a..b),
                keep_cells.map(|(a, b)| a..b),
            );
            let want = stable_sorted(&loader.load(range, cells, None), ncells).0;
            if want.is_empty() {
                continue; // a cell range with no particles is a config error
            }
            for threads in 1..=4 {
                let c = PicConfig {
                    threads,
                    keep_range,
                    keep_cells,
                    ..cfg.clone()
                };
                let sim = Simulation::new(c).unwrap();
                let (got, what) = (
                    sim.particles(),
                    format!("ES n={n} {keep_range:?} {keep_cells:?} threads {threads}"),
                );
                assert_eq!(got.icell, want.icell, "{what}: icell");
                assert_eq!(got.ix, want.ix, "{what}: ix");
                assert_eq!(got.iy, want.iy, "{what}: iy");
                assert_eq!(bits(&got.dx), bits(&want.dx), "{what}: dx");
                assert_eq!(bits(&got.dy), bits(&want.dy), "{what}: dy");
            }
        }

        let mut ecfg = EmConfig::magnetized_two_stream(n);
        ecfg.grid_nx = 32;
        ecfg.grid_ny = 32;
        ecfg.seed = SEED;
        ecfg.solve_e = false;
        ecfg.species[1].n_particles = (n / 4).max(1);
        let eg = Grid2D::new(32, 32, ecfg.lx, ecfg.ly).unwrap();
        for replica in [None, Some((1, 3))] {
            for threads in 1..=4 {
                let em = EmSimulation::new(EmConfig {
                    threads,
                    replica,
                    ..ecfg.clone()
                })
                .unwrap();
                for (index, s) in em.species().iter().enumerate() {
                    let m = s.def.n_particles;
                    let (a, b) =
                        replica.map_or((0, m), |(rank, nranks)| chunk_range(m, nranks, rank));
                    let loader = Loader::new(&eg, &l, s.def.distribution, m, SEED).species(index);
                    let want = stable_sorted(&loader.load(a..b, None, None), ncells);
                    let what = format!("EM {} n={n} {replica:?} threads {threads}", s.def.name);
                    assert_same(&(s.p.clone(), s.vz.clone()), &want, &what);
                }
            }
        }
    }

    // Construction feeds every trajectory: both production pins hold.
    // Re-pinned once when the Box–Muller pairs moved to the lane stage
    // (0x5c2913bfed6bd674 → 0xc4b7e881c86e5ebe, 0xe680f9079299148a →
    // 0x800819b7624f87a5): positions are unchanged and velocities moved by
    // at most a few ε·r (`loader_matches_the_libm_reference_sampler`).
    let mut c = PicConfig::landau_table1(100_003);
    c.seed = 7;
    let mut sim = Simulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0xc4b7e881c86e5ebe);
    let mut c = EmConfig::magnetized_two_stream(20_000);
    c.threads = 2;
    c.seed = 7;
    let mut sim = EmSimulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0x800819b7624f87a5);
}

#[test]
fn cell_counts_histogram_the_full_load() {
    let (g, l) = (grid(), layout());
    let n = CHUNK + 4_000;
    let loader = Loader::new(&g, &l, LANDAU, n, SEED);
    let (p, _) = loader.load(0..n, None, None);
    let mut want = vec![0.0; l.ncells()];
    for &c in &p.icell {
        want[c as usize] += 1.0;
    }
    assert_eq!(loader.cell_counts(None), want);
}

/// Mean and standard error of `f` over the sample.
fn mean_and_sigma(n: usize, f: impl Fn(usize) -> f64) -> (f64, f64) {
    let mean = (0..n).map(&f).sum::<f64>() / n as f64;
    let var = (0..n).map(|i| (f(i) - mean).powi(2)).sum::<f64>() / n as f64;
    (mean, (var / n as f64).sqrt())
}

/// `|got − want| ≤ 4σ`.
fn within_4_sigma(what: &str, (got, sigma): (f64, f64), want: f64) {
    assert!(
        (got - want).abs() <= 4.0 * sigma,
        "{what}: {got} vs {want} (4σ = {})",
        4.0 * sigma
    );
}

#[test]
fn landau_moments_match_the_distribution() {
    let (g, l) = (grid(), layout());
    let n = 1_000_000;
    let pool = ThreadPool::new(2);
    let (p, _) = Loader::new(&g, &l, LANDAU, n, SEED).load(0..n, None, Some(&pool));
    // Density ∝ 1 + α cos kx over whole periods: ⟨cos kx⟩ = α/2.
    let cos_kx = |i: usize| (0.5 * (p.ix[i] as f64 + p.dx[i]) * g.dx()).cos();
    within_4_sigma("<cos kx>", mean_and_sigma(n, cos_kx), 0.25);
    within_4_sigma("<vx>", mean_and_sigma(n, |i| p.vx[i]), 0.0);
    within_4_sigma("<vy>", mean_and_sigma(n, |i| p.vy[i]), 0.0);
    within_4_sigma("<vx^2>", mean_and_sigma(n, |i| p.vx[i] * p.vx[i]), 1.0);
    within_4_sigma("<vy^2>", mean_and_sigma(n, |i| p.vy[i] * p.vy[i]), 1.0);
    // The two halves of one Box–Muller draw are independent.
    within_4_sigma("<vx vy>", mean_and_sigma(n, |i| p.vx[i] * p.vy[i]), 0.0);
}

#[test]
fn two_stream_beams_split_evenly_and_em_vz_has_the_thermal_spread() {
    let (g, l) = (grid(), layout());
    let n = 400_000;
    let pool = ThreadPool::new(2);
    let loader = Loader::new(&g, &l, TWO_STREAM, n, SEED).species(0);
    let (p, vz) = loader.load(0..n, None, Some(&pool));
    let forward = |i: usize| f64::from(u8::from(p.vx[i] > 0.0));
    within_4_sigma("beam split", mean_and_sigma(n, forward), 0.5);
    let vt = 0.3;
    within_4_sigma("<vz>", mean_and_sigma(n, |i| vz[i]), 0.0);
    within_4_sigma("<vz^2>", mean_and_sigma(n, |i| vz[i] * vz[i]), vt * vt);
    within_4_sigma("<vy^2>", mean_and_sigma(n, |i| p.vy[i] * p.vy[i]), vt * vt);
}
