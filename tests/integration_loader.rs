//! The particle loader: particle `i` is a pure function of (seed, species,
//! i), so a load is bit-identical at every pool width, a replicated rank's
//! index range or a decomposed rank's cell range equals the matching part
//! of a full load, and the sampled moments are those of the distribution.

use pic2d::pic_core::em::{EmConfig, EmSimulation};
use pic2d::pic_core::grid::Grid2D;
use pic2d::pic_core::particles::{InitialDistribution, Loader, ParticlesSoA, CHUNK};
use pic2d::pic_core::pool::ThreadPool;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::species::{SpeciesArena, SpeciesDef};
use pic2d::sfc::{CellLayout, Morton};

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
