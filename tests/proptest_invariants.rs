//! Seeded randomized tests on the core data structures and kernel
//! invariants, spanning the sfc, spectral and pic-core crates.
//!
//! Each test draws a few hundred cases from the in-repo xoshiro PRNG with a
//! fixed seed — deterministic (failures reproduce exactly) and free of the
//! proptest dependency, which this offline environment cannot fetch.

use pic2d::pic_core::control::measure_disorder;
use pic2d::pic_core::fields::cic_weights;
use pic2d::pic_core::grid::{split_periodic, wrap_grid};
use pic2d::pic_core::particles::ParticlesSoA;
use pic2d::pic_core::pool::ThreadPool;
use pic2d::pic_core::rng::Rng;
use pic2d::pic_core::sort::{
    is_sorted_by_cell, pool_sort_out_of_place, sort_out_of_place, SortArena,
};
use pic2d::sfc::{CellLayout, Hilbert, Morton, RowMajor, L4D};
use pic2d::spectral::fft::{dft_naive, Direction, FftPlan};
use pic2d::spectral::Complex64;
use pic_bench::reference::sort::sort_in_place;

const CASES: usize = 256;

// ---------------- sfc ----------------

#[test]
fn morton_roundtrip() {
    let l = Morton::new(1024, 1024).unwrap();
    let mut rng = Rng::seed_from_u64(0x5fc0);
    for _ in 0..CASES {
        let (ix, iy) = (rng.below(1024) as usize, rng.below(1024) as usize);
        let c = l.encode(ix, iy);
        assert!(c < 1024 * 1024);
        assert_eq!(l.decode(c), (ix, iy));
    }
}

#[test]
fn hilbert_roundtrip() {
    let l = Hilbert::new(256, 256).unwrap();
    let mut rng = Rng::seed_from_u64(0x5fc1);
    for _ in 0..CASES {
        let (ix, iy) = (rng.below(256) as usize, rng.below(256) as usize);
        assert_eq!(l.decode(l.encode(ix, iy)), (ix, iy));
    }
}

#[test]
fn l4d_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x5fc2);
    for _ in 0..CASES {
        let size = rng.below(128) as usize + 1;
        let l = L4D::new(128, 128, size).unwrap();
        let (ix, iy) = (rng.below(128) as usize, rng.below(128) as usize);
        assert_eq!(l.decode(l.encode(ix, iy)), (ix, iy), "size={size}");
    }
}

#[test]
fn hilbert_consecutive_adjacent() {
    // Any window of the Hilbert walk moves by exactly one 4-neighbour
    // step per index.
    let l = Hilbert::new(64, 64).unwrap();
    let mut rng = Rng::seed_from_u64(0x5fc3);
    for _ in 0..CASES {
        let start = rng.below((64 * 64 - 8) as u64) as usize;
        for i in start..start + 7 {
            let a = l.decode(i);
            let b = l.decode(i + 1);
            assert_eq!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1), 1, "i={i}");
        }
    }
}

#[test]
fn layouts_agree_on_totals() {
    for side_pow in 3u32..=7 {
        let side = 1usize << side_pow;
        let layouts: Vec<Box<dyn CellLayout>> = vec![
            Box::new(RowMajor::new(side, side).unwrap()),
            Box::new(Morton::new(side, side).unwrap()),
            Box::new(Hilbert::new(side, side).unwrap()),
        ];
        for l in &layouts {
            let sum: usize = (0..side)
                .flat_map(|x| (0..side).map(move |y| (x, y)))
                .map(|(x, y)| l.encode(x, y))
                .sum();
            // A bijection onto [0, n) always sums to n(n-1)/2.
            let n = side * side;
            assert_eq!(sum, n * (n - 1) / 2, "side={side}");
        }
    }
}

// ---------------- partitioner ----------------

#[test]
fn partition_owns_every_cell_exactly_once() {
    use pic2d::sfc::partition::{cut_uniform, owner_of};
    let mut rng = Rng::seed_from_u64(0x9a57);
    for _ in 0..CASES {
        let ncells = rng.below(4096) as usize + 1;
        let nparts = rng.below(ncells as u64) as usize + 1;
        let ranges = cut_uniform(ncells, nparts);
        assert_eq!(ranges.len(), nparts);
        // Contiguous in SFC order: each range starts where the last ended.
        assert_eq!(ranges[0].start, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap at {w:?}");
        }
        assert_eq!(ranges[nparts - 1].end, ncells);
        // Sizes near-equal and every range non-empty.
        let (lo, hi) = ranges
            .iter()
            .map(|r| r.len())
            .fold((usize::MAX, 0), |(l, h), s| (l.min(s), h.max(s)));
        assert!(lo >= 1 && hi - lo <= 1, "sizes range {lo}..{hi}");
        // owner_of agrees with direct membership on sampled cells.
        for _ in 0..8 {
            let c = rng.below(ncells as u64) as usize;
            assert!(ranges[owner_of(&ranges, c)].contains(&c));
        }
    }
}

#[test]
fn weighted_partition_conserves_weight_and_balances() {
    use pic2d::sfc::partition::cut_weighted;
    let mut rng = Rng::seed_from_u64(0x9a58);
    for case in 0..CASES {
        let ncells = rng.below(2000) as usize + 8;
        let nparts = (rng.below(8) as usize + 2).min(ncells);
        let weights: Vec<f64> = (0..ncells)
            .map(|_| {
                // Mix of empty, light, and heavy cells.
                match rng.below(4) {
                    0 => 0.0,
                    1 => rng.uniform(),
                    _ => rng.range(1.0, 50.0),
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let ranges = cut_weighted(&weights, nparts);
        assert_eq!(ranges.len(), nparts, "case={case}");
        assert_eq!(ranges[0].start, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(ranges[nparts - 1].end, ncells);
        // Conservation: the per-part loads sum back to the total weight.
        let parts: Vec<f64> = ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum())
            .collect();
        let sum: f64 = parts.iter().sum();
        assert!(
            (sum - total).abs() <= 1e-9 * total.max(1.0),
            "case={case}: {sum} vs {total}"
        );
        // The greedy cut never overshoots a target by more than one cell,
        // so no part exceeds the ideal share by more than the heaviest cell.
        let wmax = weights.iter().cloned().fold(0.0, f64::max);
        for (k, &p) in parts.iter().enumerate() {
            assert!(
                p <= total / nparts as f64 + wmax + 1e-9,
                "case={case}: part {k} overloaded ({p} of {total})"
            );
        }
    }
}

#[test]
fn recut_weighted_tiles_and_bounds_overload() {
    // Live re-partition on random histograms — including the degenerate
    // shapes a drifting plasma produces (empty regions, one dominant
    // cell, all-empty): always a contiguous exact tiling with no empty
    // rank, and no rank loaded beyond the ideal share plus one cell.
    use pic2d::decomp::Partition;
    use pic2d::sfc::Ordering as SfcOrdering;
    let mut rng = Rng::seed_from_u64(0xe1a5);
    for case in 0..CASES {
        let side = 1usize << (rng.below(3) + 3); // 8, 16, 32
        let ord = match case % 3 {
            0 => SfcOrdering::RowMajor,
            1 => SfcOrdering::Morton,
            _ => SfcOrdering::Hilbert,
        };
        let p = Partition::new(ord, side, side, 2).unwrap();
        let ncells = p.ncells();
        let weights: Vec<f64> = match case % 5 {
            // Degenerate: empty histogram (no particles anywhere).
            0 => vec![0.0; ncells],
            // Degenerate: one cell holds the whole population.
            1 => {
                let mut w = vec![0.0; ncells];
                w[rng.below(ncells as u64) as usize] = 5000.0;
                w
            }
            // Live: clustered mass over a random sub-range, zeros elsewhere.
            2 => {
                let lo = rng.below(ncells as u64 / 2) as usize;
                let hi = lo + rng.below((ncells - lo) as u64) as usize + 1;
                (0..ncells)
                    .map(|c| {
                        if (lo..hi).contains(&c) {
                            rng.range(1.0, 40.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            }
            // Live: arbitrary mixed histogram.
            _ => (0..ncells)
                .map(|_| match rng.below(3) {
                    0 => 0.0,
                    1 => rng.uniform() * 4.0,
                    _ => rng.range(1.0, 60.0),
                })
                .collect(),
        };
        let nparts = rng.below(8) as usize + 1;
        let q = p.recut_weighted(&weights, nparts).unwrap();
        let ranges = q.ranges();
        assert_eq!(ranges.len(), nparts, "case={case}");
        assert_eq!(ranges[0].start, 0, "case={case}");
        assert_eq!(ranges[nparts - 1].end, ncells, "case={case}");
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "case={case}: gap/overlap {w:?}");
        }
        for r in ranges {
            assert!(!r.is_empty(), "case={case}: empty rank {r:?}");
        }
        // Bounded overload: the greedy cut never overshoots the ideal
        // share by more than the heaviest single cell.
        let total: f64 = weights.iter().sum();
        let wmax = weights.iter().cloned().fold(0.0, f64::max);
        for (k, r) in ranges.iter().enumerate() {
            let load: f64 = weights[r.clone()].iter().sum();
            assert!(
                load <= total / nparts as f64 + wmax + 1e-9,
                "case={case}: rank {k} overloaded ({load} of {total})"
            );
        }
    }
}

#[test]
fn recut_migrate_recut_conserves_particles_exactly() {
    // The partition-level shadow of the driver's re-cut → migrate cycle:
    // assign random particles to owners under a live re-cut, "migrate"
    // them (each particle claimed by exactly its owner), and re-cut again.
    // Population is conserved exactly at every stage, and a re-cut from an
    // unchanged histogram reproduces identical cuts — the property that
    // makes scheduled re-cuts replay as no-ops after a rollback.
    use pic2d::decomp::{particle_cell_weights, Partition};
    use pic2d::sfc::Ordering as SfcOrdering;
    let mut rng = Rng::seed_from_u64(0xe1a6);
    for case in 0..CASES {
        let side = 16usize;
        let p = Partition::new(SfcOrdering::Hilbert, side, side, 4).unwrap();
        let ncells = p.ncells();
        let n = rng.below(3000) + 100;
        // Clustered population: most particles in a narrow cell band.
        let band = rng.below(ncells as u64 / 4) + 1;
        let base = rng.below(ncells as u64 - band);
        let icell: Vec<u32> = (0..n)
            .map(|_| {
                if rng.below(4) == 0 {
                    rng.below(ncells as u64) as u32
                } else {
                    (base + rng.below(band)) as u32
                }
            })
            .collect();
        let w = particle_cell_weights(&icell, ncells);
        assert_eq!(w.iter().sum::<f64>() as u64, n, "case={case}");

        let nparts = rng.below(6) as usize + 1;
        let q = p.recut_weighted(&w, nparts).unwrap();
        // Migrate: each particle lands with exactly one owner.
        let mut per_part = vec![0usize; nparts];
        for &c in &icell {
            per_part[q.owner(c as usize)] += 1;
        }
        assert_eq!(
            per_part.iter().sum::<usize>() as u64,
            n,
            "case={case}: particles lost in migration"
        );
        // Unchanged histogram → identical cuts (replay idempotence).
        let q2 = q.recut_weighted(&w, nparts).unwrap();
        assert_eq!(q.ranges(), q2.ranges(), "case={case}: recut not stable");
        // Round-trip through a different rank count and back: the
        // population is conserved through both re-assignments.
        let other = rng.below(6) as usize + 1;
        let r = q.recut_weighted(&w, other).unwrap();
        let mut per_r = vec![0usize; other];
        for &c in &icell {
            per_r[r.owner(c as usize)] += 1;
        }
        assert_eq!(per_r.iter().sum::<usize>() as u64, n, "case={case}");
        let back = r.recut_weighted(&w, nparts).unwrap();
        assert_eq!(back.ranges(), q.ranges(), "case={case}: round-trip drifted");
    }
}

// ---------------- grid arithmetic ----------------

#[test]
fn split_periodic_in_range() {
    let mut rng = Rng::seed_from_u64(0x61d0);
    for _ in 0..CASES {
        let g = rng.range(-1e5, 1e5);
        let n = 1usize << (rng.below(10) + 1);
        let (cell, off) = split_periodic(g, n);
        assert!(cell < n);
        assert!((0.0..1.0).contains(&off));
        // Reconstruction is congruent mod n.
        let rebuilt = wrap_grid(cell as f64 + off, n);
        let reference = wrap_grid(g, n);
        let d = (rebuilt - reference).abs();
        assert!(d < 1e-6 || (n as f64 - d) < 1e-6, "g={g} d={d}");
    }
}

#[test]
fn cic_weights_are_a_partition_of_unity() {
    let mut rng = Rng::seed_from_u64(0x61d1);
    for _ in 0..CASES {
        let (dx, dy) = (rng.uniform(), rng.uniform());
        let w = cic_weights(dx, dy);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "({dx}, {dy})");
        assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}

// ---------------- sorting ----------------

#[test]
fn sorts_agree_and_preserve_payload() {
    let mut rng = Rng::seed_from_u64(0x50f7);
    let pool = ThreadPool::new(4);
    let mut arena = SortArena::new();
    for case in 0..64 {
        let n = rng.below(499) as usize + 1;
        let mut p = ParticlesSoA::zeroed(n);
        for i in 0..n {
            p.icell[i] = rng.below(256) as u32;
            p.vx[i] = i as f64; // unique payload
        }
        let mut a = p.clone();
        let mut b = p.clone();
        let mut c = p.clone();
        sort_out_of_place(&mut a, 256);
        sort_in_place(&mut b, 256);
        pool_sort_out_of_place(&mut c, &mut ParticlesSoA::default(), 256, &pool, &mut arena);
        assert!(is_sorted_by_cell(&a), "case={case}");
        assert!(is_sorted_by_cell(&b), "case={case}");
        // Out-of-place sorts are stable and must agree exactly.
        assert_eq!(&a.icell, &c.icell);
        assert_eq!(&a.vx, &c.vx);
        // In-place is unstable: compare multisets.
        let multiset = |p: &ParticlesSoA| {
            let mut v: Vec<(u32, u64)> = (0..p.len())
                .map(|i| (p.icell[i], p.vx[i].to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(multiset(&a), multiset(&b));
    }
}

// ---------------- spectral ----------------

#[test]
fn fft_matches_dft() {
    let mut rng = Rng::seed_from_u64(0xff70);
    for _ in 0..64 {
        let sig: Vec<Complex64> = (0..16)
            .map(|_| Complex64::from_re(rng.range(-100.0, 100.0)))
            .collect();
        let plan = FftPlan::new(16).unwrap();
        let mut fast = sig.clone();
        plan.forward(&mut fast);
        let slow = dft_naive(&sig, Direction::Forward);
        for k in 0..16 {
            assert!((fast[k] - slow[k]).abs() < 1e-8, "k={k}");
        }
    }
}

#[test]
fn fft_roundtrip_random() {
    let mut rng = Rng::seed_from_u64(0xff71);
    for _ in 0..64 {
        let sig: Vec<Complex64> = (0..64)
            .map(|_| Complex64::from_re(rng.range(-1e6, 1e6)))
            .collect();
        let plan = FftPlan::new(64).unwrap();
        let mut d = sig.clone();
        plan.forward(&mut d);
        plan.inverse(&mut d);
        for k in 0..64 {
            assert!((d[k] - sig[k]).abs() < 1e-6 * (1.0 + sig[k].abs()), "k={k}");
        }
    }
}

// ---------------- deposition ----------------

#[test]
fn deposit_paths_conserve_total_charge() {
    // Every deposition kernel — exact scalar order, exact lane-blocked,
    // and the reassociated vectorized path — deposits exactly `w` per
    // particle (the CIC weights are a partition of unity), so the grand
    // total over all cells and corners is `n * w` up to rounding, for any
    // cell ordering (sorted or scrambled) and any sign of `w`.
    use pic2d::pic_core::kernels::deposit::{self, DepositFn};
    use pic2d::pic_core::kernels::{accumulate, simd};
    let mut rng = Rng::seed_from_u64(0xd3b0);
    let kernels: [(&str, DepositFn); 3] = [
        ("exact_scalar", accumulate::accumulate_redundant),
        ("exact_lanes", simd::accumulate_redundant_lanes),
        ("lane_reduce", deposit::accumulate_lane_reduce),
    ];
    for case in 0..CASES {
        let ncells = 1usize << (rng.below(6) + 4); // 16..512
        let n = rng.below(4000) as usize; // includes the empty population
        let mut icell: Vec<u32> = (0..n).map(|_| rng.below(ncells as u64) as u32).collect();
        if case % 2 == 0 {
            icell.sort_unstable();
        }
        let dx: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let dy: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let w = rng.range(-2.0, 2.0);
        let expect = n as f64 * w;
        let tol = 1e-12 * (n as f64 + 1.0) * (1.0 + w.abs());
        for (name, kernel) in kernels {
            let mut rho4 = vec![[0.0f64; 4]; ncells];
            kernel(&icell, &dx, &dy, &mut rho4, w);
            let total: f64 = rho4.iter().flatten().sum();
            assert!(
                (total - expect).abs() <= tol,
                "case={case} {name}: total {total} vs {expect} (n={n}, w={w})"
            );
        }
    }
}

// ---------------- adaptive disorder metric ----------------

#[test]
fn disorder_metric_is_bounded() {
    let mut rng = Rng::seed_from_u64(0xd150);
    for case in 0..CASES {
        let n = rng.below(4000) as usize;
        let ncells = rng.below(512) + 1;
        let stride = rng.below(8) as usize + 1;
        let icell: Vec<u32> = (0..n).map(|_| rng.below(ncells) as u32).collect();
        let d = measure_disorder(&icell, stride, ncells as usize);
        assert!(
            (0.0..=1.0).contains(&d.descent_frac),
            "case={case} n={n} stride={stride}: descent {}",
            d.descent_frac
        );
        assert!(
            (0.0..=1.0).contains(&d.uniform_block_frac),
            "case={case} n={n} stride={stride}: uniform {}",
            d.uniform_block_frac
        );
        assert!(
            (0.0..=1.0).contains(&d.jump_frac),
            "case={case} n={n} stride={stride}: far {}",
            d.jump_frac
        );
    }
}

#[test]
fn disorder_metric_is_zero_on_sorted_populations() {
    let mut rng = Rng::seed_from_u64(0xd151);
    for case in 0..CASES {
        let n = rng.below(4000) as usize;
        let ncells = rng.below(512) + 1;
        let stride = rng.below(8) as usize + 1;
        let mut icell: Vec<u32> = (0..n).map(|_| rng.below(ncells) as u32).collect();
        icell.sort_unstable();
        let d = measure_disorder(&icell, stride, ncells as usize);
        assert_eq!(
            d.descent_frac, 0.0,
            "case={case} n={n} stride={stride}: sorted population must measure ordered"
        );
    }
}

#[test]
fn disorder_metric_is_monotone_under_progressive_shuffling() {
    // Start sorted and cumulatively apply disjoint adjacent-pair swaps:
    // each batch strictly adds descents (an adjacent swap of unequal
    // sorted values creates exactly one new descent and destroys none at
    // full sampling), so the stride-1 metric must be non-decreasing.
    let mut rng = Rng::seed_from_u64(0xd152);
    for case in 0..CASES / 4 {
        let n = rng.below(2000) as usize + 64;
        let mut icell: Vec<u32> = (0..n as u32).collect();
        let mut swapped = vec![false; n];
        let mut prev = measure_disorder(&icell, 1, n).descent_frac;
        assert_eq!(prev, 0.0, "case={case}");
        for round in 0..8 {
            // One batch of fresh disjoint adjacent transpositions.
            for _ in 0..n / 16 {
                let i = rng.below(n as u64 - 1) as usize;
                if !swapped[i] && !swapped[i + 1] {
                    icell.swap(i, i + 1);
                    swapped[i] = true;
                    swapped[i + 1] = true;
                }
            }
            let d = measure_disorder(&icell, 1, n).descent_frac;
            assert!(
                d >= prev,
                "case={case} round={round}: disorder regressed {prev} -> {d}"
            );
            prev = d;
        }
    }
}

/// Tier-1 runs with debug assertions and overflow checks on: the
/// born-sorted check in construction, the sort's `icell == encode(ix, iy)`
/// check and every other `debug_assert!` are part of the suite, so a
/// profile edit that switched either off would show here.
#[test]
fn tier1_builds_keep_debug_assertions_on() {
    use std::hint::black_box;
    let debug = std::panic::catch_unwind(|| debug_assert!(black_box(false)));
    assert!(
        cfg!(debug_assertions) && debug.is_err(),
        "tests must build with debug assertions"
    );
    let overflow = std::panic::catch_unwind(|| black_box(u8::MAX) + 1);
    assert!(overflow.is_err(), "tests must build with overflow checks");
}
