//! Criterion benchmarks for the counting sorts — the paper's §V-B1
//! in-place vs out-of-place comparison (out-of-place ≈ 2× faster) and the
//! pool-parallel cell-partitioned variant — on two inputs: uniform-random
//! keys (every particle moves) and the state a run actually sorts (Landau,
//! 19 pushes after a sort: most particles stay in or next to their cell).
//! Each input also times a plain copy of the seven columns, the floor any
//! out-of-place sort sits on; `main` closes with ns/particle per case.

use pic_bench::harness::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use pic_bench::reference::sort::sort_in_place;
use pic_bench::report::{take_records, BenchRecord};
use pic_bench::workloads::{copy_columns, drifted_landau};
use pic_core::particles::ParticlesSoA;
use pic_core::pool::ThreadPool;
use pic_core::sort::{pool_sort_out_of_place, sort_out_of_place_with, SortArena};
use std::cell::RefCell;

const NCELLS: usize = 128 * 128;

fn randomized(n: usize) -> ParticlesSoA {
    let mut p = ParticlesSoA::zeroed(n);
    let mut s = 0x12345u64;
    for i in 0..n {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        p.icell[i] = (s % NCELLS as u64) as u32;
        p.vx[i] = i as f64;
    }
    p
}

fn bench_input(c: &mut Criterion, group: &str, base: &ParticlesSoA) {
    let n = base.len();
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);

    // One warm store and arena for every sequential case: the untimed
    // setup copies the input back in, so the timed call never pays a first
    // touch. (The sort's `scratch` argument is ignored: an empty store.)
    let state = RefCell::new((base.clone(), SortArena::new(), ParticlesSoA::default()));
    let reset = || copy_columns(base, &mut state.borrow_mut().0);

    g.bench_function("copy7", |b| {
        b.iter(|| {
            reset();
            black_box(state.borrow().0.icell[0])
        })
    });
    g.bench_function("out_of_place", |b| {
        b.iter_with_setup(reset, |()| {
            let (p, arena, ignored) = &mut *state.borrow_mut();
            sort_out_of_place_with(p, ignored, NCELLS, arena);
            black_box(p.icell[0])
        })
    });
    g.bench_function("in_place", |b| {
        b.iter_with_setup(reset, |()| {
            let (p, ..) = &mut *state.borrow_mut();
            sort_in_place(p, NCELLS);
            black_box(p.icell[0])
        })
    });
    for width in [1usize, 2] {
        let pool = ThreadPool::new(width);
        let mut arena = SortArena::new();
        g.bench_with_input(
            BenchmarkId::new("pool_out_of_place", width),
            &width,
            |b, _| {
                b.iter_with_setup(reset, |()| {
                    let (p, _, ignored) = &mut *state.borrow_mut();
                    pool_sort_out_of_place(p, ignored, NCELLS, &pool, &mut arena);
                    black_box(p.icell[0])
                })
            },
        );
    }
    g.finish();
}

fn bench_sorts(c: &mut Criterion) {
    bench_input(c, "counting_sort_random", &randomized(500_000));
    let drifted = drifted_landau(1_000_000).expect("valid Table I config");
    bench_input(c, "counting_sort_drifted", &drifted);
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_sorts
}

/// Short-run Criterion config so `cargo bench --workspace` completes in
/// minutes on one core (raise for precision runs).
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn main() {
    benches();
    println!("\n# ns/particle (median); x copy7 = ratio to the same input's seven-column copy");
    let records = take_records();
    let ns = |r: &BenchRecord| {
        r.median_secs * 1e9 / r.elements.expect("group sets Throughput::Elements") as f64
    };
    for r in &records {
        let copy = records
            .iter()
            .find(|c| c.group == r.group && c.id == "copy7")
            .expect("every group times copy7");
        println!(
            "{:<22} {:<22} {:>7.2} ns/p   {:>5.2} x copy7",
            r.group,
            r.id,
            ns(r),
            ns(r) / ns(copy)
        );
    }
}
