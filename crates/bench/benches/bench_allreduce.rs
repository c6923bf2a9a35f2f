//! Criterion benchmarks for the `minimpi` allreduce (recursive-doubling
//! tree) at the paper's ρ payload (128×128 doubles) across rank counts.

use minimpi::World;
use pic_bench::harness::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_allreduce(c: &mut Criterion) {
    let payload = 128 * 128; // the paper's rho array
    let mut g = c.benchmark_group("allreduce_128x128");
    g.sample_size(10);

    for ranks in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("tree", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                let r = World::run(ranks, |comm| {
                    let mut v = vec![comm.rank() as f64; payload];
                    for step in 0..10u64 {
                        comm.allreduce_sum_tree(&mut v, step * 1000);
                    }
                    v[0]
                });
                black_box(r[0])
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_allreduce
}

/// Short-run Criterion config so `cargo bench --workspace` completes in
/// minutes on one core (raise for precision runs).
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_main!(benches);
