//! Criterion benchmarks for the spectral substrate: 1-D/2-D FFT and the
//! full Poisson solve at the paper's grid sizes (128², 256²).

use pic_bench::harness::{
    black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};
use pic_core::pool::ThreadPool;
use spectral::fft::{Fft2Plan, FftPlan};
use spectral::poisson::{PoissonSolver2D, SolveScratch};
use spectral::Complex64;

fn bench_fft1d(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_1d");
    for n in [128usize, 1024, 16384] {
        let plan = FftPlan::new(n).unwrap();
        let data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut d = data.clone();
                plan.forward(&mut d);
                black_box(d[0])
            })
        });
    }
    g.finish();
}

fn bench_fft2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft_2d");
    for n in [64usize, 128, 256] {
        let plan = Fft2Plan::new(n, n).unwrap();
        let data: Vec<Complex64> = (0..n * n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), 0.0))
            .collect();
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut d = data.clone();
                plan.forward(&mut d);
                black_box(d[0])
            })
        });
    }
    g.finish();
}

fn bench_poisson(c: &mut Criterion) {
    let mut g = c.benchmark_group("poisson_solve_e");
    for n in [128usize, 256] {
        let solver = PoissonSolver2D::new(n, n, 1.0, 1.0).unwrap();
        let rho: Vec<f64> = (0..n * n).map(|i| ((i * 31) % 101) as f64 * 0.01).collect();
        let mut ex = vec![0.0; n * n];
        let mut ey = vec![0.0; n * n];
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                solver.solve_e(black_box(&rho), &mut ex, &mut ey);
                black_box(ex[0])
            })
        });
    }
    g.finish();
}

/// The solve the simulation runs: `solve_e_pooled` on a thread pool, each
/// worker carrying its column bands through the fused column phase.
fn bench_poisson_pooled(c: &mut Criterion) {
    let mut g = c.benchmark_group("poisson_solve_e_pooled");
    for n in [128usize, 256, 512] {
        let solver = PoissonSolver2D::new(n, n, 1.0, 1.0).unwrap();
        let rho: Vec<f64> = (0..n * n).map(|i| ((i * 31) % 101) as f64 * 0.01).collect();
        let (mut ex, mut ey) = (vec![0.0; n * n], vec![0.0; n * n]);
        let mut scratch = SolveScratch::new();
        g.throughput(Throughput::Elements((n * n) as u64));
        for threads in [1usize, 2] {
            let pool = ThreadPool::new(threads);
            g.bench_with_input(BenchmarkId::new(format!("{threads}t"), n), &n, |b, _| {
                b.iter(|| {
                    solver.solve_e_pooled(black_box(&rho), &mut ex, &mut ey, &mut scratch, &pool);
                    black_box(ex[0])
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_fft1d, bench_fft2d, bench_poisson, bench_poisson_pooled
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
