//! Criterion version of Table IV: one benchmark per optimization rung,
//! each timing a full PIC step at a fixed (small) scale so regressions in
//! any single rung show up in CI-style runs.

use pic_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::reference::ReferenceRun;
use pic_bench::workloads::table4_ladder;
use pic_core::sim::Simulation;

fn bench_ladder(c: &mut Criterion) {
    let particles = 100_000;
    let grid = 64;
    let mut g = c.benchmark_group("table4_ladder_step");
    g.throughput(Throughput::Elements(particles as u64));
    g.sample_size(10);

    for (label, cfg, variant) in table4_ladder(particles, grid) {
        let mut step: Box<dyn FnMut()> = match variant {
            Some(v) => {
                let mut run = ReferenceRun::new(cfg, v).expect("valid rung");
                Box::new(move || run.step())
            }
            None => {
                let mut sim = Simulation::new(cfg).expect("valid config");
                Box::new(move || sim.step())
            }
        };
        step();
        step(); // warm
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(&mut step)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_ladder
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
