//! Preemption-parity property test for the job runtime's core invariant:
//! for ANY checkpoint → destroy → resume schedule, the trajectory is
//! bit-identical (checkpoint bytes, not just diagnostics) to the
//! uninterrupted run — across shared-pool widths.
//! Schedules are drawn from a seeded RNG, so failures replay exactly.

use pic2d::pic_core::pool::ThreadPool;
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::rng::Rng;
use pic2d::pic_core::sim::{PicConfig, Simulation};
use std::sync::Arc;

const STEPS: u64 = 24;
const SCHEDULES: u64 = 6;

fn cfg(threads: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(2_500);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 4;
    cfg.threads = threads;
    cfg.seed = 0xC0FFEE ^ threads as u64;
    cfg
}

#[test]
fn any_preempt_resume_schedule_is_bit_exact() {
    for threads in [1usize, 2, 4] {
        let c = cfg(threads);
        // Reference: one uninterrupted run (its own pool).
        let mut reference = Simulation::new(c.clone()).unwrap();
        reference.run(STEPS as usize);
        let want = reference.checkpoint();

        // Interrupted runs share an external pool of the same width,
        // exactly as runtime tenants do (a width-1 shared pool must
        // match the pool-less sequential reference bit for bit).
        let pool = Arc::new(ThreadPool::new(threads));
        for schedule in 0..SCHEDULES {
            let mut rng = Rng::seed_from_u64(0x5eed ^ (schedule << 8) ^ threads as u64);
            let mut sim = Simulation::new_shared(c.clone(), pool.clone()).unwrap();
            let mut snap = sim.checkpoint();
            while (sim.steps() as u64) < STEPS {
                let chunk = 1 + rng.below(6);
                let until = (sim.steps() as u64 + chunk).min(STEPS);
                while (sim.steps() as u64) < until {
                    sim.step();
                }
                snap = sim.checkpoint();
                if rng.below(2) == 1 && (sim.steps() as u64) < STEPS {
                    // Preempt: destroy the live state, resume from bytes.
                    sim = Simulation::from_snapshot_shared(c.clone(), &snap, pool.clone()).unwrap();
                }
            }
            assert!(
                snap == want,
                "threads {threads} schedule {schedule}: resumed checkpoint {:#x} != \
                 uninterrupted {:#x}",
                snapshot_hash(&snap),
                snapshot_hash(&want)
            );
        }
    }
}
