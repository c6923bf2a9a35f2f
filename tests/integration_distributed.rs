//! Integration of `minimpi` with the PIC loop: the paper's process-level
//! parallelism (§V-A) must be equivalent to a serial run — the global
//! particle population is split across ranks, each deposits its slice, and
//! the allreduce of ρ reconstitutes the serial density up to the addition
//! order of the partial sums. That order is fixed by the allreduce's tree,
//! so the same world run twice yields the same bits.

use pic2d::minimpi::World;
use pic2d::pic_core::sim::{PicConfig, Simulation};

fn cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 0; // keep particle order identical across variants
    cfg
}

#[test]
fn distributed_run_matches_serial() {
    let n = 4_000;
    let steps = 5;

    // Serial reference.
    let mut serial = Simulation::new(cfg(n)).unwrap();
    serial.run(steps);
    let rho_serial = serial.rho().to_vec();

    // Distributed: 4 ranks × 1000 particles, allreduce each step.
    let run = |ranks: usize| {
        let per = n / ranks;
        World::run(ranks, |comm| {
            let mut c = cfg(n);
            let r = comm.rank();
            c.keep_range = Some((r * per, (r + 1) * per));
            let mut sim = Simulation::new_with_reduce(c, |rho| comm.allreduce_sum(rho)).unwrap();
            for _ in 0..steps {
                sim.step_with_reduce(|rho| comm.allreduce_sum(rho));
            }
            sim.rho().to_vec()
        })
    };
    for ranks in [2usize, 4] {
        let rhos = run(ranks);
        for (rank, rho) in rhos.iter().enumerate() {
            for i in 0..rho_serial.len() {
                assert!(
                    (rho[i] - rho_serial[i]).abs() < 1e-9,
                    "ranks={ranks} rank={rank}: rho[{i}] {} vs serial {}",
                    rho[i],
                    rho_serial[i]
                );
            }
        }
        if ranks == 4 {
            // Reproducible from run to run, not just close to serial.
            let bits = |rhos: &[Vec<f64>]| -> Vec<Vec<u64>> {
                rhos.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&rhos), bits(&run(4)), "4-rank ρ differs between runs");
        }
    }
}

#[test]
fn ranks_agree_with_each_other() {
    // Every rank holds the whole grid: after the allreduce they all see
    // the same field, so their diagnostics must agree exactly.
    let n = 3_000;
    let per = n / 3;
    let modes = World::run(3, |comm| {
        let mut c = cfg(n);
        let r = comm.rank();
        c.keep_range = Some((r * per, (r + 1) * per));
        let mut sim = Simulation::new_with_reduce(c, |rho| comm.allreduce_sum(rho)).unwrap();
        for _ in 0..4 {
            sim.step_with_reduce(|rho| comm.allreduce_sum(rho));
        }
        sim.ex_mode_amplitude(1)
    });
    assert!((modes[0] - modes[1]).abs() < 1e-12);
    assert!((modes[1] - modes[2]).abs() < 1e-12);
}

#[test]
fn comm_time_grows_with_payload() {
    // Sanity check of the communication accounting used by Fig. 7.
    let (_, comm_small) = World::run_timed(4, |comm| {
        let mut v = vec![0.0; 64];
        for _ in 0..200 {
            comm.allreduce_sum(&mut v);
        }
    });
    let (_, comm_large) = World::run_timed(4, |comm| {
        let mut v = vec![0.0; 1 << 18];
        for _ in 0..200 {
            comm.allreduce_sum(&mut v);
        }
    });
    assert!(
        comm_large > comm_small,
        "large payload {comm_large} should cost more than {comm_small}"
    );
}
