//! End-to-end resilience: the fault-injected `minimpi` transport inside
//! the real PIC loop, checkpoint/restart bit-exactness, snapshot integrity
//! checking, and the invariant watchdog.

use pic2d::minimpi::{CommError, FaultPlan, World};
use pic2d::pic_core::resilience::checkpoint::snapshot_hash;
use pic2d::pic_core::resilience::{run_resilient, WatchdogConfig};
use pic2d::pic_core::sim::{PicConfig, Simulation};
use pic2d::pic_core::PicError;
use std::time::Duration;

fn cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.sort_period = 0; // keep particle order identical across variants
    cfg
}

// ---------------- fault-injected distributed runs ----------------

/// The acceptance scenario: four ranks run the PIC loop over a lossy,
/// corrupting link; the reliable transport must recover via retransmission
/// and produce exactly the ρ of the fault-free run.
#[test]
fn four_rank_fault_injected_run_matches_fault_free() {
    let n = 2_000;
    let steps = 3;
    let ranks = 4;
    let per = n / ranks;

    let run = |plan: Option<FaultPlan>| -> Vec<Vec<f64>> {
        let body = move |comm: &mut pic2d::minimpi::Comm| {
            let mut c = cfg(n);
            let r = comm.rank();
            c.keep_range = Some((r * per, (r + 1) * per));
            // The tree allreduce's fixed pairing makes the floating-point
            // summation order (and hence ρ) identical from run to run, so
            // the faulty and fault-free runs can be compared bit for bit.
            let mut sim = Simulation::new_with_reduce(c, |rho| {
                comm.try_allreduce_sum_tree(rho, 1 << 40).unwrap()
            })
            .unwrap();
            for step in 0..steps {
                sim.step_with_reduce(|rho| {
                    comm.try_allreduce_sum_tree(rho, step as u64 * 10_000)
                        .expect("recoverable fault rates must not surface errors")
                });
            }
            sim.rho().to_vec()
        };
        match plan {
            Some(p) => World::run_with_faults(ranks, p, body),
            None => World::run(ranks, body),
        }
    };

    let clean = run(None);
    let faulty = run(Some(
        FaultPlan::new(0xf417)
            .drop_messages(0.25)
            .corrupt_messages(0.15)
            .delay_messages(0.10, Duration::from_micros(200)),
    ));
    for (rank, rho) in faulty.iter().enumerate() {
        assert_eq!(
            rho, &clean[rank],
            "rank {rank}: retransmission must reconstruct the exact density"
        );
    }
}

/// An unrecoverable plan (every frame dropped) must surface a clean
/// `CommError` on every rank — no deadlock, no panic.
#[test]
fn unrecoverable_faults_error_out_instead_of_deadlocking() {
    let outcomes = World::run_with_faults(4, FaultPlan::always_drop(9), |comm| {
        comm.set_ack_timeout(Duration::from_millis(2));
        comm.set_recv_deadline(Duration::from_millis(200));
        comm.set_max_retries(3);
        let mut v = vec![comm.rank() as f64; 8];
        comm.try_allreduce_sum_tree(&mut v, 0)
    });
    for (rank, out) in outcomes.iter().enumerate() {
        let err = out.as_ref().expect_err("all frames dropped");
        assert!(
            matches!(
                err,
                CommError::RetriesExhausted { .. } | CommError::Timeout { .. }
            ),
            "rank {rank}: unexpected error {err}"
        );
    }
}

// ---------------- checkpoint / restart ----------------

/// Checkpoint → restore → continue must be bit-identical to an
/// uninterrupted run.
#[test]
fn checkpoint_roundtrip_is_bit_exact() {
    let mut c = cfg(3_000);
    c.sort_period = 4; // exercise sorting on both sides of the snapshot

    let mut uninterrupted = Simulation::new(c.clone()).unwrap();
    uninterrupted.run(10);

    let mut sim = Simulation::new(c).unwrap();
    sim.run(6);
    let snapshot = sim.checkpoint();
    sim.run(37); // wander off; the snapshot must win
    sim.restore(&snapshot).unwrap();
    assert_eq!(sim.steps(), 6, "restored step counter");
    sim.run(4);

    assert_eq!(sim.rho(), uninterrupted.rho(), "rho must match bit-for-bit");
    assert_eq!(sim.particles(), uninterrupted.particles());
}

/// The production path's bits are pinned: the hash (identical in debug and
/// release builds) covers particles, fields, diagnostics and the
/// configuration fingerprint. Re-pinned once, by design, when the field
/// solve became a real-input forward plus one combined inverse
/// (0x2f233d0135f989cd → 0xf338ea91a73864db): E moves by rounding —
/// within 1e-13·max|E| of the old three-transform solve,
/// `parity_solver::solve_matches_three_transform_oracle` — and 45 steps
/// carry that into every particle. The fingerprint did not move, so older
/// snapshots still restore. Re-pinned a second time, by design, when the
/// initial population moved to per-chunk sampling streams
/// (0xf338ea91a73864db → 0x5c2913bfed6bd674): the same seed now draws a
/// different realization of the same distribution (one Box–Muller pair
/// per particle for vx, vy), the half-kick back runs the lane kernel, and
/// the retired `rng_state` slot is written as zeros. Re-pinned a third
/// time, by design, when the loader's Box–Muller moved from libm to the
/// lane-blocked polynomials (0x5c2913bfed6bd674 → 0xc4b7e881c86e5ebe): the
/// draws and the positions are unchanged bit for bit, and every velocity
/// moved by at most a few ε·r (r the pair's radius,
/// `integration_loader::loader_matches_the_libm_reference_sampler`).
/// Re-pinned a fourth time, by design, when the loader became born sorted
/// (0xc4b7e881c86e5ebe → 0x8c9007a13ec9e3bd): the per-cell counts are one
/// exact multinomial draw and each cell samples its particles from its own
/// streams — a new realization of the same law — and construction no
/// longer sorts.
#[test]
fn production_path_snapshot_bits_are_pinned() {
    let mut c = PicConfig::landau_table1(100_003);
    c.seed = 7;
    let mut sim = Simulation::new(c).unwrap();
    sim.run(45);
    assert_eq!(snapshot_hash(&sim.checkpoint()), 0x8c9007a13ec9e3bd);
}

/// A snapshot survives the disk roundtrip and restores into a *fresh*
/// simulation built from the same config.
#[test]
fn checkpoint_file_restores_into_fresh_simulation() {
    let c = cfg(1_000);
    let mut sim = Simulation::new(c.clone()).unwrap();
    sim.run(5);
    let dir = std::env::temp_dir().join("pic2d_resilience_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.ckpt");
    sim.save_checkpoint(&path).unwrap();

    let mut fresh = Simulation::new(c).unwrap();
    fresh.restore_from_file(&path).unwrap();
    std::fs::remove_file(&path).ok();
    fresh.run(3);
    sim.run(3);
    assert_eq!(fresh.rho(), sim.rho());
}

/// Any single corrupted byte must be rejected by the trailing checksum
/// (or, for the header fields, by the magic/version/fingerprint checks) —
/// never applied.
#[test]
fn corrupted_snapshots_are_rejected() {
    let mut sim = Simulation::new(cfg(500)).unwrap();
    sim.run(2);
    let good = sim.checkpoint();
    sim.restore(&good).expect("pristine snapshot restores");

    let n = good.len();
    for pos in [0, 9, n / 3, n / 2, n - 1] {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        let err = sim
            .restore(&bad)
            .expect_err("corrupted snapshot must be rejected");
        assert!(
            matches!(err, PicError::Checkpoint(_)),
            "byte {pos}: unexpected error {err}"
        );
    }
    // Truncation is detected too.
    let err = sim.restore(&good[..n - 4]).unwrap_err();
    assert!(matches!(err, PicError::Checkpoint(_)), "{err}");

    // The failed restores must not have clobbered the live state.
    let mut twin = Simulation::new(cfg(500)).unwrap();
    twin.run(2);
    assert_eq!(sim.rho(), twin.rho());
}

// ---------------- checkpoint fingerprint ----------------

/// Thread count only partitions work, so it must not invalidate a
/// snapshot.
#[test]
fn snapshot_restores_across_thread_counts() {
    let cfg = cfg(800);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(2);
    let snap = sim.checkpoint();

    // Same physics, different pool width: the snapshot must still be
    // accepted and leave the simulation at the checkpointed step.
    let mut threaded_cfg = cfg;
    threaded_cfg.threads = 2;
    let mut threaded = Simulation::new(threaded_cfg).unwrap();
    threaded
        .restore(&snap)
        .expect("thread count must not invalidate a snapshot");
    assert_eq!(threaded.steps(), 2);
}

/// The retired kernel-path slot: builds that still had a scalar arm wrote
/// code 0 there. The arms were bit-identical, so such a snapshot restores
/// and replays to the bytes of one written today (code 1).
#[test]
fn snapshot_with_the_scalar_kernel_code_restores_and_replays() {
    let cfg = cfg(800);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(2);
    let old = with_slot(&sim.checkpoint(), 68, 0);

    let mut resumed = Simulation::new(cfg).unwrap();
    resumed
        .restore(&old)
        .expect("kernel code 0 is accepted and ignored");
    sim.run(5);
    resumed.run(5);
    assert_eq!(sim.checkpoint(), resumed.checkpoint());
}

/// `snap` with the retired u32 slot at byte `at` (written 1) set to `code`
/// and the checksum re-stamped. The kernel slot sits at 68 (magic 8 +
/// version 4 + fingerprint 8 + steps 8 + rng 32 + charge 8), the deposit
/// slot after it at 72.
fn with_slot(snap: &[u8], at: usize, code: u32) -> Vec<u8> {
    assert_eq!(snap[at..at + 4], 1u32.to_le_bytes());
    let mut bytes = snap.to_vec();
    bytes[at..at + 4].copy_from_slice(&code.to_le_bytes());
    let n = bytes.len();
    let sum = snapshot_hash(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// The deposit word is a retired slot: a snapshot written while a run
/// could choose `Exact` (code 0) or `LaneReduce` (code 1) restores and
/// replays the uninterrupted run bit for bit, and the removed sorted-block
/// code 2 still fails with its message.
#[test]
fn snapshot_deposit_codes_restore_or_name_the_removed_path() {
    let cfg = cfg(800);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(2);
    let snap = sim.checkpoint();
    sim.run(5);
    for code in [0, 1] {
        let mut resumed = Simulation::new(cfg.clone()).unwrap();
        resumed
            .restore(&with_slot(&snap, 72, code))
            .unwrap_or_else(|e| panic!("deposit code {code}: {e}"));
        resumed.run(5);
        assert_eq!(
            resumed.checkpoint(),
            sim.checkpoint(),
            "deposit code {code}"
        );
    }
    let mut resumed = Simulation::new(cfg).unwrap();
    match resumed.restore(&with_slot(&snap, 72, 2)) {
        Err(PicError::Checkpoint(m)) => assert!(m.contains("sorted-block"), "{m}"),
        other => panic!("deposit code 2 must be refused by name, got {other:?}"),
    }
}

// ---------------- watchdog ----------------

/// A healthy run under the watchdog completes with zero rollbacks and the
/// same physics as an unsupervised run.
#[test]
fn watchdog_is_transparent_on_a_healthy_run() {
    let mut plain = Simulation::new(cfg(2_000)).unwrap();
    plain.run(8);

    let mut watched = Simulation::new(cfg(2_000)).unwrap();
    let report = run_resilient(&mut watched, 8, &WatchdogConfig::default()).unwrap();
    assert_eq!(report.rollbacks, 0);
    assert_eq!(report.steps_executed, 8);
    assert_eq!(watched.rho(), plain.rho());
}
