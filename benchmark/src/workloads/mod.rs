//! The eight workloads: what each one runs, and why it exists.
//!
//! Sizes are fixed step and particle counts, never adapted to the clock, so
//! every count the benchmark reports repeats exactly. The measured region is
//! a whole number of *blocks* of a fixed step count (whole sort periods, about
//! 2–4 s on the sizing host); `--seconds` scales the number of blocks from
//! the one frozen here for [`RUN_SECONDS`] (see `README.md`). Every end-to-end
//! timing is taken per block and the quiet decile of the blocks is
//! reported ([`crate::stats::quiet_decile`]), so a neighbour that slows the
//! host does not move it as long as it leaves two blocks of the run alone.

pub mod decomp;
pub mod engine;
pub mod serve;

use crate::host::Calibration;
use crate::json::{obj, Json};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// The `run_seconds` of `BENCHMARK.json`: the measured region each workload
/// was sized for.
pub const RUN_SECONDS: f64 = 40.0;

/// One fixed sort period. A traced run measures a whole number of them, and
/// the one-thread segment is one of them, so both hold exactly one sort per
/// period.
pub const TRACE_BLOCK: usize = 20;

/// `bench.trace_overhead_frac`: the median traced step over the median of
/// the untraced steps it alternates with, minus one. Medians, not sums: a
/// sort step costs 4–50 plain steps and varies by a fifth from one sort to
/// the next, and with a fixed even period every sort falls on the same side.
/// What the harness does between steps (classifying the step, sampling
/// disorder) is in neither side.
pub fn trace_overhead(traced_step_ms: &[f64], untraced_step_ms: &[f64]) -> f64 {
    crate::stats::median(traced_step_ms) / crate::stats::median(untraced_step_ms) - 1.0
}

/// Default workload seed (`PicConfig::landau_table1`'s own default).
pub const DEFAULT_SEED: u64 = 0xB1C0DE;

/// Which driver a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Simulation` on Landau damping, fixed sort period.
    Landau,
    /// `Simulation` on Landau damping with `ControllerConfig::default()`.
    LandauAdaptive,
    /// `Simulation` on the two-stream instability with the controller.
    TwoStreamAdaptive,
    /// `EmSimulation` on the magnetized two-stream scenario.
    Em,
    /// `DecomposedSimulation` over a two-rank `minimpi::World`.
    Decomp,
    /// `JobRuntime` draining a closed batch of tenants.
    Serve,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the question only this workload answers.
    pub why: &'static str,
    pub kind: Kind,
    /// Marker particles (electrons for `Em`; per long job for `Serve`).
    pub particles: usize,
    /// Cells per side.
    pub grid: usize,
    /// Busy threads: pool width, or ranks × 1 thread for `Decomp`.
    pub threads: usize,
    /// Steps of one block: whole sort periods, so that every block of a
    /// fixed-period workload holds the same number of sorts (`Serve`: steps
    /// of a short job per block).
    pub block_steps: usize,
    /// Blocks measured at [`RUN_SECONDS`]: 40 s of them for the workloads of
    /// `BENCHMARK.json`, about 20 s for the others.
    pub blocks: usize,
    /// Listed in `BENCHMARK.json`, i.e. run and gated by the driver. The
    /// others run by name and in the suite only. The sizing host slows by a
    /// third for up to two minutes at a time; ten runs of a workload agree
    /// within a bound only if such an episode covers at most two of them from
    /// end to end, which takes runs of 40 s, and the driver's time limit then
    /// leaves room for two workloads.
    pub driver: bool,
    /// Discarded warm-up steps, ≥ 2 s on the sizing host: the first
    /// two-thread work after idle runs 12–20 % slow there.
    pub warm_steps: usize,
    /// Constructions timed per run; `setup_s` is their median. Five where
    /// one takes 0.2 s: with three, two slow ones at process start moved a
    /// run's median by 29 % while its step times stayed within 2 %.
    pub setups: usize,
    /// A traced run also steps the same input on one thread for one block
    /// (`core.pool.scaling_eff_2t`).
    pub one_thread_segment: bool,
}

pub const SPECS: [Spec; 8] = [
    Spec {
        name: "landau_steady",
        why: "Paper Table I at 1 M particles, 128x128, one thread, sort every 20: the plain single-thread baseline; kernels ~60 %, sort ~18 %, solve ~12 % of a step.",
        kind: Kind::Landau,
        particles: 1_000_000,
        grid: 128,
        threads: 1,
        block_steps: 200,
        blocks: 20,
        driver: true,
        warm_steps: 200,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "landau_adaptive",
        why: "landau_steady plus the default hot-path controller, which has nothing to adapt to here: only its probe cost can show.",
        kind: Kind::LandauAdaptive,
        particles: 1_000_000,
        grid: 128,
        threads: 1,
        block_steps: 200,
        blocks: 10,
        driver: false,
        warm_steps: 200,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "two_stream_adaptive",
        why: "Two-stream at 1 M with the controller: disorder grows fast, the controller owns the sort cadence and deposit sees shattered runs; a controller change that wins on landau_adaptive must not lose here.",
        kind: Kind::TwoStreamAdaptive,
        particles: 1_000_000,
        grid: 128,
        threads: 1,
        // Long blocks: the controller sorts only every 60–80 steps here, and
        // a block's tail must be one of its sort steps, not its noisiest
        // plain step.
        block_steps: 400,
        blocks: 5,
        driver: false,
        warm_steps: 200,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "landau_dram",
        why: "16 M particles on two threads: particle arrays (~0.7 GB plus sort scratch) stream from DRAM, the paper's regime; byte-saving and thread-binding changes show here and barely at 1 M.",
        kind: Kind::Landau,
        particles: 16_000_000,
        grid: 128,
        threads: 2,
        // One sort period a block, and one as warm-up: the first pooled sort
        // of a run allocates its arena (0.5 s against 0.4 s for later ones).
        block_steps: 20,
        blocks: 15,
        driver: true,
        warm_steps: 20,
        setups: 3,
        one_thread_segment: true,
    },
    Spec {
        name: "fine_grid",
        why: "500 k particles on 512x512, one thread: grid-bound (solve ~70 %, rho/E refill ~12 %, kernels <16 %); spectral and fields changes show here and nowhere else.",
        kind: Kind::Landau,
        particles: 500_000,
        grid: 512,
        threads: 1,
        block_steps: 80,
        blocks: 7,
        driver: false,
        warm_steps: 60,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "em_two_species",
        why: "The second driver: magnetized two-stream, 800 k electrons + 200 k ions, Boris push and rho+J deposit; guards the planned merge of the two step engines.",
        kind: Kind::Em,
        particles: 800_000,
        grid: 128,
        threads: 1,
        block_steps: 100,
        blocks: 9,
        driver: false,
        warm_steps: 100,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "decomp_2rank",
        why: "1 M particles sharded over two minimpi ranks (slab solve, halo 4): halo exchange, all-to-all solve and migration, where two ranks do not beat one.",
        kind: Kind::Decomp,
        particles: 1_000_000,
        grid: 128,
        threads: 2,
        block_steps: 200,
        blocks: 8,
        driver: false,
        warm_steps: 180,
        setups: 5,
        one_thread_segment: false,
    },
    Spec {
        name: "serve_fleet",
        why: "A closed batch of 12 short and 4 long tenants on one 2-wide pool under SRTF with checkpoint-per-quantum: scheduler, checkpoint and restore path against the same jobs run solo.",
        kind: Kind::Serve,
        particles: 200_000,
        grid: 64,
        threads: 2,
        // The batch is one block: a short tenant steps `block_steps × blocks`.
        block_steps: 120,
        blocks: 4,
        driver: false,
        warm_steps: 0,
        setups: 3,
        one_thread_segment: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Measured-region length the step counts are scaled to.
    pub seconds: f64,
    /// 1/20 of the particles and steps. The analytic-rate checks then do not
    /// apply (3 particles per cell, and the run ends before their window).
    pub smoke: bool,
}

impl Params {
    /// Blocks measured: the frozen count scaled by `--seconds`, one at least.
    pub fn blocks(&self, spec: &Spec) -> usize {
        ((spec.blocks as f64 * self.seconds / RUN_SECONDS).round() as usize).max(1)
    }

    /// Steps of one block — at least 2 in a smoke run.
    pub fn block_steps(&self, spec: &Spec) -> usize {
        if self.smoke {
            (spec.block_steps / 20).max(2)
        } else {
            spec.block_steps
        }
    }

    /// Measured steps for `spec`: whole blocks.
    pub fn steps(&self, spec: &Spec) -> usize {
        self.blocks(spec) * self.block_steps(spec)
    }

    /// Steps a traced run measures, untraced and traced ones alternating:
    /// half an untraced run's, in whole sort periods, so that the rate over
    /// all of them is that of a run. Half, because a traced run has its
    /// calibration, replay and (`landau_dram`) one-thread segment to pay for
    /// inside the same cap on an invocation's wall time.
    pub fn traced_steps(&self, spec: &Spec) -> usize {
        (self.steps(spec) / 2).div_ceil(TRACE_BLOCK).max(1) * TRACE_BLOCK
    }

    /// Warm-up steps: never dropped, only shortened in smoke runs.
    pub fn warm_steps(&self, spec: &Spec) -> usize {
        if self.smoke {
            (spec.warm_steps / 20).max(2)
        } else {
            spec.warm_steps
        }
    }

    pub fn particles(&self, spec: &Spec) -> usize {
        if self.smoke {
            spec.particles / 20
        } else {
            spec.particles
        }
    }

    /// Cells per side; smoke runs cap the grid so the solve-bound workload
    /// shrinks with the rest.
    pub fn grid(&self, spec: &Spec) -> usize {
        if self.smoke {
            spec.grid.min(128)
        } else {
            spec.grid
        }
    }

    pub fn setups(&self, spec: &Spec) -> usize {
        if self.smoke {
            1
        } else {
            spec.setups
        }
    }
}

/// What a user of the system sees: the raw samples behind the end-to-end
/// metrics of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each timed construction.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each measured step (rank 0 for `Decomp`). Steps
    /// are not visible from outside `serve`: `Serve` reports, per job, its
    /// latency ÷ its steps.
    pub step_ms: Vec<f64>,
    /// Steps of one block of `step_ms`; 0 when the run is one block (`Serve`:
    /// the batch).
    pub block_steps: usize,
    /// Particle-steps completed in the measured region.
    pub particle_steps: f64,
    /// Wall seconds of the measured region (`Serve`: the makespan).
    pub wall_s: f64,
    /// Submit→done latency of each job, ms. A workload that is one
    /// simulation holds the measured region here; its jobs are its blocks,
    /// whose latencies follow from `step_ms`.
    pub job_latency_ms: Vec<f64>,
    /// Operations attempted (steps; jobs for `Serve`).
    pub ops_attempted: u64,
    /// Why the outputs are wrong, if they are; any entry fails every op.
    pub failures: Vec<String>,
}

impl EndToEnd {
    /// A failed check fails every operation of the run.
    pub fn ops_failed(&self) -> u64 {
        if self.failures.is_empty() {
            0
        } else {
            self.ops_attempted
        }
    }
}

/// Per-layer values by metric name, plus free-form detail for the report.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub detail: Vec<(String, Json)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn note(&mut self, key: &str, v: Json) {
        self.detail.push((key.to_string(), v));
    }
}

/// What a traced run hands to the workload on top of [`Params`].
pub struct TraceCtx {
    pub tracer: Tracer,
    pub calib: Calibration,
    pub layers: Layers,
}

/// Run one workload. `trace` is `Some` for a traced run, which fills
/// `trace.layers` and `trace.tracer`; the returned samples are then those of
/// the run's untraced share and are not reported.
pub fn run(spec: &Spec, p: &Params, trace: Option<&mut TraceCtx>) -> EndToEnd {
    match spec.kind {
        Kind::Landau | Kind::LandauAdaptive | Kind::TwoStreamAdaptive => {
            engine::run_es(spec, p, trace)
        }
        Kind::Em => engine::run_em(spec, p, trace),
        Kind::Decomp => decomp::run(spec, p, trace),
        Kind::Serve => serve::run(spec, p, trace),
    }
}

/// The workload's inputs as the report prints them.
pub fn describe(spec: &Spec, p: &Params) -> Json {
    obj([
        ("workload", spec.name.into()),
        ("why", spec.why.into()),
        ("seed", p.seed.into()),
        ("seconds", p.seconds.into()),
        ("smoke", p.smoke.into()),
        ("particles", p.particles(spec).into()),
        ("grid", p.grid(spec).into()),
        (
            "threads",
            if spec.kind == Kind::Decomp {
                1usize
            } else {
                spec.threads
            }
            .into(),
        ),
        (
            "ranks",
            if spec.kind == Kind::Decomp {
                spec.threads
            } else {
                1usize
            }
            .into(),
        ),
        ("in_benchmark_json", spec.driver.into()),
        ("blocks", p.blocks(spec).into()),
        ("block_steps", p.block_steps(spec).into()),
        ("steps", p.steps(spec).into()),
        ("traced_steps", p.traced_steps(spec).into()),
        ("warm_steps", p.warm_steps(spec).into()),
        ("setups", p.setups(spec).into()),
    ])
}

/// Whether the next step will begin with a sort — the library's own rule,
/// evaluated before the step: a controller decides with `should_sort()`;
/// without one the library sorts when the step count, incremented at the
/// start of the step, is a multiple of the period.
pub fn next_step_sorts(period: usize, steps_before: usize, should_sort: Option<bool>) -> bool {
    should_sort.unwrap_or(period > 0 && (steps_before + 1).is_multiple_of(period))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_step_classification() {
        // fixed period 20: the steps that end at 20, 40 sort; 0 = never
        assert!(next_step_sorts(20, 19, None));
        assert!(next_step_sorts(20, 39, None));
        assert!(!next_step_sorts(20, 20, None));
        assert!(!next_step_sorts(0, 19, None));
        // a controller's word overrides the period
        assert!(next_step_sorts(20, 7, Some(true)));
        assert!(!next_step_sorts(20, 19, Some(false)));
    }

    #[test]
    fn classification_agrees_with_the_library() {
        use pic_core::control::ControllerConfig;
        use pic_core::sim::{PicConfig, Simulation};
        let mut cfg = PicConfig::landau_table1(4000);
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.sort_period = 3;
        cfg.controller = Some(ControllerConfig::deterministic());
        let mut sim = Simulation::new(cfg).unwrap();
        let mut sorts = 0;
        for _ in 0..40 {
            let c = sim.controller().unwrap();
            let predicted = next_step_sorts(3, sim.steps(), Some(c.should_sort()));
            sim.step();
            // A step that sorted zeroed the spacing counter, and its own
            // observation then counted it: exactly 1, never on a step that
            // did not sort (except the very first of a run, which starts at 0).
            let since = sim.controller().unwrap().steps_since_sort();
            assert_eq!(
                predicted,
                since == 1 && sim.steps() > 1,
                "step {}",
                sim.steps()
            );
            sorts += predicted as usize;
        }
        assert!(sorts > 0, "controller never sorted in 40 steps");
    }

    #[test]
    fn counts_scale_with_seconds_and_smoke() {
        let spec = find("landau_steady").unwrap();
        let full = Params {
            seed: 1,
            seconds: RUN_SECONDS,
            smoke: false,
        };
        assert_eq!((full.blocks(spec), full.block_steps(spec)), (20, 200));
        assert_eq!(full.steps(spec), 4000);
        assert_eq!(full.particles(spec), 1_000_000);
        // --seconds changes the number of blocks, never a block or the warm-up
        let half = Params {
            seconds: RUN_SECONDS / 2.0,
            ..full.clone()
        };
        assert_eq!((half.blocks(spec), half.block_steps(spec)), (10, 200));
        assert_eq!(half.warm_steps(spec), spec.warm_steps);
        // traced: half the steps, in whole sort periods
        assert_eq!(full.traced_steps(spec), 2000);
        assert_eq!(full.traced_steps(find("landau_dram").unwrap()), 160);
        assert_eq!(full.traced_steps(find("em_two_species").unwrap()), 460);
        let smoke = Params {
            smoke: true,
            ..full
        };
        assert_eq!(smoke.particles(spec), 50_000);
        assert_eq!(smoke.steps(spec), spec.blocks * spec.block_steps / 20);
        assert_eq!(smoke.grid(find("fine_grid").unwrap()), 128);
        // one block at least, two steps in it
        let tiny = Params {
            seed: 1,
            seconds: 0.01,
            smoke: true,
        };
        assert_eq!(tiny.steps(find("landau_dram").unwrap()), 2);
    }

    #[test]
    fn blocks_are_whole_sort_periods() {
        for s in &SPECS {
            assert_eq!(s.block_steps % TRACE_BLOCK, 0, "{}", s.name);
            assert_eq!(s.warm_steps % TRACE_BLOCK, 0, "{}", s.name);
            // enough blocks for some of them to be quiet
            assert!(s.kind == Kind::Serve || s.blocks >= 5, "{}", s.name);
        }
        assert_eq!(SPECS.iter().filter(|s| s.driver).count(), 2);
    }

    #[test]
    fn overhead_compares_median_steps() {
        // +5 % on the plain steps; the sort steps (40, 55) decide nothing
        let traced = [8.4, 8.4, 55.0, 8.4, 8.4];
        let untraced = [8.0, 8.0, 8.0, 40.0, 8.0];
        assert!((trace_overhead(&traced, &untraced) - 0.05).abs() < 1e-12);
        assert!(trace_overhead(&[7.6], &[8.0]) < 0.0);
    }

    #[test]
    fn names_are_unique_and_short() {
        for (i, a) in SPECS.iter().enumerate() {
            assert!(
                a.why.len() <= 200,
                "{}: why is {} chars",
                a.name,
                a.why.len()
            );
            assert!(!a.why.contains('\n'));
            for b in &SPECS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }
}
