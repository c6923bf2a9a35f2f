//! Elastic recovery benchmark: what does a kill → rejoin episode cost in
//! wall time, and does the weighted live re-cut keep per-rank loads
//! bounded where static equal-area cuts collapse?
//!
//! Three sections land in `results/BENCH_elastic.json`:
//!
//! * **load balance** (gating, deterministic) — three skewed per-cell
//!   histograms (gaussian blob, hot band, hot quadrant) on a 64×64 grid,
//!   cut 8 ways under Morton and Hilbert orderings. The static
//!   equal-cell-count cut must collapse (max/ideal ≥ 1.8) while the
//!   weighted re-cut stays within the provable bound
//!   `max ≤ total/nparts + wmax` and max/ideal ≤ 1.5.
//! * **recovery timing** (report-only) — a 4-rank elastic run with one
//!   spare: rank 2 is killed mid-flight, the spare is admitted into its
//!   slot, the group rolls back and replays. Wall time is compared
//!   against the fault-free elastic run of the same schedule, and the
//!   post-rejoin per-slot particle loads are reported.
//! * **checkpoint overhead** (report-only) — what the runner costs a
//!   fault-free run: 4 ranks, 400 k particles on 64×64, 200 steps under
//!   `run_elastic_member` with the heartbeat detector armed and a buddy
//!   checkpoint every 100 steps, against a plain `DecomposedSimulation::run`.
//!   Each of 5 reps times the two back to back; the median paired ratio is
//!   reported, because machine load varies between invocations far more
//!   than within one.
//!
//! Usage: bench_elastic [--particles N] [--steps S] (recovery section only)

use decomp::{
    run_elastic_member, run_elastic_spare, DecompConfig, DecomposedSimulation, ElasticConfig,
    ElasticOutcome, Partition,
};
use minimpi::{FaultPlan, World};
use pic_bench::cli::Args;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_core::sim::PicConfig;
use pic_core::PicError;
use sfc::Ordering;
use std::time::{Duration, Instant};

const GRID: usize = 64;
const NPARTS: usize = 8;
const ACTIVE: usize = 4;

// ---------------------------------------------------------------------------
// Section 1: static vs weighted cuts under skewed histograms.
// ---------------------------------------------------------------------------

/// A named analytic weight field, evaluated per cell coordinate.
type Scenario = (&'static str, fn(usize, usize) -> f64);

fn scenarios() -> Vec<Scenario> {
    fn gaussian_blob(ix: usize, iy: usize) -> f64 {
        let (cx, cy, sigma) = (8.0, 8.0, 4.0);
        let d2 = (ix as f64 - cx).powi(2) + (iy as f64 - cy).powi(2);
        1.0 + 400.0 * (-d2 / (2.0 * sigma * sigma)).exp()
    }
    fn hot_band(_ix: usize, iy: usize) -> f64 {
        if iy < 4 {
            100.0
        } else {
            1.0
        }
    }
    fn hot_quadrant(ix: usize, iy: usize) -> f64 {
        if ix < GRID / 2 && iy < GRID / 2 {
            50.0
        } else {
            1.0
        }
    }
    vec![
        ("gaussian-blob", gaussian_blob),
        ("hot-band", hot_band),
        ("hot-quadrant", hot_quadrant),
    ]
}

/// Per-part load under a partition: sum of weights over each cell range.
fn part_loads(p: &Partition, weights: &[f64]) -> Vec<f64> {
    (0..p.nranks())
        .map(|r| p.range(r).map(|c| weights[c]).sum())
        .collect()
}

struct CutResult {
    name: &'static str,
    ordering: Ordering,
    total: f64,
    wmax: f64,
    static_ratio: f64,
    weighted_ratio: f64,
    bound_ok: bool,
}

fn cut_comparison() -> Result<Vec<CutResult>, PicError> {
    let mut out = Vec::new();
    for ordering in [Ordering::Morton, Ordering::Hilbert] {
        for (name, field) in scenarios() {
            let stat = Partition::new(ordering, GRID, GRID, NPARTS)
                .map_err(|e| PicError::Config(e.to_string()))?;
            // Weights live in the ordering's linearized cell space — the
            // same space `particle_cell_weights` fills from particle cell
            // codes — so an analytic field is scattered through encode().
            let mut weights = vec![0.0; stat.ncells()];
            for iy in 0..GRID {
                for ix in 0..GRID {
                    weights[stat.layout().encode(ix, iy)] = field(ix, iy);
                }
            }
            let total: f64 = weights.iter().sum();
            let wmax = weights.iter().cloned().fold(0.0, f64::max);
            let ideal = total / NPARTS as f64;

            let weighted = stat
                .recut_weighted(&weights, NPARTS)
                .map_err(|e| PicError::Config(e.to_string()))?;
            let smax = part_loads(&stat, &weights).into_iter().fold(0.0, f64::max);
            let wloads = part_loads(&weighted, &weights);
            let wmax_load = wloads.iter().cloned().fold(0.0, f64::max);

            out.push(CutResult {
                name,
                ordering,
                total,
                wmax,
                static_ratio: smax / ideal,
                weighted_ratio: wmax_load / ideal,
                bound_ok: wmax_load <= ideal + wmax + 1e-9,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Section 2: kill → rejoin episode timing.
// ---------------------------------------------------------------------------

fn elastic_cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = 32;
    cfg.grid_ny = 32;
    cfg.ordering = Ordering::Hilbert;
    cfg.sort_period = 2;
    cfg
}

fn elastic_ecfg() -> ElasticConfig {
    ElasticConfig {
        checkpoint_every: 2,
        recut_every: 3,
        max_recoveries: 4,
        heartbeat_timeout: None,
        recv_deadline: Some(Duration::from_secs(10)),
        join_deadline: Duration::from_secs(30),
        admit_attempts: 100,
    }
}

fn elastic_run(
    n: usize,
    steps: u64,
    spares: usize,
    plan: Option<FaultPlan>,
) -> (f64, Vec<ElasticOutcome>) {
    let t = Instant::now();
    let outs = World::run_elastic(ACTIVE, spares, plan, move |comm| {
        let e = elastic_ecfg();
        let d = DecompConfig::default();
        if comm.is_member() {
            run_elastic_member(comm, elastic_cfg(n), d, &e, steps).unwrap()
        } else {
            run_elastic_spare(comm, elastic_cfg(n), d, &e, steps).unwrap()
        }
    });
    (t.elapsed().as_secs_f64(), outs)
}

// ---------------------------------------------------------------------------
// Section 3: checkpoint overhead on the fault-free path.
// ---------------------------------------------------------------------------

const OVERHEAD_PARTICLES: usize = 400_000;
const OVERHEAD_STEPS: u64 = 200;
const OVERHEAD_CKPT_EVERY: u64 = 100;
const OVERHEAD_REPS: usize = 5;

fn overhead_cfg() -> PicConfig {
    let mut cfg = PicConfig::landau_table1(OVERHEAD_PARTICLES);
    cfg.grid_nx = 64;
    cfg.grid_ny = 64;
    cfg
}

/// Wall time of a plain decomposed run: no detector, no checkpoints.
fn plain_secs() -> f64 {
    let t = Instant::now();
    World::run(ACTIVE, |comm| {
        let d = DecompConfig::default();
        let mut sim = DecomposedSimulation::new(overhead_cfg(), d, comm).unwrap();
        sim.run(OVERHEAD_STEPS as usize, comm).unwrap();
    });
    t.elapsed().as_secs_f64()
}

/// Wall time of the same run under the elastic runner, and the
/// checkpoints each rank committed.
fn elastic_secs() -> Result<(f64, usize), PicError> {
    let ecfg = ElasticConfig {
        checkpoint_every: OVERHEAD_CKPT_EVERY,
        recut_every: 0,
        max_recoveries: 1,
        heartbeat_timeout: Some(Duration::from_secs(2)),
        recv_deadline: Some(Duration::from_secs(30)),
        join_deadline: Duration::from_secs(1),
        admit_attempts: 1,
    };
    let t = Instant::now();
    let outs = World::run(ACTIVE, |comm| {
        let d = DecompConfig::default();
        run_elastic_member(comm, overhead_cfg(), d, &ecfg, OVERHEAD_STEPS).unwrap()
    });
    let secs = t.elapsed().as_secs_f64();
    if !outs.iter().all(|o| o.survivor && o.recoveries == 0) {
        return Err(PicError::Diverged(
            "fault-free elastic run recovered".into(),
        ));
    }
    Ok((secs, outs[0].checkpoints))
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let args = Args::from_env();
    let n = args.get("particles", 40_000usize);
    let steps = args.get("steps", 10u64);

    // -- load balance -------------------------------------------------------
    let cuts = cut_comparison()?;
    let mut scenario_json = Vec::new();
    let mut weighted_bounded = true;
    let mut static_collapses = true;
    for c in &cuts {
        println!(
            "  {:>7?} {:<13} static max/ideal {:.2}, weighted {:.2} (bound {})",
            c.ordering,
            c.name,
            c.static_ratio,
            c.weighted_ratio,
            if c.bound_ok { "ok" } else { "VIOLATED" }
        );
        weighted_bounded &= c.bound_ok && c.weighted_ratio <= 1.5;
        static_collapses &= c.static_ratio >= 1.8;
        scenario_json.push(Json::obj([
            ("name", Json::s(c.name)),
            ("ordering", Json::Str(format!("{:?}", c.ordering))),
            ("total_weight", Json::Num(c.total)),
            ("max_cell_weight", Json::Num(c.wmax)),
            ("static_max_over_ideal", Json::Num(c.static_ratio)),
            ("weighted_max_over_ideal", Json::Num(c.weighted_ratio)),
            ("weighted_within_bound", Json::Bool(c.bound_ok)),
        ]));
    }
    if !weighted_bounded {
        return Err(PicError::Diverged(
            "weighted re-cut exceeded its load bound under a skewed histogram".into(),
        ));
    }
    if !static_collapses {
        return Err(PicError::Diverged(
            "static cuts did not collapse — the skew scenarios lost their teeth".into(),
        ));
    }
    println!("  load balance: weighted re-cut bounded on all skews, static cuts collapse");

    // -- recovery timing ----------------------------------------------------
    let (base_s, base) = elastic_run(n, steps, 0, None);
    if !base.iter().all(|o| o.survivor && o.recoveries == 0) {
        return Err(PicError::Diverged(
            "fault-free elastic run recovered".into(),
        ));
    }
    let plan = FaultPlan::new(0xBE7A).kill_rank(2, 40);
    let (fault_s, outs) = elastic_run(n, steps, 1, Some(plan));
    let joiner = &outs[ACTIVE];
    if !(joiner.joined && joiner.slot == Some(2)) {
        return Err(PicError::Diverged(
            "spare was not admitted into the dead rank's slot".into(),
        ));
    }
    let survivors: Vec<&ElasticOutcome> = outs
        .iter()
        .filter(|o| o.survivor && o.slot.is_some())
        .collect();
    if survivors.len() != ACTIVE || survivors.iter().any(|o| o.steps != steps) {
        return Err(PicError::Diverged("rejoined group did not finish".into()));
    }
    let held: usize = survivors.iter().map(|o| o.particles.len()).sum();
    if held != n {
        return Err(PicError::Diverged(format!(
            "particles lost across the rejoin: {held} of {n}"
        )));
    }
    let loads: Vec<usize> = survivors.iter().map(|o| o.particles.len()).collect();
    let max_load = *loads.iter().max().unwrap() as f64;
    let avg_load = n as f64 / ACTIVE as f64;
    let recoveries = survivors.iter().map(|o| o.recoveries).max().unwrap();
    println!(
        "  recovery: fault-free {base_s:.3}s, kill+rejoin {fault_s:.3}s \
         ({recoveries} recovery, post-rejoin max/avg load {:.2})",
        max_load / avg_load
    );

    // -- checkpoint overhead -----------------------------------------------
    let mut pairs = Vec::with_capacity(OVERHEAD_REPS);
    let mut checkpoints = 0;
    for _ in 0..OVERHEAD_REPS {
        let plain = plain_secs();
        let (elastic, cks) = elastic_secs()?;
        pairs.push((elastic / plain, plain, elastic));
        checkpoints = cks;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, plain_s, elastic_s) = pairs[pairs.len() / 2];
    let overhead_pct = (ratio - 1.0) * 100.0;
    println!(
        "  checkpoint overhead: plain {plain_s:.3}s, elastic {elastic_s:.3}s \
         ({overhead_pct:+.2}% for heartbeats + {checkpoints} buddy checkpoints)"
    );

    let json = Json::obj([
        (
            "load_balance",
            Json::obj([
                ("grid", Json::Str(format!("{GRID}x{GRID}"))),
                ("nparts", Json::Int(NPARTS as i64)),
                ("scenarios", Json::Arr(scenario_json)),
                ("weighted_bounded", Json::Bool(weighted_bounded)),
                ("static_collapses", Json::Bool(static_collapses)),
            ]),
        ),
        (
            "recovery",
            Json::obj([
                ("particles", Json::Int(n as i64)),
                ("steps", Json::Int(steps as i64)),
                ("ranks", Json::Int(ACTIVE as i64)),
                ("fault_free_s", Json::Num(base_s)),
                ("kill_rejoin_s", Json::Num(fault_s)),
                ("overhead_s", Json::Num(fault_s - base_s)),
                ("recoveries", Json::Int(recoveries as i64)),
                ("post_rejoin_max_over_avg", Json::Num(max_load / avg_load)),
            ]),
        ),
        (
            "checkpoint_overhead",
            Json::obj([
                ("particles", Json::Int(OVERHEAD_PARTICLES as i64)),
                ("steps", Json::Int(OVERHEAD_STEPS as i64)),
                ("ranks", Json::Int(ACTIVE as i64)),
                ("grid", Json::s("64x64")),
                ("checkpoint_every", Json::Int(OVERHEAD_CKPT_EVERY as i64)),
                ("reps", Json::Int(OVERHEAD_REPS as i64)),
                ("plain_s", Json::Num(plain_s)),
                ("elastic_s", Json::Num(elastic_s)),
                ("overhead_pct", Json::Num(overhead_pct)),
                ("checkpoints", Json::Int(checkpoints as i64)),
            ]),
        ),
    ]);
    let path = results_path("BENCH_elastic.json");
    write_json_file(&path, &json).map_err(|e| PicError::Io(e.to_string()))?;
    println!("wrote {}", path.display());
    Ok(())
}
