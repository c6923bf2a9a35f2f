//! Replication vs spatial decomposition: per-rank communication volume and
//! wall time at 2/4/8 ranks, weak and strong scaling.
//!
//! The replicated baseline is the paper's hybrid model — every rank holds
//! the full grid and allreduces ρ each step (the recursive-doubling tree,
//! whose messages the per-rank byte counters see).
//! The decomposed run shards the grid with `decomp::DecomposedSimulation`:
//! halo exchange + slab-distributed solve + migration.
//!
//! Emits `results/BENCH_scaling.json` and gates on the headline claim of
//! the halo model: at 4+ ranks the *average per-rank* halo + migration
//! volume of the decomposed run must undercut the replicated allreduce.
//! Exits nonzero if any configuration violates that, so `scripts/check.sh`
//! can gate on it. The slab solve's all-to-all volume is reported beside
//! it and not gated: the solve spends grid-sized traffic to keep per-rank
//! grid memory and compute shrinking with ranks (at 4 ranks on 32² it is
//! about the allreduce's volume), a trade `bench_solver` gates.
//!
//! Byte counts come from `minimpi`'s transport accounting (logical payload
//! f64s through `send_ft`/`stash_take`, sent + received, retransmits not
//! double-counted); wall times are whole-`World` and include thread spawn,
//! so treat them as a scaling snapshot, not a microbenchmark.

use decomp::{DecompConfig, DecomposedSimulation};
use minimpi::World;
use pic_bench::report::{results_path, write_json_file, Json};
use pic_bench::table::Table;
use pic_core::sim::{PicConfig, Simulation};
use pic_core::PicError;
use sfc::Ordering;
use std::time::Instant;

const STEPS: usize = 8;
const GRID: usize = 32;
const WEAK_PER_RANK: usize = 4_000;
const STRONG_TOTAL: usize = 16_000;
const RANK_COUNTS: [usize; 3] = [2, 4, 8];
const REPL_TAG: u64 = 1 << 40;

fn base_cfg(n: usize) -> PicConfig {
    let mut cfg = PicConfig::landau_table1(n);
    cfg.grid_nx = GRID;
    cfg.grid_ny = GRID;
    cfg.ordering = Ordering::Morton;
    cfg.sort_period = 2;
    cfg
}

/// One (mode, ranks) measurement.
struct Sample {
    mode: &'static str,
    ranks: usize,
    n_total: usize,
    secs: f64,
    /// Per-rank logical bytes (sent + received) over all steps, init
    /// excluded.
    bytes_per_rank: Vec<u64>,
    /// Decomposition only: halo, solve and migration totals summed over
    /// ranks.
    phases: Option<[u64; 3]>,
}

impl Sample {
    fn per_rank_step(&self, total: u64) -> f64 {
        total as f64 / self.ranks as f64 / STEPS as f64
    }

    fn avg_bytes_per_rank_step(&self) -> f64 {
        self.per_rank_step(self.bytes_per_rank.iter().sum())
    }

    /// The gated volume: every byte of a replicated run, the halo and
    /// migration bytes of a decomposed one.
    fn gated_bytes_per_rank_step(&self) -> f64 {
        match self.phases {
            Some([halo, _, migrate]) => self.per_rank_step(halo + migrate),
            None => self.avg_bytes_per_rank_step(),
        }
    }

    fn max_bytes_per_rank_step(&self) -> f64 {
        *self.bytes_per_rank.iter().max().unwrap() as f64 / STEPS as f64
    }
}

fn run_replicated(ranks: usize, n_total: usize) -> Sample {
    let t = Instant::now();
    let bytes = World::run(ranks, move |comm| {
        let id = comm.rank();
        let per = n_total / ranks;
        let mut cfg = base_cfg(n_total);
        cfg.keep_range = Some((id * per, (id + 1) * per));
        let mut sim = Simulation::new_with_reduce(cfg, |rho| {
            comm.try_allreduce_sum_tree(rho, REPL_TAG).unwrap()
        })
        .unwrap();
        comm.reset_data_volume();
        for step in 0..STEPS as u64 {
            sim.step_with_reduce(|rho| {
                comm.try_allreduce_sum_tree(rho, REPL_TAG + 1 + step)
                    .unwrap()
            });
        }
        comm.bytes_sent() + comm.bytes_received()
    });
    Sample {
        mode: "replicated",
        ranks,
        n_total,
        secs: t.elapsed().as_secs_f64(),
        bytes_per_rank: bytes,
        phases: None,
    }
}

fn run_decomposed(ranks: usize, n_total: usize) -> Sample {
    let t = Instant::now();
    let out = World::run(ranks, move |comm| {
        let mut dsim =
            DecomposedSimulation::new(base_cfg(n_total), DecompConfig::default(), comm).unwrap();
        dsim.run(STEPS, comm).unwrap();
        let s = dsim.stats();
        (
            s.total_bytes(),
            [s.halo_bytes, s.solve_bytes, s.migrate_bytes],
        )
    });
    let mut phases = [0u64; 3];
    for (_, p) in &out {
        for (acc, v) in phases.iter_mut().zip(p) {
            *acc += v;
        }
    }
    Sample {
        mode: "decomposed",
        ranks,
        n_total,
        secs: t.elapsed().as_secs_f64(),
        bytes_per_rank: out.into_iter().map(|(b, _)| b).collect(),
        phases: Some(phases),
    }
}

fn sample_json(s: &Sample) -> Json {
    let mut fields = vec![
        ("mode".to_string(), Json::s(s.mode)),
        ("ranks".to_string(), Json::Int(s.ranks as i64)),
        ("particles".to_string(), Json::Int(s.n_total as i64)),
        ("secs".to_string(), Json::Num(s.secs)),
        (
            "avg_bytes_per_rank_step".to_string(),
            Json::Num(s.avg_bytes_per_rank_step()),
        ),
        (
            "max_bytes_per_rank_step".to_string(),
            Json::Num(s.max_bytes_per_rank_step()),
        ),
    ];
    if let Some([halo, solve, migrate]) = s.phases {
        fields.push((
            "phase_bytes_total".to_string(),
            Json::Obj(vec![
                ("halo".to_string(), Json::Int(halo as i64)),
                ("solve".to_string(), Json::Int(solve as i64)),
                ("migrate".to_string(), Json::Int(migrate as i64)),
            ]),
        ));
        fields.push((
            "halo_migrate_bytes_per_rank_step".to_string(),
            Json::Num(s.gated_bytes_per_rank_step()),
        ));
        fields.push((
            "solve_bytes_per_rank_step".to_string(),
            Json::Num(s.per_rank_step(solve)),
        ));
    }
    Json::Obj(fields)
}

/// Run one scaling regime, returning (samples, gate violations).
fn regime(name: &str, n_of_ranks: impl Fn(usize) -> usize) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::new();
    let mut violations = Vec::new();
    let mut table = Table::new(&[
        "ranks",
        "mode",
        "particles",
        "secs",
        "B/rank/step avg",
        "B/rank/step max",
        "gated B/rank/step",
        "solve B/rank/step",
    ]);
    for &ranks in &RANK_COUNTS {
        let n = n_of_ranks(ranks);
        let repl = run_replicated(ranks, n);
        let dec = run_decomposed(ranks, n);
        for s in [&repl, &dec] {
            table.row(&[
                s.ranks.to_string(),
                s.mode.to_string(),
                s.n_total.to_string(),
                format!("{:.3}", s.secs),
                format!("{:.0}", s.avg_bytes_per_rank_step()),
                format!("{:.0}", s.max_bytes_per_rank_step()),
                format!("{:.0}", s.gated_bytes_per_rank_step()),
                s.phases.map_or("-".to_string(), |[_, solve, _]| {
                    format!("{:.0}", s.per_rank_step(solve))
                }),
            ]);
        }
        if ranks >= 4 && dec.gated_bytes_per_rank_step() >= repl.gated_bytes_per_rank_step() {
            violations.push(format!(
                "{name} @ {ranks} ranks: decomposed halo + migration {:.0} B/rank/step >= \
                 replicated {:.0}",
                dec.gated_bytes_per_rank_step(),
                repl.gated_bytes_per_rank_step()
            ));
        }
        samples.push(repl);
        samples.push(dec);
    }
    println!("\n{name} scaling ({GRID}x{GRID} grid, {STEPS} steps):");
    print!("{}", table.render());
    (samples, violations)
}

fn main() -> std::process::ExitCode {
    pic_bench::exit_on_error(run)
}

fn run() -> Result<(), PicError> {
    let (weak, v1) = regime("weak", |ranks| WEAK_PER_RANK * ranks);
    let (strong, v2) = regime("strong", |_| STRONG_TOTAL);

    let json = Json::obj([
        ("grid", Json::Arr(vec![Json::Int(GRID as i64); 2])),
        ("steps", Json::Int(STEPS as i64)),
        ("weak", Json::Arr(weak.iter().map(sample_json).collect())),
        (
            "strong",
            Json::Arr(strong.iter().map(sample_json).collect()),
        ),
        (
            "gate",
            Json::s(
                "decomposed halo + migration avg B/rank/step < replicated at 4+ ranks \
                 (slab solve bytes reported, not gated)",
            ),
        ),
    ]);
    let path = results_path("BENCH_scaling.json");
    write_json_file(&path, &json).map_err(|e| PicError::Io(format!("{}: {e}", path.display())))?;
    println!("\nwrote {}", path.display());

    let violations: Vec<String> = v1.into_iter().chain(v2).collect();
    if !violations.is_empty() {
        return Err(PicError::Diverged(format!(
            "comm-volume gate failed: {}",
            violations.join("; ")
        )));
    }
    println!("gate passed: halo + migration volume undercuts the replicated allreduce at 4+ ranks");
    Ok(())
}
