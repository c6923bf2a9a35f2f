//! The metric registry — every name `BENCHMARK.json` declares, with unit,
//! direction and bound — and the assembly of a run's report from samples.

use crate::json::{obj, Json};
use crate::stats::{median, quiet_decile, tail, tail_rank};
use crate::workloads::{EndToEnd, Layers};

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Same definition on every workload.
///
/// The driver refuses the benchmark when ten runs of a workload spread by
/// more than a bound. On the sizing host ten seeds spread a timing by 2–3 %
/// in a steady quarter of an hour and by 7–13 % when the host's level
/// drifts (`baseline/spread.md`, sets 7 to 9), and three runs of ten inside
/// one of its slow episodes would read 30 %: the timing bounds are the 0.25
/// `BENCHMARK.json` may declare at most. The resident set repeats within
/// 0.1 % on the workloads of `BENCHMARK.json`.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("particles_per_s", "1/s", "higher", 0.25),
    e2e("step_ms_p50", "ms", "lower", 0.25),
    e2e("step_ms_tail", "ms", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.05),
    e2e("job_latency_ms_p50", "ms", "lower", 0.25),
];

/// Single layers, timed from outside. No bounds: they explain a change in
/// an end-to-end metric, they do not gate one.
pub const PER_LAYER: [Metric; 62] = [
    layer("bench.trace_overhead_frac", "frac", "lower"),
    layer("host.triad_gbps_l3", "GB/s", "higher"),
    layer("host.triad_gbps_dram", "GB/s", "higher"),
    layer("host.triad_gbps_dram_2t", "GB/s", "higher"),
    layer("core.kernels.kick_ns_pp", "ns", "lower"),
    layer("core.kernels.push_ns_pp", "ns", "lower"),
    layer("core.kernels.deposit_ns_pp", "ns", "lower"),
    layer("core.kernels.boris_ns_pp", "ns", "lower"),
    layer("core.kernels.current_ns_pp", "ns", "lower"),
    layer("core.kernels.bytes_pp", "B", "lower"),
    layer("core.kernels.kick_bw_frac", "frac", "higher"),
    layer("core.kernels.push_bw_frac", "frac", "higher"),
    layer("core.kernels.deposit_bw_frac", "frac", "higher"),
    layer("core.kernels.uniform_block_frac", "frac", "higher"),
    layer("core.sort.sort_ns_pp", "ns", "lower"),
    layer("core.sort.sorts_per_100_steps", "count", "lower"),
    layer("core.sort.sort_step_extra_ms", "ms", "lower"),
    layer("core.sort.jump_frac_at_sort", "frac", "lower"),
    layer("core.fields.rho_reduce_ms", "ms", "lower"),
    layer("core.fields.e_fill_ms", "ms", "lower"),
    layer("core.fields.worker_rho_reduce_ms", "ms", "lower"),
    layer("spectral.solve_ms", "ms", "lower"),
    layer("spectral.solve_pooled_ms", "ms", "lower"),
    layer("spectral.pooled_speedup", "ratio", "higher"),
    layer("spectral.fft2_roundtrip_ms", "ms", "lower"),
    layer("core.pool.forkjoin_us", "us", "lower"),
    layer("core.pool.scaling_eff_2t", "frac", "higher"),
    layer("core.control.probe_us", "us", "lower"),
    layer("core.control.switches", "count", "lower"),
    layer("core.control.steady_cost_ratio", "ratio", "lower"),
    layer("core.sim.pre_reduce_ms_p50", "ms", "lower"),
    layer("core.sim.post_reduce_ms_p50", "ms", "lower"),
    layer("core.sim.diag_ms", "ms", "lower"),
    layer("core.sim.unattributed_frac", "frac", "lower"),
    layer("core.sim.allocs_per_step", "count", "lower"),
    layer("core.em.pre_reduce_ms_p50", "ms", "lower"),
    layer("core.em.post_reduce_ms_p50", "ms", "lower"),
    layer("core.em.moments_ms", "ms", "lower"),
    layer("core.checkpoint.encode_mbps", "MB/s", "higher"),
    layer("core.checkpoint.restore_mbps", "MB/s", "higher"),
    layer("core.checkpoint.bytes_pp", "B", "lower"),
    layer("minimpi.allreduce_us", "us", "lower"),
    layer("minimpi.pingpong_us", "us", "lower"),
    layer("minimpi.p2p_mbps", "MB/s", "higher"),
    layer("minimpi.retries", "count", "lower"),
    layer("decomp.halo_bytes_per_step", "B", "lower"),
    layer("decomp.solve_bytes_per_step", "B", "lower"),
    layer("decomp.migrate_bytes_per_step", "B", "lower"),
    layer("decomp.migrated_frac_per_step", "frac", "lower"),
    layer("decomp.load_imbalance", "ratio", "lower"),
    layer("decomp.step_skew_ms", "ms", "lower"),
    layer("decomp.speedup_vs_serial", "ratio", "higher"),
    layer("serve.overhead_ratio", "ratio", "lower"),
    layer("serve.jobs_done_frac", "frac", "higher"),
    layer("serve.preemptions", "count", "lower"),
    layer("serve.restores", "count", "lower"),
    layer("serve.cache_hit_frac", "frac", "higher"),
    layer("sfc.encode_ns_per_cell", "ns", "lower"),
    layer("cachesim.l1_miss_pp", "count", "lower"),
    layer("cachesim.l2_miss_pp", "count", "lower"),
    layer("cachesim.l3_miss_pp", "count", "lower"),
    // Self time of the harness's `step` span (span minus its two children):
    // what the harness itself spends between the halves of a traced step.
    layer("bench.step_self_ms_p50", "ms", "lower"),
];

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// What one block of the measured region reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub particles_per_s: f64,
    pub step_ms_p50: f64,
    pub step_ms_tail: f64,
    pub job_latency_ms: f64,
}

/// The measured region cut into its blocks, and the percentile a block's
/// tail stands for. A simulation's block is `block_steps` consecutive steps
/// and counts as one job; a run without blocks (`serve_fleet`'s batch) is one
/// block over its makespan and its jobs.
fn blocks(e: &EndToEnd) -> (Vec<Block>, f64) {
    if e.block_steps == 0 || e.step_ms.len() < e.block_steps {
        let (step_ms_tail, percentile) = tail(&e.step_ms, tail_rank(1));
        let one = Block {
            particles_per_s: if e.wall_s > 0.0 {
                e.particle_steps / e.wall_s
            } else {
                0.0
            },
            step_ms_p50: median(&e.step_ms),
            step_ms_tail,
            job_latency_ms: median(&e.job_latency_ms),
        };
        return (vec![one], percentile);
    }
    let chunks = e.step_ms.chunks_exact(e.block_steps);
    let rank = tail_rank(chunks.len());
    let particles_per_step = e.particle_steps / e.ops_attempted.max(1) as f64;
    let mut percentile = 0.0;
    let blocks = chunks
        .map(|ms| {
            let total_ms: f64 = ms.iter().sum();
            let (step_ms_tail, p) = tail(ms, rank);
            percentile = p;
            Block {
                particles_per_s: particles_per_step * ms.len() as f64 / (total_ms / 1e3),
                step_ms_p50: median(ms),
                step_ms_tail,
                job_latency_ms: total_ms,
            }
        })
        .collect();
    (blocks, percentile)
}

/// The end-to-end values of one run, in declaration order, with the sample
/// count behind each, the blocks the timings are the quiet decile of, and
/// the percentile a block's tail stands for.
pub struct EndToEndValues {
    pub values: [f64; 6],
    pub samples: [usize; 6],
    pub blocks: Vec<Block>,
    pub tail_percentile: f64,
}

pub fn end_to_end_values(e: &EndToEnd, peak_rss_mib: f64) -> EndToEndValues {
    let (blocks, tail_percentile) = blocks(e);
    let over_blocks = |f: fn(&Block) -> f64, lower_is_better: bool| {
        quiet_decile(&blocks.iter().map(f).collect::<Vec<f64>>(), lower_is_better)
    };
    EndToEndValues {
        values: [
            median(&e.setup_s),
            over_blocks(|b| b.particles_per_s, false),
            over_blocks(|b| b.step_ms_p50, true),
            over_blocks(|b| b.step_ms_tail, true),
            peak_rss_mib,
            over_blocks(|b| b.job_latency_ms, true),
        ],
        samples: [
            e.setup_s.len(),
            e.step_ms.len(),
            e.step_ms.len(),
            e.step_ms.len(),
            1,
            e.job_latency_ms.len().max(blocks.len()),
        ],
        tail_percentile,
        blocks,
    }
}

/// `"metrics"` of the driver line for an untraced run.
pub fn end_to_end_metrics(v: &EndToEndValues) -> Json {
    Json::Obj(
        END_TO_END
            .iter()
            .zip(v.values)
            .map(|(m, x)| (m.name.to_string(), metric(x, m.unit)))
            .collect(),
    )
}

/// `"metrics"` of the driver line for a traced run: every declared layer
/// metric; a layer the workload does not run reads 0.
pub fn per_layer_metrics(l: &Layers) -> Json {
    Json::Obj(
        PER_LAYER
            .iter()
            .map(|m| {
                let x = l.values.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), metric(x, m.unit))
            })
            .collect(),
    )
}

/// The last line of standard output: exactly the keys the driver reads.
pub fn driver_line(e: &EndToEnd, metrics: Json) -> Json {
    obj([
        ("correct", e.failures.is_empty().into()),
        ("attempted", e.ops_attempted.max(1).into()),
        ("failed", e.ops_failed().into()),
        ("metrics", metrics),
    ])
}

/// The detailed form of the end-to-end metrics: bound, direction and sample
/// count beside every value.
pub fn end_to_end_detail(v: &EndToEndValues) -> Json {
    Json::Arr(
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut fields = vec![
                    ("name".to_string(), m.name.into()),
                    ("value".to_string(), v.values[i].into()),
                    ("unit".to_string(), m.unit.into()),
                    ("better".to_string(), m.better.into()),
                    ("bound".to_string(), m.bound.into()),
                    ("samples".to_string(), v.samples[i].into()),
                ];
                if m.name == "step_ms_tail" {
                    fields.push(("percentile".to_string(), v.tail_percentile.into()));
                }
                // The blocks the value is the quiet decile of, in run
                // order: how the host's load moved during the run.
                let of_block: Option<fn(&Block) -> f64> = match m.name {
                    "particles_per_s" => Some(|b| b.particles_per_s),
                    "step_ms_p50" => Some(|b| b.step_ms_p50),
                    "step_ms_tail" => Some(|b| b.step_ms_tail),
                    "job_latency_ms_p50" => Some(|b| b.job_latency_ms),
                    _ => None,
                };
                if let Some(f) = of_block {
                    fields.push((
                        "blocks".to_string(),
                        Json::Arr(v.blocks.iter().map(|b| f(b).into()).collect()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` at the repository root, one level above this package.
    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Json, k: &str) -> &'a str {
        v.get(k).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let b = declared();
        let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better, "{}", m.name);
            assert_eq!(
                d.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (d, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better, "{}", m.name);
            assert_eq!(
                d.as_obj().unwrap().len(),
                3,
                "{}: no bound on a layer",
                m.name
            );
        }
        // The workloads the driver runs; the others run by name only.
        let w = b.get("workloads").and_then(Json::as_arr).unwrap();
        let driven: Vec<_> = SPECS.iter().filter(|s| s.driver).collect();
        assert_eq!(w.len(), driven.len());
        for (d, s) in w.iter().zip(driven) {
            assert_eq!(field(d, "name"), s.name);
            assert_eq!(field(d, "why"), s.why);
        }
        assert_eq!(
            b.get("run_seconds").and_then(Json::as_f64),
            Some(crate::workloads::RUN_SECONDS)
        );
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for s in &SPECS {
            assert!(ok_name(s.name));
            assert!(seen.insert(s.name), "{} collides with a metric", s.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let e = EndToEnd {
            setup_s: vec![0.5, 0.25, 0.75],
            step_ms: (1..=40).map(f64::from).collect(),
            block_steps: 0,
            particle_steps: 4.0e7,
            wall_s: 0.5,
            job_latency_ms: vec![500.0],
            ops_attempted: 40,
            failures: Vec::new(),
        };
        // one block: the whole run, the 11th-largest step
        let v = end_to_end_values(&e, 123.5);
        assert_eq!(v.values, [0.5, 8.0e7, 20.5, 30.0, 123.5, 500.0]);
        assert_eq!(v.tail_percentile, 72.5);
        let line = driver_line(&e, end_to_end_metrics(&v));
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        let m = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[3].1, obj([("value", 30.0.into()), ("unit", "ms".into())]));
        // A failed check fails every operation of the run.
        let bad = EndToEnd {
            failures: vec!["charge drifted".into()],
            ..e
        };
        let line = driver_line(&bad, Json::Obj(Vec::new()));
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(40.0));
    }

    #[test]
    fn timings_are_those_of_the_quiet_blocks() {
        // Five blocks of eight steps at 1 ms with one 5 ms sort step each;
        // a neighbour triples every step of the last three blocks.
        let mut step_ms = Vec::new();
        for block in 0..5 {
            let slow = if block >= 2 { 3.0 } else { 1.0 };
            step_ms.extend((0..8).map(|i| slow * if i == 7 { 5.0 } else { 1.0 }));
        }
        let e = EndToEnd {
            setup_s: vec![0.5],
            step_ms,
            block_steps: 8,
            particle_steps: 40.0 * 1.0e6,
            wall_s: 0.1,
            ops_attempted: 40,
            ..EndToEnd::default()
        };
        let v = end_to_end_values(&e, 10.0);
        assert_eq!(v.blocks.len(), 5);
        // a quiet block: 8 steps of 1 M particles in 12 ms
        let quiet = Block {
            particles_per_s: 8.0e6 / 12.0e-3,
            step_ms_p50: 1.0,
            step_ms_tail: 1.0, // third largest of the block: ten beyond over the run
            job_latency_ms: 12.0,
        };
        assert_eq!(v.blocks[0], quiet);
        assert_eq!(v.blocks[4].step_ms_p50, 3.0);
        assert_eq!(v.values, [0.5, quiet.particles_per_s, 1.0, 1.0, 10.0, 12.0]);
        assert_eq!(v.tail_percentile, 62.5);
        assert_eq!(v.samples, [1, 40, 40, 40, 1, 5]);
    }

    #[test]
    fn traced_line_lists_every_layer_metric() {
        let mut l = Layers::default();
        l.set("spectral.solve_ms", 1.25);
        let m = per_layer_metrics(&l);
        let m = m.as_obj().unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        let solve = m.iter().find(|(k, _)| k == "spectral.solve_ms").unwrap();
        assert_eq!(solve.1.get("value").unwrap().as_f64(), Some(1.25));
        // not on this workload's path
        let moments = m.iter().find(|(k, _)| k == "core.em.moments_ms").unwrap();
        assert_eq!(moments.1.get("value").unwrap().as_f64(), Some(0.0));
    }
}
