//! `pic-benchmark` — the benchmark `BENCHMARK.json` names.
//!
//! Two ways to call it (through `run.sh`, which builds it first):
//!
//! * **One run**, as the driver does:
//!   `--workload W --seed N --seconds S --trace 0|1`. A fresh process runs
//!   one workload once and prints, as the last line of standard output, one
//!   JSON object `{correct, attempted, failed, metrics}` — the end-to-end
//!   metrics when untraced, every per-layer metric when traced. The line
//!   before it is the full report (envelope, inputs, bounds, sample counts),
//!   also written to `out/`.
//! * **The suite**: no `--trace`. Runs every workload (or `--workload W`)
//!   once untraced and once traced, each in a child process, and prints
//!   every metric by name. `--sets K` instead runs the untraced pass K times
//!   and holds the differences against the bounds. `--smoke` shrinks
//!   everything to 1/20 for a functional pass.

#![deny(unsafe_code)]

mod alloc;
mod host;
mod json;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Params, Spec, TraceCtx, DEFAULT_SEED, RUN_SECONDS, SPECS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Spans a traced run may record (40 B each); beyond it they are dropped
/// and counted, never reallocated mid-measurement.
const SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    sets: Option<usize>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1   (one run)\n\
         \x20      run.sh [--workload W] [--seed N] [--smoke] [--sets K]   (suite)\n\
         workloads: {}",
        names.join(" ")
    )
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        sets: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                a.seed = parse_seed(&v).ok_or(format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                })
            }
            "--sets" => {
                let v = value("--sets")?;
                a.sets = Some(
                    v.parse()
                        .ok()
                        .filter(|k| (2..=20).contains(k))
                        .ok_or(format!("bad --sets {v} (2..=20)"))?,
                );
            }
            "--out-dir" => a.out_dir = PathBuf::from(value("--out-dir")?),
            "--smoke" => a.smoke = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if let Some(w) = &a.workload {
        if workloads::find(w).is_none() {
            return Err(format!("unknown workload {w}\n{}", usage()));
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err(format!("--trace needs --workload\n{}", usage()));
    }
    Ok(a)
}

fn write_file(dir: &Path, name: &str, text: &str) {
    let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = res {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

/// One run of one workload in this process. Prints the full report line and
/// then the driver line.
fn single(spec: &Spec, a: &Args, traced: bool) -> ExitCode {
    let started = Instant::now();
    let params = Params {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
    };

    let mut ctx = traced.then(|| {
        // Calibrate first: the triads are the denominators of the
        // bandwidth shares and a record of how loaded the host was.
        let t = Instant::now();
        let calib = host::calibrate(a.smoke);
        let calibrate_s = t.elapsed().as_secs_f64();
        let mut ctx = TraceCtx {
            tracer: trace::Tracer::with_capacity(SPAN_CAPACITY),
            calib,
            layers: workloads::Layers::default(),
        };
        ctx.layers.set("host.triad_gbps_l3", calib.l3.gbps);
        ctx.layers.set("host.triad_gbps_dram", calib.dram.gbps);
        ctx.layers
            .set("host.triad_gbps_dram_2t", calib.dram_2t.gbps);
        workloads::decomp::minimpi_layers(&mut ctx.layers);
        ctx.layers.note("calibrate_s", calibrate_s.into());
        ctx
    });

    let e2e = workloads::run(spec, &params, ctx.as_mut());
    for f in &e2e.failures {
        eprintln!("check failed [{}]: {f}", spec.name);
    }

    let values = report::end_to_end_values(&e2e, host::peak_rss_mib());
    let mut full = vec![
        ("envelope".to_string(), host::envelope()),
        ("inputs".to_string(), workloads::describe(spec, &params)),
        ("traced".to_string(), traced.into()),
        ("ops_attempted".to_string(), e2e.ops_attempted.into()),
        ("ops_failed".to_string(), e2e.ops_failed().into()),
        (
            "failures".to_string(),
            Json::Arr(e2e.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
    ];
    let metrics = match &mut ctx {
        None => {
            full.push(("end_to_end".to_string(), report::end_to_end_detail(&values)));
            report::end_to_end_metrics(&values)
        }
        Some(ctx) => {
            let spans = ctx.tracer.spans();
            let selfs = trace::self_times_ns(spans);
            let step_self: Vec<f64> = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == "step")
                .map(|(_, &ns)| ns as f64 / 1e6)
                .collect();
            ctx.layers
                .set("bench.step_self_ms_p50", stats::median(&step_self));
            if let Some(unknown) = ctx
                .layers
                .values
                .keys()
                .find(|k| !report::PER_LAYER.iter().any(|m| m.name == **k))
            {
                eprintln!("error: layer metric {unknown} is not declared in report.rs");
                return ExitCode::from(2);
            }
            write_file(
                &a.out_dir,
                &format!("trace-{}.json", spec.name),
                &trace::chrome_trace(spans, spec.name).to_line(),
            );
            full.push(("calibration".to_string(), ctx.calib.to_json()));
            full.push(("spans_recorded".to_string(), spans.len().into()));
            full.push(("spans_dropped".to_string(), ctx.tracer.dropped().into()));
            full.push((
                "detail".to_string(),
                Json::Obj(std::mem::take(&mut ctx.layers.detail)),
            ));
            let m = report::per_layer_metrics(&ctx.layers);
            full.push(("per_layer".to_string(), m.clone()));
            m
        }
    };
    full.push((
        "invocation_wall_s".to_string(),
        started.elapsed().as_secs_f64().into(),
    ));
    let full = Json::Obj(full).to_line();
    write_file(
        &a.out_dir,
        &format!("run-{}-trace{}.json", spec.name, traced as u8),
        &full,
    );
    println!("{full}");
    println!("{}", report::driver_line(&e2e, metrics).to_line());
    ExitCode::SUCCESS
}

/// The two result lines of a child run.
struct Child {
    full: Json,
    line: Json,
}

impl Child {
    fn correct(&self) -> bool {
        self.line.get("correct") == Some(&Json::Bool(true))
    }
}

/// Run one workload in a fresh process and parse its two result lines.
fn spawn(spec: &Spec, a: &Args, seed: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&a.out_dir);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let line = lines.next().ok_or("child printed nothing")?;
    let full = lines.next().ok_or("child printed one line")?;
    Ok(Child {
        full: Json::parse(full)?,
        line: Json::parse(line)?,
    })
}

fn chosen(a: &Args) -> Vec<&'static Spec> {
    SPECS
        .iter()
        .filter(|s| a.workload.as_deref().is_none_or(|w| w == s.name))
        .collect()
}

fn metric_value(line: &Json, name: &str) -> Option<f64> {
    line.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload once untraced and once traced; every metric printed by
/// name, as text on standard error and as one JSON document on standard
/// output and in `out/suite.json`.
fn suite(a: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut ok = true;
    // Untraced rate by workload, for the metric that spans two of them.
    let mut rates = std::collections::BTreeMap::new();
    for spec in chosen(a) {
        for traced in [false, true] {
            let t = Instant::now();
            match spawn(spec, a, a.seed, traced) {
                Ok(c) => {
                    let correct = c.correct();
                    ok &= correct;
                    eprintln!(
                        "== {} {} ({:.1} s) correct={correct}",
                        spec.name,
                        if traced { "traced" } else { "untraced" },
                        t.elapsed().as_secs_f64()
                    );
                    let defs: &[report::Metric] = if traced {
                        &report::PER_LAYER
                    } else {
                        &report::END_TO_END
                    };
                    for m in defs {
                        let v = metric_value(&c.line, m.name).unwrap_or(f64::NAN);
                        eprintln!("   {:<36} {:>16.6} {}", m.name, v, m.unit);
                    }
                    if let (false, Some(r)) = (traced, metric_value(&c.line, "particles_per_s")) {
                        rates.insert(spec.name, r);
                    }
                    runs.push(c.full);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    // `core.control.steady_cost_ratio` is landau_adaptive's wall over
    // landau_steady's: the same input and step count, so the inverse ratio
    // of the two untraced rates. One run alone cannot know it and reads 0.
    let mut derived = Vec::new();
    if let Some(ratio) = steady_cost_ratio(
        rates.get("landau_adaptive").copied(),
        rates.get("landau_steady").copied(),
    ) {
        eprintln!(
            "== derived\n   {:<36} {:>16.6} ratio",
            "core.control.steady_cost_ratio", ratio
        );
        derived.push((
            "core.control.steady_cost_ratio".to_string(),
            obj([("value", ratio.into()), ("unit", "ratio".into())]),
        ));
    }
    let doc = obj([
        ("envelope", host::envelope()),
        ("seed", a.seed.into()),
        ("smoke", a.smoke.into()),
        ("runs", Json::Arr(runs)),
        ("derived", Json::Obj(derived)),
    ])
    .to_line();
    write_file(&a.out_dir, "suite.json", &doc);
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The controller's cost where it has nothing to adapt to: wall of the
/// adaptive run over wall of the steady run, from their rates.
fn steady_cost_ratio(adaptive_rate: Option<f64>, steady_rate: Option<f64>) -> Option<f64> {
    match (adaptive_rate, steady_rate) {
        (Some(a), Some(s)) if a > 0.0 && s > 0.0 => Some(s / a),
        _ => None,
    }
}

/// `--sets K`: the untraced pass K times back to back; for every (metric,
/// workload) the largest worsening of a later set against the first, held
/// against the metric's bound. Non-zero exit on any excess.
fn sets(a: &Args, k: usize) -> ExitCode {
    let specs = chosen(a);
    // values[workload][metric][set]
    let mut values = vec![vec![Vec::new(); report::END_TO_END.len()]; specs.len()];
    let mut ok = true;
    for set in 0..k {
        for (w, spec) in specs.iter().enumerate() {
            match spawn(spec, a, a.seed, false) {
                Ok(c) => {
                    ok &= c.correct();
                    for (m, def) in report::END_TO_END.iter().enumerate() {
                        values[w][m].push(metric_value(&c.line, def.name).unwrap_or(f64::NAN));
                    }
                    eprintln!("set {} {} done", set + 1, spec.name);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut rows = Vec::new();
    eprintln!(
        "{:<22} {:<20} {:>14} {:>10} {:>8}",
        "workload", "metric", "first", "worsening", "bound"
    );
    for (w, spec) in specs.iter().enumerate() {
        for (m, def) in report::END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let worsening = v[1..]
                .iter()
                .map(|&x| worsening(v[0], x, def.better))
                .fold(f64::NEG_INFINITY, f64::max);
            let excess = stats::exceeds(worsening, def.bound);
            ok &= !excess;
            eprintln!(
                "{:<22} {:<20} {:>14.6} {:>+9.2}% {:>7.0}%{}",
                spec.name,
                def.name,
                v[0],
                100.0 * worsening,
                100.0 * def.bound,
                if excess { "  EXCESS" } else { "" }
            );
            rows.push(obj([
                ("workload", spec.name.into()),
                ("metric", def.name.into()),
                ("unit", def.unit.into()),
                ("values", Json::Arr(v.iter().map(|&x| x.into()).collect())),
                ("worsening", worsening.into()),
                ("spread_iqr", stats::iqr_share(v).into()),
                ("bound", def.bound.into()),
                ("excess", excess.into()),
            ]));
        }
    }
    let doc = obj([
        ("envelope", host::envelope()),
        ("seed", a.seed.into()),
        ("sets", k.into()),
        ("smoke", a.smoke.into()),
        ("rows", Json::Arr(rows)),
    ])
    .to_line();
    write_file(&a.out_dir, "aa.json", &doc);
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `later` is than `first`, as a share of `first`; negative
/// when it is better.
fn worsening(first: f64, later: f64, better: &str) -> f64 {
    let d = (later - first) / first.abs();
    if better == "higher" {
        -d
    } else {
        d
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (a.trace, a.sets) {
        (Some(traced), _) => {
            let name = a.workload.as_deref().expect("checked by parse_args");
            let spec = workloads::find(name).expect("checked by parse_args");
            single(spec, &a, traced)
        }
        (None, Some(k)) => sets(&a, k),
        (None, None) => suite(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload fine_grid --seed 17 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fine_grid"));
        assert_eq!((a.seed, a.seconds, a.trace), (17, 5.0, Some(true)));
        let a = parse_args(&argv("--seed 0xB1C0DE --smoke --sets 3")).unwrap();
        assert_eq!((a.seed, a.smoke, a.sets), (DEFAULT_SEED, true, Some(3)));
        assert!(a.trace.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--trace 0",
            "--trace 2 --workload fine_grid",
            "--seconds 0",
            "--seconds nan",
            "--seed x",
            "--sets 1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn steady_cost_needs_both_rates() {
        // the adaptive run 10 % slower: its wall is 1.1× the steady one
        let r = steady_cost_ratio(Some(1.0e8), Some(1.1e8)).unwrap();
        assert!((r - 1.1).abs() < 1e-12);
        assert_eq!(steady_cost_ratio(None, Some(1.0e8)), None);
        assert_eq!(steady_cost_ratio(Some(0.0), Some(1.0e8)), None);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, f64::NAN, "lower").is_nan());
    }
}
