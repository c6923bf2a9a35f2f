//! The single-process workloads: `Simulation` (electrostatic) and
//! `EmSimulation` (multi-species) driven through one small trait, so the
//! run protocol — construct, warm up, measure, check, replay — is written
//! once for both step engines.

use super::{
    next_step_sorts, trace_overhead, EndToEnd, Kind, Params, Spec, TraceCtx, TRACE_BLOCK as BLOCK,
};
use crate::alloc;
use crate::replay::{self, time_median, LayerMs, Mover, State, CALLS, LARGE_N};
use crate::stats::{exceeds, median};
use crate::trace::{durations_ms, NO_PARENT};
use pic_core::control::{self, ControllerConfig, HotPathController};
use pic_core::em::{EmConfig, EmSimulation};
use pic_core::fields::Field2D;
use pic_core::grid::Grid2D;
use pic_core::sim::{Diagnostics, PicConfig, Simulation, ME, QE};
use std::hint::black_box;
use std::time::Instant;

/// What the run protocol needs from a step engine.
pub trait Engine {
    fn step(&mut self);
    fn step_pre_reduce(&mut self);
    fn step_post_reduce(&mut self);
    fn steps(&self) -> usize;
    fn diagnostics(&self) -> &Diagnostics;
    fn total_charge(&self) -> f64;
    fn charge_reference(&self) -> f64;
    fn rho(&self) -> &[f64];
    fn controller(&self) -> Option<&HotPathController>;
    fn sort_period(&self) -> usize;
    fn particle_count(&self) -> usize;
    /// The `icell` array of the largest particle population.
    fn icell(&self) -> &[u32];
    fn ncells(&self) -> usize;
    /// Every particle and field value is finite.
    fn all_finite(&self) -> bool;
    /// The per-step diagnostics pass: kinetic plus field energy.
    fn energy(&self) -> f64;
    fn switch_events(&mut self) -> usize;
    fn checkpoint(&self) -> Vec<u8>;
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), pic_core::PicError>;
    fn reserve_diagnostics(&mut self, _n: usize) {}
}

fn finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

impl Engine for Simulation {
    fn step(&mut self) {
        Simulation::step(self)
    }
    fn step_pre_reduce(&mut self) {
        Simulation::step_pre_reduce(self)
    }
    fn step_post_reduce(&mut self) {
        Simulation::step_post_reduce(self)
    }
    fn steps(&self) -> usize {
        Simulation::steps(self)
    }
    fn diagnostics(&self) -> &Diagnostics {
        Simulation::diagnostics(self)
    }
    fn total_charge(&self) -> f64 {
        Simulation::total_charge(self)
    }
    fn charge_reference(&self) -> f64 {
        Simulation::charge_reference(self)
    }
    fn rho(&self) -> &[f64] {
        Simulation::rho(self)
    }
    fn controller(&self) -> Option<&HotPathController> {
        Simulation::controller(self)
    }
    fn sort_period(&self) -> usize {
        self.config().sort_period
    }
    fn particle_count(&self) -> usize {
        self.particles().len()
    }
    fn icell(&self) -> &[u32] {
        &self.particles().icell
    }
    fn ncells(&self) -> usize {
        self.grid().ncells()
    }
    fn all_finite(&self) -> bool {
        let p = self.particles();
        let (ex, ey) = self.e_field();
        [&p.dx, &p.dy, &p.vx, &p.vy].iter().all(|v| finite(v))
            && finite(self.rho())
            && finite(ex)
            && finite(ey)
    }
    fn energy(&self) -> f64 {
        self.kinetic_energy() + self.field_energy()
    }
    fn switch_events(&mut self) -> usize {
        self.take_hot_path_events().len()
    }
    fn checkpoint(&self) -> Vec<u8> {
        Simulation::checkpoint(self)
    }
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), pic_core::PicError> {
        Simulation::restore(self, snapshot)
    }
    fn reserve_diagnostics(&mut self, n: usize) {
        Simulation::reserve_diagnostics(self, n)
    }
}

impl Engine for EmSimulation {
    fn step(&mut self) {
        EmSimulation::step(self)
    }
    fn step_pre_reduce(&mut self) {
        EmSimulation::step_pre_reduce(self)
    }
    fn step_post_reduce(&mut self) {
        EmSimulation::step_post_reduce(self)
    }
    fn steps(&self) -> usize {
        EmSimulation::steps(self)
    }
    fn diagnostics(&self) -> &Diagnostics {
        EmSimulation::diagnostics(self)
    }
    fn total_charge(&self) -> f64 {
        EmSimulation::total_charge(self)
    }
    fn charge_reference(&self) -> f64 {
        EmSimulation::charge_reference(self)
    }
    fn rho(&self) -> &[f64] {
        EmSimulation::rho(self)
    }
    fn controller(&self) -> Option<&HotPathController> {
        EmSimulation::controller(self)
    }
    fn sort_period(&self) -> usize {
        self.config().sort_period
    }
    fn particle_count(&self) -> usize {
        self.species().iter().map(|s| s.len()).sum()
    }
    fn icell(&self) -> &[u32] {
        &self.species()[0].p.icell
    }
    fn ncells(&self) -> usize {
        self.grid().ncells()
    }
    fn all_finite(&self) -> bool {
        let (ex, ey) = self.e_field();
        let (jx, jy, jz) = self.j_field();
        self.species().iter().all(|s| {
            [&s.p.dx, &s.p.dy, &s.p.vx, &s.p.vy, &s.vz]
                .iter()
                .all(|v| finite(v))
        }) && [self.rho(), ex, ey, jx, jy, jz].iter().all(|v| finite(v))
    }
    fn energy(&self) -> f64 {
        self.kinetic_energy() + self.field_energy()
    }
    fn switch_events(&mut self) -> usize {
        self.take_hot_path_events().len()
    }
    fn checkpoint(&self) -> Vec<u8> {
        EmSimulation::checkpoint(self)
    }
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), pic_core::PicError> {
        EmSimulation::restore(self, snapshot)
    }
}

fn es_config(spec: &Spec, p: &Params) -> PicConfig {
    let n = p.particles(spec);
    let mut cfg = match spec.kind {
        Kind::TwoStreamAdaptive => PicConfig::two_stream(n),
        _ => PicConfig::landau_table1(n),
    };
    cfg.grid_nx = p.grid(spec);
    cfg.grid_ny = p.grid(spec);
    cfg.threads = spec.threads;
    cfg.seed = p.seed;
    let adaptive = matches!(spec.kind, Kind::LandauAdaptive | Kind::TwoStreamAdaptive);
    cfg.controller = adaptive.then(ControllerConfig::default);
    cfg
}

fn em_config(spec: &Spec, p: &Params) -> EmConfig {
    let mut cfg = EmConfig::magnetized_two_stream(p.particles(spec));
    cfg.grid_nx = p.grid(spec);
    cfg.grid_ny = p.grid(spec);
    cfg.threads = spec.threads;
    cfg.seed = p.seed;
    cfg
}

/// Run `n` steps with one `Instant` pair each, into preallocated `out`.
fn timed_steps<E: Engine>(e: &mut E, n: usize, out: &mut Vec<u64>) {
    for _ in 0..n {
        let t = Instant::now();
        e.step();
        out.push(t.elapsed().as_nanos() as u64);
    }
}

/// Steps to run so that `since` (steps since the last sort) becomes half of
/// `period`, without crossing more than one sort.
fn settle_steps(period: usize, since: usize) -> usize {
    if period < 2 {
        return 0;
    }
    (period / 2 + period - since % period) % period
}

/// Whether `e`'s next step begins with a sort.
fn sorts_next<E: Engine>(e: &E, period: usize) -> bool {
    next_step_sorts(period, e.steps(), e.controller().map(|c| c.should_sort()))
}

/// What the traced share of a run recorded besides its spans.
#[derive(Default)]
struct TracedSeries {
    /// Step times (ms) and sort flags of every measured step, both kinds, in
    /// run order.
    step_ms: Vec<f64>,
    sorted: Vec<bool>,
    /// `jump_frac` sampled just before each sort.
    jump_at_sort: Vec<f64>,
    /// Sum over traced steps of the share of lane blocks holding one cell.
    uniform_sum: f64,
    /// Step times (ms) of the traced steps alone.
    traced_step_ms: Vec<f64>,
    /// Allocations counted inside the untraced steps.
    allocs: u64,
    /// Wall seconds of the run's phases so far, for the report's detail.
    phases: Vec<(&'static str, f64)>,
}

/// Construct (timed, `setups` times), warm up, measure. Returns the samples
/// and the engine at its end state.
fn drive<E: Engine>(
    spec: &Spec,
    p: &Params,
    build: &dyn Fn() -> E,
    trace: &mut Option<&mut TraceCtx>,
) -> (EndToEnd, E, TracedSeries) {
    let mut e2e = EndToEnd::default();
    let steps = p.steps(spec);
    let warm = p.warm_steps(spec);

    // Set-up: each construction is dropped before the next, so the peak
    // resident set is that of one simulation.
    // A traced run does not report set-up time: it constructs once.
    let setups = if trace.is_some() { 1 } else { p.setups(spec) };
    let mut engine = None;
    for _ in 0..setups {
        drop(engine.take());
        let t = Instant::now();
        let mut e = build();
        e.reserve_diagnostics(warm + steps + 2 * BLOCK);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut e = engine.expect("at least one set-up");
    let n = e.particle_count();

    let t_warm = Instant::now();
    for _ in 0..warm {
        e.step();
    }

    let mut series = TracedSeries::default();
    series
        .phases
        .push(("construct_s", e2e.setup_s.iter().sum()));
    series
        .phases
        .push(("warm_up_s", t_warm.elapsed().as_secs_f64()));
    let t_measure = Instant::now();
    let mut step_ns: Vec<u64> = Vec::with_capacity(steps);
    match trace {
        None => {
            let t = Instant::now();
            timed_steps(&mut e, steps, &mut step_ns);
            e2e.wall_s = t.elapsed().as_secs_f64();
        }
        Some(ctx) => {
            // Untraced and traced steps alternate over the same evolving
            // state, so drift in the host and in the physics cancels out of
            // the overhead.
            let total = p.traced_steps(spec);
            let period = e.sort_period();
            let cells = e.ncells();
            let stride = ControllerConfig::default().stride;
            let root = ctx.tracer.begin("workload", NO_PARENT, 0);
            series.step_ms.reserve(total);
            series.sorted.reserve(total);
            series.jump_at_sort.reserve(total);
            series.traced_step_ms.reserve(total / 2);
            for i in 0..total {
                // The disorder samples are taken between the timed steps:
                // neither side of the overhead ratio holds them.
                let sorts = sorts_next(&e, period);
                series.sorted.push(sorts);
                if sorts {
                    let d = control::measure_disorder(e.icell(), 1, cells);
                    series.jump_at_sort.push(d.jump_frac);
                }
                let ns = if i % 2 == 0 {
                    // Exactly the loop body of an untraced run.
                    let a0 = alloc::count();
                    let t = Instant::now();
                    e.step();
                    let ns = t.elapsed().as_nanos() as u64;
                    series.allocs += alloc::count() - a0;
                    step_ns.push(ns);
                    ns
                } else {
                    // The two public halves of a step under spans.
                    let s = ctx.tracer.begin("step", root, 0);
                    let a = ctx.tracer.begin("pre_reduce", s, 0);
                    e.step_pre_reduce();
                    ctx.tracer.end(a);
                    let b = ctx.tracer.begin("post_reduce", s, 0);
                    e.step_post_reduce();
                    ctx.tracer.end(b);
                    let ns = ctx.tracer.end(s);
                    series.traced_step_ms.push(ns as f64 / 1e6);
                    series.uniform_sum +=
                        control::measure_disorder(e.icell(), stride, cells).uniform_block_frac;
                    ns
                };
                series.step_ms.push(ns as f64 / 1e6);
            }
            ctx.tracer.end(root);
            e2e.wall_s = series.step_ms.iter().sum::<f64>() / 1e3;
            // Leave the state mid-way between two sorts, where a run spends
            // its typical step, for the replay that follows. Above LARGE_N a
            // step costs 0.1 s and its time does not depend on the steps
            // since the sort: the state stays as the run left it.
            let (period, since) = match e.controller() {
                _ if n > LARGE_N => (0, 0),
                Some(c) => (c.last_period() as usize, c.steps_since_sort() as usize),
                None => (period, e.steps() % period.max(1)),
            };
            series
                .phases
                .push(("measured_s", t_measure.elapsed().as_secs_f64()));
            let t_settle = Instant::now();
            for _ in 0..settle_steps(period, since) {
                e.step();
            }
            series
                .phases
                .push(("settle_s", t_settle.elapsed().as_secs_f64()));
        }
    }

    // A traced run's rate is over every measured step, of both kinds; its
    // step samples are the untraced ones.
    let measured = step_ns.len().max(series.step_ms.len());
    e2e.step_ms = step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    e2e.block_steps = p.block_steps(spec);
    e2e.particle_steps = n as f64 * measured as f64;
    e2e.job_latency_ms = vec![e2e.wall_s * 1e3];
    e2e.ops_attempted = measured as u64;
    (e2e, e, series)
}

/// Checks every engine workload shares: finite state, conserved charge,
/// bounded energy drift.
fn common_checks<E: Engine>(e: &E, max_drift: f64, failures: &mut Vec<String>) {
    if !e.all_finite() {
        failures.push("non-finite particle or field value".into());
    }
    // Relative to the reference, or — for a neutral plasma, whose reference
    // is a rounding residue — to the charge of either sign on the grid.
    let (q, q0) = (e.total_charge(), e.charge_reference());
    let scale = e.rho().iter().map(|r| r.abs()).sum::<f64>().max(q0.abs());
    if exceeds((q - q0).abs(), 1e-9 * scale) {
        failures.push(format!("total charge {q} drifted from reference {q0}"));
    }
    let drift = e.diagnostics().relative_energy_drift();
    if exceeds(drift, max_drift) {
        failures.push(format!("relative energy drift {drift} > {max_drift}"));
    }
}

/// Fill the driver-independent per-layer metrics of a traced engine run:
/// spans, sort statistics, controller, checkpoint, diagnostics. Returns the
/// median plain (sort-free) step in ms.
fn traced_metrics<E: Engine>(
    e: &mut E,
    series: &TracedSeries,
    e2e: &EndToEnd,
    ctx: &mut TraceCtx,
    layer_prefix: (&'static str, &'static str),
) -> f64 {
    let n = e.particle_count() as f64;
    let out = &mut ctx.layers;
    let spans = ctx.tracer.spans();
    out.set(layer_prefix.0, median(&durations_ms(spans, "pre_reduce")));
    out.set(layer_prefix.1, median(&durations_ms(spans, "post_reduce")));
    out.set(
        "bench.trace_overhead_frac",
        trace_overhead(&series.traced_step_ms, &e2e.step_ms),
    );
    // As many untraced steps as traced ones.
    let half = series.traced_step_ms.len() as f64;
    out.set("core.sim.allocs_per_step", series.allocs as f64 / half);

    // Sort cadence and cost as the run saw them.
    let (mut sort_ms, mut plain_ms) = (Vec::new(), Vec::new());
    for (&ms, &s) in series.step_ms.iter().zip(&series.sorted) {
        if s { &mut sort_ms } else { &mut plain_ms }.push(ms);
    }
    let plain = median(&plain_ms);
    out.set(
        "core.sort.sorts_per_100_steps",
        100.0 * sort_ms.len() as f64 / series.step_ms.len() as f64,
    );
    out.set(
        "core.sort.sort_step_extra_ms",
        if sort_ms.is_empty() {
            0.0
        } else {
            median(&sort_ms) - plain
        },
    );
    out.set("core.sort.jump_frac_at_sort", median(&series.jump_at_sort));
    // Averaged over the traced steps: it is 1 right after a sort and gone a
    // few steps later, so the end state alone would always read 0.
    out.set("core.kernels.uniform_block_frac", series.uniform_sum / half);
    out.set("core.control.switches", e.switch_events() as f64);
    for &(phase, secs) in &series.phases {
        out.note(phase, secs.into());
    }

    // Diagnostics pass and checkpoint codec, on the live engine. A 16 M
    // snapshot and its decoded copy are 1.4 GB this process has not touched
    // yet, and once 1.4 GB are resident first touch costs the sizing host
    // 4–8 s per GB: above LARGE_N the codec is not replayed (no workload
    // checkpoints a run that size).
    let large = n as usize > LARGE_N;
    let diag_s = time_median(if large { 3 } else { CALLS }, || {
        black_box(e.energy());
    });
    out.set("core.sim.diag_ms", diag_s * 1e3);
    if !large {
        let mut snap = Vec::new();
        let enc_s = time_median(5, || snap = e.checkpoint());
        let mut restored = Ok(());
        let dec_s = time_median(5, || restored = e.restore(&snap));
        let mb = snap.len() as f64 / 1e6;
        out.set("core.checkpoint.encode_mbps", mb / enc_s);
        out.set(
            "core.checkpoint.restore_mbps",
            if restored.is_ok() { mb / dec_s } else { 0.0 },
        );
        out.set("core.checkpoint.bytes_pp", snap.len() as f64 / n);
    }
    plain
}

/// Seconds per step of one block of `cfg`'s input on one thread — the
/// 20-step one-thread segment behind `core.pool.scaling_eff_2t`. A fresh
/// construction leaves the population sorted and the step counter at zero,
/// so the block ends on its one sort, as every block of the run holds one.
fn one_thread_step_secs(cfg: &PicConfig) -> f64 {
    let cfg = PicConfig {
        threads: 1,
        ..cfg.clone()
    };
    let mut sim = Simulation::new(cfg).expect("the run's own config");
    sim.reserve_diagnostics(BLOCK);
    let t = Instant::now();
    for _ in 0..BLOCK {
        sim.step();
    }
    t.elapsed().as_secs_f64() / BLOCK as f64
}

/// Linear Landau damping at k = 0.5, checked on the oscillation peaks of the
/// fundamental `E_x` mode in t ∈ [0, 12]: they come at the Langmuir
/// half-period, and they shrink.
///
/// The fitted envelope rate itself is too noisy a check at 61 particles per
/// cell: over 26 seeds it read −0.043 … −0.286 against the analytic −0.1495,
/// so any tolerance that never fails a correct run also passes a mode that
/// does not damp. The peak spacing read 2.11 … 2.35 against 2.219 and the
/// last-to-first peak ratio 0.07 … 0.64 on the same seeds.
fn landau_violation(peaks: &[(f64, f64)]) -> Option<String> {
    let omega =
        spectral::dispersion::langmuir_frequency(0.5).expect("the Landau root exists at k = 0.5");
    let want = std::f64::consts::PI / omega;
    let (Some(first), Some(last)) = (peaks.first(), peaks.last()) else {
        return Some("no oscillation peak of the E_x mode in t = 0..12".into());
    };
    if peaks.len() < 3 {
        return Some(format!(
            "only {} peaks of the E_x mode in t = 0..12",
            peaks.len()
        ));
    }
    let spacing = (last.0 - first.0) / (peaks.len() - 1) as f64;
    if exceeds((spacing - want).abs(), 0.12 * want) {
        return Some(format!(
            "E_x mode peaks {spacing} apart, Langmuir half-period is {want}"
        ));
    }
    // `>=`, not `>`: a peak that merely holds at 85 % has not damped enough.
    if last.1.is_nan() || last.1 >= 0.85 * first.1 {
        return Some(format!(
            "E_x mode does not damp: peak {} at t = {}, {} at t = {}",
            first.1, first.0, last.1, last.0
        ));
    }
    None
}

/// The grid fields of a finished simulation, for the replay.
fn field_copy(grid: &Grid2D, rho: &[f64], (ex, ey): (&[f64], &[f64])) -> Field2D {
    let mut f = Field2D::new(grid);
    f.rho.copy_from_slice(rho);
    f.ex.copy_from_slice(ex);
    f.ey.copy_from_slice(ey);
    f
}

/// `core.sim.unattributed_frac`: the share of a plain (sort-free) step that
/// no replayed layer accounts for.
fn unattributed(plain_step_ms: f64, attributed_ms: f64) -> f64 {
    if plain_step_ms > 0.0 {
        1.0 - attributed_ms / plain_step_ms
    } else {
        0.0
    }
}

pub fn run_es(spec: &Spec, p: &Params, mut trace: Option<&mut TraceCtx>) -> EndToEnd {
    let build = || Simulation::new(es_config(spec, p)).expect("valid workload config");
    let (mut e2e, mut sim, series) = drive(spec, p, &build, &mut trace);

    let two_stream = spec.kind == Kind::TwoStreamAdaptive;
    common_checks(
        &sim,
        if two_stream { 5e-2 } else { 1e-4 },
        &mut e2e.failures,
    );
    // The analytic rates need the fitted window inside the run and enough
    // particles per cell for the mode to stand above the noise: the 16 M run
    // is too short and the fine grid too sparse, and a smoke run is both.
    let d = sim.diagnostics();
    let t_end = d.history.last().map_or(0.0, |s| s.time);
    let per_cell = sim.particle_count() / sim.ncells();
    if two_stream && t_end >= 20.0 && per_cell >= 30 {
        match d.mode_amplitude_rate(5.0, 20.0) {
            Some(g) if g > 0.05 => {}
            g => e2e
                .failures
                .push(format!("two-stream growth rate {g:?} not > 0.05")),
        }
    }
    if !two_stream && t_end >= 12.0 && per_cell >= 30 {
        if let Some(why) = landau_violation(&d.mode_peaks(0.0, 12.0)) {
            e2e.failures.push(why);
        }
    }

    if let Some(ctx) = trace {
        let plain = traced_metrics(
            &mut sim,
            &series,
            &e2e,
            ctx,
            ("core.sim.pre_reduce_ms_p50", "core.sim.post_reduce_ms_p50"),
        );
        let diag_ms = ctx.layers.values["core.sim.diag_ms"];
        let has_controller = sim.controller().is_some();
        let sort_period = match sim.controller() {
            Some(c) => c.last_period() as usize,
            None => sim.config().sort_period,
        };

        // Hand the end state to the replay; the simulation (its sort
        // scratch, its pool) is dropped first.
        let cfg = sim.config().clone();
        let grid = *sim.grid();
        let field = field_copy(&grid, sim.rho(), sim.e_field());
        let particles = std::mem::take(sim.particles_mut());
        drop(sim);
        let c = QE * cfg.dt / ME;
        let state = State {
            vz: vec![0.0; particles.len()],
            particles,
            e_scale: (c * cfg.dt / grid.dx(), c * cfg.dt / grid.dy()),
            grid,
            field,
            mover: Mover::Kick,
            push_scale: 1.0,
            dt: cfg.dt,
            threads: cfg.threads,
            sort_period,
        };
        let t_replay = Instant::now();
        let ms = replay::run(state, &ctx.calib, &mut ctx.layers);
        ctx.layers
            .note("replay_s", t_replay.elapsed().as_secs_f64().into());
        let attributed = es_attributed_ms(&ms, diag_ms, has_controller);
        ctx.layers.set(
            "core.sim.unattributed_frac",
            unattributed(plain, attributed),
        );
        ctx.layers.note("plain_step_ms", plain.into());
        ctx.layers.note("attributed_ms", attributed.into());

        // Last, when the run's own arrays are freed: the segment's
        // simulation then reuses their pages.
        if spec.one_thread_segment {
            let t = Instant::now();
            let two_t = e2e.wall_s / e2e.ops_attempted as f64;
            let one_t = one_thread_step_secs(&cfg);
            ctx.layers
                .set("core.pool.scaling_eff_2t", one_t / (2.0 * two_t));
            ctx.layers
                .note("one_thread_segment_s", t.elapsed().as_secs_f64().into());
        }
    }
    e2e
}

/// One plain electrostatic step, layer by layer: kick, push, deposit, ρ₄→ρ,
/// solve, E₈ refill, diagnostics, and the controller's probe when attached.
fn es_attributed_ms(ms: &LayerMs, diag_ms: f64, controller: bool) -> f64 {
    ms.kick
        + ms.push
        + ms.deposit
        + ms.rho_reduce
        + ms.solve
        + ms.e_fill
        + diag_ms
        + if controller { ms.probe } else { 0.0 }
}

pub fn run_em(spec: &Spec, p: &Params, mut trace: Option<&mut TraceCtx>) -> EndToEnd {
    let build = || EmSimulation::new(em_config(spec, p)).expect("valid workload config");
    let (mut e2e, mut sim, series) = drive(spec, p, &build, &mut trace);
    common_checks(&sim, 5e-2, &mut e2e.failures);

    if let Some(ctx) = trace {
        let plain = traced_metrics(
            &mut sim,
            &series,
            &e2e,
            ctx,
            ("core.em.pre_reduce_ms_p50", "core.em.post_reduce_ms_p50"),
        );
        let diag_ms = ctx.layers.values["core.sim.diag_ms"];
        let moments_s = time_median(CALLS, || {
            black_box(sim.moments());
        });
        ctx.layers.set("core.em.moments_ms", moments_s * 1e3);

        // Replay on the electrons (species 0), in the driver's physical
        // units; per-particle costs scale to the whole population.
        let cfg = sim.config().clone();
        let grid = *sim.grid();
        let field = field_copy(&grid, sim.rho(), sim.e_field());
        let total = sim.particle_count() as f64;
        let electrons = sim.species()[0].clone();
        drop(sim);
        let share = total / electrons.len() as f64;
        let state = State {
            particles: electrons.p,
            vz: electrons.vz,
            e_scale: (1.0, 1.0),
            mover: Mover::Boris,
            push_scale: cfg.dt / grid.dx(),
            grid,
            field,
            dt: cfg.dt,
            threads: cfg.threads,
            sort_period: cfg.sort_period,
        };
        let ms = replay::run(state, &ctx.calib, &mut ctx.layers);
        // One plain EM step: Boris, push, ρ and J deposits over every
        // species; ρ₄→ρ and J₁₂→J; solve; E₈ refill; diagnostics.
        let attributed = share * (ms.boris + ms.push + ms.deposit + ms.current)
            + ms.rho_reduce
            + ms.j_reduce
            + ms.solve
            + ms.e_fill
            + diag_ms;
        ctx.layers.set(
            "core.sim.unattributed_frac",
            unattributed(plain, attributed),
        );
        ctx.layers.note("plain_step_ms", plain.into());
        ctx.layers.note("attributed_ms", attributed.into());
    }
    e2e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, RUN_SECONDS};

    #[test]
    fn configs_follow_the_spec() {
        let p = Params {
            seed: 7,
            seconds: RUN_SECONDS,
            smoke: true,
        };
        let steady = es_config(find("landau_steady").unwrap(), &p);
        assert_eq!(
            (steady.threads, steady.seed, steady.n_particles),
            (1, 7, 50_000)
        );
        assert!(steady.controller.is_none());
        for name in ["landau_adaptive", "two_stream_adaptive"] {
            assert!(es_config(find(name).unwrap(), &p).controller.is_some());
        }
        let dram = find("landau_dram").unwrap();
        assert_eq!(es_config(dram, &p).threads, 2);
        assert!(dram.one_thread_segment);
        let em = em_config(find("em_two_species").unwrap(), &p);
        assert_eq!((em.threads, em.seed), (1, 7));
    }

    #[test]
    fn one_thread_segment_runs_the_same_input() {
        let mut cfg = PicConfig::landau_table1(4000);
        cfg.grid_nx = 16;
        cfg.grid_ny = 16;
        cfg.threads = 2;
        let secs = one_thread_step_secs(&cfg);
        assert!(secs > 0.0 && secs.is_finite());
    }

    #[test]
    fn landau_check_wants_langmuir_spacing_and_damping() {
        let half = std::f64::consts::PI / spectral::dispersion::langmuir_frequency(0.5).unwrap();
        let peaks = |spacing: f64, decay: f64| -> Vec<(f64, f64)> {
            (0..5)
                .map(|i| {
                    (
                        0.4 + i as f64 * spacing,
                        0.02 * (decay * i as f64 * spacing).exp(),
                    )
                })
                .collect()
        };
        assert_eq!(landau_violation(&peaks(half, -0.15)), None);
        assert_eq!(landau_violation(&peaks(half * 1.05, -0.05)), None);
        assert!(landau_violation(&peaks(half * 1.2, -0.15))
            .unwrap()
            .contains("apart"));
        assert!(landau_violation(&peaks(half, 0.0))
            .unwrap()
            .contains("does not damp"));
        assert!(landau_violation(&peaks(half, 0.1))
            .unwrap()
            .contains("does not damp"));
        assert!(landau_violation(&[]).is_some());
        assert!(landau_violation(&[(1.0, 0.02), (3.2, 0.01)]).is_some());
    }

    #[test]
    fn settle_lands_mid_period() {
        assert_eq!(settle_steps(20, 0), 10);
        assert_eq!(settle_steps(20, 10), 0);
        assert_eq!(settle_steps(20, 16), 14); // through the sort at 20, to 30
        assert_eq!(settle_steps(7, 1), 2);
        assert_eq!(settle_steps(0, 5), 0);
        assert_eq!(settle_steps(1, 0), 0);
    }

    #[test]
    fn unattributed_share() {
        assert!((unattributed(10.0, 7.5) - 0.25).abs() < 1e-12);
        assert_eq!(unattributed(0.0, 1.0), 0.0);
        let ms = LayerMs {
            kick: 1.0,
            push: 2.0,
            deposit: 3.0,
            rho_reduce: 0.5,
            solve: 1.5,
            e_fill: 0.25,
            probe: 0.125,
            sort: 100.0, // never part of a plain step
            ..LayerMs::default()
        };
        assert_eq!(es_attributed_ms(&ms, 0.75, false), 9.0);
        assert_eq!(es_attributed_ms(&ms, 0.75, true), 9.125);
    }
}
