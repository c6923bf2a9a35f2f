//! Online adaptive hot-path control — the runtime half of the paper's
//! §IV-E future work ("automatic finding of this optimal number" of steps
//! between sorts), done as a closed loop.
//!
//! The loop observes two cheap per-step signals:
//!
//! * a **particle-disorder metric** sampled from the `icell` array — the
//!   fraction of non-monotone (descending) transitions between consecutive
//!   particles, the normalized *mean jump distance* between consecutive
//!   particles (the component that actually prices cache distance in the
//!   field arrays), plus the fraction of lane blocks whose eight entries
//!   share one cell (the blocks the lane-reduce deposit collapses to one
//!   store — reported, not acted on);
//! * **EWMA'd per-phase wall times** of the particle loops, attributed to
//!   the kernel arm that ran them.
//!
//! [`HotPathController`] maps the signals to `(KernelPath, sort-now)`
//! decisions with hysteresis, applied only at sort boundaries:
//!
//! * **Sorting** is triggered when the disorder EWMA crosses a threshold
//!   (bounded by a minimum and maximum spacing) — a deterministic function
//!   of the particle trajectory, never of wall time, so a checkpointed run
//!   replays the same sort schedule bit-for-bit.
//! * **DepositPath** is never touched: the one alternative the controller
//!   could select (the sorted-batch deposit) was never selected on any
//!   recorded workload and lost at every size (DESIGN.md §14), so the arm
//!   is gone and the configured deposit — `Exact` included — stays put.
//! * **KernelPath** is the only knob driven by measured wall time: the
//!   controller periodically probes the other arm for one inter-sort
//!   window and switches when the probe beats the incumbent by a margin.
//!   The two arms are bit-identical, so timing noise can never change the
//!   physics — only the speed.
//!
//! Every applied switch is returned as a [`SwitchEvent`] for the caller to
//! ledger through [`crate::faultlog::FaultLog`] /
//! [`crate::diag::DiagStream`]. Controller state serializes into the
//! checkpoint ([`HotPathController::encode_state`]), so a restored run
//! resumes the last decision and — in deterministic mode
//! ([`ControllerConfig::deterministic`]) — replays bit-identically.

use crate::sim::{DepositPath, KernelPath};
use crate::PicError;

/// Width of the disorder-sampling block, matching the kernels' lane width
/// (`LANES` in `crates/core/src/kernels/simd.rs`).
pub const LANE_BLOCK: usize = 8;

/// Normalization of [`Disorder::jump_frac`]: on a fully mixed population
/// the mean adjacent `|Δicell|` is `ncells / 3` (the mean distance of two
/// independent uniform draws), so the mean jump is scaled by
/// `JUMP_FULL_MIX / ncells` to read `~1.0` at full mixing.
pub const JUMP_FULL_MIX: f64 = 3.0;

/// One disorder sample over an `icell` sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disorder {
    /// Fraction of examined adjacent transitions that descend
    /// (`icell[i+1] < icell[i]`), in `[0, 1]`. Exactly `0` on a population
    /// sorted by cell; approaches `~0.5` on a fully shuffled one.
    pub descent_frac: f64,
    /// Mean adjacent `|Δicell|` normalized so a fully mixed population
    /// reads `~1.0` (see [`JUMP_FULL_MIX`]), clamped to `[0, 1]`. This is
    /// the component that prices locality — it ramps smoothly from `0`
    /// after a sort toward `1` as neighbors diffuse apart, tracking the
    /// measured per-step cost ramp — so it drives the sort decision. The
    /// descent fraction cannot: it saturates near `0.5` within a step or
    /// two of any sort at realistic particle densities.
    pub jump_frac: f64,
    /// Fraction of examined full lane blocks whose [`LANE_BLOCK`] entries
    /// all share one cell, in `[0, 1]` — the blocks
    /// [`DepositPath::LaneReduce`] collapses to a single store.
    pub uniform_block_frac: f64,
}

impl Disorder {
    /// The sample of an empty or single-particle population.
    pub const NONE: Disorder = Disorder {
        descent_frac: 0.0,
        jump_frac: 0.0,
        uniform_block_frac: 0.0,
    };
}

/// Measure disorder over an `icell` sequence. `cells` is the total cell
/// count, used to normalize the mean-jump component. Samples one
/// [`LANE_BLOCK`]-wide window every `stride` blocks; `stride = 1` examines
/// every adjacent transition exactly once, so the descent fraction is then
/// `#{i : icell[i+1] < icell[i]} / (n − 1)`.
pub fn measure_disorder(icell: &[u32], stride: usize, cells: usize) -> Disorder {
    let n = icell.len();
    let stride = stride.max(1);
    if n < 2 {
        return Disorder::NONE;
    }
    let mut pairs = 0u64;
    let mut descents = 0u64;
    let mut jump = 0u64;
    let mut full_blocks = 0u64;
    let mut uniform = 0u64;
    let mut o = 0usize;
    while o + 1 < n {
        let end = (o + LANE_BLOCK).min(n - 1); // pairs (i, i+1) for i in o..end
        let full = o + LANE_BLOCK <= n;
        let mut prev = icell[o];
        let mut all_eq = true;
        for (k, &c) in icell[o + 1..=end].iter().enumerate() {
            if c < prev {
                descents += 1;
            }
            jump += c.abs_diff(prev) as u64;
            // Uniformity is judged over the block's LANE_BLOCK entries
            // only (the window's extra pair belongs to the next block).
            if k + 1 < LANE_BLOCK && c != prev {
                all_eq = false;
            }
            pairs += 1;
            prev = c;
        }
        if full {
            full_blocks += 1;
            if all_eq {
                uniform += 1;
            }
        }
        o += LANE_BLOCK * stride;
    }
    let mean_jump = jump as f64 / pairs as f64;
    Disorder {
        descent_frac: descents as f64 / pairs as f64,
        jump_frac: (JUMP_FULL_MIX * mean_jump / cells.max(1) as f64).min(1.0),
        uniform_block_frac: if full_blocks == 0 {
            0.0
        } else {
            uniform as f64 / full_blocks as f64
        },
    }
}

/// Tuning knobs of the [`HotPathController`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Sort when the disorder EWMA (fed by the normalized mean jump,
    /// [`Disorder::jump_frac`]) reaches this level. The mean jump — not
    /// the descent fraction — drives sorting because descents saturate
    /// near `0.5` within a step or two of any sort at realistic particle
    /// densities, while the mean jump ramps smoothly over tens of steps,
    /// tracking the measured traversal-cost ramp (an external shuffle,
    /// reported by [`HotPathController::note_shuffle`], saturates it to
    /// `1.0` at once). The default is read off `bench_adaptive`'s steady
    /// scenario (1.6 M particles, 256² grid): its static grid is cheapest
    /// at a 16-step period, and 16 steps of steady-state drift after a
    /// sort bring the EWMA to 0.196.
    pub sort_threshold: f64,
    /// Never sort more often than every this many steps (amortization
    /// floor — a sort every step would dominate the step cost).
    pub min_sort_spacing: usize,
    /// Always sort at least every this many steps (0 = uncapped), so a
    /// slowly drifting population cannot decay indefinitely below the
    /// threshold while locality erodes.
    pub max_sort_spacing: usize,
    /// EWMA smoothing factor in `(0, 1]` for all signal averages.
    pub alpha: f64,
    /// Disorder sampling stride in lane blocks (1 = full scan; larger
    /// strides sample a `1/stride` subset). The observation runs every
    /// step, so this is a real hot-path cost: small strides stream the
    /// whole `icell` array through the cache each step, which alone can
    /// eat several percent of a step at millions of particles. The mean
    /// jump converges with a few tens of thousands of sampled pairs, so
    /// the default is coarse.
    pub stride: usize,
    /// Feed measured wall times into the kernel-arm decision. `false` is
    /// the fully deterministic mode: the kernel arm never changes, and the
    /// serialized controller state is a pure function of the particle
    /// trajectory (checkpoints of a forked run stay byte-identical).
    pub use_timing: bool,
    /// Probe the other kernel arm for one inter-sort window every this
    /// many sorts (timing mode only).
    pub probe_period: u32,
    /// Cap a probe's inter-sort window at this many steps: an active probe
    /// forces an early sort boundary once the cap is reached, so the cost
    /// of measuring the slower arm is bounded even when the steady-state
    /// sort spacing is long. Probe *starts* are counter-scheduled, so this
    /// keeps the sort schedule independent of measured times.
    pub probe_window: u32,
    /// Relative per-step advantage a probed arm needs before the
    /// controller switches to it (hysteresis against timing noise).
    pub kernel_margin: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            sort_threshold: 0.19,
            min_sort_spacing: 4,
            max_sort_spacing: 128,
            alpha: 0.35,
            stride: 32,
            use_timing: true,
            probe_period: 12,
            probe_window: 4,
            kernel_margin: 0.05,
        }
    }
}

impl ControllerConfig {
    /// The fully deterministic profile: disorder-driven sorting, kernel
    /// arm pinned (no timing inputs). A run
    /// under this profile replays bit-identically from any checkpoint,
    /// including checkpoints taken mid-adaptation.
    pub fn deterministic() -> Self {
        Self {
            use_timing: false,
            ..Self::default()
        }
    }
}

/// One applied hot-path switch, for the fault ledger and the diagnostics
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    /// Simulation step at which the switch was applied (a sort boundary).
    pub step: u64,
    /// Which knob switched: `"kernel"` (the only one the controller
    /// moves today).
    pub what: &'static str,
    /// Previous value (stable lowercase name).
    pub from: &'static str,
    /// New value (stable lowercase name).
    pub to: &'static str,
    /// Disorder EWMA at the decision.
    pub disorder: f64,
    /// Uniform-block EWMA at the decision.
    pub uniform: f64,
    /// Steps between the two most recent sorts (the realized period).
    pub period: u64,
}

/// Stable lowercase name of a kernel path (ledger vocabulary).
pub fn kernel_name(p: KernelPath) -> &'static str {
    match p {
        KernelPath::Scalar => "scalar",
        KernelPath::Lanes => "lanes",
    }
}

/// Stable lowercase name of a deposit path (ledger vocabulary).
pub fn deposit_name(p: DepositPath) -> &'static str {
    match p {
        DepositPath::Exact => "exact",
        DepositPath::LaneReduce => "lane_reduce",
    }
}

fn arm_index(p: KernelPath) -> usize {
    match p {
        KernelPath::Scalar => 0,
        KernelPath::Lanes => 1,
    }
}

fn other_arm(p: KernelPath) -> KernelPath {
    match p {
        KernelPath::Scalar => KernelPath::Lanes,
        KernelPath::Lanes => KernelPath::Scalar,
    }
}

/// The online controller. One per simulation (per rank in decomposed
/// runs — each rank adapts to its own subdomain's disorder).
#[derive(Debug, Clone)]
pub struct HotPathController {
    cfg: ControllerConfig,
    /// Committed kernel arm (what runs outside probe windows).
    kernel: KernelPath,
    /// Arm running a probe window, if one is active.
    probe_arm: Option<KernelPath>,
    steps_since_sort: u64,
    /// EWMA normalized-mean-jump since the last sort (see
    /// [`Disorder::jump_frac`]).
    disorder: f64,
    /// EWMA uniform-block fraction.
    uniform: f64,
    /// EWMA per-step particle-loop seconds per kernel arm.
    arm_secs: [f64; 2],
    arm_seen: [bool; 2],
    sorts_since_probe: u32,
    /// Steps between the two most recent sorts.
    last_period: u64,
    events: Vec<SwitchEvent>,
}

impl HotPathController {
    /// Build a controller starting from the configured kernel path.
    pub fn new(cfg: ControllerConfig, kernel: KernelPath) -> Self {
        Self {
            cfg,
            kernel,
            probe_arm: None,
            steps_since_sort: 0,
            disorder: 0.0,
            uniform: 0.0,
            arm_secs: [0.0; 2],
            arm_seen: [false; 2],
            sorts_since_probe: 0,
            last_period: 0,
            events: Vec::new(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Should this step begin with a sort? Deterministic: a threshold on
    /// the disorder EWMA (fed only by particle state), bounded by the
    /// min/max spacing. Never consults wall time, so a restored run makes
    /// the same sort decisions as the run that checkpointed.
    pub fn should_sort(&self) -> bool {
        let since = self.steps_since_sort + 1; // spacing if we sort now
        if since < self.cfg.min_sort_spacing.max(1) as u64 {
            return false;
        }
        // Calibration bootstrap (timing mode): until both kernel arms have
        // been measured once, sort at the minimum spacing so the probe
        // machinery gets its first samples within a few windows instead of
        // waiting out a long steady-state spacing. Which arms have run is
        // itself counter-scheduled, so this stays replay-deterministic.
        if self.cfg.use_timing && !(self.arm_seen[0] && self.arm_seen[1]) {
            return true;
        }
        // A running probe ends at the next boundary, so cap its window:
        // the slower arm never runs longer than `probe_window` steps.
        // Probe starts are counter-scheduled, so the sort schedule stays
        // independent of the measured wall times.
        if self.probe_arm.is_some() && since >= self.cfg.probe_window.max(1) as u64 {
            return true;
        }
        if self.cfg.max_sort_spacing > 0 && since >= self.cfg.max_sort_spacing as u64 {
            return true;
        }
        self.disorder >= self.cfg.sort_threshold
    }

    /// Commit decisions at a sort boundary (call right after the sort
    /// ran). Returns the [`KernelPath`] to run the coming inter-sort window
    /// with — possibly a probe arm.
    pub fn on_sort(&mut self, step: u64) -> KernelPath {
        self.last_period = self.steps_since_sort;
        self.steps_since_sort = 0;
        // The population is sorted now: the accumulated disorder is gone.
        self.disorder = 0.0;

        self.decide_kernel(step);
        self.probe_arm.unwrap_or(self.kernel)
    }

    fn decide_kernel(&mut self, step: u64) {
        if !self.cfg.use_timing {
            return;
        }
        if let Some(probed) = self.probe_arm.take() {
            // A probe window just finished; its EWMA is fresh. Switch only
            // on a sustained margin over the incumbent.
            let cur = self.arm_secs[arm_index(self.kernel)];
            let alt = self.arm_secs[arm_index(probed)];
            if self.arm_seen[0]
                && self.arm_seen[1]
                && alt < cur * (1.0 - self.cfg.kernel_margin)
                && probed != self.kernel
            {
                self.events.push(SwitchEvent {
                    step,
                    what: "kernel",
                    from: kernel_name(self.kernel),
                    to: kernel_name(probed),
                    disorder: self.disorder,
                    uniform: self.uniform,
                    period: self.last_period,
                });
                self.kernel = probed;
            }
        } else {
            self.sorts_since_probe += 1;
            let incumbent_seen = self.arm_seen[arm_index(self.kernel)];
            let alt_seen = self.arm_seen[arm_index(other_arm(self.kernel))];
            let due = self.sorts_since_probe >= self.cfg.probe_period.max(1);
            // Probe as soon as the incumbent has a fresh baseline while the
            // other arm is unmeasured (calibration), on the regular cadence
            // afterwards. Never launch a probe before the incumbent has been
            // measured: the comparison at the end of the window would be
            // discarded and the probe wasted.
            if incumbent_seen && (due || !alt_seen) {
                self.sorts_since_probe = 0;
                self.probe_arm = Some(other_arm(self.kernel));
            }
        }
    }

    /// Feed one step's observations: the sampled disorder and the wall
    /// seconds the particle loops took. Call after the particle loops of
    /// every step.
    pub fn observe(&mut self, d: Disorder, particle_secs: f64) {
        self.steps_since_sort += 1;
        let a = self.cfg.alpha.clamp(1e-6, 1.0);
        self.disorder += a * (d.jump_frac - self.disorder);
        self.uniform += a * (d.uniform_block_frac - self.uniform);
        if self.cfg.use_timing {
            let arm = arm_index(self.probe_arm.unwrap_or(self.kernel));
            if self.arm_seen[arm] {
                self.arm_secs[arm] += a * (particle_secs - self.arm_secs[arm]);
            } else {
                self.arm_secs[arm] = particle_secs;
                self.arm_seen[arm] = true;
            }
        }
    }

    /// Notify the controller that an external mechanism (rank migration,
    /// a live re-partition) just shuffled the particle array: saturate the
    /// disorder EWMA so the next eligible boundary sorts. Deterministic —
    /// re-cuts are driven by step counts, not wall time.
    pub fn note_shuffle(&mut self) {
        self.disorder = 1.0;
    }

    /// Committed kernel arm (ignoring any active probe window).
    pub fn kernel(&self) -> KernelPath {
        self.kernel
    }

    /// Current disorder EWMA.
    pub fn disorder(&self) -> f64 {
        self.disorder
    }

    /// Current uniform-block EWMA — reported in every [`SwitchEvent`], not
    /// an input to any decision.
    pub fn uniform(&self) -> f64 {
        self.uniform
    }

    /// Steps between the two most recent sorts — the realized (adaptive)
    /// sort period.
    pub fn last_period(&self) -> u64 {
        self.last_period
    }

    /// Steps since the last sort.
    pub fn steps_since_sort(&self) -> u64 {
        self.steps_since_sort
    }

    /// Drain the switch events applied since the last call, oldest first.
    pub fn take_events(&mut self) -> Vec<SwitchEvent> {
        std::mem::take(&mut self.events)
    }

    // ---------------- checkpoint state ----------------

    /// Serialize the decision state (EWMAs, counters, committed kernel)
    /// into a little-endian blob for the checkpoint's hot-path metadata.
    /// In deterministic mode the blob is a pure function of the particle
    /// trajectory; in timing mode it additionally carries the wall-time
    /// EWMAs (which restore the kernel preference but are not replayable
    /// bit-for-bit across machines).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(CTRL_STATE_LEN);
        b.push(CTRL_STATE_VERSION);
        b.push(arm_index(self.kernel) as u8);
        b.push(match self.probe_arm {
            None => u8::MAX,
            Some(p) => arm_index(p) as u8,
        });
        b.extend_from_slice(&self.sorts_since_probe.to_le_bytes());
        b.extend_from_slice(&self.steps_since_sort.to_le_bytes());
        b.extend_from_slice(&self.last_period.to_le_bytes());
        b.extend_from_slice(&self.disorder.to_bits().to_le_bytes());
        b.extend_from_slice(&self.uniform.to_bits().to_le_bytes());
        for s in self.arm_secs {
            b.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        b.push(self.arm_seen[0] as u8);
        b.push(self.arm_seen[1] as u8);
        b
    }

    /// Restore the decision state from an [`encode_state`] blob
    /// (configuration is not serialized — it comes from the owning
    /// config's controller profile). Blobs of any other length or version
    /// — the 63-byte v1 layout that carried the removed deposit arm
    /// included — are rejected, never reinterpreted.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PicError> {
        if bytes.len() != CTRL_STATE_LEN {
            return Err(PicError::Checkpoint(format!(
                "controller state blob has {} bytes, expected {CTRL_STATE_LEN}",
                bytes.len()
            )));
        }
        if bytes[0] != CTRL_STATE_VERSION {
            return Err(PicError::Checkpoint(format!(
                "unsupported controller state version {}",
                bytes[0]
            )));
        }
        let kernel = arm_from_code(bytes[1])?;
        let probe_arm = match bytes[2] {
            u8::MAX => None,
            c => Some(arm_from_code(c)?),
        };
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let f64_at = |o: usize| f64::from_bits(u64_at(o));
        self.kernel = kernel;
        self.probe_arm = probe_arm;
        self.sorts_since_probe = u32_at(3);
        self.steps_since_sort = u64_at(7);
        self.last_period = u64_at(15);
        self.disorder = f64_at(23);
        self.uniform = f64_at(31);
        self.arm_secs = [f64_at(39), f64_at(47)];
        self.arm_seen = [bytes[55] != 0, bytes[56] != 0];
        self.events.clear();
        Ok(())
    }
}

/// Serialized controller-state length ([`HotPathController::encode_state`]).
pub const CTRL_STATE_LEN: usize = 57;
/// v2 dropped the deposit arm's committed path, candidate and streak.
const CTRL_STATE_VERSION: u8 = 2;

fn arm_from_code(c: u8) -> Result<KernelPath, PicError> {
    match c {
        0 => Ok(KernelPath::Scalar),
        1 => Ok(KernelPath::Lanes),
        _ => Err(PicError::Checkpoint(format!("bad kernel code {c}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_population_has_zero_descents() {
        // Run length 3 (< LANE_BLOCK): sorted, but no block is uniform.
        let icell: Vec<u32> = (0..1000).map(|i| i / 3).collect();
        let d = measure_disorder(&icell, 1, 1024);
        assert_eq!(d.descent_frac, 0.0);
        assert!(d.jump_frac < 0.01, "sorted jumps are tiny: {}", d.jump_frac);
        assert_eq!(d.uniform_block_frac, 0.0);

        // Run length 16 (≥ LANE_BLOCK): sorted and mostly uniform blocks.
        let icell: Vec<u32> = (0..1000).map(|i| i / 16).collect();
        let d = measure_disorder(&icell, 1, 1024);
        assert_eq!(d.descent_frac, 0.0);
        assert!(d.jump_frac < 0.01);
        assert!(d.uniform_block_frac > 0.0);
    }

    #[test]
    fn reversed_population_is_fully_descending() {
        let icell: Vec<u32> = (0..1000u32).rev().collect();
        let d = measure_disorder(&icell, 1, 1024);
        assert_eq!(d.descent_frac, 1.0);
        // Every jump is one cell: fully descending, but locality is fine.
        assert!(d.jump_frac < 0.01);
        assert_eq!(d.uniform_block_frac, 0.0);
    }

    #[test]
    fn mean_jump_separates_scramble_from_local_drift() {
        // Local drift: sorted cells plus small jitter — tiny mean jump.
        let drift: Vec<u32> = (0..2000u32).map(|i| 300 + i / 4 + (i * 7 % 5)).collect();
        assert!(measure_disorder(&drift, 1, 16384).jump_frac < 0.01);
        // Full mix: independent uniform cells (LCG high bits) push the
        // normalized mean jump to ~1 (descents, by contrast, read ~0.5
        // for both states).
        let mut x = 1u32;
        let scramble: Vec<u32> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                x >> 18 // top 14 bits: uniform over 0..16384
            })
            .collect();
        let d = measure_disorder(&scramble, 1, 16384);
        assert!(d.jump_frac > 0.9, "jump_frac {}", d.jump_frac);
        assert!((0.4..=0.6).contains(&d.descent_frac));
    }

    #[test]
    fn strided_sampling_stays_bounded() {
        let icell: Vec<u32> = (0..997u32)
            .map(|i| i.wrapping_mul(2654435761) % 64)
            .collect();
        for stride in [1, 2, 4, 16] {
            let d = measure_disorder(&icell, stride, 64);
            assert!((0.0..=1.0).contains(&d.descent_frac), "stride={stride}");
            assert!((0.0..=1.0).contains(&d.jump_frac), "stride={stride}");
            assert!(
                (0.0..=1.0).contains(&d.uniform_block_frac),
                "stride={stride}"
            );
        }
    }

    #[test]
    fn tiny_populations_measure_as_ordered() {
        assert_eq!(measure_disorder(&[], 1, 64), Disorder::NONE);
        assert_eq!(measure_disorder(&[7], 1, 64), Disorder::NONE);
    }

    #[test]
    fn uniform_blocks_counted_on_constant_population() {
        let icell = vec![5u32; 64];
        let d = measure_disorder(&icell, 1, 64);
        assert_eq!(d.descent_frac, 0.0);
        assert_eq!(d.uniform_block_frac, 1.0);
    }

    #[test]
    fn sort_decision_respects_spacing_bounds() {
        let mut c = HotPathController::new(
            ControllerConfig {
                sort_threshold: 0.1,
                min_sort_spacing: 3,
                max_sort_spacing: 6,
                alpha: 1.0,
                use_timing: false,
                ..ControllerConfig::default()
            },
            KernelPath::Lanes,
        );
        // High disorder, but inside the minimum spacing: no sort.
        let noisy = Disorder {
            jump_frac: 0.9,
            ..Disorder::NONE
        };
        c.observe(noisy, 0.0);
        assert!(!c.should_sort(), "min spacing must hold");
        c.observe(noisy, 0.0);
        assert!(c.should_sort(), "threshold crossed past the minimum");
        c.on_sort(2);
        // Zero disorder: no sort until the maximum spacing forces one.
        for step in 0..5 {
            assert!(!c.should_sort(), "step {step}");
            c.observe(Disorder::NONE, 0.0);
        }
        assert!(c.should_sort(), "max spacing must force a sort");
    }

    #[test]
    fn kernel_probe_switches_to_faster_arm() {
        let mut c = HotPathController::new(
            ControllerConfig {
                alpha: 1.0,
                probe_period: 2,
                kernel_margin: 0.05,
                ..ControllerConfig::default()
            },
            KernelPath::Scalar,
        );
        // Window 1 under the incumbent (scalar, slow).
        c.observe(Disorder::NONE, 10.0);
        let arm = c.on_sort(1);
        // The unmeasured arm triggers an early probe.
        assert_eq!(arm, KernelPath::Lanes);
        // Probe window: lanes is much faster.
        c.observe(Disorder::NONE, 1.0);
        let arm = c.on_sort(2);
        assert_eq!(arm, KernelPath::Lanes, "probe won by a wide margin");
        assert_eq!(c.kernel(), KernelPath::Lanes);
        let ev = c.take_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].what, "kernel");
        assert_eq!(ev[0].from, "scalar");
        assert_eq!(ev[0].to, "lanes");
    }

    #[test]
    fn deterministic_mode_never_probes() {
        let mut c = HotPathController::new(ControllerConfig::deterministic(), KernelPath::Lanes);
        for step in 0..20 {
            c.observe(Disorder::NONE, (step % 3) as f64);
            assert_eq!(c.on_sort(step), KernelPath::Lanes);
        }
        assert!(c.take_events().is_empty());
        // Wall times were never folded into the state.
        assert_eq!(c.arm_secs, [0.0; 2]);
    }

    #[test]
    fn state_roundtrip_is_identity() {
        let mut c = HotPathController::new(ControllerConfig::default(), KernelPath::Scalar);
        for step in 0..7 {
            c.observe(
                Disorder {
                    descent_frac: 0.3,
                    jump_frac: 0.2,
                    uniform_block_frac: 0.6,
                },
                0.5 + step as f64,
            );
            if step % 3 == 2 {
                c.on_sort(step);
            }
        }
        let blob = c.encode_state();
        assert_eq!(blob.len(), CTRL_STATE_LEN);
        let mut d = HotPathController::new(ControllerConfig::default(), KernelPath::Lanes);
        d.restore_state(&blob).unwrap();
        assert_eq!(d.kernel(), c.kernel());
        assert_eq!(d.encode_state(), blob);
        // Corrupt blobs are rejected.
        assert!(d.restore_state(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[1] = 9;
        assert!(d.restore_state(&bad).is_err());
    }

    #[test]
    fn parent_format_blob_is_rejected_not_misread() {
        // The v1 layout (63 bytes: version, kernel, deposit, probe arm,
        // deposit candidate, deposit streak, then the v2 tail) as the
        // previous format wrote it.
        let mut v1 = vec![1u8, 1, 1, u8::MAX, 1];
        v1.extend_from_slice(&0u32.to_le_bytes()); // deposit streak
        v1.extend_from_slice(&3u32.to_le_bytes()); // sorts since probe
        v1.extend_from_slice(&5u64.to_le_bytes()); // steps since sort
        v1.extend_from_slice(&16u64.to_le_bytes()); // last period
        for x in [0.1f64, 0.01, 0.5, 0.4] {
            v1.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        v1.extend_from_slice(&[1, 1]);
        assert_eq!(v1.len(), 63);

        let mut c = HotPathController::new(ControllerConfig::default(), KernelPath::Scalar);
        c.observe(Disorder::NONE, 1.0);
        let before = c.encode_state();
        let err = c.restore_state(&v1).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("63 bytes")));
        // Cut or padded to today's length it still fails, on the version.
        let err = c.restore_state(&v1[..CTRL_STATE_LEN]).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("version 1")));
        assert_eq!(c.encode_state(), before, "a rejected blob changes nothing");
    }

    #[test]
    fn note_shuffle_forces_next_eligible_sort() {
        let mut c = HotPathController::new(
            ControllerConfig {
                min_sort_spacing: 1,
                use_timing: false,
                ..ControllerConfig::default()
            },
            KernelPath::Lanes,
        );
        c.observe(Disorder::NONE, 0.0);
        assert!(!c.should_sort());
        c.note_shuffle();
        assert!(c.should_sort());
    }
}
