//! Online sort-cadence control — the runtime half of the paper's §IV-E
//! future work ("automatic finding of this optimal number" of steps
//! between sorts), done as a closed loop.
//!
//! The loop observes one cheap per-step signal, a **particle-disorder
//! metric** sampled from the `icell` array: the fraction of non-monotone
//! (descending) transitions between consecutive particles, the normalized
//! *mean jump distance* between consecutive particles (the component that
//! actually prices cache distance in the field arrays), plus the fraction
//! of lane blocks whose eight entries share one cell (the blocks the
//! lane-reduce deposit collapses to one store — reported, not acted on).
//!
//! [`HotPathController`] maps it to the one decision the paper leaves to be
//! found at run time — *sort now?* — by a threshold on the disorder EWMA,
//! bounded by a minimum and maximum spacing. Every input is a function of
//! the particle trajectory and none of wall time, so the controller state
//! serialized into a checkpoint ([`HotPathController::encode_state`]) is
//! too, and a restored run replays the same sort schedule — and therefore
//! the same bytes — as the run that checkpointed.
//!
//! Nothing else is chosen at run time. The kernels are the lane-blocked
//! ones unconditionally and the deposit is the configured one: the two
//! arms this controller used to carry (a sorted-batch deposit, DESIGN.md
//! §14.2; a wall-clock probe flipping scalar ↔ lane-blocked kernels,
//! DESIGN.md §17.2) were each measured, never won, and removed.

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
    /// [`crate::kernels::deposit::DepositPath::LaneReduce`] collapses to a single store.
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
    /// `1.0` at once). The period a threshold yields depends on the
    /// workload: the default was read off `bench_adaptive`'s steady
    /// scenario (1.6 M particles, 256² grid), whose static grid is cheapest
    /// at a 16-step period and whose EWMA reaches 0.196 sixteen steps
    /// after a sort; DESIGN.md §17.3 records what it realizes elsewhere.
    pub sort_threshold: f64,
    /// Never sort more often than every this many steps (amortization
    /// floor — a sort every step would dominate the step cost).
    pub min_sort_spacing: usize,
    /// Always sort at least every this many steps (0 = uncapped), so a
    /// slowly drifting population cannot decay indefinitely below the
    /// threshold while locality erodes.
    pub max_sort_spacing: usize,
    /// EWMA smoothing factor in `(0, 1]` for the signal averages.
    pub alpha: f64,
    /// Disorder sampling stride in lane blocks (1 = full scan; larger
    /// strides sample a `1/stride` subset). The observation runs every
    /// step, so this is a real hot-path cost: small strides stream the
    /// whole `icell` array through the cache each step, which alone can
    /// eat several percent of a step at millions of particles. The mean
    /// jump converges with a few tens of thousands of sampled pairs, so
    /// the default is coarse.
    pub stride: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            sort_threshold: 0.19,
            min_sort_spacing: 4,
            max_sort_spacing: 128,
            alpha: 0.35,
            stride: 32,
        }
    }
}

impl ControllerConfig {
    /// Shim for `benchmark/`, equal to [`default`](Self::default): every
    /// profile is deterministic now that no decision reads a clock. Goes
    /// with the paired `[benchmark]` change that stops calling it.
    pub fn deterministic() -> Self {
        Self::default()
    }
}

/// A hot-path switch — of which there are none: nothing but the sort
/// schedule is decided at run time, so the type is uninhabited and the
/// `take_hot_path_events` shim that `benchmark/` still calls on both
/// driver kinds ([`crate::engine::Pic::take_hot_path_events`]) returns an
/// empty list by construction. Goes with it in the paired `[benchmark]`
/// change.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchEvent {}

/// The online sort-cadence policy. One per simulation (per rank in
/// decomposed runs — each rank adapts to its own subdomain's disorder).
#[derive(Debug, Clone)]
pub struct HotPathController {
    cfg: ControllerConfig,
    steps_since_sort: u64,
    /// EWMA normalized-mean-jump since the last sort (see
    /// [`Disorder::jump_frac`]).
    disorder: f64,
    /// EWMA uniform-block fraction.
    uniform: f64,
    /// Steps between the two most recent sorts.
    last_period: u64,
}

impl HotPathController {
    /// Build a controller with nothing observed yet.
    pub fn new(cfg: ControllerConfig) -> Self {
        Self {
            cfg,
            steps_since_sort: 0,
            disorder: 0.0,
            uniform: 0.0,
            last_period: 0,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Should this step begin with a sort? A threshold on the disorder
    /// EWMA (fed only by particle state), bounded by the min/max spacing,
    /// so a restored run makes the same sort decisions as the run that
    /// checkpointed.
    pub fn should_sort(&self) -> bool {
        let since = self.steps_since_sort + 1; // spacing if we sort now
        if since < self.cfg.min_sort_spacing.max(1) as u64 {
            return false;
        }
        if self.cfg.max_sort_spacing > 0 && since >= self.cfg.max_sort_spacing as u64 {
            return true;
        }
        self.disorder >= self.cfg.sort_threshold
    }

    /// Record a sort boundary (call right after the sort ran).
    pub fn on_sort(&mut self) {
        self.last_period = self.steps_since_sort;
        self.steps_since_sort = 0;
        // The population is sorted now: the accumulated disorder is gone.
        self.disorder = 0.0;
    }

    /// Feed one step's sampled disorder. Call after the particle loops of
    /// every step.
    pub fn observe(&mut self, d: Disorder) {
        self.steps_since_sort += 1;
        let a = self.cfg.alpha.clamp(1e-6, 1.0);
        self.disorder += a * (d.jump_frac - self.disorder);
        self.uniform += a * (d.uniform_block_frac - self.uniform);
    }

    /// Notify the controller that an external mechanism (rank migration,
    /// a live re-partition) just shuffled the particle array: saturate the
    /// disorder EWMA so the next eligible boundary sorts. Deterministic —
    /// re-cuts are driven by step counts, not wall time.
    pub fn note_shuffle(&mut self) {
        self.disorder = 1.0;
    }

    /// Current disorder EWMA.
    pub fn disorder(&self) -> f64 {
        self.disorder
    }

    /// Current uniform-block EWMA — reported, not an input to any decision.
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

    // ---------------- checkpoint state ----------------

    /// Serialize the decision state (counters and EWMAs) into a
    /// little-endian blob for the checkpoint's hot-path metadata: a pure
    /// function of the particle trajectory, so checkpoints of a forked run
    /// stay byte-identical.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(CTRL_STATE_LEN);
        b.push(CTRL_STATE_VERSION);
        b.extend_from_slice(&self.steps_since_sort.to_le_bytes());
        b.extend_from_slice(&self.last_period.to_le_bytes());
        b.extend_from_slice(&self.disorder.to_bits().to_le_bytes());
        b.extend_from_slice(&self.uniform.to_bits().to_le_bytes());
        b
    }

    /// Restore the decision state from an [`encode_state`] blob
    /// (configuration is not serialized — it comes from the owning
    /// config's controller profile). Blobs of any other length or version
    /// — the 63-byte v1 layout that carried the removed deposit arm and
    /// the 57-byte v2 layout that carried the removed kernel arm included
    /// — are rejected, never reinterpreted.
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
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        self.steps_since_sort = u64_at(1);
        self.last_period = u64_at(9);
        self.disorder = f64::from_bits(u64_at(17));
        self.uniform = f64::from_bits(u64_at(25));
        Ok(())
    }
}

/// Does step number `step` begin with a sort? The attached controller's
/// call when there is one, the fixed `sort_period` cadence (0 = never)
/// otherwise — the one sort schedule of both drivers.
pub(crate) fn sort_due(ctrl: &Option<HotPathController>, sort_period: usize, step: usize) -> bool {
    match ctrl {
        Some(c) => c.should_sort(),
        None => sort_period > 0 && step.is_multiple_of(sort_period),
    }
}

/// Serialized controller-state length ([`HotPathController::encode_state`]).
pub const CTRL_STATE_LEN: usize = 33;
/// v2 dropped the deposit arm's committed path, candidate and streak; v3
/// the kernel arm's committed and probed paths, probe counter and timings.
const CTRL_STATE_VERSION: u8 = 3;

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
        let mut c = HotPathController::new(ControllerConfig {
            sort_threshold: 0.1,
            min_sort_spacing: 3,
            max_sort_spacing: 6,
            alpha: 1.0,
            ..ControllerConfig::default()
        });
        // High disorder, but inside the minimum spacing: no sort.
        let noisy = Disorder {
            jump_frac: 0.9,
            ..Disorder::NONE
        };
        c.observe(noisy);
        assert!(!c.should_sort(), "min spacing must hold");
        c.observe(noisy);
        assert!(c.should_sort(), "threshold crossed past the minimum");
        c.on_sort();
        assert_eq!(c.last_period(), 2);
        // Zero disorder: no sort until the maximum spacing forces one.
        for step in 0..5 {
            assert!(!c.should_sort(), "step {step}");
            c.observe(Disorder::NONE);
        }
        assert!(c.should_sort(), "max spacing must force a sort");
    }

    #[test]
    fn state_roundtrip_is_identity() {
        let mut c = HotPathController::new(ControllerConfig::default());
        for step in 0..7 {
            c.observe(Disorder {
                descent_frac: 0.3,
                jump_frac: 0.2,
                uniform_block_frac: 0.6,
            });
            if step % 3 == 2 {
                c.on_sort();
            }
        }
        let blob = c.encode_state();
        assert_eq!(blob.len(), CTRL_STATE_LEN);
        let mut d = HotPathController::new(ControllerConfig::default());
        d.restore_state(&blob).unwrap();
        assert_eq!(d.encode_state(), blob);
        assert_eq!(d.should_sort(), c.should_sort());
        // Corrupt blobs are rejected.
        assert!(d.restore_state(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] = 9;
        assert!(d.restore_state(&bad).is_err());
    }

    #[test]
    fn retired_format_blobs_are_rejected_not_misread() {
        // The v2 tail both retired layouts end in: probe counter, steps
        // since sort, last period, two EWMAs, two arm timings, two flags.
        let mut tail = Vec::new();
        tail.extend_from_slice(&3u32.to_le_bytes());
        tail.extend_from_slice(&5u64.to_le_bytes());
        tail.extend_from_slice(&16u64.to_le_bytes());
        for x in [0.1f64, 0.01, 0.5, 0.4] {
            tail.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        tail.extend_from_slice(&[1, 1]);
        // v1 (63 bytes): version, kernel, deposit, probe arm, deposit
        // candidate, deposit streak, tail. v2 (57): version, kernel, probe
        // arm, tail.
        let mut v1 = vec![1u8, 1, 1, u8::MAX, 1];
        v1.extend_from_slice(&0u32.to_le_bytes());
        v1.extend_from_slice(&tail);
        let mut v2 = vec![2u8, 1, u8::MAX];
        v2.extend_from_slice(&tail);

        let mut c = HotPathController::new(ControllerConfig::default());
        c.observe(Disorder::NONE);
        let before = c.encode_state();
        for (old, len, version) in [(&v1, 63, 1), (&v2, 57, 2)] {
            assert_eq!(old.len(), len);
            let err = c.restore_state(old).unwrap_err();
            assert!(
                matches!(err, PicError::Checkpoint(ref m) if m.contains(&format!("{len} bytes")))
            );
            // Cut to today's length it still fails, on the version.
            let err = c.restore_state(&old[..CTRL_STATE_LEN]).unwrap_err();
            assert!(
                matches!(err, PicError::Checkpoint(ref m) if m.contains(&format!("version {version}")))
            );
        }
        assert_eq!(c.encode_state(), before, "a rejected blob changes nothing");
    }

    #[test]
    fn note_shuffle_forces_next_eligible_sort() {
        let mut c = HotPathController::new(ControllerConfig {
            min_sort_spacing: 1,
            ..ControllerConfig::default()
        });
        c.observe(Disorder::NONE);
        assert!(!c.should_sort());
        c.note_shuffle();
        assert!(c.should_sort());
    }
}
