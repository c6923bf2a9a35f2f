//! # pic-bench — experiment harnesses for every table and figure
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index); this library holds what they share:
//!
//! * [`cli`] — a tiny `--flag value` parser (no external dependency);
//! * [`harness`] — a minimal Criterion-compatible benchmark harness (the
//!   `benches/` targets run on it, no external dependency);
//! * [`table`] — fixed-width table printing;
//! * [`workloads`] — the standard experiment configurations, scaled-down
//!   versions of the paper's Table I test case;
//! * [`reference`] — the paper's ablation variants (AoS, standard arrays,
//!   fused loop, naive pushes) as reference kernels plus the small driver
//!   that steps them; tables III/IV/VII time it, its test is the oracle
//!   for the production path;
//! * [`par`] — fork-join helpers over one global pool, for `membench` and
//!   the reference AoS loops;
//! * [`membench`] — the STREAM kernels (McCalpin) used as the bandwidth
//!   ceiling in Fig. 8;
//! * [`report`] — machine-readable (JSON) benchmark output: a registry the
//!   harness feeds and a dependency-free JSON writer;
//! * [`literature`] — published comparison constants (Decyk & Singh 2014,
//!   Table V), quoted rather than re-measured, exactly as the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod literature;
pub mod membench;
pub mod par;
pub mod reference;
pub mod report;
pub mod table;
pub mod workloads;

/// Shared `main` shim for the figure/table binaries: run `body` and turn a
/// [`pic_core::PicError`] (e.g. a non-power-of-two `--grid`) into a
/// one-line diagnostic plus a failing exit code instead of a panic
/// backtrace.
pub fn exit_on_error(
    body: impl FnOnce() -> Result<(), pic_core::PicError>,
) -> std::process::ExitCode {
    match body() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Seconds → nanoseconds-per-particle-per-iteration (the unit of Table V).
pub fn ns_per_particle(seconds: f64, particles: usize, iterations: usize) -> f64 {
    seconds * 1e9 / (particles as f64 * iterations as f64)
}

/// Particles·iterations per second in millions (the unit of Table VI).
pub fn mp_per_s(particles: usize, iterations: usize, seconds: f64) -> f64 {
    particles as f64 * iterations as f64 / seconds / 1e6
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_conversions() {
        // 1 s for 1M particles × 100 iters = 10 ns per particle-iter.
        assert!((super::ns_per_particle(1.0, 1_000_000, 100) - 10.0).abs() < 1e-12);
        assert!((super::mp_per_s(1_000_000, 100, 1.0) - 100.0).abs() < 1e-12);
    }
}
