//! Extended diagnostics: phase-space histograms, velocity moments, and the
//! Fourier spectrum of grid quantities — the observables used to *look at*
//! the physics the paper's test cases produce (beam trapping vortices,
//! damped Langmuir modes, thermalization) — plus [`DiagStream`], the
//! line-delimited JSON writer jobs attach for streaming per-step output.

use crate::particles::ParticlesSoA;
use crate::sim::DiagSample;
use crate::PicError;
use spectral::fft::Fft2Plan;
use spectral::Complex64;
use std::fmt::Write as _;
use std::io::{self, Write};

/// A line-delimited (JSONL) streaming writer for per-step diagnostics.
///
/// Records accumulate in a pending buffer, one complete JSON object per
/// line, and reach the sink only on [`commit`](DiagStream::commit) — the
/// checkpoint cadence of the run. A preempted or rolled-back job calls
/// [`discard`](DiagStream::discard) instead, dropping the uncommitted
/// lines, so the stream never carries a torn record or a step that was
/// later replayed: everything after the last committed line is exactly
/// the trajectory the job's final state went through.
#[derive(Debug)]
pub struct DiagStream<W: Write> {
    sink: W,
    pending: String,
    pending_records: u64,
    committed_records: u64,
}

impl<W: Write> DiagStream<W> {
    /// Wrap a sink (file, socket, `Vec<u8>`, …).
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            pending: String::new(),
            pending_records: 0,
            committed_records: 0,
        }
    }

    /// Buffer one sample as a complete JSON line (not yet written).
    pub fn record(&mut self, job: Option<u64>, step: u64, s: &DiagSample) {
        self.pending.push('{');
        if let Some(j) = job {
            let _ = write!(self.pending, "\"job\": {j}, ");
        }
        let _ = write!(
            self.pending,
            "\"step\": {step}, \"time\": {}, \"kinetic\": {}, \"field\": {}, \"ex_mode\": {}, \"total\": {}}}",
            s.time,
            s.kinetic,
            s.field,
            s.ex_mode,
            s.total()
        );
        self.pending.push('\n');
        self.pending_records += 1;
    }

    /// Buffer one per-species moments sample as a complete JSON line —
    /// the multi-species streaming record. Species are identified by name;
    /// the same commit/discard transaction rules as
    /// [`record`](DiagStream::record) apply.
    pub fn record_species(
        &mut self,
        job: Option<u64>,
        step: u64,
        species: &str,
        m: &crate::species::SpeciesMoments,
    ) {
        self.pending.push('{');
        if let Some(j) = job {
            let _ = write!(self.pending, "\"job\": {j}, ");
        }
        let _ = write!(
            self.pending,
            "\"step\": {step}, \"species\": {species:?}, \"number\": {}, \"charge\": {}, \
             \"momentum\": [{}, {}, {}], \"mean_v\": [{}, {}, {}], \
             \"temperature\": [{}, {}, {}], \"kinetic\": {}}}",
            m.number,
            m.charge,
            m.momentum[0],
            m.momentum[1],
            m.momentum[2],
            m.mean_v[0],
            m.mean_v[1],
            m.mean_v[2],
            m.temperature[0],
            m.temperature[1],
            m.temperature[2],
            m.kinetic
        );
        self.pending.push('\n');
        self.pending_records += 1;
    }

    /// Flush every pending line to the sink (whole lines only — a reader
    /// tailing the sink never observes a partial record).
    pub fn commit(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.sink.write_all(self.pending.as_bytes())?;
            self.sink.flush()?;
            self.pending.clear();
        }
        self.committed_records += self.pending_records;
        self.pending_records = 0;
        Ok(())
    }

    /// Drop the uncommitted lines (rollback/preemption path); returns how
    /// many records were discarded.
    pub fn discard(&mut self) -> u64 {
        let n = self.pending_records;
        self.pending.clear();
        self.pending_records = 0;
        n
    }

    /// Records durably written so far.
    pub fn committed_records(&self) -> u64 {
        self.committed_records
    }

    /// Records buffered but not yet committed.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Consume the stream, returning the sink (pending lines are dropped;
    /// commit first to keep them).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// An `nx × nv` histogram of `f(x, v_x)` (row-major, x-major).
#[derive(Debug, Clone)]
pub struct PhaseSpaceHistogram {
    /// Bins along x (grid units, covering `[0, ncx)`).
    pub nx: usize,
    /// Bins along v.
    pub nv: usize,
    /// Velocity range covered, `[-v_max, v_max)`.
    pub v_max: f64,
    /// Counts, normalized to sum to 1.
    pub density: Vec<f64>,
}

impl PhaseSpaceHistogram {
    /// Build from a particle population. `vx` values outside `±v_max` are
    /// clamped into the edge bins. Velocities are taken as stored (grid
    /// units per step under the hoisted convention — pass `v_scale` to
    /// convert to physical, or `1.0` to keep them raw).
    pub fn compute(
        p: &ParticlesSoA,
        ncx: usize,
        nx: usize,
        nv: usize,
        v_max: f64,
        v_scale: f64,
    ) -> Self {
        assert!(nx > 0 && nv > 0 && v_max > 0.0);
        let mut density = vec![0.0f64; nx * nv];
        let n = p.len();
        for i in 0..n {
            let x = (p.ix[i] as f64 + p.dx[i]) / ncx as f64; // in [0,1)
            let bx = ((x * nx as f64) as usize).min(nx - 1);
            let v = p.vx[i] * v_scale;
            let vn = ((v + v_max) / (2.0 * v_max) * nv as f64).clamp(0.0, nv as f64 - 1.0);
            let bv = vn as usize;
            density[bx * nv + bv] += 1.0;
        }
        if n > 0 {
            let inv = 1.0 / n as f64;
            for d in density.iter_mut() {
                *d *= inv;
            }
        }
        Self {
            nx,
            nv,
            v_max,
            density,
        }
    }

    /// Marginal distribution over v (integrating out x).
    pub fn v_marginal(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nv];
        for bx in 0..self.nx {
            for (bv, o) in out.iter_mut().enumerate() {
                *o += self.density[bx * self.nv + bv];
            }
        }
        out
    }

    /// Marginal distribution over x.
    pub fn x_marginal(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nx];
        for (bx, o) in out.iter_mut().enumerate() {
            *o = self.density[bx * self.nv..(bx + 1) * self.nv].iter().sum();
        }
        out
    }
}

/// First velocity moments of a particle population (stored units × `v_scale`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VelocityMoments {
    /// Mean x-velocity.
    pub mean_vx: f64,
    /// Mean y-velocity.
    pub mean_vy: f64,
    /// Velocity variance along x (temperature `T_x` for unit mass).
    pub temp_x: f64,
    /// Velocity variance along y.
    pub temp_y: f64,
}

/// Compute mean and variance of the velocity distribution.
pub fn velocity_moments(p: &ParticlesSoA, v_scale: f64) -> VelocityMoments {
    let n = p.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() * v_scale / n;
    let mean_vx = mean(&p.vx);
    let mean_vy = mean(&p.vy);
    let var = |v: &[f64], m: f64| {
        v.iter()
            .map(|&u| {
                let d = u * v_scale - m;
                d * d
            })
            .sum::<f64>()
            / n
    };
    VelocityMoments {
        mean_vx,
        mean_vy,
        temp_x: var(&p.vx, mean_vx),
        temp_y: var(&p.vy, mean_vy),
    }
}

/// Power spectrum `|q̂(kx, ky)|²` of a grid quantity (row-major input),
/// normalized by `(ncx·ncy)²` so a unit-amplitude cosine mode reports ¼ in
/// each of its two conjugate bins.
///
/// Errors if `q.len() != ncx·ncy` or the dimensions are not powers of two
/// (the FFT's requirement).
pub fn mode_spectrum(q: &[f64], ncx: usize, ncy: usize) -> Result<Vec<f64>, PicError> {
    if q.len() != ncx * ncy {
        return Err(PicError::Config(format!(
            "mode_spectrum: grid quantity has {} values, expected {ncx}×{ncy}",
            q.len()
        )));
    }
    let plan = Fft2Plan::new(ncx, ncy)?;
    let mut hat: Vec<Complex64> = q.iter().map(|&v| Complex64::from_re(v)).collect();
    plan.forward(&mut hat);
    let norm = 1.0 / ((ncx * ncy) as f64 * (ncx * ncy) as f64);
    Ok(hat.iter().map(|z| z.norm_sqr() * norm).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beams(n: usize, ncx: usize) -> ParticlesSoA {
        let mut p = ParticlesSoA::zeroed(n);
        for i in 0..n {
            p.ix[i] = ((i * 7) % ncx) as u32;
            p.dx[i] = 0.5;
            p.vx[i] = if i % 2 == 0 { 3.0 } else { -3.0 };
            p.vy[i] = 0.0;
        }
        p
    }

    #[test]
    fn histogram_is_normalized_and_bimodal() {
        let p = beams(10_000, 32);
        let h = PhaseSpaceHistogram::compute(&p, 32, 16, 20, 5.0, 1.0);
        let total: f64 = h.density.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let vm = h.v_marginal();
        // Two sharp beams at ±3 → two occupied v-bins, none near v = 0.
        let mid = vm[h.nv / 2 - 1] + vm[h.nv / 2];
        assert!(mid < 1e-12, "no mass at v=0, got {mid}");
        let occupied = vm.iter().filter(|&&d| d > 0.0).count();
        assert_eq!(occupied, 2);
        // x marginal is uniform-ish over occupied bins.
        let xm = h.x_marginal();
        assert!((xm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut p = ParticlesSoA::zeroed(2);
        p.vx[0] = 100.0;
        p.vx[1] = -100.0;
        let h = PhaseSpaceHistogram::compute(&p, 8, 4, 10, 5.0, 1.0);
        let vm = h.v_marginal();
        assert!(vm[0] > 0.0);
        assert!(vm[9] > 0.0);
    }

    #[test]
    fn moments_of_beams() {
        let p = beams(10_000, 32);
        let m = velocity_moments(&p, 1.0);
        assert!(m.mean_vx.abs() < 1e-12);
        assert!((m.temp_x - 9.0).abs() < 1e-9, "variance of ±3 beams is 9");
        assert_eq!(m.temp_y, 0.0);
    }

    #[test]
    fn moments_respect_scale() {
        let p = beams(100, 32);
        let m = velocity_moments(&p, 0.5);
        assert!((m.temp_x - 2.25).abs() < 1e-9);
    }

    #[test]
    fn spectrum_finds_the_planted_mode() {
        let (ncx, ncy) = (32, 16);
        let q: Vec<f64> = (0..ncx * ncy)
            .map(|i| {
                let ix = i / ncy;
                (2.0 * std::f64::consts::PI * 3.0 * ix as f64 / ncx as f64).cos()
            })
            .collect();
        let s = mode_spectrum(&q, ncx, ncy).unwrap();
        // Peak at (kx=3, ky=0) and its conjugate (ncx−3, 0), each ¼.
        assert!((s[3 * ncy] - 0.25).abs() < 1e-12);
        assert!((s[(ncx - 3) * ncy] - 0.25).abs() < 1e-12);
        let rest: f64 = s
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 * ncy && *i != (ncx - 3) * ncy)
            .map(|(_, v)| v)
            .sum();
        assert!(rest < 1e-12, "leakage {rest}");
    }

    #[test]
    fn empty_population() {
        let p = ParticlesSoA::zeroed(0);
        let h = PhaseSpaceHistogram::compute(&p, 8, 4, 4, 1.0, 1.0);
        assert!(h.density.iter().all(|&d| d == 0.0));
        let m = velocity_moments(&p, 1.0);
        assert_eq!(m.mean_vx, 0.0);
    }

    fn sample(t: f64) -> DiagSample {
        DiagSample {
            time: t,
            kinetic: 1.5 * t,
            field: 0.25,
            ex_mode: 0.125,
        }
    }

    #[test]
    fn diag_stream_commits_whole_lines_at_checkpoint_cadence() {
        let mut ds = DiagStream::new(Vec::new());
        ds.record(Some(3), 1, &sample(0.1));
        ds.record(Some(3), 2, &sample(0.2));
        // Nothing reaches the sink before the checkpoint commit.
        assert_eq!(ds.pending_records(), 2);
        assert_eq!(ds.committed_records(), 0);
        ds.commit().unwrap();
        assert_eq!(ds.committed_records(), 2);

        // A rolled-back slice is discarded, never written.
        ds.record(Some(3), 3, &sample(0.3));
        assert_eq!(ds.discard(), 1);
        ds.record(Some(3), 3, &sample(0.3));
        ds.commit().unwrap();

        let out = String::from_utf8(ds.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with("{\"job\": 3, "), "{l}");
            assert!(l.ends_with('}'), "torn record: {l}");
        }
        assert!(lines[0].contains("\"step\": 1"));
        assert!(lines[2].contains("\"step\": 3"));
        assert!(lines[1].contains("\"kinetic\": 0.30000000000000004"));
    }

    #[test]
    fn diag_stream_without_job_omits_field() {
        let mut ds = DiagStream::new(Vec::new());
        ds.record(None, 0, &sample(0.0));
        ds.commit().unwrap();
        let out = String::from_utf8(ds.into_inner()).unwrap();
        assert!(out.starts_with("{\"step\": 0, "), "{out}");
    }
}
