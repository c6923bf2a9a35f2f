//! Streaming diagnostics: [`DiagStream`], the line-delimited JSON writer
//! jobs attach for per-step output.

use crate::sim::DiagSample;
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

#[cfg(test)]
mod tests {
    use super::*;

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
