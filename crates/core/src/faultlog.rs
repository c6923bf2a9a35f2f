//! Structured fault-event ledger.
//!
//! Every resilience mechanism in the workspace — transport retries and
//! timeouts in `minimpi`, crash-fault kills, failure detection, communicator
//! shrinks, checkpoint/rollback in [`crate::resilience`], worker-stall
//! detection in [`crate::pool`] — emits events into a [`FaultLog`]: what
//! happened, on which rank, at which simulation step and communication op.
//! Per-rank logs merge into one causally ordered ledger (every event carries
//! a sequence number from the process-global counter in
//! [`minimpi::next_event_seq`], drawn at the moment the event occurred), so
//! tests can assert orderings like *kill → detect → shrink → rollback* and
//! post-mortems can reconstruct exactly what the run did. [`FaultLog::to_json`]
//! dumps the ledger without any external dependency.

use minimpi::{TransportEvent, TransportEventKind};
use std::fmt::Write as _;

/// What a [`FaultEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transport-level retransmission after a lost or corrupt frame.
    Retry,
    /// A receive or ack deadline elapsed.
    Timeout,
    /// A rank died (crash fault fired on the rank itself).
    Kill,
    /// A survivor's failure detector flagged a dead peer.
    Detect,
    /// The communicator group was rebuilt without the failed ranks.
    Shrink,
    /// A spare rank was admitted into the communicator group.
    Join,
    /// The live partition was re-cut from a fresh particle histogram.
    Recut,
    /// The driver downgraded its operating mode to survive lost capacity
    /// (solver fallback, or decomposed → replicated at one rank).
    Degrade,
    /// A rank rolled its simulation state back to the last checkpoint.
    Rollback,
    /// A coordinated checkpoint was taken.
    Checkpoint,
    /// A simulation was restored from a (buddy) checkpoint.
    Restore,
    /// A checkpoint copy was replicated to the buddy rank.
    BuddyStore,
    /// A pool worker exceeded the stall deadline.
    WorkerStall,
    /// A job yielded the executor at a checkpoint boundary (multi-tenant
    /// runtime; the job resumes bit-exactly from that checkpoint).
    Preempt,
    /// A job was isolated after repeated faults within the quarantine
    /// window — it will not be scheduled again.
    Quarantine,
    /// A job was evicted from the admission queue under overload.
    Shed,
}

impl FaultKind {
    /// Stable lowercase name used in the JSON dump.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Retry => "retry",
            FaultKind::Timeout => "timeout",
            FaultKind::Kill => "kill",
            FaultKind::Detect => "detect",
            FaultKind::Shrink => "shrink",
            FaultKind::Join => "join",
            FaultKind::Recut => "recut",
            FaultKind::Degrade => "degrade",
            FaultKind::Rollback => "rollback",
            FaultKind::Checkpoint => "checkpoint",
            FaultKind::Restore => "restore",
            FaultKind::BuddyStore => "buddy_store",
            FaultKind::WorkerStall => "worker_stall",
            FaultKind::Preempt => "preempt",
            FaultKind::Quarantine => "quarantine",
            FaultKind::Shed => "shed",
        }
    }
}

/// One ledger entry.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Process-global causal sequence number (see [`minimpi::next_event_seq`]).
    pub seq: u64,
    /// Simulation step the event occurred at (0 before the first step).
    pub step: u64,
    /// World rank that recorded the event.
    pub rank: usize,
    /// The rank's communication-op counter when the event occurred.
    pub op: u64,
    /// Event class.
    pub kind: FaultKind,
    /// Job the event belongs to, when a multi-tenant runtime recorded it
    /// (`None` for single-run and transport-level events). Keeps merged
    /// multi-job ledgers attributable per tenant.
    pub job: Option<u64>,
    /// Free-form context (peer rank, tag, byte counts, …).
    pub detail: String,
}

/// An append-only, mergeable ledger of [`FaultEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event, stamping it with a fresh causal sequence number.
    pub fn record(&mut self, step: u64, rank: usize, op: u64, kind: FaultKind, detail: String) {
        self.events.push(FaultEvent {
            seq: minimpi::next_event_seq(),
            step,
            rank,
            op,
            kind,
            job: None,
            detail,
        });
    }

    /// Append one job-scoped event — [`record`](Self::record) with the
    /// tenant attached, for multi-tenant runtimes whose ledger interleaves
    /// many jobs' events.
    pub fn record_for_job(
        &mut self,
        job: u64,
        step: u64,
        rank: usize,
        op: u64,
        kind: FaultKind,
        detail: String,
    ) {
        self.events.push(FaultEvent {
            seq: minimpi::next_event_seq(),
            step,
            rank,
            op,
            kind,
            job: Some(job),
            detail,
        });
    }

    /// The seq-ordered slice of events belonging to one job — the evidence
    /// attached to a quarantine verdict.
    pub fn events_for_job(&self, job: u64) -> Vec<FaultEvent> {
        let mut out: Vec<FaultEvent> = self
            .events
            .iter()
            .filter(|e| e.job == Some(job))
            .cloned()
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Fold a batch of transport events (from
    /// [`minimpi::Comm::take_events`]) into the ledger, attributing them to
    /// simulation step `step`. The transport layer already stamped their
    /// sequence numbers at occurrence time, so causal order survives the
    /// late ingestion.
    pub fn ingest_transport(&mut self, step: u64, events: Vec<TransportEvent>) {
        for e in events {
            let kind = match e.kind {
                TransportEventKind::Retry => FaultKind::Retry,
                TransportEventKind::Timeout => FaultKind::Timeout,
                TransportEventKind::Kill => FaultKind::Kill,
                TransportEventKind::Detect => FaultKind::Detect,
                TransportEventKind::Shrink => FaultKind::Shrink,
                TransportEventKind::Join => FaultKind::Join,
            };
            let detail = match e.peer {
                Some(p) => format!("peer {p}, tag {:#x}: {}", e.tag, e.detail),
                None => e.detail,
            };
            self.events.push(FaultEvent {
                seq: e.seq,
                step,
                rank: e.rank,
                op: e.op,
                kind,
                job: None,
                detail,
            });
        }
    }

    /// Merge another rank's ledger into this one and re-sort by sequence
    /// number, restoring the global causal order.
    pub fn merge(&mut self, other: FaultLog) {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.seq);
    }

    /// The events, in insertion order (causal order after [`merge`](Self::merge)).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if `kinds` occurs as a subsequence of the seq-ordered ledger —
    /// the assertion shape for "kill, then detect, then shrink, then
    /// rollback happened in that order".
    pub fn has_sequence(&self, kinds: &[FaultKind]) -> bool {
        let mut sorted: Vec<&FaultEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.seq);
        let mut want = kinds.iter();
        let mut next = want.next();
        for e in sorted {
            if let Some(&k) = next {
                if e.kind == k {
                    next = want.next();
                }
            } else {
                break;
            }
        }
        next.is_none()
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Serialize the ledger as a JSON array, one object per event, ordered
    /// by sequence number.
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&FaultEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.seq);
        let mut out = String::from("[\n");
        for (i, e) in sorted.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"seq\": {}, \"step\": {}, \"rank\": {}, \"op\": {}, \"kind\": \"{}\", ",
                e.seq,
                e.step,
                e.rank,
                e.op,
                e.kind.name()
            );
            if let Some(job) = e.job {
                let _ = write!(out, "\"job\": {job}, ");
            }
            out.push_str("\"detail\": ");
            escape_json(&mut out, &e.detail);
            out.push('}');
            out.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}

fn escape_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_restores_causal_order() {
        let mut a = FaultLog::new();
        let mut b = FaultLog::new();
        a.record(1, 0, 5, FaultKind::Kill, "die".into());
        b.record(1, 1, 6, FaultKind::Detect, "saw 0".into());
        a.record(2, 0, 7, FaultKind::Shrink, "regroup".into());
        let mut merged = FaultLog::new();
        merged.merge(b);
        merged.merge(a);
        let seqs: Vec<u64> = merged.events().iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert!(merged.has_sequence(&[FaultKind::Kill, FaultKind::Detect, FaultKind::Shrink]));
        assert!(!merged.has_sequence(&[FaultKind::Detect, FaultKind::Kill]));
    }

    #[test]
    fn subsequence_check_handles_gaps_and_repeats() {
        let mut log = FaultLog::new();
        for kind in [
            FaultKind::Retry,
            FaultKind::Kill,
            FaultKind::Retry,
            FaultKind::Detect,
            FaultKind::Shrink,
            FaultKind::Rollback,
        ] {
            log.record(0, 0, 0, kind, String::new());
        }
        assert!(log.has_sequence(&[
            FaultKind::Kill,
            FaultKind::Detect,
            FaultKind::Shrink,
            FaultKind::Rollback
        ]));
        assert!(!log.has_sequence(&[FaultKind::Rollback, FaultKind::Shrink]));
        assert_eq!(log.count(FaultKind::Retry), 2);
    }

    #[test]
    fn json_dump_is_ordered_and_escaped() {
        let mut log = FaultLog::new();
        log.record(3, 1, 9, FaultKind::Timeout, "tag \"x\"\n".into());
        let s = log.to_json();
        assert!(s.starts_with("[\n"), "{s}");
        assert!(s.contains("\"kind\": \"timeout\""), "{s}");
        assert!(s.contains("\\\"x\\\"\\n"), "{s}");
        assert!(s.ends_with("]\n"), "{s}");
    }

    #[test]
    fn job_scoped_events_tag_and_filter() {
        let mut log = FaultLog::new();
        log.record(1, 0, 0, FaultKind::Checkpoint, "global".into());
        log.record_for_job(7, 2, 0, 0, FaultKind::Preempt, "yield to job 9".into());
        log.record_for_job(9, 2, 0, 0, FaultKind::Retry, "attempt 1, \"poison\"".into());
        log.record_for_job(7, 3, 0, 0, FaultKind::Shed, String::new());

        let seven = log.events_for_job(7);
        assert_eq!(seven.len(), 2);
        assert!(seven.iter().all(|e| e.job == Some(7)));
        assert_eq!(seven[0].kind, FaultKind::Preempt);
        assert_eq!(seven[1].kind, FaultKind::Shed);
        assert!(log.events_for_job(3).is_empty());

        // Merged multi-job ledgers stay parseable: the job field is emitted
        // as a bare number, absent for job-less events, and string payloads
        // stay escaped.
        let s = log.to_json();
        assert!(s.contains("\"job\": 7, \"detail\""), "{s}");
        assert!(s.contains("\"kind\": \"quarantine\"") || !s.contains("quarantine"));
        assert!(s.contains("\\\"poison\\\""), "{s}");
        assert!(
            s.lines()
                .filter(|l| l.contains("\"kind\": \"checkpoint\""))
                .all(|l| !l.contains("\"job\"")),
            "{s}"
        );
    }

    #[test]
    fn ingest_preserves_transport_seq() {
        let mut log = FaultLog::new();
        let ev = TransportEvent {
            seq: minimpi::next_event_seq(),
            kind: TransportEventKind::Retry,
            rank: 2,
            peer: Some(0),
            tag: 7,
            op: 11,
            detail: "attempt 1".into(),
        };
        let seq = ev.seq;
        log.ingest_transport(4, vec![ev]);
        let e = &log.events()[0];
        assert_eq!(e.seq, seq);
        assert_eq!(e.step, 4);
        assert_eq!(e.rank, 2);
        assert_eq!(e.op, 11);
        assert_eq!(e.kind, FaultKind::Retry);
        assert!(e.detail.contains("peer 0"));
    }
}
