//! # minimpi — an in-process message-passing substrate
//!
//! The paper parallelizes its PIC code across processes with MPI, using a
//! single collective: an `MPI_ALLREDUCE` of the charge-density array each
//! time step (§V-A). Rust MPI bindings are thin and a supercomputer is not
//! available here, so this crate substitutes the smallest substrate that
//! exercises the same code path:
//!
//! * [`World::run`] spawns `nranks` OS threads, each receiving a [`Comm`]
//!   handle — the moral equivalent of `MPI_COMM_WORLD`;
//! * [`Comm`] provides `barrier`, `allreduce_sum`, point-to-point
//!   `send`/`recv`, `gather`, and per-rank communication-time accounting
//!   (the quantity Fig. 7 plots). Every collective is built on
//!   point-to-point messages; the allreduce is a recursive-doubling tree
//!   whose pairwise sums make every rank read the same bits, run after run;
//! * [`cost::CostModel`] is a LogGP-style analytic model, calibrated from
//!   measured runs, used to extrapolate the weak/strong scaling of Figs. 7
//!   and 9 to core counts the host machine does not have.
//!
//! ## Fault injection and reliable transport
//!
//! Real interconnects drop, delay, and corrupt packets; MPI hides that
//! behind a reliable transport. This crate models both halves so the PIC
//! runtime's resilience can be exercised deterministically:
//!
//! * a seeded [`FaultPlan`] (installed via [`World::run_with_faults`])
//!   decides drop/corrupt/delay per transmission attempt as a pure hash of
//!   `(seed, src, dst, tag, seq, attempt)` — reproducible and independent
//!   of thread interleaving;
//! * every data frame carries an FNV-1a [`checksum`] of its payload; a
//!   receiver discards corrupted frames without acknowledging them;
//! * under a fault plan, sends are acknowledged and retried with bounded
//!   exponential backoff; a frame that cannot be delivered surfaces as a
//!   clean [`CommError`] from the `try_*` APIs instead of a deadlock.
//!
//! Without a fault plan the transport takes a fast path with no
//! acknowledgements (in-process channels cannot drop frames), so the
//! fault machinery costs nothing in normal runs.
//!
//! ## Crash faults and shrinking recovery
//!
//! Beyond lossy links, ranks can *die*: [`FaultPlan::kill_rank`] schedules a
//! crash fault at a deterministic operation count, after which every
//! operation on the killed rank returns [`CommError::RankFailed`] and the
//! rank marks itself dead in the world's shared failure-detector state.
//! Survivors observe the death — through the dead flag, or through a stale
//! heartbeat when [`Comm::set_heartbeat_timeout`] arms the detector — and
//! their fault-aware collectives ([`Comm::try_barrier`],
//! [`Comm::try_allreduce_sum_tree`], [`Comm::try_broadcast`],
//! [`Comm::try_gather`]) return [`CommError::RankFailed`] instead of
//! hanging. [`Comm::shrink`] then rebuilds a live-rank communicator
//! (ULFM-style) and bumps the communicator epoch so stale pre-failure
//! traffic can never match a post-shrink collective. Every retry, timeout,
//! kill, detection, and shrink is recorded as a [`TransportEvent`]
//! (drained with [`Comm::take_events`]) for post-mortem ledgers.
//!
//! ## Example
//!
//! ```
//! use minimpi::World;
//!
//! let results = World::run(4, |comm| {
//!     let mine = vec![comm.rank() as f64; 8];
//!     let mut buf = mine.clone();
//!     comm.allreduce_sum(&mut buf);
//!     buf[0] // 0+1+2+3 = 6
//! });
//! assert!(results.iter().all(|&r| r == 6.0));
//! ```
//!
//! Fault-injected example — a lossy link that the transport recovers from:
//!
//! ```
//! use minimpi::{FaultPlan, World};
//!
//! let plan = FaultPlan::new(1).drop_messages(0.3);
//! let sums = World::run_with_faults(2, plan, |comm| {
//!     comm.set_ack_timeout(std::time::Duration::from_millis(5));
//!     let mut v = vec![comm.rank() as f64 + 1.0];
//!     comm.try_allreduce_sum_tree(&mut v, 0).unwrap();
//!     v[0]
//! });
//! assert!(sums.iter().all(|&s| s == 3.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod fault;

pub use fault::{checksum, load_scaled_deadline, FaultPlan};

use fault::Fault;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-global monotone counter that orders fault events across ranks
/// (and across crates: `pic_core::faultlog` stamps its ledger entries from
/// the same counter, so a merged ledger sorts into true causal order —
/// a kill is always sequenced before its detection).
static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Draw the next value of the process-global fault-event sequence counter.
pub fn next_event_seq() -> u64 {
    EVENT_SEQ.fetch_add(1, Ordering::SeqCst)
}

/// What a [`TransportEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEventKind {
    /// A reliable send retransmitted an unacknowledged frame.
    Retry,
    /// A receive deadline elapsed.
    Timeout,
    /// This rank was killed by the fault plan's crash schedule.
    Kill,
    /// A peer rank was detected as failed (first observation only).
    Detect,
    /// The communicator group was shrunk to the surviving ranks.
    Shrink,
    /// A spare rank was admitted into the communicator group (recorded by
    /// both the admitting members and the joiner itself).
    Join,
}

/// One entry of the transport-level fault ledger, recorded by [`Comm`] as
/// faults are injected, detected, and recovered from. Drained with
/// [`Comm::take_events`]; `seq` comes from [`next_event_seq`] so entries
/// from different ranks merge into a single causally ordered ledger.
#[derive(Debug, Clone)]
pub struct TransportEvent {
    /// Global sequence number (monotone across all ranks in the process).
    pub seq: u64,
    /// Event kind.
    pub kind: TransportEventKind,
    /// The recording rank.
    pub rank: usize,
    /// The peer rank involved, if any (retry destination, detected rank…).
    pub peer: Option<usize>,
    /// The tag of the affected exchange (0 when not applicable).
    pub tag: u64,
    /// The recording rank's operation counter when the event fired.
    pub op: u64,
    /// Human-readable context.
    pub detail: String,
}

/// A communication failure surfaced by the fallible (`try_*`) APIs.
///
/// These arise only under fault injection or when a peer rank exits early;
/// the fault-free in-process transport cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the receive deadline
    /// ([`Comm::set_recv_deadline`]).
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// The rank the message was expected from.
        src: usize,
        /// The expected tag.
        tag: u64,
    },
    /// Every transmission attempt of a frame was lost or corrupted and the
    /// retry budget ([`Comm::set_max_retries`]) is exhausted.
    RetriesExhausted {
        /// The sending rank.
        rank: usize,
        /// The destination rank.
        dst: usize,
        /// The frame's tag.
        tag: u64,
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// A peer's inbox was torn down (the rank returned or panicked).
    Disconnected {
        /// The rank that observed the disconnect.
        rank: usize,
    },
    /// A rank of the communicator failed (crash fault, or heartbeat staler
    /// than [`Comm::set_heartbeat_timeout`]). `failed == rank` means the
    /// reporting rank itself was killed by the fault plan. Survivors
    /// typically respond by calling [`Comm::shrink`].
    RankFailed {
        /// The observing rank.
        rank: usize,
        /// The rank detected as failed.
        failed: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => {
                write!(
                    f,
                    "rank {rank}: timed out waiting for (src {src}, tag {tag})"
                )
            }
            CommError::RetriesExhausted {
                rank,
                dst,
                tag,
                attempts,
            } => write!(
                f,
                "rank {rank}: gave up sending (dst {dst}, tag {tag}) after {attempts} attempts"
            ),
            CommError::Disconnected { rank } => {
                write!(f, "rank {rank}: peer inbox disconnected")
            }
            CommError::RankFailed { rank, failed } if rank == failed => {
                write!(f, "rank {rank}: killed by crash fault")
            }
            CommError::RankFailed { rank, failed } => {
                write!(f, "rank {rank}: rank {failed} detected as failed")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A wire frame: either a data message or an acknowledgement.
///
/// Control frames ([`Frame::Ack`]) are never fault-injected — keeping the
/// reverse path reliable keeps the protocol a simple positive-ack scheme
/// (a lost ack would only cause a duplicate retransmission, which the
/// receiver's dedup absorbs anyway).
#[derive(Debug, Clone)]
enum Frame {
    Data {
        src: usize,
        tag: u64,
        /// Per-(src → dst) monotone sequence number; identifies the frame
        /// across retransmissions and drives duplicate suppression.
        seq: u64,
        /// Whether the sender is waiting for an [`Frame::Ack`].
        needs_ack: bool,
        /// FNV-1a checksum of the *original* payload. A corrupted-in-flight
        /// frame carries the clean checksum, so the receiver detects it.
        checksum: u64,
        data: Vec<f64>,
    },
    Ack {
        /// The acknowledging rank.
        src: usize,
        seq: u64,
    },
}

/// The admission board of an elastic world: spares announce themselves as
/// candidates, the group leader posts tickets once the members vote them
/// in, and the members close the board when the run ends so unused spares
/// stop waiting. Purely advisory shared state — the binding agreement is
/// the epoch-tagged allreduce inside [`Comm::try_admit`].
#[derive(Default)]
struct JoinBoard {
    /// World ranks of spares currently waiting for admission.
    candidates: Vec<usize>,
    /// Admission tickets posted by the group leader:
    /// `(candidate, new group, new epoch)`.
    tickets: Vec<(usize, Vec<usize>, u64)>,
    /// No further admissions — posted when the members finish their run.
    closed: bool,
}

/// Shared state for one world.
struct Shared {
    nranks: usize,
    /// Per-rank inbox sender handles (indexed by destination).
    inboxes: Vec<Sender<Frame>>,
    /// Total communication time across ranks, in nanoseconds.
    comm_nanos: AtomicU64,
    /// Failure detector: `dead[r]` is set by rank `r` itself when a crash
    /// fault kills it, giving survivors an immediate, consistent signal.
    dead: Vec<AtomicBool>,
    /// Per-rank heartbeat timestamps (nanoseconds since `start`), refreshed
    /// at every communication operation and while polling in fault-aware
    /// receives. A rank whose heartbeat goes stale beyond the configured
    /// timeout is treated as failed even if it never set its dead flag.
    heartbeats: Vec<AtomicU64>,
    /// World creation time — the heartbeat clock's origin.
    start: Instant,
    /// Spare-admission board for elastic worlds ([`World::run_elastic`]).
    join: Mutex<JoinBoard>,
}

/// Bounded exponential backoff between retransmissions: 1, 2, 4, 8, 16 ms,
/// capped at 20 ms.
fn backoff(attempt: usize) -> Duration {
    Duration::from_millis((1u64 << attempt.min(5)).min(20))
}

/// The world: spawns ranks and collects their results.
pub struct World;

impl World {
    /// Run `f` on `nranks` concurrent ranks and return their results in rank
    /// order. Panics in any rank propagate.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        Self::run_inner(nranks, nranks, None, f).0
    }

    /// Like [`World::run`], additionally returning the mean per-rank
    /// communication time in seconds.
    pub fn run_timed<T, F>(nranks: usize, f: F) -> (Vec<T>, f64)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        Self::run_inner(nranks, nranks, None, f)
    }

    /// Run `f` on `nranks` ranks with `plan` injecting message faults into
    /// every data frame. Point-to-point traffic switches to the reliable
    /// (ack + retry) transport; ranks should use the `try_*` APIs and
    /// handle [`CommError`] (the panicking wrappers abort the rank on
    /// unrecoverable faults).
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn run_with_faults<T, F>(nranks: usize, plan: FaultPlan, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        Self::run_inner(nranks, nranks, Some(Arc::new(plan)), f).0
    }

    /// Run an *elastic* world: `active` member ranks plus `spares` extra
    /// ranks that start outside the communicator group. Spares call
    /// [`Comm::try_join`] to announce themselves and wait for admission;
    /// members admit them with the [`Comm::try_admit`] collective
    /// (typically after a [`Comm::shrink`] removed a dead rank) and should
    /// call [`Comm::close_joins`] when they finish so unclaimed spares stop
    /// waiting. All `active + spares` closures run concurrently and their
    /// results return in world-rank order.
    ///
    /// # Panics
    /// Panics if `active == 0`.
    pub fn run_elastic<T, F>(active: usize, spares: usize, plan: Option<FaultPlan>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        Self::run_inner(active + spares, active, plan.map(Arc::new), f).0
    }

    fn run_inner<T, F>(
        nranks: usize,
        active: usize,
        faults: Option<Arc<FaultPlan>>,
        f: F,
    ) -> (Vec<T>, f64)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        assert!(active > 0 && active <= nranks, "need at least one member");
        let mut senders = Vec::with_capacity(nranks);
        let mut receivers = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            nranks,
            inboxes: senders,
            comm_nanos: AtomicU64::new(0),
            dead: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            heartbeats: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            start: Instant::now(),
            join: Mutex::new(JoinBoard::default()),
        });

        let mut out: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let shared = Arc::clone(&shared);
                    let faults = faults.clone();
                    let f = &f;
                    s.spawn(move || {
                        let mut comm = Comm::new(rank, active, shared, rx, faults);
                        let r = f(&mut comm);
                        comm.shared
                            .comm_nanos
                            .fetch_add(comm.comm_time_ns, Ordering::Relaxed);
                        r
                    })
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                // Propagating a child panic: reachable only when the user
                // closure itself panics.
                *slot = Some(h.join().expect("rank panicked"));
            }
        });
        let mean_comm = shared.comm_nanos.load(Ordering::Relaxed) as f64 / 1e9 / nranks as f64;
        // Every slot was filled in the join loop above.
        let results = out.into_iter().map(|o| o.expect("slot filled")).collect();
        (results, mean_comm)
    }
}

/// Per-rank communicator handle.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    inbox: Receiver<Frame>,
    /// Validated messages received but not yet claimed (selective receive),
    /// as `(src, tag, payload)` in arrival order.
    stash: VecDeque<(usize, u64, Vec<f64>)>,
    /// `(src, seq)` pairs already delivered — suppresses retransmitted
    /// duplicates on the reliable path.
    delivered: HashSet<(usize, u64)>,
    /// Acks that arrived while this rank was not waiting for them
    /// (e.g. a late ack after a sender timeout), as `(peer, seq)`.
    acked: HashSet<(usize, u64)>,
    /// Next sequence number per destination rank.
    next_seq: Vec<u64>,
    comm_time_ns: u64,
    faults: Option<Arc<FaultPlan>>,
    ack_timeout: Duration,
    recv_deadline: Duration,
    max_retries: usize,
    /// World ranks of the current (possibly shrunk or grown) communicator
    /// group, sorted ascending. Starts as `0..active`.
    group: Vec<usize>,
    /// Whether this rank belongs to `group`. Always true in non-elastic
    /// worlds; spares of an elastic world start false and flip true when
    /// [`try_join`](Self::try_join) hands them an admission ticket.
    member: bool,
    /// Communicator epoch, bumped by [`shrink`](Self::shrink) and
    /// [`try_admit`](Self::try_admit), and mixed into the high bits of
    /// collective tags so stale pre-recovery traffic never matches a
    /// post-recovery collective.
    epoch: u64,
    /// Failed-admission attempts within the current epoch — sequences the
    /// join-agreement tags exactly like `shrink`'s attempt counter. Reset
    /// on every epoch bump so a fresh joiner agrees with the incumbents.
    join_seq: u64,
    /// Count of public communication operations — the clock crash faults
    /// ([`FaultPlan::kill_rank`]) key on.
    op_count: u64,
    /// Set when this rank's scheduled crash fault has fired.
    dead_self: bool,
    /// Stale-heartbeat threshold; `None` disables the heartbeat half of
    /// the failure detector (dead flags still work).
    heartbeat_timeout: Option<Duration>,
    /// Poll/backoff slice for fault-aware receives: how often a blocked
    /// receive re-checks the failure detector.
    detect_poll: Duration,
    /// Peers already reported as failed (one Detect event per peer).
    detected: HashSet<usize>,
    /// Transport-level fault ledger, drained by [`take_events`](Self::take_events).
    events: Vec<TransportEvent>,
    /// Sequence counter for internally tagged collectives (`barrier`,
    /// `allreduce_sum`) — advances identically on every rank. Reset on
    /// every epoch bump, like `join_seq`, so an admitted spare agrees with
    /// the incumbents.
    ctl_seq: u64,
    /// Payload `f64` values successfully sent over the message path (the
    /// per-rank communication *volume*, as distinct from the *time* in
    /// `comm_time_ns`). Retransmissions of the same frame count once.
    sent_f64s: u64,
    /// Payload `f64` values claimed by receives on this rank.
    recvd_f64s: u64,
}

/// Bits reserved above user collective tags for the communicator epoch.
/// User tags must stay below `1 << EPOCH_SHIFT`.
const EPOCH_SHIFT: u32 = 48;
/// Tag namespace for internally sequenced collectives (barrier,
/// `allreduce_sum`). Above any user tag in the tree, below epoch bits.
const CTL_TAG_BASE: u64 = 1 << 46;
/// Tag namespace for the shrink agreement protocol.
const SHRINK_TAG_BASE: u64 = 1 << 45;
/// Tag namespace for the join (spare admission) agreement protocol.
const JOIN_TAG_BASE: u64 = 1 << 44;
/// Tag stride between internally sequenced collectives — larger than any
/// offset a single collective adds to its base tag.
const CTL_TAG_STRIDE: u64 = 4096;

/// Bit position of the per-job tag block inside application tag
/// namespaces. A multi-tenant runtime driving several decomposed
/// simulations over one world folds `job_tag_block(job)` into every tag,
/// so concurrent jobs never alias each other's step traffic. Bits 0–23
/// remain for step-indexed tags (2²⁰ steps at 16 tags/step), bits 24–35
/// carry the job, and the decomposition driver's epoch fold (bit 36+) and
/// the control namespaces (bit 44+) sit safely above.
pub const JOB_TAG_SHIFT: u32 = 24;
/// Exclusive upper bound on job ids representable in a tag block.
pub const MAX_TAG_JOBS: u64 = 1 << 12;

/// The tag-namespace block reserved for `job` (see [`JOB_TAG_SHIFT`]).
///
/// # Panics
/// If `job >= MAX_TAG_JOBS` — the runtime must recycle job ids (modulo
/// `MAX_TAG_JOBS` is safe once a job's traffic has drained).
pub fn job_tag_block(job: u64) -> u64 {
    assert!(
        job < MAX_TAG_JOBS,
        "job id {job} exceeds the {MAX_TAG_JOBS}-entry tag-block space"
    );
    job << JOB_TAG_SHIFT
}

impl Comm {
    fn new(
        rank: usize,
        active: usize,
        shared: Arc<Shared>,
        inbox: Receiver<Frame>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let nranks = shared.nranks;
        Comm {
            rank,
            shared,
            inbox,
            stash: VecDeque::new(),
            delivered: HashSet::new(),
            acked: HashSet::new(),
            next_seq: vec![0; nranks],
            comm_time_ns: 0,
            faults,
            ack_timeout: Duration::from_millis(25),
            recv_deadline: Duration::from_secs(10),
            max_retries: 10,
            group: (0..active).collect(),
            member: rank < active,
            epoch: 0,
            join_seq: 0,
            op_count: 0,
            dead_self: false,
            heartbeat_timeout: None,
            detect_poll: Duration::from_millis(2),
            detected: HashSet::new(),
            events: Vec::new(),
            ctl_seq: 0,
            sent_f64s: 0,
            recvd_f64s: 0,
        }
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.nranks
    }

    /// Seconds this rank has spent inside communication calls.
    pub fn comm_time(&self) -> f64 {
        self.comm_time_ns as f64 / 1e9
    }

    /// Bytes of payload this rank has sent (8 bytes per `f64`; each logical
    /// frame counts once, however many times the reliable transport
    /// retransmitted it).
    pub fn bytes_sent(&self) -> u64 {
        self.sent_f64s * 8
    }

    /// Bytes of payload claimed by receives on this rank.
    pub fn bytes_received(&self) -> u64 {
        self.recvd_f64s * 8
    }

    /// Zero the [`bytes_sent`](Self::bytes_sent) /
    /// [`bytes_received`](Self::bytes_received) counters (e.g. after a
    /// warmup phase).
    pub fn reset_data_volume(&mut self) {
        self.sent_f64s = 0;
        self.recvd_f64s = 0;
    }

    /// How long a reliable send waits for an ack before retransmitting.
    pub fn set_ack_timeout(&mut self, d: Duration) {
        self.ack_timeout = d;
    }

    /// Deadline for [`try_recv`](Self::try_recv) before it reports
    /// [`CommError::Timeout`] — the bound that turns a would-be deadlock
    /// into a clean error.
    pub fn set_recv_deadline(&mut self, d: Duration) {
        self.recv_deadline = d;
    }

    /// Retransmission budget per frame on the reliable path.
    pub fn set_max_retries(&mut self, n: usize) {
        self.max_retries = n;
    }

    /// Arm the heartbeat failure detector: a peer whose last heartbeat is
    /// older than `d` is treated as failed. Heartbeats are refreshed at
    /// every communication operation and while polling inside fault-aware
    /// receives, so choose `d` larger than the longest compute phase
    /// between communication calls.
    pub fn set_heartbeat_timeout(&mut self, d: Duration) {
        self.heartbeat_timeout = Some(d);
        // Poll at a fraction of the timeout: a blocked receive that wakes
        // every 2 ms to re-check a 2 s detector burns context switches
        // (measurable when ranks share cores) without detecting anything
        // sooner.
        self.detect_poll = (d / 20).clamp(Duration::from_millis(2), Duration::from_millis(250));
    }

    /// World ranks of the current communicator group, sorted ascending.
    /// Identical to `0..size()` until a [`shrink`](Self::shrink).
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    /// Current communicator epoch (bumped by each [`shrink`](Self::shrink)
    /// and each successful [`try_admit`](Self::try_admit)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this rank belongs to the current communicator group. Always
    /// true in non-elastic worlds; a spare of [`World::run_elastic`] is a
    /// non-member until [`try_join`](Self::try_join) admits it. Non-members
    /// must not call group collectives.
    pub fn is_member(&self) -> bool {
        self.member
    }

    /// Count of public communication operations performed by this rank —
    /// the clock [`FaultPlan::kill_rank`] schedules crash faults against.
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Drain the transport-level fault ledger: every retry, timeout, kill,
    /// failure detection, and shrink recorded since the last call.
    pub fn take_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    fn push_event(
        &mut self,
        kind: TransportEventKind,
        peer: Option<usize>,
        tag: u64,
        detail: String,
    ) {
        self.events.push(TransportEvent {
            seq: next_event_seq(),
            kind,
            rank: self.rank,
            peer,
            tag,
            op: self.op_count,
            detail,
        });
    }

    /// Refresh this rank's heartbeat timestamp.
    fn beat(&self) {
        let ns = self.shared.start.elapsed().as_nanos() as u64;
        self.shared.heartbeats[self.rank].store(ns, Ordering::Relaxed);
    }

    /// Whether the failure-detector checks are active: any fault plan, an
    /// armed heartbeat detector, or a group that is not the whole world (a
    /// shrunk group, or an elastic world with spares outside it) means
    /// ranks can die.
    fn watching(&self) -> bool {
        self.faults.is_some()
            || self.heartbeat_timeout.is_some()
            || self.group.len() != self.shared.nranks
    }

    /// Is world rank `p` currently considered failed?
    fn peer_failed(&self, p: usize) -> bool {
        if self.shared.dead[p].load(Ordering::SeqCst) {
            return true;
        }
        if let Some(timeout) = self.heartbeat_timeout {
            let now = self.shared.start.elapsed();
            let hb = Duration::from_nanos(self.shared.heartbeats[p].load(Ordering::Relaxed));
            if now > hb + timeout {
                return true;
            }
        }
        false
    }

    /// Scan the current group for a member the failure detector considers
    /// dead. A point-to-point receive from a *live* peer surfaces a third
    /// rank's death only as [`CommError::Timeout`] (the detector watches
    /// the message's source, not the whole group); callers holding such a
    /// timeout can consult this to distinguish a genuine stall from a peer
    /// failure that warrants a [`Comm::shrink`].
    pub fn failed_group_member(&self) -> Option<usize> {
        self.group
            .iter()
            .copied()
            .find(|&m| m != self.rank && self.peer_failed(m))
    }

    /// Build the error for an observed failure of `failed`, recording a
    /// Detect event the first time each peer is seen dead.
    fn rank_failed(&mut self, failed: usize) -> CommError {
        if failed != self.rank && self.detected.insert(failed) {
            self.push_event(
                TransportEventKind::Detect,
                Some(failed),
                0,
                format!("rank {failed} detected as failed"),
            );
        }
        CommError::RankFailed {
            rank: self.rank,
            failed,
        }
    }

    /// Account one public communication operation: fire a scheduled crash
    /// fault when its op count is reached, refresh the heartbeat, and
    /// refuse to operate once this rank is dead.
    fn note_op(&mut self) -> Result<(), CommError> {
        if self.dead_self {
            return Err(CommError::RankFailed {
                rank: self.rank,
                failed: self.rank,
            });
        }
        self.op_count += 1;
        if let Some(plan) = &self.faults {
            if let Some(at) = plan.kill_at(self.rank) {
                if self.op_count >= at {
                    self.push_event(
                        TransportEventKind::Kill,
                        None,
                        0,
                        format!("crash fault at op {}", self.op_count),
                    );
                    self.dead_self = true;
                    // The flag store is sequenced after the Kill event's
                    // seq draw, so a merged ledger always orders the kill
                    // before any survivor's detection of it.
                    self.shared.dead[self.rank].store(true, Ordering::SeqCst);
                    return Err(CommError::RankFailed {
                        rank: self.rank,
                        failed: self.rank,
                    });
                }
            }
        }
        self.beat();
        Ok(())
    }

    /// Epoch-qualify a collective tag.
    fn etag(&self, tag: u64) -> u64 {
        debug_assert!(
            tag < 1 << EPOCH_SHIFT,
            "user tag {tag} overflows epoch bits"
        );
        (self.epoch << EPOCH_SHIFT) | tag
    }

    /// Next tag for an internally sequenced collective.
    fn next_ctl_tag(&mut self) -> u64 {
        let tag = self.etag(CTL_TAG_BASE + CTL_TAG_STRIDE * self.ctl_seq);
        self.ctl_seq += 1;
        tag
    }

    /// Synchronize the current group ([`try_barrier`](Self::try_barrier)).
    ///
    /// # Panics
    /// Panics on a detected rank failure (only possible with the failure
    /// detector active); use [`try_barrier`](Self::try_barrier) to handle.
    pub fn barrier(&mut self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("minimpi barrier: {e}"));
    }

    /// Fault-aware barrier over the current group (gather-to-root then
    /// release, all point-to-point): returns [`CommError::RankFailed`]
    /// instead of hanging when a group member dies.
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.note_op()?;
        let tag = self.next_ctl_tag();
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.barrier_over(&group, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    fn barrier_over(&mut self, group: &[usize], tag: u64) -> Result<(), CommError> {
        if group.len() <= 1 {
            return Ok(());
        }
        let r = self.group_index(group);
        if r == 0 {
            for &m in &group[1..] {
                self.recv_watch(m, tag, Some(group))?;
            }
            for &m in &group[1..] {
                self.send_ft(m, tag + 1, &[], Some(group))?;
            }
        } else {
            self.send_ft(group[0], tag, &[], Some(group))?;
            self.recv_watch(group[0], tag + 1, Some(group))?;
        }
        Ok(())
    }

    /// This rank's index within `group`.
    ///
    /// # Panics
    /// Panics if this rank is not a member — calling a collective after
    /// being excluded by a shrink is a protocol violation.
    fn group_index(&self, group: &[usize]) -> usize {
        group
            .iter()
            .position(|&g| g == self.rank)
            .expect("rank not in communicator group")
    }

    // ---------------------------------------------------------------- data
    // path: validate / ack / dedup / stash.

    fn accept_data(
        &mut self,
        src: usize,
        tag: u64,
        seq: u64,
        needs_ack: bool,
        sum: u64,
        data: Vec<f64>,
    ) {
        if fault::checksum(&data) != sum {
            // Corrupted in flight: discard without acknowledging. The
            // sender retransmits and a clean copy arrives on a later
            // attempt (or its retry budget runs out and it reports the
            // failure) — corruption never reaches the application.
            return;
        }
        if needs_ack {
            // Ack duplicates too: the earlier ack may have raced the
            // sender's timeout. Delivery failure here means the sender is
            // gone, which its own side already observes.
            let _ = self.shared.inboxes[src].send(Frame::Ack {
                src: self.rank,
                seq,
            });
            if !self.delivered.insert((src, seq)) {
                return; // retransmitted duplicate, already delivered
            }
        }
        self.stash.push_back((src, tag, data));
    }

    fn deliver(&self, dst: usize, frame: Frame) -> Result<(), CommError> {
        self.shared.inboxes[dst]
            .send(frame)
            .map_err(|_| CommError::Disconnected { rank: self.rank })
    }

    /// Wait for an ack of `seq` from `peer`, servicing any data frames that
    /// arrive meanwhile (two ranks reliably sending to each other would
    /// otherwise deadlock). `Ok(false)` means the ack timeout elapsed.
    fn await_ack(&mut self, peer: usize, seq: u64) -> Result<bool, CommError> {
        if self.acked.remove(&(peer, seq)) {
            return Ok(true);
        }
        let deadline = Instant::now() + self.ack_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            match self.inbox.recv_timeout(deadline - now) {
                Ok(Frame::Ack { src, seq: s }) => {
                    if src == peer && s == seq {
                        return Ok(true);
                    }
                    self.acked.insert((src, s));
                }
                Ok(Frame::Data {
                    src,
                    tag,
                    seq,
                    needs_ack,
                    checksum,
                    data,
                }) => self.accept_data(src, tag, seq, needs_ack, checksum, data),
                Err(RecvTimeoutError::Timeout) => return Ok(false),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank: self.rank })
                }
            }
        }
    }

    // ---------------------------------------------------------- point-to-point

    /// Send a copy of `data` to `dst` with `tag`, reporting transport
    /// failures instead of panicking.
    ///
    /// Without a fault plan this is a single infallible channel push. With
    /// one, the frame is retransmitted with bounded exponential backoff
    /// until acknowledged; a frame the plan starves past the retry budget
    /// returns [`CommError::RetriesExhausted`].
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    pub fn try_send(&mut self, dst: usize, tag: u64, data: &[f64]) -> Result<(), CommError> {
        self.note_op()?;
        let t = Instant::now();
        let res = self.send_ft(dst, tag, data, None);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    /// `send_impl` with failure mapping: a transport failure towards a
    /// peer the detector considers dead surfaces as
    /// [`CommError::RankFailed`] rather than a generic transport error.
    fn send_ft(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f64],
        watch: Option<&[usize]>,
    ) -> Result<(), CommError> {
        let res = self.send_impl(dst, tag, data);
        if res.is_ok() {
            self.sent_f64s += data.len() as u64;
        }
        match res {
            Err(e @ (CommError::Disconnected { .. } | CommError::RetriesExhausted { .. }))
                if self.watching() =>
            {
                // A peer that stops answering may itself be the casualty,
                // or may have aborted a collective after detecting some
                // *other* group member's death — attribute the failure to
                // whichever watched rank the detector actually flags.
                let failed = if self.peer_failed(dst) {
                    Some(dst)
                } else {
                    watch.and_then(|g| {
                        g.iter()
                            .copied()
                            .find(|&p| p != self.rank && self.peer_failed(p))
                    })
                };
                match failed {
                    Some(p) => Err(self.rank_failed(p)),
                    None => Err(e),
                }
            }
            r => r,
        }
    }

    fn send_impl(&mut self, dst: usize, tag: u64, data: &[f64]) -> Result<(), CommError> {
        if self.watching() && self.peer_failed(dst) {
            return Err(self.rank_failed(dst));
        }
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let sum = fault::checksum(data);

        let Some(plan) = self.faults.clone() else {
            // Fast path: in-process channels cannot drop or corrupt, so no
            // ack round-trip is needed.
            return self.deliver(
                dst,
                Frame::Data {
                    src: self.rank,
                    tag,
                    seq,
                    needs_ack: false,
                    checksum: sum,
                    data: data.to_vec(),
                },
            );
        };

        for attempt in 0..=self.max_retries {
            if attempt > 0 && self.peer_failed(dst) {
                // The peer died while we were retrying: stop burning the
                // retry budget and report the failure directly.
                return Err(self.rank_failed(dst));
            }
            match plan.decide(self.rank, dst, tag, seq, attempt as u64) {
                Fault::Drop => {} // this attempt is lost in flight
                outcome => {
                    let mut payload = data.to_vec();
                    if outcome == Fault::Corrupt {
                        fault::corrupt_payload(attempt as u64, self.rank, seq, &mut payload);
                    }
                    if let Fault::Delay(d) = outcome {
                        std::thread::sleep(d);
                    }
                    self.deliver(
                        dst,
                        Frame::Data {
                            src: self.rank,
                            tag,
                            seq,
                            needs_ack: true,
                            checksum: sum,
                            data: payload,
                        },
                    )?;
                }
            }
            if self.await_ack(dst, seq)? {
                return Ok(());
            }
            self.push_event(
                TransportEventKind::Retry,
                Some(dst),
                tag,
                format!("attempt {attempt} unacknowledged, retransmitting"),
            );
            std::thread::sleep(backoff(attempt));
        }
        Err(CommError::RetriesExhausted {
            rank: self.rank,
            dst,
            tag,
            attempts: self.max_retries + 1,
        })
    }

    /// Send a copy of `data` to `dst` with `tag`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range, or on a transport failure — which
    /// only fault injection or an early-exiting peer can cause; use
    /// [`try_send`](Self::try_send) to handle those.
    pub fn send(&mut self, dst: usize, tag: u64, data: &[f64]) {
        self.try_send(dst, tag, data)
            .unwrap_or_else(|e| panic!("minimpi send to rank {dst}: {e}"));
    }

    /// Blocking selective receive from `src` with `tag`, bounded by the
    /// receive deadline ([`Self::set_recv_deadline`]) so a missing sender
    /// yields [`CommError::Timeout`] instead of a hang.
    pub fn try_recv(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.note_op()?;
        let t = Instant::now();
        let res = self.recv_watch(src, tag, None);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    /// Group-watched point-to-point receive: like [`try_recv`](Self::try_recv),
    /// but the failure of *any* current group member — not just `src` —
    /// surfaces as [`CommError::RankFailed`]. Use this for receives inside
    /// a step whose completion depends on the whole group making progress
    /// (halo exchanges, scatter legs): a third rank's death then interrupts
    /// every member within a detector poll instead of costing stragglers a
    /// full receive deadline, which keeps their entry into
    /// [`shrink`](Self::shrink) aligned.
    pub fn try_recv_group(&mut self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.note_op()?;
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.recv_watch(src, tag, Some(&group));
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    /// Pull every frame already sitting in the inbox into the stash/ack
    /// sets without blocking — run before declaring a peer failed, so a
    /// message it sent just before dying is still delivered.
    fn drain_inbox(&mut self) {
        while let Ok(frame) = self.inbox.try_recv() {
            match frame {
                Frame::Data {
                    src,
                    tag,
                    seq,
                    needs_ack,
                    checksum,
                    data,
                } => self.accept_data(src, tag, seq, needs_ack, checksum, data),
                Frame::Ack { src, seq } => {
                    self.acked.insert((src, seq));
                }
            }
        }
    }

    fn stash_take(&mut self, src: usize, tag: u64) -> Option<Vec<f64>> {
        let pos = self
            .stash
            .iter()
            .position(|(s, g, _)| *s == src && *g == tag)?;
        // The position was just found, so the removal succeeds.
        let data = self.stash.remove(pos).expect("stash entry present").2;
        self.recvd_f64s += data.len() as u64;
        Some(data)
    }

    /// The blocking-receive core. With the failure detector active it polls
    /// in `detect_poll` slices, refreshing this rank's heartbeat and
    /// checking `src` — plus every member of `watch`, for collectives,
    /// whose completion depends on the whole group — against the detector,
    /// so a dead rank surfaces as [`CommError::RankFailed`] long before the
    /// receive deadline. Fault-free full-group runs block on the channel
    /// directly, paying nothing.
    fn recv_watch(
        &mut self,
        src: usize,
        tag: u64,
        watch: Option<&[usize]>,
    ) -> Result<Vec<f64>, CommError> {
        let deadline = Instant::now() + self.recv_deadline;
        let watching = self.watching();
        loop {
            if let Some(data) = self.stash_take(src, tag) {
                return Ok(data);
            }
            if watching {
                self.beat();
                let failed = if self.peer_failed(src) {
                    Some(src)
                } else {
                    watch.and_then(|g| {
                        g.iter()
                            .copied()
                            .find(|&p| p != self.rank && self.peer_failed(p))
                    })
                };
                if let Some(p) = failed {
                    // Deliver anything already in flight before giving up:
                    // the dead rank may have sent this message first.
                    self.drain_inbox();
                    if let Some(data) = self.stash_take(src, tag) {
                        return Ok(data);
                    }
                    return Err(self.rank_failed(p));
                }
            }
            let now = Instant::now();
            if now >= deadline {
                self.push_event(
                    TransportEventKind::Timeout,
                    Some(src),
                    tag,
                    "receive deadline elapsed".into(),
                );
                return Err(CommError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                });
            }
            let wait = if watching {
                self.detect_poll.min(deadline - now)
            } else {
                deadline - now
            };
            match self.inbox.recv_timeout(wait) {
                Ok(Frame::Data {
                    src,
                    tag,
                    seq,
                    needs_ack,
                    checksum,
                    data,
                }) => self.accept_data(src, tag, seq, needs_ack, checksum, data),
                Ok(Frame::Ack { src, seq }) => {
                    // A late ack (its sender already timed out and moved
                    // on, or will look for it on its next await).
                    self.acked.insert((src, seq));
                }
                Err(RecvTimeoutError::Timeout) => {} // loop re-checks
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { rank: self.rank })
                }
            }
        }
    }

    /// Blocking selective receive from `src` with `tag`, bounded by the
    /// receive deadline ([`Self::set_recv_deadline`]) exactly like
    /// [`try_recv`](Self::try_recv) — no public receive can block forever.
    ///
    /// # Panics
    /// Panics if the receive deadline elapses, a watched rank fails, or the
    /// world is torn down; use [`try_recv`](Self::try_recv) to handle those.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        self.try_recv(src, tag)
            .unwrap_or_else(|e| panic!("minimpi recv from rank {src}: {e}"))
    }

    /// Global sum-reduction of `buf` over the current group; every member
    /// ends with the same bits of the total (the paper's `MPI_ALLREDUCE` on
    /// ρ). The [tree](Self::try_allreduce_sum_tree) algorithm on the next
    /// internally sequenced tag, so callers need not pick one.
    ///
    /// # Panics
    /// Panics if ranks pass buffers of different lengths.
    pub fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> Result<(), CommError> {
        self.note_op()?;
        let tag = self.next_ctl_tag();
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.allreduce_tree_over(&group, buf, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    /// Infallible wrapper around
    /// [`try_allreduce_sum`](Self::try_allreduce_sum).
    ///
    /// # Panics
    /// Panics if ranks pass buffers of different lengths, or on transport
    /// failure (only possible under fault injection or an early-exiting
    /// peer).
    pub fn allreduce_sum(&mut self, buf: &mut [f64]) {
        self.try_allreduce_sum(buf)
            .unwrap_or_else(|e| panic!("minimpi allreduce_sum: {e}"));
    }

    /// Tree (recursive-doubling) allreduce built on point-to-point messages —
    /// the algorithm real MPI uses, with `⌈log₂ P⌉` rounds. Works for any
    /// rank count (non-powers of two fold the remainder onto the main tree)
    /// and runs over the current (possibly shrunk) group. Under fault
    /// injection, each hop recovers via the reliable transport or surfaces
    /// its [`CommError`]; a dead group member surfaces as
    /// [`CommError::RankFailed`] instead of a hang.
    pub fn try_allreduce_sum_tree(&mut self, buf: &mut [f64], tag: u64) -> Result<(), CommError> {
        self.note_op()?;
        let tag = self.etag(tag);
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.allreduce_tree_over(&group, buf, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    /// The tree allreduce over an explicit world-rank `group` (this rank
    /// must be a member); `tag` is already epoch-qualified. Also the
    /// agreement primitive of [`shrink`](Self::shrink), which runs it over
    /// tentative survivor groups.
    fn allreduce_tree_over(
        &mut self,
        group: &[usize],
        buf: &mut [f64],
        tag: u64,
    ) -> Result<(), CommError> {
        let p = group.len();
        if p <= 1 {
            return Ok(());
        }
        let r = self.group_index(group);
        let pow2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
        // `pow2` = largest power of two ≤ p.
        let extra = p - pow2;

        // Fold the surplus ranks onto their partners below pow2.
        if r >= pow2 {
            self.send_ft(group[r - pow2], tag, buf, Some(group))?;
            let msg = self.recv_watch(group[r - pow2], tag + 1, Some(group))?;
            assert_eq!(msg.len(), buf.len(), "allreduce length mismatch");
            buf.copy_from_slice(&msg);
        } else {
            if r < extra {
                let msg = self.recv_watch(group[r + pow2], tag, Some(group))?;
                assert_eq!(msg.len(), buf.len(), "allreduce length mismatch");
                for (b, m) in buf.iter_mut().zip(&msg) {
                    *b += m;
                }
            }
            // Recursive doubling among the pow2 ranks.
            let mut mask = 1usize;
            while mask < pow2 {
                let partner = r ^ mask;
                self.send_ft(group[partner], tag + 2 + mask as u64, buf, Some(group))?;
                let msg = self.recv_watch(group[partner], tag + 2 + mask as u64, Some(group))?;
                assert_eq!(msg.len(), buf.len(), "allreduce length mismatch");
                for (b, m) in buf.iter_mut().zip(&msg) {
                    *b += m;
                }
                mask <<= 1;
            }
            if r < extra {
                self.send_ft(group[r + pow2], tag + 1, buf, Some(group))?;
            }
        }
        Ok(())
    }

    /// Infallible wrapper around
    /// [`try_allreduce_sum_tree`](Self::try_allreduce_sum_tree).
    ///
    /// # Panics
    /// Panics on transport failure (only possible under fault injection or
    /// an early-exiting peer).
    pub fn allreduce_sum_tree(&mut self, buf: &mut [f64], tag: u64) {
        self.try_allreduce_sum_tree(buf, tag)
            .unwrap_or_else(|e| panic!("minimpi allreduce_sum_tree: {e}"));
    }

    /// Fault-aware gather over the current group: every member's `data`
    /// arrives at the group root (`group()[0]`), which gets `Some(vec)`
    /// indexed in group order; other members get `Ok(None)`. A dead group
    /// member surfaces as [`CommError::RankFailed`] instead of a hang.
    pub fn try_gather(
        &mut self,
        data: &[f64],
        tag: u64,
    ) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        self.note_op()?;
        let tag = self.etag(tag);
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.gather_over(&group, data, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    fn gather_over(
        &mut self,
        group: &[usize],
        data: &[f64],
        tag: u64,
    ) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        if self.group_index(group) == 0 {
            let mut all = Vec::with_capacity(group.len());
            all.push(data.to_vec());
            for &m in &group[1..] {
                all.push(self.recv_watch(m, tag, Some(group))?);
            }
            Ok(Some(all))
        } else {
            self.send_ft(group[0], tag, data, Some(group))?;
            Ok(None)
        }
    }

    /// Gather each rank's `data` on the group root (others get `None`).
    ///
    /// # Panics
    /// Panics on a detected rank failure or transport error; use
    /// [`try_gather`](Self::try_gather) to handle those.
    pub fn gather(&mut self, data: &[f64], tag: u64) -> Option<Vec<Vec<f64>>> {
        self.try_gather(data, tag)
            .unwrap_or_else(|e| panic!("minimpi gather: {e}"))
    }

    /// Fault-aware broadcast of the group root's (`group()[0]`) `buf` to
    /// every group member. A dead group member surfaces as
    /// [`CommError::RankFailed`] instead of a hang.
    pub fn try_broadcast(&mut self, buf: &mut [f64], tag: u64) -> Result<(), CommError> {
        self.note_op()?;
        let tag = self.etag(tag);
        let group = self.group.clone();
        let t = Instant::now();
        let res = self.broadcast_over(&group, buf, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    fn broadcast_over(
        &mut self,
        group: &[usize],
        buf: &mut [f64],
        tag: u64,
    ) -> Result<(), CommError> {
        if self.group_index(group) == 0 {
            for &m in &group[1..] {
                let data: Vec<f64> = buf.to_vec();
                self.send_ft(m, tag, &data, Some(group))?;
            }
        } else {
            let msg = self.recv_watch(group[0], tag, Some(group))?;
            assert_eq!(msg.len(), buf.len(), "broadcast length mismatch");
            buf.copy_from_slice(&msg);
        }
        Ok(())
    }

    /// Broadcast the group root's `buf` to everyone.
    ///
    /// # Panics
    /// Panics on a detected rank failure or transport error; use
    /// [`try_broadcast`](Self::try_broadcast) to handle those.
    pub fn broadcast(&mut self, buf: &mut [f64], tag: u64) {
        self.try_broadcast(buf, tag)
            .unwrap_or_else(|e| panic!("minimpi broadcast: {e}"));
    }

    /// Fault-aware personalized all-to-all over the current group:
    /// `blocks[i]` (blocks may differ in length, including empty) is
    /// delivered to group member `i`, and the return value holds the block
    /// received from each member, in group order — the exchange pattern of
    /// a distributed matrix transpose. This rank's own block is copied
    /// directly without touching the transport.
    ///
    /// Deadlock-free by construction: every send completes before any
    /// receive is posted (frames park in the receiver's stash, and under a
    /// fault plan the ack wait itself services incoming frames). A dead
    /// group member surfaces as [`CommError::RankFailed`] on every caller
    /// instead of a hang; injected drop/corrupt faults are absorbed by the
    /// ack/retry transport and recorded in the event ledger.
    ///
    /// # Panics
    /// Panics if `blocks.len()` differs from the group size.
    pub fn try_all_to_all(
        &mut self,
        blocks: &[Vec<f64>],
        tag: u64,
    ) -> Result<Vec<Vec<f64>>, CommError> {
        self.note_op()?;
        let tag = self.etag(tag);
        let group = self.group.clone();
        assert_eq!(
            blocks.len(),
            group.len(),
            "all_to_all needs one block per group member"
        );
        let t = Instant::now();
        let res = self.all_to_all_over(&group, blocks, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res
    }

    fn all_to_all_over(
        &mut self,
        group: &[usize],
        blocks: &[Vec<f64>],
        tag: u64,
    ) -> Result<Vec<Vec<f64>>, CommError> {
        let me = self.group_index(group);
        for (i, &m) in group.iter().enumerate() {
            if i != me {
                self.send_ft(m, tag, &blocks[i], Some(group))?;
            }
        }
        let mut out = Vec::with_capacity(group.len());
        for (i, &m) in group.iter().enumerate() {
            if i == me {
                out.push(blocks[i].clone());
            } else {
                out.push(self.recv_watch(m, tag, Some(group))?);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------- recovery

    /// ULFM-style shrink: agree with the surviving group members on the
    /// set of failed ranks, rebuild the communicator group without them,
    /// and bump the epoch. Returns the new group (sorted world ranks).
    ///
    /// Every surviving member of the current group must call `shrink`
    /// (typically after a collective returned
    /// [`CommError::RankFailed`]). The agreement is an allreduce of each
    /// member's suspect bitmask over the tentative survivor group; if the
    /// union reveals suspects a member had not yet observed (or another
    /// rank dies mid-agreement), the round retries with the enlarged set.
    /// Convergence needs the survivors' suspect sets to stabilize, which
    /// dead-flag (crash-fault) detection gives immediately; a round that
    /// cannot complete surfaces its [`CommError`] rather than hanging.
    pub fn shrink(&mut self) -> Result<Vec<usize>, CommError> {
        if self.dead_self {
            return Err(CommError::RankFailed {
                rank: self.rank,
                failed: self.rank,
            });
        }
        self.beat();
        let nranks = self.shared.nranks;
        let old_group = self.group.clone();
        let mut suspect = vec![false; nranks];
        let mut last_err = None;
        for attempt in 0..nranks.max(2) as u64 {
            // Re-scan the detector each round: ranks that died since the
            // last attempt join the suspect set.
            for &m in &old_group {
                if m != self.rank && self.peer_failed(m) {
                    suspect[m] = true;
                }
            }
            let tentative: Vec<usize> =
                old_group.iter().copied().filter(|&m| !suspect[m]).collect();
            let mut votes: Vec<f64> = suspect.iter().map(|&s| if s { 1.0 } else { 0.0 }).collect();
            let tag = self.etag(SHRINK_TAG_BASE + CTL_TAG_STRIDE * attempt);
            match self.allreduce_tree_over(&tentative, &mut votes, tag) {
                Ok(()) => {
                    let agreed: Vec<usize> = (0..nranks).filter(|&m| votes[m] > 0.0).collect();
                    if agreed.iter().all(|&m| suspect[m]) {
                        self.group = tentative;
                        self.epoch += 1;
                        self.join_seq = 0;
                        self.ctl_seq = 0;
                        self.push_event(
                            TransportEventKind::Shrink,
                            None,
                            0,
                            format!(
                                "group {:?} -> {:?}, epoch {}",
                                old_group, self.group, self.epoch
                            ),
                        );
                        return Ok(self.group.clone());
                    }
                    // Another member suspects ranks we had not observed:
                    // adopt the union and retry.
                    for &m in &agreed {
                        suspect[m] = true;
                    }
                }
                Err(CommError::RankFailed { failed, .. }) if failed != self.rank => {
                    suspect[failed] = true;
                    last_err = Some(CommError::RankFailed {
                        rank: self.rank,
                        failed,
                    });
                }
                Err(CommError::Timeout { .. }) => {
                    // A member aborted this round (it saw a suspect we have
                    // not); re-scan and retry.
                    last_err = Some(CommError::Timeout {
                        rank: self.rank,
                        src: self.rank,
                        tag,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(CommError::Disconnected { rank: self.rank }))
    }

    // ------------------------------------------------------------ elasticity

    /// Spare side of the join protocol: announce this rank on the world's
    /// admission board and wait up to `deadline` for the members to vote it
    /// in via [`try_admit`](Self::try_admit). Returns the adopted group on
    /// admission, `Ok(None)` when the members closed the board without
    /// admitting this rank (the run ended), and
    /// [`CommError::Timeout`] when `deadline` elapses first. A member
    /// calling `try_join` returns its current group immediately.
    ///
    /// On admission this rank adopts the group's epoch, so its collective
    /// tags line up with the incumbents' from the first post-join exchange.
    pub fn try_join(&mut self, deadline: Duration) -> Result<Option<Vec<usize>>, CommError> {
        if self.member {
            return Ok(Some(self.group.clone()));
        }
        self.note_op()?;
        {
            let mut board = self.shared.join.lock().expect("join board poisoned");
            if !board.candidates.contains(&self.rank) {
                board.candidates.push(self.rank);
            }
        }
        let limit = Instant::now() + deadline;
        loop {
            self.beat();
            {
                let mut board = self.shared.join.lock().expect("join board poisoned");
                if let Some(i) = board.tickets.iter().position(|t| t.0 == self.rank) {
                    let (_, group, epoch) = board.tickets.remove(i);
                    drop(board);
                    self.group = group;
                    self.epoch = epoch;
                    self.join_seq = 0;
                    self.ctl_seq = 0;
                    self.member = true;
                    self.push_event(
                        TransportEventKind::Join,
                        None,
                        0,
                        format!("joined group {:?}, epoch {}", self.group, self.epoch),
                    );
                    return Ok(Some(self.group.clone()));
                }
                if board.closed {
                    board.candidates.retain(|&c| c != self.rank);
                    return Ok(None);
                }
            }
            if Instant::now() >= limit {
                self.shared
                    .join
                    .lock()
                    .expect("join board poisoned")
                    .candidates
                    .retain(|&c| c != self.rank);
                return Err(CommError::Timeout {
                    rank: self.rank,
                    src: self.rank,
                    tag: JOIN_TAG_BASE,
                });
            }
            std::thread::sleep(self.detect_poll);
        }
    }

    /// Member side of the join protocol: a collective over the current
    /// group that votes waiting spares in. Every member snapshots the
    /// admission board (skipping candidates the failure detector already
    /// considers dead), the per-candidate votes are summed with an
    /// epoch-qualified allreduce — mirroring [`shrink`](Self::shrink)'s
    /// agreement — and exactly the unanimously seen candidates are
    /// admitted: the summed vote count identifies the same set on every
    /// member, so the new group is consistent without a second round. A
    /// candidate only some members saw (it announced itself mid-snapshot)
    /// simply stays on the board for the next `try_admit`.
    ///
    /// On success the group grows, the epoch bumps, a
    /// [`TransportEventKind::Join`] event is ledgered, and the (old) group
    /// leader posts admission tickets the joiners collect in
    /// [`try_join`](Self::try_join). Returns the admitted world ranks, or
    /// `Ok(None)` when no candidate was unanimously visible. Every member
    /// of the group must call `try_admit` at the same protocol point; after
    /// an `Err` (e.g. a member died mid-agreement) callers should
    /// [`shrink`](Self::shrink) and retry.
    pub fn try_admit(&mut self) -> Result<Option<Vec<usize>>, CommError> {
        self.note_op()?;
        let nranks = self.shared.nranks;
        let group = self.group.clone();
        let mut votes = vec![0.0; nranks];
        {
            let board = self.shared.join.lock().expect("join board poisoned");
            for &c in &board.candidates {
                if !group.contains(&c) && !self.peer_failed(c) {
                    votes[c] = 1.0;
                }
            }
        }
        let tag = self.etag(JOIN_TAG_BASE + CTL_TAG_STRIDE * self.join_seq);
        self.join_seq += 1;
        let t = Instant::now();
        let res = self.allreduce_tree_over(&group, &mut votes, tag);
        self.comm_time_ns += t.elapsed().as_nanos() as u64;
        res?;
        let admitted: Vec<usize> = (0..nranks)
            .filter(|&c| votes[c] == group.len() as f64)
            .collect();
        if admitted.is_empty() {
            return Ok(None);
        }
        let leader = group[0];
        let mut new_group = group;
        new_group.extend_from_slice(&admitted);
        new_group.sort_unstable();
        self.group = new_group;
        self.epoch += 1;
        self.join_seq = 0;
        self.ctl_seq = 0;
        self.push_event(
            TransportEventKind::Join,
            Some(admitted[0]),
            0,
            format!(
                "admitted {:?}: group -> {:?}, epoch {}",
                admitted, self.group, self.epoch
            ),
        );
        if self.rank == leader {
            let mut board = self.shared.join.lock().expect("join board poisoned");
            board.candidates.retain(|c| !admitted.contains(c));
            for &c in &admitted {
                board.tickets.push((c, self.group.clone(), self.epoch));
            }
        }
        Ok(Some(admitted))
    }

    /// Close the admission board: spares blocked in
    /// [`try_join`](Self::try_join) return `Ok(None)` instead of waiting
    /// out their deadline. Members call this when their run completes;
    /// idempotent and safe to call from every member.
    pub fn close_joins(&self) {
        self.shared.join.lock().expect("join board poisoned").closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let r = World::run(1, |comm| {
            let mut v = vec![5.0];
            comm.allreduce_sum(&mut v);
            comm.allreduce_sum_tree(&mut v, 100);
            v[0]
        });
        assert_eq!(r, vec![5.0]);
    }

    #[test]
    fn flat_allreduce_sums() {
        for nranks in [2usize, 3, 4, 7, 8] {
            let results = World::run(nranks, |comm| {
                let mut v: Vec<f64> = (0..16).map(|i| (comm.rank() * 16 + i) as f64).collect();
                comm.allreduce_sum(&mut v);
                v
            });
            for i in 0..16 {
                let expect: f64 = (0..nranks).map(|r| (r * 16 + i) as f64).sum();
                for r in &results {
                    assert_eq!(r[i], expect, "nranks={nranks} i={i}");
                }
            }
        }
        // Contributions whose float sum depends on the addition order: every
        // rank of every world must read the same bits of the total.
        let terms = [1e16, 1.0, -1e16, 1.0];
        let mut sums: Vec<u64> = (0..50)
            .flat_map(|_| {
                World::run(4, |comm| {
                    let mut v = vec![terms[comm.rank()]];
                    comm.allreduce_sum(&mut v);
                    v[0].to_bits()
                })
            })
            .collect();
        sums.sort_unstable();
        sums.dedup();
        let distinct: Vec<f64> = sums.iter().map(|&s| f64::from_bits(s)).collect();
        assert_eq!(distinct.len(), 1, "order-dependent totals {distinct:?}");
    }

    #[test]
    fn tree_allreduce_sums() {
        for nranks in [2usize, 3, 4, 5, 8, 13, 16] {
            let results = World::run(nranks, |comm| {
                let mut v: Vec<f64> = (0..8).map(|i| (comm.rank() + i) as f64).collect();
                comm.allreduce_sum_tree(&mut v, 0);
                v
            });
            for i in 0..8 {
                let expect: f64 = (0..nranks).map(|r| (r + i) as f64).sum();
                for (rank, r) in results.iter().enumerate() {
                    assert_eq!(r[i], expect, "nranks={nranks} rank={rank} i={i}");
                }
            }
        }
    }

    #[test]
    fn repeated_allreduce_rounds() {
        // The PIC loop calls allreduce every iteration — state must reset.
        let results = World::run(4, |comm| {
            let mut total = 0.0;
            for step in 0..10u64 {
                let mut v = vec![1.0 + step as f64];
                comm.allreduce_sum(&mut v);
                total += v[0];
            }
            total
        });
        let expect: f64 = (0..10).map(|s| 4.0 * (1.0 + s as f64)).sum();
        assert!(results.iter().all(|&r| r == expect));
    }

    #[test]
    fn mixed_tree_and_flat() {
        let results = World::run(6, |comm| {
            let mut a = vec![comm.rank() as f64];
            comm.allreduce_sum(&mut a);
            let mut b = vec![1.0];
            comm.allreduce_sum_tree(&mut b, 50);
            (a[0], b[0])
        });
        for (a, b) in results {
            assert_eq!(a, 15.0);
            assert_eq!(b, 6.0);
        }
    }

    #[test]
    fn point_to_point_roundtrip() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0, 2.0, 3.0]);
                comm.recv(1, 8)
            } else {
                let got = comm.recv(0, 7);
                let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, &doubled);
                got
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn selective_receive_out_of_order() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, 2, &[20.0]);
                comm.send(1, 1, &[10.0]);
                vec![0.0]
            } else {
                let first = comm.recv(0, 1);
                let second = comm.recv(0, 2);
                vec![first[0], second[0]]
            }
        });
        assert_eq!(results[1], vec![10.0, 20.0]);
    }

    #[test]
    fn gather_collects_on_root() {
        let results = World::run(3, |comm| comm.gather(&[comm.rank() as f64], 9));
        let root = results[0].as_ref().unwrap();
        assert_eq!(root.len(), 3);
        for (r, v) in root.iter().enumerate() {
            assert_eq!(v[0], r as f64);
        }
        assert!(results[1].is_none());
        assert!(results[2].is_none());
    }

    #[test]
    fn broadcast_distributes() {
        let results = World::run(4, |comm| {
            let mut v = if comm.rank() == 0 {
                vec![3.25, -1.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.broadcast(&mut v, 11);
            v
        });
        for r in results {
            assert_eq!(r, vec![3.25, -1.0]);
        }
    }

    #[test]
    fn comm_time_is_tracked() {
        let (_, mean_comm) = World::run_timed(4, |comm| {
            let mut v = vec![0.0; 1024];
            for _ in 0..50 {
                comm.allreduce_sum(&mut v);
            }
            comm.comm_time()
        });
        assert!(mean_comm > 0.0);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        World::run(8, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must see all 8 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    // ------------------------------------------------------- fault injection

    /// Shrink the timeouts so fault tests run fast.
    fn fast_timeouts(comm: &mut Comm) {
        comm.set_ack_timeout(Duration::from_millis(5));
    }

    #[test]
    fn lossy_link_recovers_via_retry() {
        let plan = FaultPlan::new(11).drop_messages(0.5);
        let results = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            if comm.rank() == 0 {
                for i in 0..20u64 {
                    comm.try_send(1, i, &[i as f64, -(i as f64)]).unwrap();
                }
                Vec::new()
            } else {
                (0..20u64)
                    .map(|i| {
                        let m = comm.try_recv(0, i).unwrap();
                        assert_eq!(m, vec![i as f64, -(i as f64)]);
                        m[0]
                    })
                    .collect()
            }
        });
        assert_eq!(results[1], (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn corrupted_frames_are_detected_and_retransmitted() {
        // Half of all deliveries carry a flipped bit; the checksum rejects
        // them and a clean retransmission must still get every payload
        // through intact.
        let plan = FaultPlan::new(5).corrupt_messages(0.5);
        let results = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            if comm.rank() == 0 {
                for i in 0..20u64 {
                    comm.try_send(1, i, &[1.5 * i as f64; 8]).unwrap();
                }
                true
            } else {
                (0..20u64).all(|i| comm.try_recv(0, i).unwrap() == vec![1.5 * i as f64; 8])
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn delayed_frames_do_not_affect_results() {
        let plan = FaultPlan::new(3).delay_messages(0.5, Duration::from_micros(200));
        let results = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            let mut v = vec![comm.rank() as f64; 8];
            comm.try_allreduce_sum_tree(&mut v, 0).unwrap();
            v[0]
        });
        assert!(results.iter().all(|&r| r == 6.0));
    }

    #[test]
    fn tree_allreduce_recovers_under_faults() {
        // Drops and corruption on every link; the reliable transport must
        // still produce exactly the fault-free sums on every rank.
        let plan = FaultPlan::new(17).drop_messages(0.3).corrupt_messages(0.2);
        let results = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            let mut total = 0.0;
            for step in 0..5u64 {
                let mut v: Vec<f64> = (0..8).map(|i| (comm.rank() + i) as f64).collect();
                comm.try_allreduce_sum_tree(&mut v, step * 10_000).unwrap();
                total += v[3];
            }
            total
        });
        let per_step: f64 = (0..4).map(|r| (r + 3) as f64).sum();
        assert!(results.iter().all(|&r| r == 5.0 * per_step), "{results:?}");
    }

    #[test]
    fn unrecoverable_plan_fails_cleanly_without_deadlock() {
        let plan = FaultPlan::always_drop(1);
        let results = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            comm.set_max_retries(4);
            comm.set_recv_deadline(Duration::from_millis(400));
            if comm.rank() == 0 {
                comm.try_send(1, 7, &[1.0]).unwrap_err()
            } else {
                comm.try_recv(0, 7).unwrap_err()
            }
        });
        assert!(
            matches!(
                results[0],
                CommError::RetriesExhausted {
                    rank: 0,
                    dst: 1,
                    tag: 7,
                    attempts: 5
                }
            ),
            "{:?}",
            results[0]
        );
        assert!(
            matches!(
                results[1],
                CommError::Timeout {
                    rank: 1,
                    src: 0,
                    tag: 7
                }
            ),
            "{:?}",
            results[1]
        );
    }

    #[test]
    fn fault_injection_is_reproducible() {
        // Same seed → byte-identical outcomes including the error path.
        let run = || {
            let plan = FaultPlan::new(99).drop_messages(0.4);
            World::run_with_faults(2, plan, |comm| {
                fast_timeouts(comm);
                if comm.rank() == 0 {
                    (0..10u64)
                        .map(|i| comm.try_send(1, i, &[i as f64]).is_ok())
                        .collect::<Vec<_>>()
                } else {
                    (0..10u64)
                        .map(|i| comm.try_recv(0, i).is_ok())
                        .collect::<Vec<_>>()
                }
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn targeted_faults_leave_other_ranks_clean() {
        // Only rank 0's outgoing frames are faulty; rank 1 → 0 traffic
        // takes the reliable path but never needs a retry.
        let plan = FaultPlan::new(2).drop_messages(0.9).target_ranks(&[0]);
        let results = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            if comm.rank() == 0 {
                comm.try_send(1, 1, &[4.0]).unwrap();
                comm.try_recv(1, 2).unwrap()
            } else {
                let got = comm.try_recv(0, 1).unwrap();
                comm.try_send(0, 2, &[got[0] * 2.0]).unwrap();
                got
            }
        });
        assert_eq!(results[0], vec![8.0]);
        assert_eq!(results[1], vec![4.0]);
    }

    #[test]
    fn crash_fault_kills_rank_and_survivor_detects() {
        let plan = FaultPlan::new(5).kill_rank(1, 1);
        let out = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(Duration::from_millis(2000));
            if comm.rank() == 0 {
                match comm.try_recv(1, 7) {
                    Err(CommError::RankFailed { rank: 0, failed }) => format!("detected {failed}"),
                    other => format!("unexpected {other:?}"),
                }
            } else {
                match comm.try_send(0, 7, &[1.0]) {
                    Err(CommError::RankFailed { rank: 1, failed: 1 }) => "killed".to_string(),
                    other => format!("unexpected {other:?}"),
                }
            }
        });
        assert_eq!(out[0], "detected 1");
        assert_eq!(out[1], "killed");
    }

    #[test]
    fn ledger_orders_kill_before_detect() {
        let plan = FaultPlan::new(6).kill_rank(1, 1);
        let events = World::run_with_faults(2, plan, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(Duration::from_millis(2000));
            if comm.rank() == 0 {
                let _ = comm.try_recv(1, 3);
            } else {
                let _ = comm.try_send(0, 3, &[1.0]);
            }
            comm.take_events()
        });
        let kill = events[1]
            .iter()
            .find(|e| e.kind == TransportEventKind::Kill)
            .expect("killed rank records a Kill event");
        let detect = events[0]
            .iter()
            .find(|e| e.kind == TransportEventKind::Detect)
            .expect("survivor records a Detect event");
        assert!(
            kill.seq < detect.seq,
            "kill seq {} must precede detect seq {}",
            kill.seq,
            detect.seq
        );
        assert_eq!(detect.peer, Some(1));
    }

    #[test]
    fn stale_heartbeat_is_detected_as_failure() {
        // Rank 1 never beats (no comm ops) for longer than the timeout, so
        // rank 0's receive reports it failed instead of waiting out the
        // full deadline.
        let out = World::run(2, |comm| {
            fast_timeouts(comm);
            if comm.rank() == 0 {
                comm.set_heartbeat_timeout(Duration::from_millis(40));
                comm.set_recv_deadline(Duration::from_secs(5));
                matches!(
                    comm.try_recv(1, 1),
                    Err(CommError::RankFailed { failed: 1, .. })
                )
            } else {
                std::thread::sleep(Duration::from_millis(400));
                true
            }
        });
        assert!(out[0], "stale heartbeat must surface as RankFailed");
        assert!(out[1]);
    }

    #[test]
    fn collectives_fail_cleanly_when_a_rank_dies() {
        // Rank 2 dies at its first op; the other three ranks' allreduce
        // must detect it instead of hanging, on every algorithm.
        let plan = FaultPlan::new(8).kill_rank(2, 1);
        let out = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(Duration::from_millis(2000));
            let mut buf = vec![1.0; 8];
            let res = comm.try_allreduce_sum_tree(&mut buf, 100);
            matches!(res, Err(CommError::RankFailed { .. }))
        });
        assert!(out.iter().all(|&ok| ok), "{out:?}");
    }

    #[test]
    fn shrink_rebuilds_live_group_and_collectives_recover() {
        let plan = FaultPlan::new(9).kill_rank(2, 2);
        let out = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            // Generous deadline: the dead rank is caught by the dead-flag
            // watch, not deadline expiry, and a loaded box can starve a
            // *live* peer past a short deadline mid-collective — scale the
            // base by the host's oversubscription instead of hard-coding
            // a worst-case constant.
            comm.set_recv_deadline(load_scaled_deadline(Duration::from_millis(2_500), 4));
            let mut buf = vec![1.0; 4];
            // First collective succeeds (rank 2 dies on its second op).
            if comm.try_allreduce_sum_tree(&mut buf, 50).is_err() {
                return (comm.group().to_vec(), f64::NAN);
            }
            assert_eq!(buf, vec![4.0; 4]);
            // Second collective kills rank 2 / fails on survivors.
            let mut buf = vec![1.0; 4];
            match comm.try_allreduce_sum_tree(&mut buf, 60) {
                Err(CommError::RankFailed { rank, failed }) if rank == failed => {
                    return (vec![], f64::NAN); // the dead rank exits
                }
                Err(CommError::RankFailed { .. }) => {}
                other => panic!("expected RankFailed, got {other:?}"),
            }
            let group = comm.shrink().expect("survivors agree on shrink");
            let mut buf = vec![1.0; 4];
            comm.try_allreduce_sum_tree(&mut buf, 70)
                .expect("post-shrink collective succeeds");
            (group, buf[0])
        });
        for r in [0, 1, 3] {
            assert_eq!(out[r].0, vec![0, 1, 3], "rank {r} group");
            assert_eq!(out[r].1, 3.0, "rank {r} post-shrink sum");
        }
        assert!(out[2].1.is_nan());
    }

    #[test]
    fn gather_broadcast_survive_with_group_semantics() {
        let plan = FaultPlan::new(10).kill_rank(3, 1);
        let out = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(Duration::from_millis(2000));
            let r = comm.rank() as f64;
            if comm.try_gather(&[r], 5).is_err() && comm.rank() == 3 {
                return -1.0;
            }
            // Survivors: the gather may have succeeded (rank 3's frame can
            // land before its death is material) or failed; either way,
            // shrink and redo it over the live group.
            if comm.group().len() == comm.size() && comm.shrink().is_err() {
                return -2.0;
            }
            let gathered = comm.try_gather(&[r], 6).expect("post-shrink gather");
            let mut sum = vec![0.0];
            if let Some(parts) = gathered {
                sum[0] = parts.iter().map(|p| p[0]).sum();
            }
            comm.try_broadcast(&mut sum, 7).expect("post-shrink bcast");
            sum[0]
        });
        for r in [0, 1, 2] {
            assert_eq!(out[r], 3.0, "rank {r}"); // sum of surviving rank ids
        }
        assert_eq!(out[3], -1.0);
    }

    #[test]
    fn all_to_all_exchanges_variable_length_blocks() {
        // Rank r sends to rank d a block of length r + d whose entries encode
        // both endpoints; every rank must receive exactly what each peer
        // addressed to it, including the zero-length block from rank 0 to 0.
        let out = World::run(4, |comm| {
            let me = comm.rank();
            let blocks: Vec<Vec<f64>> =
                (0..4).map(|d| vec![(me * 10 + d) as f64; me + d]).collect();
            comm.try_all_to_all(&blocks, 40).unwrap()
        });
        for (me, recvd) in out.iter().enumerate() {
            for (src, block) in recvd.iter().enumerate() {
                assert_eq!(
                    *block,
                    vec![(src * 10 + me) as f64; src + me],
                    "rank {me} from {src}"
                );
            }
        }
    }

    #[test]
    fn all_to_all_accounts_data_volume() {
        // Only off-rank blocks travel: each rank ships 3 blocks of 8 f64s
        // out and takes 3 in; the own-rank block never hits the transport.
        let out = World::run(2, |comm| {
            comm.reset_data_volume();
            let blocks = vec![vec![comm.rank() as f64; 8]; 2];
            comm.try_all_to_all(&blocks, 41).unwrap();
            (comm.bytes_sent(), comm.bytes_received())
        });
        for (r, &(sent, recvd)) in out.iter().enumerate() {
            assert_eq!(sent, 8 * 8, "rank {r} sent");
            assert_eq!(recvd, 8 * 8, "rank {r} recvd");
        }
    }

    #[test]
    fn all_to_all_recovers_under_faults() {
        // Drops and corruption on every link must be absorbed by the
        // ack/retry layer: the exchanged blocks are bit-exact with the
        // fault-free run and the ledger records the retransmissions.
        let plan = FaultPlan::new(29).drop_messages(0.3).corrupt_messages(0.2);
        let out = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            let me = comm.rank();
            let mut sum = 0.0;
            for step in 0..4u64 {
                let blocks: Vec<Vec<f64>> = (0..4)
                    .map(|d| vec![(me * 4 + d) as f64 + step as f64; 6])
                    .collect();
                let recvd = comm.try_all_to_all(&blocks, 100 + step * 10).unwrap();
                for (src, b) in recvd.iter().enumerate() {
                    assert_eq!(*b, vec![(src * 4 + me) as f64 + step as f64; 6]);
                }
                sum += recvd.iter().map(|b| b[0]).sum::<f64>();
            }
            let retries = comm
                .take_events()
                .iter()
                .filter(|e| e.kind == TransportEventKind::Retry)
                .count();
            (sum, retries)
        });
        let total_retries: usize = out.iter().map(|o| o.1).sum();
        assert!(total_retries > 0, "fault plan produced no retransmissions");
        for (me, &(sum, _)) in out.iter().enumerate() {
            let expect: f64 = (0..4u64)
                .map(|step| {
                    (0..4)
                        .map(|src| (src * 4 + me) as f64 + step as f64)
                        .sum::<f64>()
                })
                .sum();
            assert_eq!(sum, expect, "rank {me}");
        }
    }

    #[test]
    fn all_to_all_fails_cleanly_when_a_rank_dies() {
        // Rank 1 dies at its first op, mid-exchange: every survivor must
        // surface a CommError instead of hanging in the drain loop.
        let plan = FaultPlan::new(31).kill_rank(1, 1);
        let out = World::run_with_faults(4, plan, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(Duration::from_millis(2000));
            let blocks = vec![vec![comm.rank() as f64; 4]; 4];
            comm.try_all_to_all(&blocks, 55).is_err()
        });
        assert!(out.iter().all(|&failed| failed), "{out:?}");
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn blocking_recv_honors_deadline() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.set_recv_deadline(Duration::from_millis(50));
                let _ = comm.recv(1, 9); // nobody ever sends: must panic
            } else {
                std::thread::sleep(Duration::from_millis(200));
            }
        });
    }

    #[test]
    fn load_scaled_deadline_never_shrinks_base() {
        let base = Duration::from_millis(500);
        assert!(load_scaled_deadline(base, 1) >= base);
        assert!(load_scaled_deadline(base, 4) >= base);
        // Oversubscription can only lengthen the deadline, monotonically.
        assert!(load_scaled_deadline(base, 1024) >= load_scaled_deadline(base, 4));
    }

    #[test]
    fn elastic_world_admits_a_spare() {
        // 3 members + 1 spare, no faults: the members admit the spare, the
        // grown group runs a collective, and both sides ledger the Join.
        let out = World::run_elastic(3, 1, None, |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(load_scaled_deadline(Duration::from_millis(2_500), 4));
            if !comm.is_member() {
                let g = comm
                    .try_join(load_scaled_deadline(Duration::from_secs(5), 4))
                    .expect("spare join");
                let Some(group) = g else {
                    return (vec![], f64::NAN, 0);
                };
                let mut v = vec![comm.rank() as f64 + 1.0];
                comm.try_allreduce_sum(&mut v).unwrap();
                let joins = comm
                    .take_events()
                    .iter()
                    .filter(|e| e.kind == TransportEventKind::Join)
                    .count();
                return (group, v[0], joins);
            }
            // Members: run an internally sequenced collective the spare
            // never sees, give it a moment to announce itself, then admit
            // (retrying while no candidate is visible yet).
            comm.try_barrier().unwrap();
            let mut admitted = None;
            for _ in 0..500 {
                match comm.try_admit().expect("admit collective") {
                    Some(a) => {
                        admitted = Some(a);
                        break;
                    }
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            assert_eq!(admitted, Some(vec![3]), "rank {}", comm.rank());
            let mut v = vec![comm.rank() as f64 + 1.0];
            comm.try_allreduce_sum(&mut v).unwrap();
            comm.close_joins();
            let joins = comm
                .take_events()
                .iter()
                .filter(|e| e.kind == TransportEventKind::Join)
                .count();
            (comm.group().to_vec(), v[0], joins)
        });
        for (r, (group, sum, joins)) in out.iter().enumerate() {
            assert_eq!(group, &vec![0, 1, 2, 3], "rank {r} group");
            assert_eq!(*sum, 1.0 + 2.0 + 3.0 + 4.0, "rank {r} sum");
            assert_eq!(*joins, 1, "rank {r} must ledger exactly one Join");
        }
    }

    #[test]
    fn unclaimed_spare_exits_when_joins_close() {
        let out = World::run_elastic(2, 1, None, |comm| {
            if !comm.is_member() {
                // The members never admit: the board closing must release
                // the spare with Ok(None) well before the deadline.
                return matches!(comm.try_join(Duration::from_secs(30)), Ok(None));
            }
            let mut v = vec![1.0];
            comm.try_allreduce_sum_tree(&mut v, 10).unwrap();
            comm.close_joins();
            true
        });
        assert!(out.iter().all(|&ok| ok), "{out:?}");
    }

    #[test]
    fn shrink_then_admit_replaces_a_dead_rank() {
        // 3 members + 1 spare; member 1 dies, the survivors shrink and
        // admit the spare: the group ends as {0, 2, 3} with a working
        // collective and a fresh epoch qualifying its tags.
        let plan = FaultPlan::new(77).kill_rank(1, 2);
        let out = World::run_elastic(3, 1, Some(plan), |comm| {
            fast_timeouts(comm);
            comm.set_recv_deadline(load_scaled_deadline(Duration::from_millis(2_500), 4));
            if !comm.is_member() {
                match comm.try_join(load_scaled_deadline(Duration::from_secs(10), 4)) {
                    Ok(Some(group)) => {
                        let mut v = vec![comm.rank() as f64];
                        comm.try_allreduce_sum_tree(&mut v, 90).unwrap();
                        return (group, v[0]);
                    }
                    other => panic!("spare expected admission, got {other:?}"),
                }
            }
            let mut v = vec![1.0; 2];
            if comm.try_allreduce_sum_tree(&mut v, 80).is_err() && comm.rank() == 1 {
                return (vec![], f64::NAN); // the killed rank exits
            }
            let mut v = vec![1.0; 2];
            match comm.try_allreduce_sum_tree(&mut v, 81) {
                Err(CommError::RankFailed { rank, failed }) if rank == failed => {
                    return (vec![], f64::NAN)
                }
                Err(CommError::RankFailed { .. }) => {}
                other => panic!("expected RankFailed, got {other:?}"),
            }
            comm.shrink().expect("survivors agree on shrink");
            let mut admitted = None;
            for _ in 0..500 {
                match comm.try_admit().expect("admit collective") {
                    Some(a) => {
                        admitted = Some(a);
                        break;
                    }
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            assert_eq!(admitted, Some(vec![3]));
            assert!(comm.epoch() >= 2, "shrink + admit each bump the epoch");
            let mut v = vec![comm.rank() as f64];
            comm.try_allreduce_sum_tree(&mut v, 90).unwrap();
            comm.close_joins();
            (comm.group().to_vec(), v[0])
        });
        for r in [0, 2, 3] {
            assert_eq!(out[r].0, vec![0, 2, 3], "rank {r} group");
            assert_eq!(out[r].1, 5.0, "rank {r} post-join sum"); // 0 + 2 + 3
        }
        assert!(out[1].1.is_nan());
    }
}
