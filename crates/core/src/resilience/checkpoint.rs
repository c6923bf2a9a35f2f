//! The checkpoint wire format: versioned, checksummed, little-endian.
//!
//! Layout of an encoded snapshot:
//!
//! ```text
//! magic            8 B   b"PIC2DCKP"
//! version          u32   FORMAT_VERSION
//! config_fprint    u64   hash of a canonical PicConfig string (ordering,
//!                        grid, dt, seed — a snapshot only restores into a
//!                        simulation built from the same configuration)
//! step_count       u64
//! rng_state        4×u64 retired slot: written 0, read and ignored (the
//!                        initial population draws per-chunk streams keyed
//!                        by the seed; nothing draws after construction)
//! charge_ref       f64   total-charge reference for the watchdog
//! kernel_path      u32   retired slot: written 1 (lanes), 0/1 read and ignored
//! deposit_path     u32   active hot-path knobs at capture time — metadata,
//! sort_period      u64   not fingerprint: a `set_*` call may have moved them
//! ctrl_len, ctrl   u64+n off the configured defaults, and a restored run
//!                        must resume them (plus the sort-cadence
//!                        controller's serialized decision state)
//! n_particles      u64
//! icell,ix,iy      3×n×u32
//! dx,dy,vx,vy      4×n×f64
//! n_grid           u64
//! rho,ex,ey        3×n_grid×f64
//! n_diag           u64
//! diag history     n_diag×4×f64 (time, kinetic, field, ex_mode)
//! checksum         u64   snapshot_hash (4-lane word FNV) over every preceding byte
//! ```
//!
//! All floating-point values are stored as raw IEEE-754 bit patterns, so a
//! decode→encode round trip is the identity and restore is bit-exact. The
//! trailing checksum covers the header too: any single flipped bit in a
//! snapshot file is rejected with [`PicError::Checkpoint`] rather than
//! silently corrupting a resumed run.

use crate::particles::ParticlesSoA;
use crate::sim::{DepositPath, DiagSample};
use crate::species::SpeciesArena;
use crate::PicError;

/// Current snapshot format version. Bumped on any layout change; decoding
/// rejects snapshots from other versions. v2 added the hot-path metadata
/// block (active kernel/deposit/sort-period plus adaptive-controller state)
/// between the charge reference and the particle store.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 8] = *b"PIC2DCKP";

/// Active hot-path knobs at capture time, carried as snapshot *metadata*
/// rather than folded into the config fingerprint: a `set_deposit_path` /
/// `set_sort_period` call may have moved them off the configured defaults,
/// and a restored run must resume the last setting instead of silently
/// reverting. `controller` is the serialized decision state
/// ([`crate::control::HotPathController::encode_state`]); empty when no
/// controller is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPathMeta {
    /// Deposit path in effect when the snapshot was captured.
    pub deposit_path: DepositPath,
    /// Sort period in effect (the legacy fixed cadence; ignored while a
    /// controller drives the sort schedule).
    pub sort_period: u64,
    /// Serialized controller decision state, or empty.
    pub controller: Vec<u8>,
}

/// What the retired kernel-path slot is written as: the code `Lanes` had,
/// so snapshots keep the bytes (and hashes) they always had.
const KERNEL_SLOT_LANES: u32 = 1;

/// The kernel-path slot once said which of two bit-identical kernel arms
/// was running; both codes (0 scalar, 1 lanes) restore to the same bytes,
/// so they are accepted and dropped. Anything else is corruption.
fn check_kernel_slot(c: u32) -> Result<(), PicError> {
    match c {
        0 | KERNEL_SLOT_LANES => Ok(()),
        _ => Err(PicError::Checkpoint(format!(
            "snapshot has unknown kernel-path code {c}"
        ))),
    }
}

fn deposit_code(p: DepositPath) -> u32 {
    match p {
        DepositPath::Exact => 0,
        DepositPath::LaneReduce => 1,
    }
}

/// Code 2 was the sorted-block deposit; it is retired, never reassigned.
fn deposit_from_code(c: u32) -> Result<DepositPath, PicError> {
    match c {
        0 => Ok(DepositPath::Exact),
        1 => Ok(DepositPath::LaneReduce),
        2 => Err(PicError::Checkpoint(
            "snapshot was taken on the sorted-block deposit path (code 2), which has been \
             removed; re-run from an Exact or LaneReduce checkpoint"
                .into(),
        )),
        _ => Err(PicError::Checkpoint(format!(
            "snapshot has unknown deposit-path code {c}"
        ))),
    }
}

/// Checksum used for snapshot integrity: FNV-1a style, but word-wise over
/// four independent lanes folded in lane order, with a byte-serial tail
/// for the last `len % 32` bytes. A plain byte-serial FNV is one long
/// dependent multiply chain and tops out near 1 GB/s, which made the
/// checksum the single largest cost of taking a checkpoint; four lanes
/// let the CPU overlap the multiplies while staying deterministic and
/// position-sensitive.
pub fn snapshot_hash(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [SEED; 4];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = SEED;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a 64-bit hash over a byte slice (used for the small canonical
/// config string behind [`config_fingerprint`]; snapshot bodies use the
/// faster [`snapshot_hash`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------- encoding ----------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

// The slice writers serialize through a small cache-resident staging
// block and append it with one `extend_from_slice` per block: appending
// element-wise pays a capacity check and length update per value, and a
// zero-filling `resize` touches every destination page twice. Both made
// `encode` the dominant cost of taking a multi-megabyte snapshot.

const STAGE: usize = 512;

fn put_u32_slice(buf: &mut Vec<u8>, s: &[u32]) {
    let mut block = [0u8; 4 * STAGE];
    for chunk in s.chunks(STAGE) {
        for (dst, v) in block.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * 4]);
    }
}

fn put_f64_slice(buf: &mut Vec<u8>, s: &[f64]) {
    let mut block = [0u8; 8 * STAGE];
    for chunk in s.chunks(STAGE) {
        for (dst, v) in block.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * 8]);
    }
}

fn put_hot_path(buf: &mut Vec<u8>, hp: &HotPathMeta) {
    put_u32(buf, KERNEL_SLOT_LANES);
    put_u32(buf, deposit_code(hp.deposit_path));
    put_u64(buf, hp.sort_period);
    put_u64(buf, hp.controller.len() as u64);
    buf.extend_from_slice(&hp.controller);
}

/// The borrowed state both encoders write: everything a snapshot holds,
/// serialized straight from the simulation's own buffers — a
/// multi-megabyte particle store copied once per coordinated checkpoint was
/// the dominant snapshot cost. A single-species run fills it with its one
/// store (`vz` empty) and no **J**.
pub struct StateView<'a> {
    /// Fingerprint of the owning configuration.
    pub config_fingerprint: u64,
    /// Steps taken when the snapshot was captured.
    pub step_count: u64,
    /// Retired slot: written as zeros, ignored on restore.
    pub rng_state: [u64; 4],
    /// Total-charge reference captured at initialization.
    pub charge_ref: f64,
    /// Active hot-path knobs and controller state at capture time.
    pub hot_path: &'a HotPathMeta,
    /// Per-species stores, in species-table order.
    pub species: &'a [SpeciesArena],
    /// Charge density on grid points.
    pub rho: &'a [f64],
    /// Electric field x-component on grid points.
    pub ex: &'a [f64],
    /// Electric field y-component on grid points.
    pub ey: &'a [f64],
    /// Current density components on grid points (empty without **J**).
    pub jx: &'a [f64],
    /// See [`jx`](Self::jx).
    pub jy: &'a [f64],
    /// See [`jx`](Self::jx).
    pub jz: &'a [f64],
    /// Diagnostics history.
    pub diag: &'a [DiagSample],
}

/// Serialize the one store of a [`StateView`] in the single-species
/// `PIC2DCKP` format that [`decode`] reads.
pub fn encode_view(state: &StateView<'_>) -> Vec<u8> {
    let [store] = state.species else {
        panic!("the PIC2DCKP format holds exactly one store");
    };
    let n = store.p.len();
    let len = fixed_len(state.hot_path) + n * 44 + state.rho.len() * 24 + state.diag.len() * 32;
    let mut buf = Vec::with_capacity(len);
    put_header(&mut buf, (MAGIC, FORMAT_VERSION), state);
    put_store(&mut buf, &store.p, None);
    put_grid_arrays(&mut buf, &[state.rho, state.ex, state.ey]);
    let buf = seal(buf, state.diag);
    debug_assert_eq!(buf.len(), len, "snapshot length");
    buf
}

/// Bytes both formats spend besides their arrays: the header, the hot-path
/// block, three length prefixes and the checksum — so each encoder
/// allocates its snapshot once, at its exact length.
fn fixed_len(hp: &HotPathMeta) -> usize {
    8 + 4 + 8 + 8 + 32 + 8 + (4 + 4 + 8 + 8 + hp.controller.len()) + 3 * 8 + 8
}

/// The header both formats share: magic, version, fingerprint, step count,
/// the retired RNG slot, charge reference, hot-path block.
fn put_header(buf: &mut Vec<u8>, (magic, version): ([u8; 8], u32), state: &StateView<'_>) {
    buf.extend_from_slice(&magic);
    put_u32(buf, version);
    put_u64(buf, state.config_fingerprint);
    put_u64(buf, state.step_count);
    for w in state.rng_state {
        put_u64(buf, w);
    }
    put_f64(buf, state.charge_ref);
    put_hot_path(buf, state.hot_path);
}

/// One particle store: its length, the seven columns, and `vz` when the
/// format carries it.
fn put_store(buf: &mut Vec<u8>, p: &ParticlesSoA, vz: Option<&[f64]>) {
    put_u64(buf, p.len() as u64);
    put_u32_slice(buf, &p.icell);
    put_u32_slice(buf, &p.ix);
    put_u32_slice(buf, &p.iy);
    for col in [&p.dx, &p.dy, &p.vx, &p.vy] {
        put_f64_slice(buf, col);
    }
    if let Some(vz) = vz {
        put_f64_slice(buf, vz);
    }
}

/// The grid length, then each array (all of that length).
fn put_grid_arrays(buf: &mut Vec<u8>, arrays: &[&[f64]]) {
    put_u64(buf, arrays[0].len() as u64);
    for a in arrays {
        put_f64_slice(buf, a);
    }
}

/// Append the diagnostics history and the checksum over everything before.
fn seal(mut buf: Vec<u8>, diag: &[DiagSample]) -> Vec<u8> {
    put_u64(&mut buf, diag.len() as u64);
    for s in diag {
        put_f64(&mut buf, s.time);
        put_f64(&mut buf, s.kinetic);
        put_f64(&mut buf, s.field);
        put_f64(&mut buf, s.ex_mode);
    }
    let sum = snapshot_hash(&buf);
    put_u64(&mut buf, sum);
    buf
}

// ---------------- decoding ----------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PicError> {
        if self.pos + n > self.buf.len() {
            return Err(PicError::Checkpoint(format!(
                "snapshot truncated: need {} bytes at offset {}, have {}",
                n,
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PicError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PicError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, PicError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, PicError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, PicError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }

    fn hot_path(&mut self) -> Result<HotPathMeta, PicError> {
        check_kernel_slot(self.u32()?)?;
        let deposit_path = deposit_from_code(self.u32()?)?;
        let sort_period = self.u64()?;
        let n = self.len_prefix(1)?;
        let controller = self.take(n)?.to_vec();
        Ok(HotPathMeta {
            deposit_path,
            sort_period,
            controller,
        })
    }

    /// One particle store: its length, the seven columns, and `vz` when the
    /// format carries it (empty otherwise).
    fn store(&mut self, with_vz: bool) -> Result<(ParticlesSoA, Vec<f64>), PicError> {
        // 3×u32 + 4×f64 per particle, plus an f64 for vz.
        let n = self.len_prefix(if with_vz { 52 } else { 44 })?;
        let p = ParticlesSoA {
            icell: self.u32_vec(n)?,
            ix: self.u32_vec(n)?,
            iy: self.u32_vec(n)?,
            dx: self.f64_vec(n)?,
            dy: self.f64_vec(n)?,
            vx: self.f64_vec(n)?,
            vy: self.f64_vec(n)?,
        };
        let vz = if with_vz {
            self.f64_vec(n)?
        } else {
            Vec::new()
        };
        Ok((p, vz))
    }

    /// The grid length, then `K` arrays of that length.
    fn grid_arrays<const K: usize>(&mut self) -> Result<[Vec<f64>; K], PicError> {
        let ng = self.len_prefix(8 * K)?;
        let mut out = [const { Vec::new() }; K];
        for a in &mut out {
            *a = self.f64_vec(ng)?;
        }
        Ok(out)
    }

    /// The diagnostics history, which must end the payload.
    fn diag_to_end(&mut self, kind: &str) -> Result<Vec<DiagSample>, PicError> {
        let nd = self.len_prefix(32)?; // 4×f64 per sample
        let mut diag = Vec::with_capacity(nd);
        for _ in 0..nd {
            diag.push(DiagSample {
                time: self.f64()?,
                kinetic: self.f64()?,
                field: self.f64()?,
                ex_mode: self.f64()?,
            });
        }
        if self.pos != self.buf.len() {
            return Err(PicError::Checkpoint(format!(
                "{kind}snapshot has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(diag)
    }

    /// Bounded length prefix: a corrupted count must not drive a huge
    /// allocation before the checksum gets a chance to reject the buffer.
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, PicError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_bytes) > remaining {
            return Err(PicError::Checkpoint(format!(
                "snapshot corrupt: length prefix {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }
}

/// The fields both formats carry ahead of their arrays.
struct Header {
    config_fingerprint: u64,
    step_count: u64,
    rng_state: [u64; 4],
    charge_ref: f64,
    hot_path: HotPathMeta,
}

/// Check a snapshot of format `(magic, version)` — minimum size, trailing
/// checksum over the whole payload, magic, version — and read its header.
/// `kind` prefixes the error messages (`""` or `"EM "`).
fn open<'a>(
    bytes: &'a [u8],
    (magic, version): ([u8; 8], u32),
    kind: &str,
) -> Result<(Reader<'a>, Header), PicError> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(PicError::Checkpoint(format!(
            "{kind}snapshot too small ({} bytes)",
            bytes.len()
        )));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at(len-8) leaves 8 bytes"));
    let actual = snapshot_hash(payload);
    if stored != actual {
        return Err(PicError::Checkpoint(format!(
            "{kind}snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    if r.take(8)? != magic {
        return Err(PicError::Checkpoint(format!("bad {kind}snapshot magic")));
    }
    let found = r.u32()?;
    if found != version {
        return Err(PicError::Checkpoint(format!(
            "unsupported {kind}snapshot version {found} (expected {version})"
        )));
    }
    let header = Header {
        config_fingerprint: r.u64()?,
        step_count: r.u64()?,
        rng_state: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
        charge_ref: r.f64()?,
        hot_path: r.hot_path()?,
    };
    Ok((r, header))
}

/// Parse and validate a snapshot produced by [`encode_view`], as the state
/// of one species with no `vz` and no **J**.
///
/// Checks, in order: minimum size, trailing checksum over the whole
/// payload, magic, format version, and internal length consistency. The
/// caller ([`crate::engine::Pic::restore`]) additionally checks the
/// configuration fingerprint and the array lengths against its own grid.
pub fn decode(bytes: &[u8]) -> Result<EmState, PicError> {
    let (mut r, h) = open(bytes, (MAGIC, FORMAT_VERSION), "")?;
    let (particles, vz) = r.store(false)?;
    let [rho, ex, ey] = r.grid_arrays()?;
    Ok(EmState {
        config_fingerprint: h.config_fingerprint,
        step_count: h.step_count,
        rng_state: h.rng_state,
        charge_ref: h.charge_ref,
        hot_path: h.hot_path,
        species: vec![EmSpeciesState { particles, vz }],
        rho,
        ex,
        ey,
        jx: Vec::new(),
        jy: Vec::new(),
        jz: Vec::new(),
        diag: r.diag_to_end("")?,
    })
}

/// Fingerprint a configuration over an explicit canonical field list:
/// every knob that shapes the physics or the data layout. The hot-path
/// knobs — `deposit_path`, `sort_period` — are deliberately *excluded*
/// since snapshot format v2: they can be retuned at runtime, and a
/// checkpoint taken afterwards must restore into the same job (the active
/// values travel as [`HotPathMeta`] instead). The controller *profile* is
/// included — it shapes the sort schedule and therefore the trajectory. `threads` stays excluded: it only partitions work across
/// the pool without changing what is computed, so a checkpoint written on
/// an 8-thread run restores into a 1-thread run (and a shrunken
/// distributed survivor can adopt a dead rank's snapshot regardless of its
/// pool size).
///
/// The string still spells out the four layout/loop settings and the sort
/// flavour that used to be options (`particle_layout=Soa;…;
/// sort_out_of_place=true`): they are what every run now does, and keeping
/// the tokens keeps the fingerprint of every snapshot written before they
/// became constants.
pub fn config_fingerprint(cfg: &crate::sim::PicConfig) -> u64 {
    let canon = format!(
        "grid_nx={};grid_ny={};lx={:?};ly={:?};n_particles={};dt={:?};\
         distribution={:?};ordering={:?};particle_layout=Soa;\
         field_layout=Redundant;loop_structure=Split;position_update=Branchless;\
         hoisted={:?};sort_out_of_place=true;seed={};keep_range={:?};\
         keep_cells={:?};controller={:?}",
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.lx,
        cfg.ly,
        cfg.n_particles,
        cfg.dt,
        cfg.distribution,
        cfg.ordering,
        cfg.hoisted,
        cfg.seed,
        cfg.keep_range,
        cfg.keep_cells,
        cfg.controller,
    );
    fnv1a(canon.as_bytes())
}

// ---------------- multi-species (EM) snapshots ----------------
//
// The 2d3v multi-species world gets its own magic and encoder so the v1
// single-species wire format above stays byte-identical — a legacy
// checkpoint taken before the species subsystem landed still decodes (and
// hashes) exactly as it did, and the two formats can never be confused:
// the first eight bytes differ.

/// EM snapshot format version (independent of [`FORMAT_VERSION`]). v2
/// added the same hot-path metadata block as the single-species format.
pub const EM_FORMAT_VERSION: u32 = 2;

const EM_MAGIC: [u8; 8] = *b"PIC2DEMS";

/// One species' checkpointed storage.
#[derive(Debug, Clone, PartialEq)]
pub struct EmSpeciesState {
    /// In-plane SoA store.
    pub particles: ParticlesSoA,
    /// Out-of-plane velocities, index-parallel.
    pub vz: Vec<f64>,
}

/// The complete restorable state of a simulation of either kind, as plain
/// data: what [`decode_em`] reads, and what [`decode`] reads as one species
/// with no `vz` and no **J** — the one shape the engine restores from.
#[derive(Debug, Clone, PartialEq)]
pub struct EmState {
    /// Fingerprint of the owning configuration (an
    /// [`crate::em::EmConfig`]'s covers the species table).
    pub config_fingerprint: u64,
    /// Steps taken when the snapshot was captured.
    pub step_count: u64,
    /// Retired slot: written as zeros, ignored on restore.
    pub rng_state: [u64; 4],
    /// Total-charge reference captured at initialization.
    pub charge_ref: f64,
    /// Active hot-path knobs and controller state at capture time.
    pub hot_path: HotPathMeta,
    /// Per-species particle stores, in species-table order.
    pub species: Vec<EmSpeciesState>,
    /// Charge density on grid points.
    pub rho: Vec<f64>,
    /// Electric field components on grid points.
    pub ex: Vec<f64>,
    /// See [`ex`](Self::ex).
    pub ey: Vec<f64>,
    /// Current density components on grid points.
    pub jx: Vec<f64>,
    /// See [`jx`](Self::jx).
    pub jy: Vec<f64>,
    /// See [`jx`](Self::jx).
    pub jz: Vec<f64>,
    /// Diagnostics history.
    pub diag: Vec<DiagSample>,
}

/// Serialize a [`StateView`] in the multi-species `PIC2DEMS` format that
/// [`decode_em`] reads (same integrity scheme as [`encode_view`]: trailing
/// [`snapshot_hash`] over every preceding byte, raw IEEE-754 bit patterns
/// throughout).
pub fn encode_em(state: &StateView<'_>) -> Vec<u8> {
    let (nsp, ng) = (state.species.len(), state.rho.len());
    let np: usize = state.species.iter().map(|s| s.p.len()).sum();
    let len = fixed_len(state.hot_path) + 8 * nsp + np * 52 + ng * 48 + state.diag.len() * 32;
    let mut buf = Vec::with_capacity(len);
    put_header(&mut buf, (EM_MAGIC, EM_FORMAT_VERSION), state);

    put_u64(&mut buf, nsp as u64);
    for sp in state.species {
        assert_eq!(sp.vz.len(), sp.p.len(), "vz must be index-parallel");
        put_store(&mut buf, &sp.p, Some(&sp.vz));
    }
    let s = state;
    put_grid_arrays(&mut buf, &[s.rho, s.ex, s.ey, s.jx, s.jy, s.jz]);
    let buf = seal(buf, state.diag);
    debug_assert_eq!(buf.len(), len, "snapshot length");
    buf
}

/// True when `bytes` starts with the EM snapshot magic — how a runtime
/// holding an opaque snapshot routes it to the right decoder.
pub fn is_em_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[..8] == EM_MAGIC
}

/// Parse and validate a snapshot produced by [`encode_em`].
pub fn decode_em(bytes: &[u8]) -> Result<EmState, PicError> {
    let (mut r, h) = open(bytes, (EM_MAGIC, EM_FORMAT_VERSION), "EM ")?;
    let nsp = r.len_prefix(8)?; // at least the length prefix per species
    let mut species = Vec::with_capacity(nsp);
    for _ in 0..nsp {
        let (particles, vz) = r.store(true)?;
        species.push(EmSpeciesState { particles, vz });
    }
    let [rho, ex, ey, jx, jy, jz] = r.grid_arrays()?;
    Ok(EmState {
        config_fingerprint: h.config_fingerprint,
        step_count: h.step_count,
        rng_state: h.rng_state,
        charge_ref: h.charge_ref,
        hot_path: h.hot_path,
        species,
        rho,
        ex,
        ey,
        jx,
        jy,
        jz,
        diag: r.diag_to_end("EM ")?,
    })
}

/// Fingerprint an [`crate::em::EmConfig`] over an explicit canonical field
/// list — the multi-species analogue of [`config_fingerprint`]. The
/// species table is part of the canonical string (name, charge, mass,
/// density, marker count, and distribution of every species, in order), so
/// two worlds that differ in any species never share a fingerprint and
/// snapshots can never cross-restore between them. `threads` is excluded
/// for the same portability reason as the legacy fingerprint, and the
/// hot-path knobs (`deposit_path`/`sort_period`) are excluded for the same
/// retune-then-restore reason as
/// [`config_fingerprint`] — they travel as [`HotPathMeta`] instead, while
/// the controller profile (which shapes the sort schedule) is covered.
pub fn em_config_fingerprint(cfg: &crate::em::EmConfig) -> u64 {
    use std::fmt::Write as _;
    let mut canon = format!(
        "em;grid_nx={};grid_ny={};lx={:?};ly={:?};dt={:?};b0={:?};\
         solve_e={:?};ordering={:?};seed={};replica={:?};\
         controller={:?};nspecies={}",
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.lx,
        cfg.ly,
        cfg.dt,
        cfg.b0,
        cfg.solve_e,
        cfg.ordering,
        cfg.seed,
        cfg.replica,
        cfg.controller,
        cfg.species.len(),
    );
    for s in &cfg.species {
        write!(
            canon,
            ";species[name={};charge={:?};mass={:?};density={:?};n={};dist={:?}]",
            s.name, s.charge, s.mass, s.density, s.n_particles, s.distribution
        )
        .expect("writing to a String cannot fail");
    }
    fnv1a(canon.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::InitialDistribution;
    use crate::species::SpeciesDef;

    /// Write an owned one-species state through the borrowed view the
    /// engine uses.
    fn encode(s: &EmState) -> Vec<u8> {
        let p = &s.species[0].particles;
        let store = SpeciesArena {
            def: SpeciesDef::electrons(p.len(), InitialDistribution::Uniform),
            p: p.clone(),
            vz: Vec::new(),
            weight: 1.0,
        };
        encode_view(&StateView {
            config_fingerprint: s.config_fingerprint,
            step_count: s.step_count,
            rng_state: s.rng_state,
            charge_ref: s.charge_ref,
            hot_path: &s.hot_path,
            species: std::slice::from_ref(&store),
            rho: &s.rho,
            ex: &s.ex,
            ey: &s.ey,
            jx: &[],
            jy: &[],
            jz: &[],
            diag: &s.diag,
        })
    }

    /// Re-stamp the checksum of an edited snapshot, so only the check
    /// under test can fire.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = snapshot_hash(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    fn sample_state() -> EmState {
        let mut p = ParticlesSoA::zeroed(5);
        for i in 0..5 {
            p.icell[i] = i as u32;
            p.ix[i] = 2 * i as u32;
            p.iy[i] = 3 * i as u32;
            p.dx[i] = 0.1 * i as f64;
            p.dy[i] = 0.2 * i as f64;
            p.vx[i] = -1.5 + i as f64;
            p.vy[i] = 0.5 - i as f64;
        }
        EmState {
            config_fingerprint: 0xDEAD_BEEF,
            step_count: 42,
            rng_state: [1, 2, 3, 4],
            charge_ref: -1024.0,
            hot_path: HotPathMeta {
                deposit_path: DepositPath::LaneReduce,
                sort_period: 17,
                controller: vec![0xA5, 0x5A, 0x3C, 0xC3],
            },
            species: vec![EmSpeciesState {
                particles: p,
                vz: Vec::new(),
            }],
            rho: vec![0.25; 16],
            ex: vec![1.0; 16],
            ey: vec![-1.0; 16],
            jx: Vec::new(),
            jy: Vec::new(),
            jz: Vec::new(),
            diag: vec![DiagSample {
                time: 0.05,
                kinetic: 10.0,
                field: 0.01,
                ex_mode: 1e-3,
            }],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample_state();
        let bytes = encode(&s);
        let t = decode(&bytes).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = encode(&sample_state());
        // Flip one bit in a spread of positions (including header, data,
        // and the checksum itself) — all must fail decode.
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_state());
        for keep in [0, 7, 19, bytes.len() - 9, bytes.len() - 1] {
            assert!(decode(&bytes[..keep]).is_err(), "truncated to {keep}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode(&sample_state());
        // Version field sits right after the 8-byte magic.
        bytes[8] = FORMAT_VERSION as u8 + 1;
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("version")));
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_huge_allocation() {
        let mut bytes = encode(&sample_state());
        // n_particles sits after magic(8) + version(4) + fprint(8) +
        // steps(8) + rng(32) + charge(8) + hot-path meta (4+4+8+8 plus the
        // 4-byte controller blob of `sample_state`) = offset 96.
        bytes[96..104].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(_)));
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = crate::sim::PicConfig::landau_table1(1000);
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_of_snapshots_written_before_the_layout_knobs_went_is_kept() {
        // Values computed at the commit that still had `particle_layout`,
        // `field_layout`, `loop_structure`, `position_update` and
        // `sort_out_of_place` as `PicConfig` fields.
        use crate::sim::PicConfig;
        assert_eq!(
            config_fingerprint(&PicConfig::landau_table1(1000)),
            0xaadad49aaa413e1a
        );
        assert_eq!(
            config_fingerprint(&PicConfig::two_stream(1000)),
            0xc0ba00a72e88901e
        );
    }

    #[test]
    fn fingerprint_ignores_hot_path_knobs() {
        // Deposit path and sort period can be retuned at runtime; since
        // format v2 they are snapshot metadata, not config identity — a
        // checkpoint taken afterwards restores into the job that
        // configured it.
        let mut a = crate::sim::PicConfig::landau_table1(1000);
        a.deposit_path = crate::sim::DepositPath::Exact;
        a.sort_period = 10;
        let mut b = a.clone();
        b.deposit_path = crate::sim::DepositPath::LaneReduce;
        b.sort_period = 50;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn fingerprint_covers_controller_profile() {
        // The controller profile shapes the sort schedule — and with it
        // the particle ordering and reassociated-deposit trajectories —
        // so it is part of config identity.
        let a = crate::sim::PicConfig::landau_table1(1000);
        let mut b = a.clone();
        b.controller = Some(crate::control::ControllerConfig::default());
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn hot_path_metadata_roundtrips() {
        let s = sample_state();
        let t = decode(&encode(&s)).unwrap();
        assert_eq!(t.hot_path, s.hot_path);
        // The retired kernel slot is written as the lanes code; a snapshot
        // a build with the scalar arm wrote (code 0) decodes to the same
        // state.
        let mut bytes = encode(&s);
        assert_eq!(bytes[68..72], 1u32.to_le_bytes());
        bytes[68..72].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(decode(&bytes).unwrap(), s);
        // Unknown path codes are rejected even with a valid checksum.
        bytes[68..72].copy_from_slice(&7u32.to_le_bytes()); // kernel code
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("kernel-path")));
        // Deposit code 2 (the removed sorted-block path) is refused by name.
        let mut bytes = encode(&s);
        bytes[72..76].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, PicError::Checkpoint(ref m) if m.contains("sorted-block")));
    }

    #[test]
    fn fingerprint_ignores_thread_count() {
        // Thread count partitions work without changing the trajectory, so
        // checkpoints are portable across pool sizes.
        let mut a = crate::sim::PicConfig::landau_table1(1000);
        a.threads = 1;
        let mut b = a.clone();
        b.threads = 8;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
