//! Binary trace snapshots: a versioned, checksummed, delta/varint
//! encoding of [`TraceEvent`] streams.
//!
//! A snapshot captures exactly what a [`Pintool`] observes during one
//! [`SyntheticTrace::replay`](crate::SyntheticTrace::replay): every
//! instruction event **and** every section-start notification, in
//! order. Decoding a snapshot therefore drives a tool bit-identically
//! to the live replay that recorded it — without running the
//! interpreter, drawing random numbers, or touching the program model.
//! That is what makes the on-disk [`TraceCache`](crate::TraceCache)
//! transparent: generate once, replay forever.
//!
//! # Format (version 3)
//!
//! All multi-byte integers are little-endian; `varint` is LEB128 and
//! `zigzag` maps signed deltas onto it. The full byte layout:
//!
//! ```text
//! header (24 bytes)
//!   0   4  magic  "RBTS"
//!   4   2  format version (= 3)
//!   6   2  reserved (= 0)
//!   8   8  replay seed
//!   16  8  cache-key fingerprint (0 when unkeyed)
//! records (variable; one tag byte each)
//!   0x00..=0x3F  event  bits 0-2: class (0 = other, 1-7 = branch kind)
//!                       bit  3:   branch outcome taken
//!                       bit  4:   target present
//!                       bit  5:   sequential (pc == previous next_pc)
//!                payload: len u8
//!                         [zigzag varint pc − expected]   unless sequential
//!                         [zigzag varint target − pc]     if target present
//!   0xFE  section-start (1 byte: 0 serial / 1 parallel), delivered
//!         to the tool as `on_section_start`
//!   0xFC  section-set   (1 byte), silent decoder state change only
//!   0xFD  end of records
//! footer (56 bytes)
//!   0  40  instructions, branches, taken branches,
//!          serial instructions, parallel instructions (5 × u64)
//!   40  8  static code bytes of the recorded program (0 when unknown)
//!   48  8  checksum over every preceding byte of the file
//! ```
//!
//! The checksum ([`checksum`]) is FNV-1a 64 taken over the
//! little-endian 8-byte words of the checksummed bytes, with the 0–7
//! trailing bytes folded in one at a time. Each step `h = (h ^ w) × P`
//! is a bijection in both `h` and `w`, so a corruption confined to one
//! word always changes the result — every single-bit flip included —
//! while the serial multiply chain runs once per word instead of once
//! per byte. Files of other versions are not read: version 1 (the
//! byte-wise FNV-1a) and version 2 (no static code size in the footer)
//! fail [`Snapshot::parse`] with [`SnapshotError::UnsupportedVersion`],
//! and the trace cache regenerates them in place. The static code size
//! lets a cached replay report a program's static footprint without
//! synthesizing the program again.
//!
//! Branch kinds 1–7 follow [`BranchKind::ALL`] order as listed in
//! [`KIND_TABLE`]. Event PCs are delta-encoded against the previous
//! event's fall-through address, so straight-line code costs two bytes
//! per instruction (tag + length).
//!
//! # Decoding from a cursor
//!
//! The delta encoding makes a record readable only with the decoder
//! state before it: the expected next PC and the current section. A
//! cursor captures that state plus the byte offset and the count of
//! events decoded so far, so one decode loop serves every reader:
//!
//! * a **full replay** starts at the stream start, runs to the end
//!   record and then checks the footer counters;
//! * a full replay can also **record a cursor table**: one cursor every
//!   N events, taken right after that event's record (the sampling plan
//!   pass records one per interval boundary);
//! * a **window** resumes from a recorded cursor and stops right after a
//!   given event, so phase-sampled replay
//!   ([`Snapshot::replay_sampled`]) decodes only the windows it
//!   delivers.
//!
//! # Examples
//!
//! Round-trip a trace through an in-memory snapshot:
//!
//! ```
//! use rebalance_trace::{
//!     CondBehavior, IterCount, NullTool, Phase, ProgramBuilder, Schedule, Section,
//!     Snapshot, SnapshotWriter, SyntheticTrace, Terminator,
//! };
//!
//! let mut b = ProgramBuilder::new();
//! let region = b.region("hot");
//! let body = b.reserve_block();
//! let exit = b.reserve_block();
//! b.define_block(body, region, 3, Terminator::Cond {
//!     taken: body,
//!     fall: exit,
//!     behavior: CondBehavior::Loop { count: IterCount::Fixed(4) },
//! });
//! b.define_block(exit, region, 1, Terminator::Exit);
//! let trace = SyntheticTrace::new(
//!     b.build().unwrap(),
//!     Schedule::new(vec![Phase::new(Section::Parallel, body, 100)]),
//!     7,
//! );
//!
//! let mut writer = SnapshotWriter::new(Vec::new(), trace.seed(), 0);
//! let live = trace.replay(&mut writer);
//! let (bytes, info) = writer.finish().unwrap();
//! assert_eq!(info.summary, live);
//!
//! let snapshot = Snapshot::parse(&bytes).unwrap();
//! let decoded = snapshot.replay(&mut NullTool).unwrap();
//! assert_eq!(decoded, live, "decode reproduces the live summary");
//! ```

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
use serde::{Deserialize, Serialize};

use crate::batch::{
    BranchSink, DirectSink, EventBatch, EventSink, Piece, PlainRun, RunSink, DEFAULT_BATCH_CAPACITY,
};
use crate::by_section::BySection;
use crate::event::{BranchEvent, TraceEvent};
use crate::exec::RunSummary;
use crate::observer::{Need, Pintool};
use crate::section::Section;

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"RBTS";

/// Format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u16 = 3;

/// Branch-kind wire codes: index+1 in this table is the on-disk class
/// code (0 is reserved for non-branch instructions).
pub const KIND_TABLE: [BranchKind; 7] = [
    BranchKind::CondDirect,
    BranchKind::UncondDirect,
    BranchKind::Call,
    BranchKind::IndirectCall,
    BranchKind::IndirectBranch,
    BranchKind::Return,
    BranchKind::Syscall,
];

const HEADER_BYTES: usize = 24;
const FOOTER_BYTES: usize = 56; // 6 counters + checksum
const MIN_BYTES: usize = HEADER_BYTES + 1 + FOOTER_BYTES; // + end tag

/// Bytes [`SnapshotWriter`] stages before checksumming and writing them
/// in bulk.
const STAGE_BYTES: usize = 64 * 1024;

const TAG_END: u8 = 0xFD;
const TAG_SECTION_START: u8 = 0xFE;
const TAG_SECTION_SET: u8 = 0xFC;

const EVT_TAKEN: u8 = 0x08;
const EVT_HAS_TARGET: u8 = 0x10;
const EVT_SEQUENTIAL: u8 = 0x20;

/// The tag bytes of four 2-byte records read as one little-endian word.
const RUN_TAG_MASK: u64 = 0x00FF_00FF_00FF_00FF;
/// Four sequential plain records' tags, under [`RUN_TAG_MASK`].
const RUN_TAGS: u64 = 0x0020_0020_0020_0020;
/// Sums the four 16-bit lanes of a word into its top lane.
const RUN_LANE_SUM: u64 = 0x0001_0001_0001_0001;

/// Everything that can go wrong while writing or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u16),
    /// The file ends before the structure it promises.
    Truncated {
        /// Byte offset at which more data was expected.
        at: usize,
    },
    /// A structurally invalid byte sequence.
    Malformed {
        /// Byte offset of the offending record.
        at: usize,
        /// What was wrong with it.
        what: &'static str,
    },
    /// The stored checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u64,
        /// Checksum recomputed over the file.
        computed: u64,
    },
    /// A footer counter disagrees with the decoded record stream.
    CountMismatch {
        /// Name of the disagreeing counter.
        field: &'static str,
        /// Value recorded in the footer.
        stored: u64,
        /// Value observed while decoding.
        decoded: u64,
    },
    /// A sampling plan does not describe this snapshot: its cursor
    /// table was recorded over other bytes, or its interval geometry
    /// covers another instruction count.
    PlanMismatch {
        /// Which property disagrees (`"checksum"` or `"instruction"`).
        field: &'static str,
        /// Value the plan was built for.
        planned: u64,
        /// Value of this snapshot.
        actual: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v}: this build reads only version \
                 {SNAPSHOT_VERSION}; re-run `rebalance trace record`, or let a cached \
                 run regenerate the file"
            ),
            SnapshotError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapshotError::Malformed { at, what } => {
                write!(f, "malformed snapshot at byte {at}: {what}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::CountMismatch {
                field,
                stored,
                decoded,
            } => write!(
                f,
                "snapshot {field} count mismatch: footer says {stored}, stream decodes {decoded}"
            ),
            SnapshotError::PlanMismatch {
                field,
                planned,
                actual,
            } => write!(
                f,
                "sampling plan was built for another snapshot: planned {field} {planned}, snapshot has {actual}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Header and footer metadata of a snapshot, available without
/// decoding the record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub version: u16,
    /// Seed the recorded replay ran with.
    pub seed: u64,
    /// Fingerprint of the cache key the snapshot was recorded under
    /// (0 when recorded outside a cache).
    pub fingerprint: u64,
    /// Aggregate counters of the recorded stream.
    pub summary: RunSummary,
    /// Instructions per section.
    pub sections: BySection<u64>,
    /// Static code bytes of the recorded program (0 when the writer was
    /// not told; see [`SnapshotWriter::with_static_bytes`]).
    pub static_bytes: u64,
    /// Total encoded size in bytes, header and footer included.
    pub total_bytes: u64,
}

impl SnapshotInfo {
    /// Mean encoded bytes per instruction event.
    pub fn bytes_per_event(&self) -> f64 {
        if self.summary.instructions == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.summary.instructions as f64
        }
    }
}

// --- checksum: FNV-1a 64 over little-endian words ---

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the whole 8-byte words of `bytes` into a running checksum and
/// returns it with the 0–7 bytes left over.
fn fold_words(mut hash: u64, bytes: &[u8]) -> (u64, &[u8]) {
    let words = bytes.chunks_exact(8);
    let rest = words.remainder();
    for word in words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = (hash ^ w).wrapping_mul(FNV_PRIME);
    }
    (hash, rest)
}

/// Finishes a running checksum over the last bytes: their whole words,
/// then the 0–7 trailing bytes one at a time.
fn fold_tail(hash: u64, bytes: &[u8]) -> u64 {
    let (hash, rest) = fold_words(hash, bytes);
    rest.iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The snapshot checksum: FNV-1a 64 over the little-endian 8-byte words
/// of `bytes`, then over its 0–7 trailing bytes one at a time. A
/// snapshot's footer stores this over every byte before it;
/// [`Snapshot::parse`] recomputes it and [`SnapshotWriter`] streams it.
///
/// # Examples
///
/// ```
/// use rebalance_trace::snapshot::checksum;
///
/// // Any single-bit flip changes the checksum.
/// let bytes = *b"twelve bytes";
/// let mut flipped = bytes;
/// flipped[9] ^= 0x10;
/// assert_ne!(checksum(&bytes), checksum(&flipped));
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    fold_tail(FNV_OFFSET, bytes)
}

// --- varint / zigzag ---

fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn push_varint(out: &mut [u8; 10], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = byte;
            return n + 1;
        }
        out[n] = byte | 0x80;
        n += 1;
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let start = *pos;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(SnapshotError::Truncated { at: *pos });
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(SnapshotError::Malformed {
                at: start,
                what: "varint overflows 64 bits",
            });
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn section_code(section: Section) -> u8 {
    section.index() as u8
}

fn section_from_code(code: u8, at: usize) -> Result<Section, SnapshotError> {
    match code {
        0 => Ok(Section::Serial),
        1 => Ok(Section::Parallel),
        _ => Err(SnapshotError::Malformed {
            at,
            what: "invalid section code",
        }),
    }
}

fn kind_code(class: InstClass) -> u8 {
    match class.branch_kind() {
        None => 0,
        Some(kind) => {
            let idx = KIND_TABLE
                .iter()
                .position(|&k| k == kind)
                .expect("KIND_TABLE is exhaustive");
            (idx + 1) as u8
        }
    }
}

/// Records a live replay into any [`Write`] sink.
///
/// The writer is itself a [`Pintool`]: attach it (alone, or teed with
/// real analysis tools via the tuple combinator) to a replay, then call
/// [`SnapshotWriter::finish`] to emit the footer and retrieve the sink.
/// I/O errors during the replay are deferred and surfaced by `finish`.
pub struct SnapshotWriter<W: Write> {
    sink: W,
    /// Emitted bytes not yet checksummed or written. Drained whole words
    /// at a time once it holds [`STAGE_BYTES`], so `hash` always covers
    /// a word-aligned prefix of the file.
    stage: Vec<u8>,
    /// Running checksum over every drained byte.
    hash: u64,
    bytes: u64,
    seed: u64,
    fingerprint: u64,
    expected_pc: u64,
    section: Option<Section>,
    summary: RunSummary,
    sections: BySection<u64>,
    static_bytes: u64,
    error: Option<io::Error>,
}

impl<W: Write> fmt::Debug for SnapshotWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("bytes", &self.bytes)
            .field("summary", &self.summary)
            .finish()
    }
}

impl<W: Write> SnapshotWriter<W> {
    /// Starts a snapshot: writes the header for the given replay seed
    /// and cache-key fingerprint (use 0 when unkeyed).
    pub fn new(sink: W, seed: u64, fingerprint: u64) -> Self {
        let mut w = SnapshotWriter {
            sink,
            // Room past the drain mark for the last record or the footer.
            stage: Vec::with_capacity(STAGE_BYTES + 64),
            hash: FNV_OFFSET,
            bytes: 0,
            seed,
            fingerprint,
            expected_pc: 0,
            section: None,
            summary: RunSummary::default(),
            sections: BySection::default(),
            static_bytes: 0,
            error: None,
        };
        let mut header = [0u8; HEADER_BYTES];
        header[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        header[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&seed.to_le_bytes());
        header[16..24].copy_from_slice(&fingerprint.to_le_bytes());
        w.emit(&header);
        w
    }

    /// Records `static_bytes`, the recorded program's static code size,
    /// in the footer ([`SnapshotInfo::static_bytes`]).
    pub fn with_static_bytes(mut self, static_bytes: u64) -> Self {
        self.static_bytes = static_bytes;
        self
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> &RunSummary {
        &self.summary
    }

    #[inline]
    fn emit(&mut self, bytes: &[u8]) {
        self.stage.extend_from_slice(bytes);
        self.bytes += bytes.len() as u64;
        if self.stage.len() >= STAGE_BYTES {
            self.drain();
        }
    }

    /// Checksums and writes the staged whole words, keeping the 0–7
    /// bytes after them staged. After an I/O error the stage is only
    /// discarded: `finish` reports the first error.
    fn drain(&mut self) {
        let (hash, rest) = fold_words(self.hash, &self.stage);
        let whole = self.stage.len() - rest.len();
        self.hash = hash;
        if self.error.is_none() {
            if let Err(e) = self.sink.write_all(&self.stage[..whole]) {
                self.error = Some(e);
            }
        }
        self.stage.drain(..whole);
    }

    /// Writes the end marker, footer counters, and checksum; flushes
    /// and returns the sink plus the recorded metadata.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit at any point of the recording.
    pub fn finish(mut self) -> Result<(W, SnapshotInfo), SnapshotError> {
        self.emit(&[TAG_END]);
        let mut footer = [0u8; FOOTER_BYTES - 8];
        for (slot, value) in footer.chunks_exact_mut(8).zip([
            self.summary.instructions,
            self.summary.branches,
            self.summary.taken_branches,
            self.sections.serial,
            self.sections.parallel,
            self.static_bytes,
        ]) {
            slot.copy_from_slice(&value.to_le_bytes());
        }
        self.emit(&footer);
        // The checksum covers everything already emitted; it is the one
        // field outside the running hash.
        let checksum = fold_tail(self.hash, &self.stage);
        self.stage.extend_from_slice(&checksum.to_le_bytes());
        self.bytes += 8;
        if self.error.is_none() {
            if let Err(e) = self.sink.write_all(&self.stage) {
                self.error = Some(e);
            }
        }
        if self.error.is_none() {
            if let Err(e) = self.sink.flush() {
                self.error = Some(e);
            }
        }
        if let Some(e) = self.error {
            return Err(SnapshotError::Io(e));
        }
        let info = SnapshotInfo {
            version: SNAPSHOT_VERSION,
            seed: self.seed,
            fingerprint: self.fingerprint,
            summary: self.summary,
            sections: self.sections,
            static_bytes: self.static_bytes,
            total_bytes: self.bytes,
        };
        Ok((self.sink, info))
    }
}

impl<W: Write> SnapshotWriter<W> {
    /// Encodes a plain run: its first instruction as [`Pintool::on_inst`]
    /// encodes it, then one two-byte sequential record per further
    /// instruction, which is what `on_inst` writes for an instruction
    /// that starts where the one before it ended.
    fn run(&mut self, run: &PlainRun<'_>) {
        let (&first, rest) = run.lens.split_first().expect("a run has an instruction");
        self.on_inst(&TraceEvent {
            pc: run.pc,
            len: first,
            class: InstClass::Other,
            branch: None,
            section: run.section,
        });
        for &len in rest {
            self.emit(&[EVT_SEQUENTIAL, len]);
        }
        self.expected_pc = run.pc.as_u64().wrapping_add(run.bytes);
        self.summary.instructions += rest.len() as u64;
        *self.sections.get_mut(run.section) += rest.len() as u64;
    }
}

/// The writer records through the standard observer interface, so it
/// tees **whole batches** when attached alongside analysis tools (the
/// tuple/`ToolSet` combinators forward one `on_batch` per block). It
/// reads a batch as pieces, the default [`Pintool::need`], so a replay
/// that records a snapshot builds no event per plain instruction.
impl<W: Write> Pintool for SnapshotWriter<W> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        // A section switch without an explicit marker (a tool fed by
        // hand rather than by the interpreter) is recorded silently so
        // decode assigns the right section without inventing an
        // `on_section_start` the original stream never delivered.
        if self.section != Some(ev.section) {
            self.emit(&[TAG_SECTION_SET, section_code(ev.section)]);
            self.section = Some(ev.section);
        }

        let mut tag = kind_code(ev.class);
        debug_assert!(
            ev.branch.is_some() == ev.class.is_branch(),
            "TraceEvent branch payload must match its class"
        );
        if let Some(branch) = &ev.branch {
            if branch.outcome.is_taken() {
                tag |= EVT_TAKEN;
            }
            if branch.target.is_some() {
                tag |= EVT_HAS_TARGET;
            }
        }
        let pc = ev.pc.as_u64();
        let sequential = pc == self.expected_pc;
        if sequential {
            tag |= EVT_SEQUENTIAL;
        }

        let mut buf = [0u8; 32];
        buf[0] = tag;
        buf[1] = ev.len;
        let mut n = 2;
        let mut scratch = [0u8; 10];
        if !sequential {
            let delta = pc.wrapping_sub(self.expected_pc) as i64;
            let len = push_varint(&mut scratch, zigzag(delta));
            buf[n..n + len].copy_from_slice(&scratch[..len]);
            n += len;
        }
        if let Some(target) = ev.branch.as_ref().and_then(|b| b.target) {
            let delta = target.as_u64().wrapping_sub(pc) as i64;
            let len = push_varint(&mut scratch, zigzag(delta));
            buf[n..n + len].copy_from_slice(&scratch[..len]);
            n += len;
        }
        self.emit(&buf[..n]);

        self.expected_pc = pc.wrapping_add(u64::from(ev.len));
        self.summary.instructions += 1;
        *self.sections.get_mut(ev.section) += 1;
        if let Some(branch) = &ev.branch {
            self.summary.branches += 1;
            if branch.outcome.is_taken() {
                self.summary.taken_branches += 1;
            }
        }
    }

    fn on_section_start(&mut self, section: Section) {
        self.emit(&[TAG_SECTION_START, section_code(section)]);
        self.section = Some(section);
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        for piece in batch.pieces() {
            match piece {
                Piece::Start(section) => self.on_section_start(section),
                Piece::Branch(ev) => self.on_inst(ev),
                Piece::Run(run) => self.run(&run),
            }
        }
    }
}

/// A resumable position in a snapshot's record stream: the offset of
/// the next record, the decoder state the delta encoding needs there,
/// and how many events precede it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Cursor {
    /// Byte offset of the next record within the record region.
    offset: usize,
    /// Fall-through address of the previous event.
    expected_pc: u64,
    /// Section the next event belongs to unless a marker changes it.
    section: Section,
    /// Events decoded before this position.
    events: u64,
}

impl Cursor {
    /// The start of the record stream.
    const START: Cursor = Cursor {
        offset: 0,
        expected_pc: 0,
        section: Section::Serial,
        events: 0,
    };

    /// Events decoded before this position.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }
}

/// Cursors recorded during one full decode, one every `every` events:
/// entry `i` resumes the stream right after event `i × every` (entry 0
/// is the stream start). The table is tied to the snapshot it indexes
/// by that snapshot's checksum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CursorTable {
    checksum: u64,
    every: u64,
    cursors: Vec<Cursor>,
}

impl CursorTable {
    /// Checksum of the snapshot the table indexes.
    pub(crate) fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The cursor right after the first `events` events, or `None` when
    /// `events` is not a recorded boundary.
    pub(crate) fn at(&self, events: u64) -> Option<Cursor> {
        if !events.is_multiple_of(self.every) {
            return None;
        }
        usize::try_from(events / self.every)
            .ok()
            .and_then(|i| self.cursors.get(i))
            .copied()
    }

    /// Event count at which the next cursor is due.
    fn next_mark(&self) -> u64 {
        (self.cursors.len() as u64).saturating_mul(self.every)
    }
}

/// Where one decode call stopped, and what it counted on the way.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Decoded {
    /// The position right after the last decoded record.
    pub end: Cursor,
    /// Counters of the decoded events.
    pub summary: RunSummary,
    /// Decoded events per section.
    pub sections: BySection<u64>,
}

/// A parsed snapshot borrowing its underlying bytes — decode streams
/// events straight off the buffer without materializing them.
///
/// [`Snapshot::parse`] validates the header **and the checksum up
/// front**, so a tool replayed from a parsed snapshot never observes
/// corrupt events.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    records: &'a [u8],
    /// Offset of `records` within the original buffer (for error
    /// positions).
    base: usize,
    info: SnapshotInfo,
    checksum: u64,
}

impl<'a> Snapshot<'a> {
    /// Validates framing, version, footer, and checksum.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except [`SnapshotError::Io`],
    /// [`SnapshotError::CountMismatch`] (a decode-time check) and
    /// [`SnapshotError::PlanMismatch`] (a sampled-replay check).
    pub fn parse(data: &'a [u8]) -> Result<Snapshot<'a>, SnapshotError> {
        if data.len() < MIN_BYTES {
            return Err(SnapshotError::Truncated { at: data.len() });
        }
        let magic: [u8; 4] = data[0..4].try_into().expect("sliced to length");
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("sliced to length"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let stored =
            u64::from_le_bytes(data[data.len() - 8..].try_into().expect("sliced to length"));
        let computed = checksum(&data[..data.len() - 8]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let end_tag_at = data.len() - FOOTER_BYTES - 1;
        if data[end_tag_at] != TAG_END {
            return Err(SnapshotError::Malformed {
                at: end_tag_at,
                what: "missing end-of-records tag",
            });
        }
        let footer = &data[end_tag_at + 1..data.len() - 8];
        let counter = |i: usize| {
            u64::from_le_bytes(
                footer[i * 8..i * 8 + 8]
                    .try_into()
                    .expect("sliced to length"),
            )
        };
        let info = SnapshotInfo {
            version,
            seed: u64::from_le_bytes(data[8..16].try_into().expect("sliced to length")),
            fingerprint: u64::from_le_bytes(data[16..24].try_into().expect("sliced to length")),
            summary: RunSummary {
                instructions: counter(0),
                branches: counter(1),
                taken_branches: counter(2),
            },
            sections: BySection::new(counter(3), counter(4)),
            static_bytes: counter(5),
            total_bytes: data.len() as u64,
        };
        Ok(Snapshot::framed(data, info, stored))
    }

    /// A view of bytes whose frame [`Snapshot::parse`] already
    /// validated into `info` and `checksum`.
    fn framed(data: &'a [u8], info: SnapshotInfo, checksum: u64) -> Snapshot<'a> {
        Snapshot {
            records: &data[HEADER_BYTES..data.len() - FOOTER_BYTES - 1],
            base: HEADER_BYTES,
            info,
            checksum,
        }
    }

    /// Header/footer metadata (no record decoding needed).
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// The [`checksum`] stored in the footer: the identity of these
    /// exact bytes.
    pub(crate) fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Streams the recorded events into `tool`, exactly as the original
    /// replay delivered them — decoded **block-at-a-time**: varint
    /// deltas are expanded directly into a reusable [`EventBatch`] (no
    /// per-event closure or virtual call), and the tool receives whole
    /// blocks via [`Pintool::on_batch`] at
    /// [`DEFAULT_BATCH_CAPACITY`]. Byte-level validation
    /// happened once in [`Snapshot::parse`]; the decode loop performs
    /// only structural checks.
    ///
    /// The batches take the shape `tool` [`Pintool::need`]s. Branch
    /// records are decoded straight into the dense branch slice and runs
    /// of sequential plain records are read up to four to a word: a run
    /// batch ([`Need::Events`]) keeps each run's start, size, section and
    /// instruction lengths, a branch-only batch ([`Need::Branches`]) only
    /// counts them. The batches end at the same events, and the same
    /// checks run, whatever the shape.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`]/[`SnapshotError::Truncated`] on a
    /// structurally invalid record stream, or
    /// [`SnapshotError::CountMismatch`] if the decoded stream disagrees
    /// with the footer counters (both indicate a writer bug — byte
    /// corruption is already excluded by [`Snapshot::parse`]).
    pub fn replay<T: Pintool + ?Sized>(&self, tool: &mut T) -> Result<RunSummary, SnapshotError> {
        self.replay_batched(tool, DEFAULT_BATCH_CAPACITY)
    }

    /// [`Snapshot::replay`] with an explicit batch capacity (exercised
    /// down to capacity 1 by the equivalence tests).
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::replay`].
    pub fn replay_batched<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        capacity: usize,
    ) -> Result<RunSummary, SnapshotError> {
        self.replay_recording(tool, capacity, None)
    }

    /// [`Snapshot::replay`] that also records a cursor every `every`
    /// events (the sampling plan pass's cursor table).
    pub(crate) fn replay_indexed<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        every: u64,
    ) -> Result<(RunSummary, CursorTable), SnapshotError> {
        let mut table = CursorTable {
            checksum: self.checksum,
            every: every.max(1),
            cursors: vec![Cursor::START],
        };
        let summary = self.replay_recording(tool, DEFAULT_BATCH_CAPACITY, Some(&mut table))?;
        Ok((summary, table))
    }

    fn replay_recording<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        capacity: usize,
        table: Option<&mut CursorTable>,
    ) -> Result<RunSummary, SnapshotError> {
        // Batch spans nest under this one, so decode self-time is the
        // tree's record-walk remainder.
        let _decode_span = rebalance_telemetry::span("decode");
        let mut batch = EventBatch::for_tool(capacity, tool);
        let decoded = self.decode_batched(&mut batch, tool, Cursor::START, None, table);
        // Deliver the buffered tail (also on error, so the tool observes
        // the same prefix a per-event decode would have delivered).
        batch.flush_into(tool);
        self.check_footer(decoded?)
    }

    /// [`Snapshot::decode_into`] through the sink `batch` calls for: a
    /// run batch ([`EventBatch::for_tool`]) takes branch events and runs
    /// of plain records, and a branch-only one counts plain records, so
    /// the decoder skips runs of them.
    pub(crate) fn decode_batched<T: Pintool + ?Sized>(
        &self,
        batch: &mut EventBatch,
        tool: &mut T,
        from: Cursor,
        until: Option<u64>,
        table: Option<&mut CursorTable>,
    ) -> Result<Decoded, SnapshotError> {
        match batch.holds() {
            Need::Events => self.decode_into(&mut RunSink { batch, tool }, from, until, table),
            Need::Branches => self.decode_into(&mut BranchSink { batch, tool }, from, until, table),
        }
    }

    /// [`Snapshot::replay`] with strict per-event delivery — the
    /// pre-batching decode path, kept as the baseline batched decode is
    /// verified bit-identical against (and benchmarked against).
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::replay`].
    pub fn replay_per_event<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
    ) -> Result<RunSummary, SnapshotError> {
        let decoded = self.decode_into(&mut DirectSink(tool), Cursor::START, None, None)?;
        self.check_footer(decoded)
    }

    /// Checks the footer counters against a decode of the whole record
    /// stream.
    fn check_footer(&self, decoded: Decoded) -> Result<RunSummary, SnapshotError> {
        for (field, stored, decoded) in [
            (
                "instruction",
                self.info.summary.instructions,
                decoded.summary.instructions,
            ),
            (
                "branch",
                self.info.summary.branches,
                decoded.summary.branches,
            ),
            (
                "taken-branch",
                self.info.summary.taken_branches,
                decoded.summary.taken_branches,
            ),
            (
                "serial-instruction",
                self.info.sections.serial,
                decoded.sections.serial,
            ),
            (
                "parallel-instruction",
                self.info.sections.parallel,
                decoded.sections.parallel,
            ),
        ] {
            if stored != decoded {
                return Err(SnapshotError::CountMismatch {
                    field,
                    stored,
                    decoded,
                });
            }
        }
        Ok(decoded.summary)
    }

    /// The record decode every reader shares. Starts at `from`, stops
    /// right after the event that brings the count to `until` (which
    /// must lie past `from`; `None` runs to the end record), and pushes
    /// a cursor onto `table` each time the count reaches its next
    /// multiple of the table's spacing.
    ///
    /// The sequential non-branch record (tag `0x20`, about four records
    /// in five) takes a fast path at the top of the loop. No event is
    /// counted into a section one at a time: each run of events is
    /// credited to its section at the marker that ends it and at exit.
    ///
    /// A sink that takes runs ([`EventSink::TAKES_RUNS`]) gets runs of
    /// sequential records a `u64` word, up to four 2-byte records, at a
    /// time: the records leading a word up to its first other tag (all
    /// four when every tag is `0x20`) are taken at once, their lengths
    /// summed with one multiply, and the run stops short of the stream
    /// end (a word must fit), the sink's next flush and `check_at`. The
    /// sink gets the run's records as one slice. So every other record,
    /// every truncation, flush, mark and stop is met one record at a
    /// time, exactly where the per-event sink meets it.
    pub(crate) fn decode_into<S: EventSink>(
        &self,
        sink: &mut S,
        from: Cursor,
        until: Option<u64>,
        mut table: Option<&mut CursorTable>,
    ) -> Result<Decoded, SnapshotError> {
        let data = self.records;
        let mut pos = from.offset;
        let mut expected_pc = from.expected_pc;
        let mut section = from.section;
        let mut events = from.events;
        // Events before `run_start` are already credited to `sections`.
        let mut run_start = events;
        let mut sections: BySection<u64> = BySection::default();
        let mut summary = RunSummary::default();

        let stop = until.unwrap_or(u64::MAX);
        let mut next_mark = table.as_deref().map_or(u64::MAX, CursorTable::next_mark);
        // One comparison per event covers both the stop and the mark.
        let mut check_at = stop.min(next_mark);
        // Credits the open run and reports where the decode stopped.
        let done = |end: Cursor, run_start: u64, summary, mut sections: BySection<u64>| {
            *sections.get_mut(end.section) += end.events - run_start;
            Decoded {
                end,
                summary: RunSummary {
                    instructions: end.events - from.events,
                    ..summary
                },
                sections,
            }
        };
        debug_assert!(stop > events, "a decode must reach past its start");

        while pos < data.len() {
            if S::TAKES_RUNS && data[pos] == EVT_SEQUENTIAL {
                // The run leaves room for one more event before the
                // sink's flush and before `check_at`.
                let mut budget = (sink.plain_room() as u64).min(check_at - events) - 1;
                let (start, start_pos, start_pc) = (events, pos, expected_pc);
                while budget > 0 && data.len() - pos >= 8 {
                    let word = u64::from_le_bytes(
                        data[pos..pos + 8].try_into().expect("sliced to length"),
                    );
                    // Sequential records leading the word, within budget.
                    let lead = ((word & RUN_TAG_MASK) ^ RUN_TAGS).trailing_zeros() / 16;
                    let n = u64::from(lead).min(budget);
                    if n == 0 {
                        break;
                    }
                    let lens = (word >> 8) & RUN_TAG_MASK & (u64::MAX >> (64 - 16 * n));
                    expected_pc = expected_pc.wrapping_add(lens.wrapping_mul(RUN_LANE_SUM) >> 48);
                    pos += 2 * n as usize;
                    events += n;
                    budget -= n;
                    if n < 4 {
                        break;
                    }
                }
                if events != start {
                    let bytes = expected_pc.wrapping_sub(start_pc);
                    sink.plain_run(start_pc, &data[start_pos..pos], bytes, section);
                    if pos == data.len() {
                        break;
                    }
                }
            }
            let at = self.base + pos;
            let tag = data[pos];
            // Every record is at least a tag and one more byte: the
            // event length or the section code.
            let Some(&byte) = data.get(pos + 1) else {
                return Err(SnapshotError::Truncated { at: at + 1 });
            };
            pos += 2;
            if tag == EVT_SEQUENTIAL {
                sink.event(TraceEvent {
                    pc: Addr::new(expected_pc),
                    len: byte,
                    class: InstClass::Other,
                    branch: None,
                    section,
                });
                expected_pc = expected_pc.wrapping_add(u64::from(byte));
            } else {
                match tag {
                    TAG_SECTION_START | TAG_SECTION_SET => {
                        *sections.get_mut(section) += events - run_start;
                        run_start = events;
                        section = section_from_code(byte, at)?;
                        if tag == TAG_SECTION_START {
                            sink.section_start(section);
                        }
                        continue;
                    }
                    0x00..=0x3F => {
                        let class_code = tag & 0x07;
                        let len = byte;
                        let pc = if tag & EVT_SEQUENTIAL != 0 {
                            expected_pc
                        } else {
                            let delta = unzigzag(read_varint(data, &mut pos)?);
                            expected_pc.wrapping_add(delta as u64)
                        };
                        let (class, branch) = if class_code == 0 {
                            if tag & (EVT_TAKEN | EVT_HAS_TARGET) != 0 {
                                return Err(SnapshotError::Malformed {
                                    at,
                                    what: "branch flags on a non-branch event",
                                });
                            }
                            (InstClass::Other, None)
                        } else {
                            let kind = KIND_TABLE[usize::from(class_code) - 1];
                            let target = if tag & EVT_HAS_TARGET != 0 {
                                let delta = unzigzag(read_varint(data, &mut pos)?);
                                Some(Addr::new(pc.wrapping_add(delta as u64)))
                            } else {
                                None
                            };
                            let taken = tag & EVT_TAKEN != 0;
                            summary.branches += 1;
                            summary.taken_branches += u64::from(taken);
                            (
                                InstClass::Branch(kind),
                                Some(BranchEvent {
                                    kind,
                                    outcome: Outcome::from_taken(taken),
                                    target,
                                }),
                            )
                        };
                        sink.event(TraceEvent {
                            pc: Addr::new(pc),
                            len,
                            class,
                            branch,
                            section,
                        });
                        expected_pc = pc.wrapping_add(u64::from(len));
                    }
                    _ => {
                        return Err(SnapshotError::Malformed {
                            at,
                            what: "unknown record tag",
                        });
                    }
                }
            }
            events += 1;
            if events == check_at {
                let here = Cursor {
                    offset: pos,
                    expected_pc,
                    section,
                    events,
                };
                if let Some(table) = table.as_deref_mut().filter(|_| events == next_mark) {
                    table.cursors.push(here);
                    next_mark = table.next_mark();
                }
                if events == stop {
                    return Ok(done(here, run_start, summary, sections));
                }
                check_at = stop.min(next_mark);
            }
        }
        let end = Cursor {
            offset: pos,
            expected_pc,
            section,
            events,
        };
        Ok(done(end, run_start, summary, sections))
    }
}

/// A snapshot that owns its bytes and was validated once: framing,
/// version and checksum were checked when it was built, and every
/// [`OwnedSnapshot::snapshot`] view reuses that parse instead of
/// hashing the bytes again.
#[derive(Debug, Clone)]
pub struct OwnedSnapshot {
    bytes: Vec<u8>,
    info: SnapshotInfo,
    checksum: u64,
}

impl OwnedSnapshot {
    /// Validates `bytes` as [`Snapshot::parse`] does and keeps them.
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::parse`].
    pub fn parse(bytes: Vec<u8>) -> Result<OwnedSnapshot, SnapshotError> {
        let Snapshot { info, checksum, .. } = Snapshot::parse(&bytes)?;
        Ok(OwnedSnapshot {
            bytes,
            info,
            checksum,
        })
    }

    /// A borrowed view for decoding, without re-validating.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot::framed(&self.bytes, self.info, self.checksum)
    }

    /// Header/footer metadata.
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// The raw snapshot bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Encodes one full replay of `trace` into an in-memory snapshot, with
/// its program's static code size in the footer.
///
/// # Errors
///
/// Propagates writer errors (impossible for the `Vec` sink in
/// practice).
pub fn snapshot_bytes(
    trace: &crate::SyntheticTrace,
    fingerprint: u64,
) -> Result<(Vec<u8>, SnapshotInfo), SnapshotError> {
    let mut writer = SnapshotWriter::new(Vec::new(), trace.seed(), fingerprint)
        .with_static_bytes(trace.program().static_bytes());
    trace.replay(&mut writer);
    writer.finish()
}

/// Reads a snapshot file's metadata (header + footer) after validating
/// framing and checksum.
///
/// # Errors
///
/// I/O errors, or any parse-level [`SnapshotError`].
pub fn read_info(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let bytes = std::fs::read(path)?;
    Ok(*Snapshot::parse(&bytes)?.info())
}

/// Fully validates a snapshot file: framing, checksum, record
/// structure, and footer counters.
///
/// # Errors
///
/// The first [`SnapshotError`] encountered at any validation layer.
pub fn verify_file(path: &Path) -> Result<SnapshotInfo, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let snapshot = Snapshot::parse(&bytes)?;
    snapshot.replay(&mut crate::NullTool)?;
    Ok(*snapshot.info())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::observer::FnTool;
    use crate::program::{CondBehavior, IterCount, Terminator};
    use crate::schedule::{Phase, Schedule, SyntheticTrace};

    fn sample_trace() -> SyntheticTrace {
        let mut b = ProgramBuilder::new();
        let r = b.region("main");
        let lib = b.region("lib");
        let head = b.reserve_block();
        let call = b.reserve_block();
        let cont = b.reserve_block();
        let callee = b.reserve_block();
        let exit = b.reserve_block();
        b.define_block(
            head,
            r,
            4,
            Terminator::Cond {
                taken: head,
                fall: call,
                behavior: CondBehavior::Loop {
                    count: IterCount::Uniform { lo: 2, hi: 6 },
                },
            },
        );
        b.define_block(
            call,
            r,
            2,
            Terminator::Call {
                callee,
                ret_to: cont,
            },
        );
        b.define_block(callee, lib, 5, Terminator::Return);
        b.define_block(cont, r, 2, Terminator::Jump { target: exit });
        b.define_block(exit, r, 1, Terminator::Exit);
        let schedule = Schedule::with_repeat(
            vec![
                Phase::new(Section::Serial, head, 700),
                Phase::new(Section::Parallel, head, 2_300),
            ],
            2,
        );
        SyntheticTrace::new(b.build().unwrap(), schedule, 11)
    }

    fn collect_events(trace: &SyntheticTrace) -> (Vec<TraceEvent>, Vec<Section>) {
        let mut events = Vec::new();
        let mut starts = Vec::new();
        struct Rec<'a>(&'a mut Vec<TraceEvent>, &'a mut Vec<Section>);
        impl Pintool for Rec<'_> {
            fn on_inst(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
            fn on_section_start(&mut self, section: Section) {
                self.1.push(section);
            }
        }
        trace.replay(&mut Rec(&mut events, &mut starts));
        (events, starts)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let trace = sample_trace();
        let (bytes, info) = snapshot_bytes(&trace, 0xABCD).unwrap();
        assert_eq!(info.fingerprint, 0xABCD);
        assert_eq!(info.seed, 11);
        assert_eq!(info.total_bytes, bytes.len() as u64);
        assert_eq!(info.summary.instructions, 6_000);

        let (live_events, live_starts) = collect_events(&trace);
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let mut events = Vec::new();
        let mut starts = Vec::new();
        struct Rec<'a>(&'a mut Vec<TraceEvent>, &'a mut Vec<Section>);
        impl Pintool for Rec<'_> {
            fn on_inst(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
            fn on_section_start(&mut self, section: Section) {
                self.1.push(section);
            }
        }
        let summary = snapshot.replay(&mut Rec(&mut events, &mut starts)).unwrap();
        assert_eq!(events, live_events, "event streams identical");
        assert_eq!(starts, live_starts, "section notifications identical");
        assert_eq!(summary, info.summary);
        assert_eq!(
            snapshot.info().sections.serial + snapshot.info().sections.parallel,
            summary.instructions
        );
    }

    #[test]
    fn encoding_is_compact() {
        let trace = sample_trace();
        let (bytes, info) = snapshot_bytes(&trace, 0).unwrap();
        let per_event = bytes.len() as f64 / info.summary.instructions as f64;
        assert!(
            per_event < 3.0,
            "expected < 3 bytes/event, got {per_event:.2}"
        );
        assert!((info.bytes_per_event() - per_event).abs() < 1e-12);
    }

    #[test]
    fn flipped_byte_is_rejected() {
        let trace = sample_trace();
        let (bytes, _) = snapshot_bytes(&trace, 0).unwrap();
        // Flip one byte in the record region and one in the checksum.
        for &at in &[HEADER_BYTES + 7, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = Snapshot::parse(&bad).expect_err("corruption must be caught");
            assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. }),
                "at {at}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let trace = sample_trace();
        let (bytes, _) = snapshot_bytes(&trace, 0).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::parse(&bad),
            Err(SnapshotError::BadMagic(_))
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        // Version is checked before the checksum.
        assert!(matches!(
            Snapshot::parse(&bad),
            Err(SnapshotError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            Snapshot::parse(&bytes[..40]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn section_markers_only_fire_for_real_starts() {
        // Feed the writer by hand without section markers: decode must
        // not invent on_section_start calls.
        let ev = |pc: u64, section: Section| TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section,
        };
        let mut writer = SnapshotWriter::new(Vec::new(), 0, 0);
        writer.on_inst(&ev(0x100, Section::Serial));
        writer.on_inst(&ev(0x104, Section::Parallel));
        writer.on_inst(&ev(0x108, Section::Serial));
        let (bytes, info) = writer.finish().unwrap();
        assert_eq!(info.sections, BySection::new(2, 1));

        let snapshot = Snapshot::parse(&bytes).unwrap();
        let mut starts = 0u32;
        let mut seen = Vec::new();
        struct Rec<'a>(&'a mut u32, &'a mut Vec<Section>);
        impl Pintool for Rec<'_> {
            fn on_inst(&mut self, ev: &TraceEvent) {
                self.1.push(ev.section);
            }
            fn on_section_start(&mut self, _s: Section) {
                *self.0 += 1;
            }
        }
        snapshot.replay(&mut Rec(&mut starts, &mut seen)).unwrap();
        assert_eq!(starts, 0, "no synthetic section starts");
        assert_eq!(
            seen,
            vec![Section::Serial, Section::Parallel, Section::Serial]
        );
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 20,
            -(1 << 20),
            i64::MAX,
            i64::MIN,
        ] {
            let mut buf = [0u8; 10];
            let n = push_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            let back = unzigzag(read_varint(&buf[..n], &mut pos).unwrap());
            assert_eq!(back, v);
            assert_eq!(pos, n);
        }
        // Overlong varint rejected.
        let mut pos = 0;
        assert!(matches!(
            read_varint(&[0x80u8; 11], &mut pos),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn file_helpers_round_trip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!(
            "rebalance-snap-test-{}-{:p}",
            std::process::id(),
            &trace
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.rbts");
        let (bytes, info) = snapshot_bytes(&trace, 7).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_info(&path).unwrap(), info);
        assert_eq!(verify_file(&path).unwrap(), info);
        // Truncate: must fail.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(verify_file(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-seals `bytes` with the last record byte cut off: the
    /// checksum is valid, the record stream is not.
    fn cut_last_record_byte(bytes: &[u8]) -> Vec<u8> {
        let end_tag_at = bytes.len() - FOOTER_BYTES - 1;
        let mut cut = bytes[..end_tag_at - 1].to_vec();
        cut.extend_from_slice(&bytes[end_tag_at..bytes.len() - 8]);
        let sealed = checksum(&cut);
        cut.extend_from_slice(&sealed.to_le_bytes());
        cut
    }

    #[test]
    fn every_recorded_cursor_resumes_the_stream_exactly() {
        let trace = sample_trace();
        let (live, _) = collect_events(&trace);
        let (bytes, _) = snapshot_bytes(&trace, 0).unwrap();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let total = live.len() as u64;
        let every = 97;
        let (summary, table) = snapshot
            .replay_indexed(&mut crate::NullTool, every)
            .unwrap();
        let (_, full_table) = snapshot
            .replay_indexed(&mut FnTool::new(|_: &TraceEvent| {}), every)
            .unwrap();
        assert_eq!(
            table, full_table,
            "branch-only and full sinks record one table"
        );
        assert_eq!(summary.instructions, total);
        assert_eq!(table.checksum(), snapshot.checksum());
        assert_eq!(table.cursors.len() as u64, total / every + 1);
        for (i, cursor) in table.cursors.iter().enumerate() {
            let from = i as u64 * every;
            assert_eq!(table.at(from), Some(*cursor));
            assert_eq!(cursor.events(), from);
            let until = (from + 50).min(total);
            let mut events = Vec::new();
            let decoded = snapshot
                .decode_into(
                    &mut DirectSink(&mut FnTool::new(|ev: &TraceEvent| events.push(*ev))),
                    *cursor,
                    Some(until),
                    None,
                )
                .unwrap();
            assert_eq!(
                events,
                live[from as usize..until as usize],
                "window at {from}"
            );
            assert_eq!(decoded.end.events(), until);
        }
        assert_eq!(table.at(every + 1), None, "only boundaries are recorded");
    }

    #[test]
    fn a_window_over_truncated_records_is_a_typed_error() {
        let trace = sample_trace();
        let (bytes, info) = snapshot_bytes(&trace, 0).unwrap();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let (_, table) = snapshot.replay_indexed(&mut crate::NullTool, 251).unwrap();
        let bad = cut_last_record_byte(&bytes);
        let cut = Snapshot::parse(&bad).expect("re-sealed checksum");
        let last = *table.cursors.last().unwrap();
        assert!(last.events() < info.summary.instructions);
        let err = cut
            .decode_into(
                &mut DirectSink(&mut crate::NullTool),
                last,
                Some(info.summary.instructions),
                None,
            )
            .expect_err("the window runs into the cut record");
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err}");
        for capacity in [1, 3, DEFAULT_BATCH_CAPACITY] {
            let mut batch = EventBatch::for_tool(capacity, &crate::NullTool);
            let branch_only = cut
                .decode_batched(
                    &mut batch,
                    &mut crate::NullTool,
                    last,
                    Some(info.summary.instructions),
                    None,
                )
                .expect_err("the branch-only window runs into it too");
            assert_eq!(format!("{branch_only:?}"), format!("{err:?}"));
        }
    }

    /// Decodes `from..until` through a branch-only batch of `capacity`
    /// into a tool that reads only branches.
    fn decode_branch_only(
        snapshot: &Snapshot<'_>,
        capacity: usize,
        from: Cursor,
        until: Option<u64>,
    ) -> Result<Decoded, SnapshotError> {
        let mut batch = EventBatch::for_tool(capacity, &crate::NullTool);
        assert_eq!(batch.holds(), Need::Branches);
        snapshot.decode_batched(&mut batch, &mut crate::NullTool, from, until, None)
    }

    #[test]
    fn unsupported_version_names_both_versions_and_the_fix() {
        let msg = SnapshotError::UnsupportedVersion(1).to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(
            msg.contains(&format!("version {SNAPSHOT_VERSION}")),
            "{msg}"
        );
        assert!(msg.contains("rebalance trace record"), "{msg}");
        assert!(msg.contains("regenerate"), "{msg}");
    }

    #[test]
    fn checksum_is_pinned_and_word_wise() {
        assert_eq!(checksum(&[]), FNV_OFFSET, "no bytes, no steps");
        // Pinned: a change here is a format change and needs a version
        // bump.
        assert_eq!(
            checksum(b"RBTS format v2, word-wise"),
            0x2fba_975a_e30b_9cf8
        );
        // One step per whole word: a word folds like one 64-bit value.
        let word = 0x0123_4567_89ab_cdefu64;
        assert_eq!(
            checksum(&word.to_le_bytes()),
            (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME)
        );
    }

    /// Writes a stream of sequential records with section markers of
    /// both kinds and a branch every `branch_every` events, so the
    /// records form long sequential runs.
    fn runs_snapshot() -> Vec<u8> {
        let mut writer = SnapshotWriter::new(Vec::new(), 3, 0);
        let mut pc = 0x4000u64;
        for run in 0..12u64 {
            let section = Section::ALL[(run / 2 % 2) as usize];
            // Even runs open with a delivered marker (0xFE); odd runs
            // switch section silently (0xFC on the next event).
            if run % 2 == 0 {
                writer.on_section_start(section);
            }
            for i in 0..(40 + run * 17) {
                let branch = i % 29 == 28;
                let ev = TraceEvent {
                    pc: Addr::new(pc),
                    len: 1 + (i % 7) as u8,
                    class: if branch {
                        InstClass::Branch(BranchKind::CondDirect)
                    } else {
                        InstClass::Other
                    },
                    branch: branch.then_some(BranchEvent {
                        kind: BranchKind::CondDirect,
                        outcome: Outcome::from_taken(i % 2 == 0),
                        target: Some(Addr::new(pc + 64)),
                    }),
                    section,
                };
                writer.on_inst(&ev);
                pc = if branch && i % 2 == 0 {
                    pc + 64
                } else {
                    ev.next_pc().as_u64()
                };
            }
        }
        writer.finish().unwrap().0
    }

    #[test]
    fn windows_inside_sequential_runs_count_like_a_per_event_walk() {
        let bytes = runs_snapshot();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let mut live = Vec::new();
        snapshot
            .replay_per_event(&mut FnTool::new(|ev: &TraceEvent| live.push(*ev)))
            .unwrap();
        let total = live.len() as u64;
        // Count the records: sequential runs dominate, so most marks
        // land inside one.
        let sequential = live
            .windows(2)
            .filter(|w| w[1].branch.is_none() && w[1].pc == w[0].next_pc())
            .count();
        assert!(sequential * 5 > live.len() * 4, "{sequential} of {total}");

        let every = 13;
        let (_, table) = snapshot
            .replay_indexed(&mut crate::NullTool, every)
            .unwrap();
        let (_, full_table) = snapshot
            .replay_indexed(&mut FnTool::new(|_: &TraceEvent| {}), every)
            .unwrap();
        assert_eq!(
            table, full_table,
            "branch-only and full sinks record one table"
        );
        let per_event = |from: u64, until: u64| {
            let mut sections = BySection::<u64>::default();
            let mut summary = RunSummary::default();
            for ev in &live[from as usize..until as usize] {
                *sections.get_mut(ev.section) += 1;
                summary.instructions += 1;
                if let Some(b) = &ev.branch {
                    summary.branches += 1;
                    summary.taken_branches += u64::from(b.outcome.is_taken());
                }
            }
            (sections, summary)
        };
        for (i, cursor) in table.cursors.iter().enumerate() {
            // Windows to the next marks, to a point inside the run
            // after this mark, and to the end.
            for until in [
                (i as u64 + 1) * every,
                (i as u64 + 3) * every,
                i as u64 * every + 7,
                total,
            ] {
                if until <= cursor.events() || until > total {
                    continue;
                }
                let decoded = snapshot
                    .decode_into(
                        &mut DirectSink(&mut crate::NullTool),
                        *cursor,
                        Some(until),
                        None,
                    )
                    .unwrap();
                for capacity in [1, 3, 5, DEFAULT_BATCH_CAPACITY] {
                    let branch_only =
                        decode_branch_only(&snapshot, capacity, *cursor, Some(until)).unwrap();
                    assert_eq!(
                        branch_only,
                        decoded,
                        "branch-only window {}..{until} at capacity {capacity}",
                        cursor.events()
                    );
                }
                let (sections, summary) = per_event(cursor.events(), until);
                assert_eq!(
                    decoded.sections,
                    sections,
                    "window {}..{until}",
                    cursor.events()
                );
                assert_eq!(
                    decoded.summary,
                    summary,
                    "window {}..{until}",
                    cursor.events()
                );
                assert_eq!(decoded.end.events(), until);
                if let Some(mark) = table.at(until) {
                    assert_eq!(decoded.end, mark, "end cursor at mark {until}");
                }
                // The end cursor resumes the stream exactly.
                if until < total {
                    let mut rest = Vec::new();
                    snapshot
                        .decode_into(
                            &mut DirectSink(&mut FnTool::new(|ev: &TraceEvent| rest.push(*ev))),
                            decoded.end,
                            None,
                            None,
                        )
                        .unwrap();
                    assert_eq!(rest, live[until as usize..], "resume at {until}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn streamed_checksum_matches_for_any_emit_chunking(
            chunks in proptest::collection::vec((0usize..4, 0usize..(STAGE_BYTES + 9)), 0..10),
            salt in 0u8..255,
        ) {
            let mut writer = SnapshotWriter::new(Vec::new(), 0, 0);
            let mut n = 0usize;
            for (pick, len) in chunks {
                // Mostly short emits, now and then one past the stage.
                let len = if pick == 0 { len } else { len % 17 };
                let chunk: Vec<u8> = (n..n + len).map(|i| (i as u8) ^ salt).collect();
                writer.emit(&chunk);
                n += len;
            }
            let (bytes, info) = writer.finish().unwrap();
            proptest::prop_assert_eq!(info.total_bytes, bytes.len() as u64);
            proptest::prop_assert_eq!(bytes.len(), MIN_BYTES + n);
            let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            proptest::prop_assert_eq!(stored, checksum(&bytes[..bytes.len() - 8]));
        }
    }

    #[test]
    fn decode_summary_matches_live_replay() {
        let trace = sample_trace();
        let mut live_sum = RunSummary::default();
        let mut tool = FnTool::new(|_: &TraceEvent| {});
        live_sum.merge(trace.replay(&mut tool));
        let (bytes, _) = snapshot_bytes(&trace, 0).unwrap();
        let decoded = Snapshot::parse(&bytes)
            .unwrap()
            .replay(&mut crate::NullTool)
            .unwrap();
        assert_eq!(decoded, live_sum);
    }
}
