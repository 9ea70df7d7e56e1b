//! [`EventBatch`]: block-at-a-time event delivery.
//!
//! PR 1 made a sweep cost one replay per `(workload, scale)` and PR 2
//! made that replay come from a cached snapshot. What remains on the
//! hot path is the per-event plumbing itself: every instruction used to
//! cross `Interpreter::run` → `Pintool::on_inst` → each tool as one
//! 40-byte struct, for billions of events per paper run. The
//! HPM-engineering literature is unambiguous that analysis pipelines at
//! this scale must be block-structured to amortize dispatch and stay in
//! cache; an `EventBatch` is that block.
//!
//! A batch is a fixed-capacity run of [`TraceEvent`]s plus everything a
//! tool needs to skip work it does not care about:
//!
//! * the **branch slice** ([`EventBatch::branch_events`]): most tools
//!   only touch events with `ev.branch.is_some()`, so they stream the
//!   (typically ~15%) branch subset as its own dense slice instead of
//!   filtering the full block;
//! * **per-section instruction counts** ([`EventBatch::sections`]): a
//!   tool that only needs its MPKI denominator adds two integers per
//!   batch instead of one per event;
//! * the interleaved **section-start notifications**
//!   ([`EventBatch::section_starts`]), so replaying a batch through
//!   [`EventBatch::replay_into`] reproduces the exact per-event call
//!   sequence — batched and per-event delivery are bit-identical by
//!   construction;
//! * the **pieces** ([`EventBatch::pieces`]): the stream in order as
//!   section starts, branches and sequential runs of plain
//!   instructions, for tools that read address ranges rather than
//!   instructions.
//!
//! Producers ([`Interpreter`](crate::Interpreter),
//! [`Snapshot`](crate::Snapshot) decode) fill a reusable batch and hand
//! it to [`Pintool::on_batch`](crate::Pintool::on_batch) whenever it
//! reaches capacity. The batch holds what the tool set
//! [`Pintool::need`](crate::Pintool::need)s: every event, the branches
//! and the plain runs between them, or the branches alone with the rest
//! counted. Combinators ([`ToolSet`](crate::ToolSet),
//! [`MultiTool`](crate::MultiTool), tuples) forward whole batches, so an
//! N-tool fan-out performs `N × (events / capacity)` virtual transitions
//! instead of `N × events`.

use rebalance_isa::Addr;
use rebalance_telemetry as telemetry;

use crate::by_section::BySection;
use crate::event::TraceEvent;
use crate::exec::RunSummary;
use crate::observer::{Need, Pintool};
use crate::section::Section;

/// Number of events per batch for every entry point that does not take
/// an explicit capacity.
///
/// A full batch of 4096 events × ~40 bytes stays comfortably inside L2
/// while amortizing per-batch bookkeeping to noise; a run batch stores
/// its ~10% of branch events, about as many runs and one length byte per
/// event, and a branch-only batch just the branches. Another size is
/// chosen only through the explicit-capacity entry points
/// ([`EventBatch::with_capacity`] and the `*_batched` replays).
pub const DEFAULT_BATCH_CAPACITY: usize = 4096;

/// Largest accepted batch capacity: batch positions are stored as
/// `u32`, so capacities must stay indexable by one.
pub const MAX_BATCH_CAPACITY: usize = u32::MAX as usize;

fn check_capacity(capacity: usize) {
    assert!(
        capacity > 0 && capacity <= MAX_BATCH_CAPACITY,
        "batch capacity must be in 1..={MAX_BATCH_CAPACITY}, got {capacity}"
    );
}

/// Where a producer's decode/interpret loop delivers events: directly
/// into a tool (the per-event baseline) or into an [`EventBatch`]
/// flushed block-at-a-time. Monomorphized, so neither path pays for the
/// other.
pub(crate) trait EventSink {
    /// `true` for a sink that stores no plain event: the decoder may
    /// then hand it whole runs of sequential plain records through
    /// [`EventSink::plain_run`].
    const TAKES_RUNS: bool = false;

    fn section_start(&mut self, section: Section);
    fn event(&mut self, ev: TraceEvent);

    /// Plain events the sink takes before its next flush (a
    /// [`EventSink::TAKES_RUNS`] sink only).
    fn plain_room(&self) -> usize {
        0
    }

    /// Takes the sequential plain records `records` of `section`, two
    /// bytes each (tag, then length), the first at `pc`, `bytes` long in
    /// all. They stay below [`EventSink::plain_room`], so no flush falls
    /// inside them.
    fn plain_run(&mut self, pc: u64, records: &[u8], bytes: u64, section: Section) {
        let _ = (pc, records, bytes, section);
        unreachable!("only a run-taking sink takes runs");
    }
}

/// Per-event delivery: one `on_inst` call per instruction — the
/// pre-batching behavior, kept as the equivalence/benchmark baseline.
pub(crate) struct DirectSink<'a, T: Pintool + ?Sized>(pub &'a mut T);

impl<T: Pintool + ?Sized> EventSink for DirectSink<'_, T> {
    #[inline]
    fn section_start(&mut self, section: Section) {
        self.0.on_section_start(section);
    }

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.0.on_inst(&ev);
    }
}

/// Block-at-a-time delivery: events accumulate in the batch, and every
/// time it reaches capacity the whole block goes to the tool's
/// [`Pintool::on_batch`] in one call. The tail stays buffered — the
/// producer owns the final [`EventBatch::flush_into`].
pub(crate) struct BatchSink<'a, 'b, T: Pintool + ?Sized> {
    pub batch: &'a mut EventBatch,
    pub tool: &'b mut T,
}

impl<T: Pintool + ?Sized> EventSink for BatchSink<'_, '_, T> {
    #[inline]
    fn section_start(&mut self, section: Section) {
        self.batch.push_section_start(section);
    }

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.batch.push(ev);
        if self.batch.is_full() {
            self.batch.flush_into(self.tool);
        }
    }
}

/// Block-at-a-time delivery into a run batch ([`EventBatch::for_tool`]
/// of a tool set that needs [`Need::Runs`]): branch events go straight
/// into the dense branch slice, and plain events extend the open run or
/// start one, so the batch fills, and flushes, at the same event
/// positions a full batch does.
pub(crate) struct RunSink<'a, 'b, T: Pintool + ?Sized> {
    pub batch: &'a mut EventBatch,
    pub tool: &'b mut T,
}

impl<T: Pintool + ?Sized> EventSink for RunSink<'_, '_, T> {
    const TAKES_RUNS: bool = true;

    #[inline]
    fn section_start(&mut self, section: Section) {
        self.batch.push_section_start(section);
    }

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        if ev.branch.is_some() {
            self.batch.push_branch(ev);
        } else {
            let (pc, len) = (ev.pc.as_u64(), u64::from(ev.len));
            self.batch
                .push_run(pc, std::iter::once(ev.len), len, ev.section);
        }
        if self.batch.is_full() {
            self.batch.flush_into(self.tool);
        }
    }

    #[inline]
    fn plain_room(&self) -> usize {
        self.batch.capacity - self.batch.len()
    }

    #[inline]
    fn plain_run(&mut self, pc: u64, records: &[u8], bytes: u64, section: Section) {
        let lens = records.chunks_exact(2).map(|record| record[1]);
        self.batch.push_run(pc, lens, bytes, section);
        debug_assert!(!self.batch.is_full(), "a run must not reach a flush");
    }
}

/// Block-at-a-time delivery into a branch-only batch
/// ([`EventBatch::for_tool`] of a tool set that needs only
/// [`Need::Branches`]): branch events go straight into the dense branch
/// slice and plain events are only counted, so the batch fills, and
/// flushes, at the same event positions a full batch does.
pub(crate) struct BranchSink<'a, 'b, T: Pintool + ?Sized> {
    pub batch: &'a mut EventBatch,
    pub tool: &'b mut T,
}

impl<T: Pintool + ?Sized> EventSink for BranchSink<'_, '_, T> {
    const TAKES_RUNS: bool = true;

    #[inline]
    fn section_start(&mut self, section: Section) {
        self.batch.push_section_start(section);
    }

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        if ev.branch.is_some() {
            self.batch.push_branch(ev);
        } else {
            self.batch.count_plain(1, ev.section);
        }
        if self.batch.is_full() {
            self.batch.flush_into(self.tool);
        }
    }

    #[inline]
    fn plain_room(&self) -> usize {
        self.batch.capacity - self.batch.len()
    }

    #[inline]
    fn plain_run(&mut self, _pc: u64, records: &[u8], _bytes: u64, section: Section) {
        self.batch.count_plain(records.len() / 2, section);
        debug_assert!(!self.batch.is_full(), "a run must not reach a flush");
    }
}

/// A run as a run batch stores it; [`PlainRun`] is its public view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    pc: u64,
    /// Batch position of its first instruction.
    at: u32,
    insts: u32,
    bytes: u64,
    section: Section,
}

/// Sequential plain (non-branch) instructions of one section: each
/// starts where the one before it ends. [`EventBatch::pieces`] yields
/// them.
///
/// A run batch keeps its runs as long as the stream allows (until a
/// branch, a section start, a section change, a non-sequential
/// instruction or the batch edge); a full batch yields each plain event
/// as a run of one. A tool that reads runs must report the same however
/// the stream is cut into them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainRun<'a> {
    /// Address of the first instruction.
    pub pc: Addr,
    /// Bytes of all its instructions together.
    pub bytes: u64,
    /// The section every instruction of the run executes in.
    pub section: Section,
    /// Each instruction's length in bytes, in order: as many entries as
    /// the run has instructions.
    pub lens: &'a [u8],
}

/// One step of a batch's stream, as [`EventBatch::pieces`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece<'a> {
    /// A section starts before the next piece (the batch's
    /// [`EventBatch::section_starts`], in place).
    Start(Section),
    /// One branch event, from [`EventBatch::branch_events`].
    Branch(&'a TraceEvent),
    /// Sequential plain instructions.
    Run(PlainRun<'a>),
}

impl<'a> Piece<'a> {
    /// `ev` as a piece: a branch, or a plain run of one instruction.
    #[inline]
    pub fn of(ev: &'a TraceEvent) -> Piece<'a> {
        if ev.branch.is_some() {
            Piece::Branch(ev)
        } else {
            Piece::Run(PlainRun {
                pc: ev.pc,
                bytes: u64::from(ev.len),
                section: ev.section,
                lens: std::slice::from_ref(&ev.len),
            })
        }
    }
}

/// The stream of a batch in order; see [`EventBatch::pieces`].
#[derive(Debug, Clone)]
pub struct Pieces<'a> {
    batch: &'a EventBatch,
    /// Position of the next event.
    pos: usize,
    /// Index of the next section start, run and branch.
    start: usize,
    run: usize,
    branch: usize,
}

impl<'a> Iterator for Pieces<'a> {
    type Item = Piece<'a>;

    #[inline]
    fn next(&mut self) -> Option<Piece<'a>> {
        let batch = self.batch;
        if let Some(&(at, section)) = batch.starts.get(self.start) {
            if at as usize <= self.pos {
                self.start += 1;
                return Some(Piece::Start(section));
            }
        }
        if self.pos == batch.len() {
            return None;
        }
        if batch.holds == Need::Events {
            self.pos += 1;
            return Some(Piece::of(&batch.events[self.pos - 1]));
        }
        match batch.runs.get(self.run) {
            Some(run) if run.at as usize == self.pos => {
                self.run += 1;
                self.pos += run.insts as usize;
                Some(Piece::Run(PlainRun {
                    pc: Addr::new(run.pc),
                    bytes: run.bytes,
                    section: run.section,
                    lens: &batch.lens[run.at as usize..self.pos],
                }))
            }
            _ => {
                let ev = &batch.branches[self.branch];
                self.branch += 1;
                self.pos += 1;
                Some(Piece::Branch(ev))
            }
        }
    }
}

/// A fixed-capacity block of trace events with a dense branch slice,
/// section counts, and interleaved section-start notifications. The
/// branch slice of a full batch is built right before delivery — inside
/// [`Pintool::on_batch`] it is always consistent with
/// [`EventBatch::events`], but between pushes it is empty.
///
/// A replay fills the batch its tool set [`Pintool::need`]s:
///
/// * a **full** batch ([`Need::Events`]) stores every event;
/// * a **run** batch ([`Need::Runs`]) stores the branch events straight
///   into the branch slice and, between them, the plain runs: start
///   address, instruction count, byte length and section, plus one
///   length byte per instruction. A snapshot decode builds no
///   [`TraceEvent`] for a plain instruction;
/// * a **branch-only** batch ([`Need::Branches`]) stores the branch
///   events and only counts the rest.
///
/// Every shape reads the same through [`EventBatch::len`],
/// [`EventBatch::sections`], [`EventBatch::section_starts`],
/// [`EventBatch::summary`] and [`EventBatch::branch_events`], and run
/// and full batches the same through [`EventBatch::pieces`]. Debug
/// builds panic when a batch is read beyond its shape:
/// [`EventBatch::events`] of a run or branch-only batch, or
/// [`EventBatch::pieces`] of a branch-only one.
///
/// # Examples
///
/// Fill a batch by hand and fan it out to a tool:
///
/// ```
/// use rebalance_isa::{Addr, InstClass};
/// use rebalance_trace::{EventBatch, Pintool, Section, TraceEvent};
///
/// #[derive(Default)]
/// struct Counter(u64);
/// impl Pintool for Counter {
///     fn on_inst(&mut self, _ev: &TraceEvent) {
///         self.0 += 1;
///     }
/// }
///
/// let mut batch = EventBatch::with_capacity(8);
/// batch.push_section_start(Section::Parallel);
/// batch.push(TraceEvent {
///     pc: Addr::new(0x100),
///     len: 4,
///     class: InstClass::Other,
///     branch: None,
///     section: Section::Parallel,
/// });
/// assert_eq!(batch.len(), 1);
/// assert_eq!(batch.sections().parallel, 1);
///
/// let mut tool = Counter::default();
/// batch.flush_into(&mut tool); // delivers via Pintool::on_batch
/// assert_eq!(tool.0, 1);
/// assert!(batch.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventBatch {
    events: Vec<TraceEvent>,
    /// The branch events again, densely packed — branch-only tools
    /// stream this contiguous ~15% instead of filtering `events` (one
    /// copy per block at flush time buys N tools a dense walk).
    branches: Vec<TraceEvent>,
    /// The plain runs of a run batch, in stream order.
    runs: Vec<Run>,
    /// One instruction length per position of a run batch.
    lens: Vec<u8>,
    /// `(position, section)` pairs: the notification fires before the
    /// event at `position` (== `events.len()` for a trailing start).
    starts: Vec<(u32, Section)>,
    sections: BySection<u64>,
    /// Branches buffered so far — maintained in `push` so
    /// [`EventBatch::summary`] is exact even before the branch slice
    /// exists.
    branch_count: u64,
    taken_branches: u64,
    /// Events counted without a slot in `events`: every event of a run
    /// or branch-only batch, none of a full one.
    counted: usize,
    /// What the batch stores: its shape.
    holds: Need,
    capacity: usize,
}

impl Default for EventBatch {
    /// An empty full batch at [`DEFAULT_BATCH_CAPACITY`]. Buffers
    /// are not pre-allocated; they grow on first use and are retained
    /// across [`EventBatch::clear`], so a reused batch allocates once.
    fn default() -> Self {
        EventBatch {
            events: Vec::new(),
            branches: Vec::new(),
            runs: Vec::new(),
            lens: Vec::new(),
            starts: Vec::new(),
            sections: BySection::default(),
            branch_count: 0,
            taken_branches: 0,
            counted: 0,
            holds: Need::Events,
            capacity: DEFAULT_BATCH_CAPACITY,
        }
    }
}

impl EventBatch {
    /// An empty full batch at [`DEFAULT_BATCH_CAPACITY`], buffers
    /// allocated lazily on first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty full batch holding at most `capacity` events, with the
    /// event buffer pre-allocated to that capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`MAX_BATCH_CAPACITY`]
    /// (positions are stored as `u32`).
    pub fn with_capacity(capacity: usize) -> Self {
        check_capacity(capacity);
        EventBatch {
            events: Vec::with_capacity(capacity),
            capacity,
            ..EventBatch::default()
        }
    }

    /// The batch a replay into `tool` fills: the shape its
    /// [`Pintool::need`] asks for, at `capacity`.
    ///
    /// # Panics
    ///
    /// As for [`EventBatch::with_capacity`].
    pub(crate) fn for_tool<T: Pintool + ?Sized>(capacity: usize, tool: &T) -> Self {
        match tool.need() {
            Need::Events => EventBatch::with_capacity(capacity),
            holds => {
                check_capacity(capacity);
                EventBatch {
                    holds,
                    capacity,
                    ..EventBatch::default()
                }
            }
        }
    }

    /// What the batch stores: [`Need::Events`] for a full batch,
    /// [`Need::Runs`] for a run batch, [`Need::Branches`] for a
    /// branch-only one.
    pub(crate) fn holds(&self) -> Need {
        self.holds
    }

    /// Maximum events the batch holds before it reports
    /// [`EventBatch::is_full`].
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered (for a run or branch-only batch:
    /// counted).
    pub fn len(&self) -> usize {
        self.events.len() + self.counted
    }

    /// `true` when the batch carries neither events nor pending
    /// section-start notifications.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.starts.is_empty()
    }

    /// `true` once the batch holds `capacity` events (time to flush).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// The buffered events, in delivery order.
    ///
    /// # Panics
    ///
    /// In debug builds, on a run or branch-only batch (one delivered to
    /// a tool set that does not need [`Need::Events`]): it stores no
    /// plain event, so a tool reading them would under-count.
    pub fn events(&self) -> &[TraceEvent] {
        debug_assert!(
            self.holds == Need::Events,
            "a run or branch-only batch stores no plain events: a tool that reads them must \
             leave Pintool::need at Need::Events"
        );
        &self.events
    }

    /// The branch-payload events, densely packed in delivery order —
    /// the precomputed slice branch-only tools stream instead of
    /// filtering the full block. A full batch builds it at flush time
    /// (populated inside [`Pintool::on_batch`], empty between pushes); a
    /// run or branch-only batch appends each branch as it arrives.
    pub fn branch_events(&self) -> &[TraceEvent] {
        &self.branches
    }

    /// The batch's stream in order: each section start where it fires,
    /// each branch event, and the plain instructions between them as
    /// [`PlainRun`]s. A run batch yields its runs; a full batch yields
    /// each plain event as a run of one.
    ///
    /// # Panics
    ///
    /// In debug builds, on a branch-only batch, which keeps no plain
    /// instruction: a tool that reads runs must need [`Need::Runs`].
    pub fn pieces(&self) -> Pieces<'_> {
        debug_assert!(
            self.holds != Need::Branches,
            "a branch-only batch keeps no runs: a tool that reads them must return Need::Runs \
             from Pintool::need"
        );
        Pieces {
            batch: self,
            pos: 0,
            start: 0,
            run: 0,
            branch: 0,
        }
    }

    /// Section-start notifications as `(position, section)`: the
    /// notification precedes the event at `position` (a position equal
    /// to [`EventBatch::len`] trails every event). Positions are
    /// non-decreasing.
    pub fn section_starts(&self) -> &[(u32, Section)] {
        &self.starts
    }

    /// Buffered instructions per section.
    pub fn sections(&self) -> BySection<u64> {
        self.sections
    }

    /// Aggregate counters over the buffered events.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            instructions: self.len() as u64,
            branches: self.branch_count,
            taken_branches: self.taken_branches,
        }
    }

    /// Appends an event to a full batch, maintaining the counters. The
    /// dense branch slice is **not** built here — it is gathered in one
    /// pass per block by [`EventBatch::flush_into`] right before
    /// delivery, which keeps this producer-side hot loop down to a
    /// single buffer append.
    ///
    /// Producers should check [`EventBatch::is_full`] (and flush) after
    /// each push; pushing past capacity only grows the block, it is not
    /// an error.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert!(
            self.holds == Need::Events,
            "push into a run or branch-only batch"
        );
        if let Some(branch) = &ev.branch {
            self.branch_count += 1;
            if branch.outcome.is_taken() {
                self.taken_branches += 1;
            }
        }
        *self.sections.get_mut(ev.section) += 1;
        self.events.push(ev);
    }

    /// Appends a branch event to a run or branch-only batch, straight
    /// into the dense branch slice.
    #[inline]
    fn push_branch(&mut self, ev: TraceEvent) {
        debug_assert!(self.holds != Need::Events && ev.branch.is_some());
        if self.holds == Need::Runs {
            self.lens.push(ev.len);
        }
        self.branch_count += 1;
        self.taken_branches += u64::from(ev.is_taken_branch());
        *self.sections.get_mut(ev.section) += 1;
        self.counted += 1;
        self.branches.push(ev);
    }

    /// Counts `n` plain events of `section` into a branch-only batch.
    #[inline]
    fn count_plain(&mut self, n: usize, section: Section) {
        debug_assert!(self.holds == Need::Branches);
        *self.sections.get_mut(section) += n as u64;
        self.counted += n;
    }

    /// Appends sequential plain instructions with lengths `lens`,
    /// `bytes` long in all, from `pc` in `section` to a run batch. They
    /// extend the last run when it ends at the current position and at
    /// `pc`, in `section`, with no section start in between; otherwise
    /// they open a run here.
    #[inline]
    fn push_run(
        &mut self,
        pc: u64,
        lens: impl ExactSizeIterator<Item = u8>,
        bytes: u64,
        section: Section,
    ) {
        debug_assert!(self.holds == Need::Runs);
        let at = self.len();
        let n = lens.len();
        let continues = self.runs.last().is_some_and(|run| {
            run.at as usize + run.insts as usize == at
                && run.section == section
                && run.pc.wrapping_add(run.bytes) == pc
        }) && self
            .starts
            .last()
            .is_none_or(|&(pos, _)| pos as usize != at);
        if !continues {
            self.runs.push(Run {
                pc,
                at: at as u32,
                insts: 0,
                bytes: 0,
                section,
            });
        }
        let run = self.runs.last_mut().expect("a run is open");
        run.insts += n as u32;
        run.bytes += bytes;
        self.lens.extend(lens);
        *self.sections.get_mut(section) += n as u64;
        self.counted += n;
        debug_assert_eq!(self.lens.len(), self.counted);
    }

    /// Gathers the dense branch slice from the buffered events in one
    /// pass. Runs once per delivered block from
    /// [`EventBatch::flush_into`]; gathering here instead of in
    /// [`EventBatch::push`] keeps the producer's append loop minimal
    /// and sweeps the block while it is cache-warm. Rebuilds from
    /// scratch, so it is idempotent.
    fn fill_branches(&mut self) {
        self.branches.clear();
        self.branches.reserve(self.branch_count as usize);
        self.branches
            .extend(self.events.iter().filter(|ev| ev.branch.is_some()));
    }

    /// Records an `on_section_start` notification at the current
    /// position.
    pub fn push_section_start(&mut self, section: Section) {
        self.starts.push((self.len() as u32, section));
    }

    /// Empties the batch, retaining buffer allocations for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.branches.clear();
        self.runs.clear();
        self.lens.clear();
        self.starts.clear();
        self.sections = BySection::default();
        self.branch_count = 0;
        self.taken_branches = 0;
        self.counted = 0;
    }

    /// Delivers the batch to `tool` via
    /// [`Pintool::on_batch`](crate::Pintool::on_batch) and clears it.
    /// A no-op on an empty batch. A full batch builds its branch slice
    /// first (the `fill` span), so consumers always see it populated; a
    /// run or branch-only batch filled it while it was pushed.
    pub fn flush_into<T: Pintool + ?Sized>(&mut self, tool: &mut T) {
        if self.is_empty() {
            return;
        }
        if self.holds == Need::Events {
            let _fill_span = telemetry::span("fill");
            self.fill_branches();
        }
        {
            let _tools_span = telemetry::span("tools");
            tool.on_batch(self);
        }
        self.clear();
    }

    /// Replays the buffered notifications and events **per event**, in
    /// the exact order a per-event producer would have delivered them.
    /// This is the default [`Pintool::on_batch`] implementation, which
    /// is what makes batched delivery bit-identical for every tool that
    /// only implements `on_inst`.
    ///
    /// # Panics
    ///
    /// In debug builds, on a run or branch-only batch, as for
    /// [`EventBatch::events`].
    pub fn replay_into<T: Pintool + ?Sized>(&self, tool: &mut T) {
        let mut starts = self.starts.iter();
        let mut next_start = starts.next();
        for (i, ev) in self.events().iter().enumerate() {
            while let Some(&(pos, section)) = next_start {
                if pos as usize > i {
                    break;
                }
                tool.on_section_start(section);
                next_start = starts.next();
            }
            tool.on_inst(ev);
        }
        while let Some(&(_, section)) = next_start {
            tool.on_section_start(section);
            next_start = starts.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};

    use crate::event::BranchEvent;

    fn other(pc: u64, section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section,
        }
    }

    fn branch(pc: u64, taken: bool, section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 6,
            class: InstClass::Branch(BranchKind::CondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::CondDirect,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(0x40)),
            }),
            section,
        }
    }

    #[derive(Default)]
    struct Recorder {
        calls: Vec<Result<TraceEvent, Section>>,
    }

    impl Pintool for Recorder {
        fn on_inst(&mut self, ev: &TraceEvent) {
            self.calls.push(Ok(*ev));
        }

        fn on_section_start(&mut self, section: Section) {
            self.calls.push(Err(section));
        }
    }

    #[test]
    fn push_maintains_index_counts_and_summary() {
        let mut b = EventBatch::with_capacity(8);
        assert!(b.is_empty());
        b.push(other(0x100, Section::Serial));
        b.push(branch(0x104, true, Section::Parallel));
        b.push(branch(0x10A, false, Section::Parallel));
        b.push(other(0x110, Section::Parallel));
        assert_eq!(b.len(), 4);
        b.fill_branches(); // flush_into does this before delivery
        b.fill_branches(); // and rebuilding does not duplicate
        assert_eq!(b.branch_events().len(), 2);
        assert_eq!(
            b.branch_events()
                .iter()
                .map(|e| e.pc.as_u64())
                .collect::<Vec<_>>(),
            vec![0x104, 0x10A],
            "dense slice keeps delivery order"
        );
        assert_eq!(b.sections(), BySection::new(1, 3));
        let s = b.summary();
        assert_eq!((s.instructions, s.branches, s.taken_branches), (4, 2, 1));
        assert!(!b.is_full());
        for i in 0..4 {
            b.push(other(0x200 + i * 4, Section::Serial));
        }
        assert!(b.is_full());
    }

    #[test]
    fn replay_into_interleaves_starts_at_recorded_positions() {
        let mut b = EventBatch::with_capacity(8);
        b.push_section_start(Section::Serial);
        b.push(other(0x100, Section::Serial));
        b.push_section_start(Section::Parallel);
        b.push_section_start(Section::Serial);
        b.push(other(0x104, Section::Serial));
        b.push_section_start(Section::Parallel); // trailing
        let mut rec = Recorder::default();
        b.replay_into(&mut rec);
        assert_eq!(
            rec.calls,
            vec![
                Err(Section::Serial),
                Ok(other(0x100, Section::Serial)),
                Err(Section::Parallel),
                Err(Section::Serial),
                Ok(other(0x104, Section::Serial)),
                Err(Section::Parallel),
            ]
        );
    }

    #[test]
    fn starts_only_batch_is_not_empty_and_flushes() {
        let mut b = EventBatch::with_capacity(4);
        b.push_section_start(Section::Parallel);
        assert_eq!(b.len(), 0);
        assert!(!b.is_empty(), "a pending start must not be dropped");
        let mut rec = Recorder::default();
        b.flush_into(&mut rec);
        assert_eq!(rec.calls, vec![Err(Section::Parallel)]);
        assert!(b.is_empty());
        // Flushing an empty batch delivers nothing.
        b.flush_into(&mut rec);
        assert_eq!(rec.calls.len(), 1);
    }

    #[test]
    fn clear_retains_capacity_and_resets_counters() {
        let mut b = EventBatch::with_capacity(2);
        b.push(branch(0x100, true, Section::Serial));
        b.push_section_start(Section::Parallel);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.summary(), RunSummary::default());
        assert_eq!(b.sections(), BySection::default());
        assert_eq!(b.capacity(), 2);
        assert!(b.branch_events().is_empty());
    }

    /// Says it reads only branches, but keeps the default `on_batch`,
    /// which replays plain events too. Only debug builds catch it.
    #[cfg(debug_assertions)]
    #[derive(Default)]
    struct ClaimsBranchOnly(Recorder);

    #[cfg(debug_assertions)]
    impl Pintool for ClaimsBranchOnly {
        fn on_inst(&mut self, ev: &TraceEvent) {
            self.0.on_inst(ev);
        }

        fn need(&self) -> Need {
            Need::Branches
        }
    }

    /// Pushes `stream` (an event, and whether a section start precedes
    /// it) through `sink`.
    fn feed<S: EventSink>(sink: &mut S, stream: &[(TraceEvent, bool)]) {
        for &(ev, start) in stream {
            if start {
                sink.section_start(ev.section);
            }
            sink.event(ev);
        }
    }

    /// What a branch-only tool reads of one batch: its length, branch
    /// slice, section starts, section counts and summary.
    type BranchRead = (
        usize,
        Vec<TraceEvent>,
        Vec<(u32, Section)>,
        BySection<u64>,
        RunSummary,
    );

    /// What a branch-only tool reads of each batch it is handed.
    #[derive(Default, Debug, PartialEq)]
    struct BranchView {
        batches: Vec<BranchRead>,
    }

    impl Pintool for BranchView {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            unreachable!("batches only");
        }

        fn on_batch(&mut self, batch: &EventBatch) {
            self.batches.push((
                batch.len(),
                batch.branch_events().to_vec(),
                batch.section_starts().to_vec(),
                batch.sections(),
                batch.summary(),
            ));
        }

        fn need(&self) -> Need {
            Need::Branches
        }
    }

    #[test]
    fn branch_only_batches_read_like_full_ones() {
        let stream: Vec<(TraceEvent, bool)> = (0..23u64)
            .map(|i| {
                let section = Section::ALL[(i / 5 % 2) as usize];
                let ev = if i % 3 == 1 {
                    branch(0x100 + i * 8, i % 2 == 0, section)
                } else {
                    other(0x100 + i * 8, section)
                };
                (ev, i % 5 == 0 || i == 6)
            })
            .collect();
        for capacity in [1, 3, 4, 5, 64] {
            let mut full_view = BranchView::default();
            let mut full = EventBatch::with_capacity(capacity);
            feed(
                &mut BatchSink {
                    batch: &mut full,
                    tool: &mut full_view,
                },
                &stream,
            );
            full.push_section_start(Section::Serial); // trailing
            full.flush_into(&mut full_view);

            let mut view = BranchView::default();
            let mut batch = EventBatch::for_tool(capacity, &view);
            assert_eq!(batch.holds(), Need::Branches);
            feed(
                &mut BranchSink {
                    batch: &mut batch,
                    tool: &mut view,
                },
                &stream,
            );
            batch.push_section_start(Section::Serial);
            batch.flush_into(&mut view);
            assert_eq!(view, full_view, "capacity {capacity}");
            // A trailing start past a full last batch rides alone.
            let trailing = usize::from(23 % capacity == 0);
            assert_eq!(view.batches.len(), 23usize.div_ceil(capacity) + trailing);
        }
    }

    #[test]
    fn a_plain_run_counts_into_the_open_section() {
        let mut view = BranchView::default();
        let mut batch = EventBatch::for_tool(16, &view);
        let mut sink = BranchSink {
            batch: &mut batch,
            tool: &mut view,
        };
        assert_eq!(sink.plain_room(), 16);
        sink.plain_run(0x100, &[0x20, 4].repeat(5), 20, Section::Parallel);
        sink.section_start(Section::Serial);
        sink.event(branch(0x200, true, Section::Serial));
        sink.plain_run(0x40, &[0x20, 4].repeat(3), 12, Section::Serial);
        assert_eq!(sink.plain_room(), 7);
        assert_eq!(batch.len(), 9);
        assert_eq!(batch.sections(), BySection::new(4, 5));
        assert_eq!(batch.section_starts(), &[(5, Section::Serial)]);
        let s = batch.summary();
        assert_eq!((s.instructions, s.branches, s.taken_branches), (9, 1, 1));
    }

    /// One step of a batch as a run reader sees it, runs expanded to
    /// `(pc, len, section, branch?)` per instruction.
    type Step = Result<(u64, u8, Section, bool), Section>;

    /// What a run reader reads of each batch: the branch view, and the
    /// stream through [`EventBatch::pieces`].
    #[derive(Default, Debug)]
    struct PieceView {
        batches: Vec<(BranchRead, Vec<Step>)>,
        runs: usize,
    }

    impl Pintool for PieceView {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            unreachable!("batches only");
        }

        fn on_batch(&mut self, batch: &EventBatch) {
            let mut steps = Vec::new();
            for piece in batch.pieces() {
                match piece {
                    Piece::Start(section) => steps.push(Err(section)),
                    Piece::Branch(ev) => steps.push(Ok((ev.pc.as_u64(), ev.len, ev.section, true))),
                    Piece::Run(run) => {
                        self.runs += 1;
                        let mut pc = run.pc.as_u64();
                        for &len in run.lens {
                            steps.push(Ok((pc, len, run.section, false)));
                            pc = pc.wrapping_add(u64::from(len));
                        }
                        let end = run.pc.as_u64().wrapping_add(run.bytes);
                        assert_eq!(pc, end, "a run's lengths sum to its bytes");
                    }
                }
            }
            let read = (
                batch.len(),
                batch.branch_events().to_vec(),
                batch.section_starts().to_vec(),
                batch.sections(),
                batch.summary(),
            );
            self.batches.push((read, steps));
        }

        fn need(&self) -> Need {
            Need::Runs
        }
    }

    #[test]
    fn run_batches_read_like_full_ones() {
        // Sequential stretches cut by branches, jumps (a non-sequential
        // plain event), section switches and starts that change nothing.
        let mut pc = 0x100u64;
        let stream: Vec<(TraceEvent, bool)> = (0..60u64)
            .map(|i| {
                let section = Section::ALL[(i / 17 % 2) as usize];
                if i % 13 == 5 {
                    pc += 0x40;
                }
                let mut ev = if i % 7 == 6 {
                    branch(pc, i % 2 == 0, section)
                } else {
                    other(pc, section)
                };
                ev.len = 1 + (i % 5) as u8;
                pc += u64::from(ev.len);
                (ev, i % 17 == 0 || i == 30)
            })
            .collect();
        let plain = stream.iter().filter(|(ev, _)| ev.branch.is_none()).count();
        for capacity in [1, 3, 4, 5, 64] {
            let mut full_view = PieceView::default();
            let mut full = EventBatch::with_capacity(capacity);
            feed(
                &mut BatchSink {
                    batch: &mut full,
                    tool: &mut full_view,
                },
                &stream,
            );
            full.push_section_start(Section::Serial); // trailing
            full.flush_into(&mut full_view);
            assert_eq!(full_view.runs, plain, "a full batch yields runs of one");

            let mut view = PieceView::default();
            let mut batch = EventBatch::for_tool(capacity, &view);
            assert_eq!(batch.holds(), Need::Runs);
            feed(
                &mut RunSink {
                    batch: &mut batch,
                    tool: &mut view,
                },
                &stream,
            );
            batch.push_section_start(Section::Serial);
            batch.flush_into(&mut view);
            assert_eq!(view.batches, full_view.batches, "capacity {capacity}");
            if capacity == 64 {
                assert_eq!(view.runs, 17, "runs end at branches, jumps and starts");
            }
        }
    }

    #[test]
    fn a_plain_run_extends_the_open_run_until_the_stream_breaks() {
        let mut view = PieceView::default();
        let mut batch = EventBatch::for_tool(32, &view);
        let mut sink = RunSink {
            batch: &mut batch,
            tool: &mut view,
        };
        sink.event(other(0x100, Section::Parallel));
        sink.plain_run(0x104, &[0x20, 2, 0x20, 6], 8, Section::Parallel);
        sink.event(other(0x10C, Section::Parallel)); // still sequential
        sink.plain_run(0x200, &[0x20, 4], 4, Section::Parallel); // a jump
        sink.section_start(Section::Parallel);
        sink.plain_run(0x204, &[0x20, 4], 4, Section::Parallel); // a start
        sink.plain_run(0x208, &[0x20, 4], 4, Section::Serial); // a switch
        sink.event(branch(0x20C, false, Section::Serial));
        sink.plain_run(0x212, &[0x20, 3], 3, Section::Serial); // a branch
        assert_eq!(batch.len(), 9);
        assert_eq!(batch.sections(), BySection::new(3, 6));
        let runs: Vec<_> = batch
            .pieces()
            .filter_map(|piece| match piece {
                Piece::Run(run) => Some((run.pc.as_u64(), run.bytes, run.lens.to_vec())),
                _ => None,
            })
            .collect();
        assert_eq!(
            runs,
            vec![
                (0x100, 16, vec![4, 2, 6, 4]),
                (0x200, 4, vec![4]),
                (0x204, 4, vec![4]),
                (0x208, 4, vec![4]),
                (0x212, 3, vec![3]),
            ]
        );
    }

    /// A tool that reads runs cannot read events: debug builds stop it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "run or branch-only batch stores no plain events")]
    fn a_run_batch_refuses_to_hand_out_events() {
        let view = PieceView::default();
        let mut batch = EventBatch::for_tool(4, &view);
        batch.push_run(0x100, std::iter::once(4), 4, Section::Serial);
        let _ = batch.events();
    }

    /// A tool that claims to read only branches cannot read runs.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a branch-only batch keeps no runs")]
    fn a_branch_only_batch_refuses_to_hand_out_runs() {
        let batch = EventBatch::for_tool(4, &crate::NullTool);
        let _ = batch.pieces();
    }

    /// A tool that claims to read only branches but reads plain events
    /// fails loudly in debug builds instead of under-counting.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "run or branch-only batch stores no plain events")]
    fn a_branch_only_batch_refuses_to_replay_plain_events() {
        let mut tool = ClaimsBranchOnly::default();
        let mut batch = EventBatch::for_tool(4, &tool);
        batch.count_plain(1, Section::Serial);
        batch.push_branch(branch(0x104, true, Section::Serial));
        batch.flush_into(&mut tool);
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_capacity_rejected() {
        let _ = EventBatch::with_capacity(0);
    }

    #[test]
    fn default_capacity_is_positive() {
        const { assert!(DEFAULT_BATCH_CAPACITY > 0) };
        assert_eq!(EventBatch::new().capacity(), DEFAULT_BATCH_CAPACITY);
    }
}
