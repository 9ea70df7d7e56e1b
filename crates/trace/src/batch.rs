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
//!   construction.
//!
//! Producers ([`Interpreter`](crate::Interpreter),
//! [`Snapshot`](crate::Snapshot) decode) fill a reusable batch and hand
//! it to [`Pintool::on_batch`](crate::Pintool::on_batch) whenever it
//! reaches capacity. A snapshot decode into a tool set that does not
//! [`Pintool::needs_every_event`](crate::Pintool::needs_every_event)
//! fills a branch-only batch, which stores the branch slice alone and
//! counts the rest. Combinators ([`ToolSet`](crate::ToolSet),
//! [`MultiTool`](crate::MultiTool), tuples) forward whole batches, so an
//! N-tool fan-out performs `N × (events / capacity)` virtual transitions
//! instead of `N × events`.

use rebalance_telemetry as telemetry;

use crate::by_section::BySection;
use crate::event::TraceEvent;
use crate::exec::RunSummary;
use crate::observer::Pintool;
use crate::section::Section;

/// Number of events per batch for every entry point that does not take
/// an explicit capacity.
///
/// A full batch of 4096 events × ~40 bytes stays comfortably inside L2
/// while amortizing per-batch bookkeeping to noise; a branch-only batch
/// stores just its ~10% of branch events. Another size is chosen
/// only through the explicit-capacity entry points
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
    /// `true` for a sink that only counts plain (non-branch) events:
    /// the decoder may then hand it whole runs of sequential plain
    /// records through [`EventSink::plain_run`].
    const COUNTS_PLAIN: bool = false;

    fn section_start(&mut self, section: Section);
    fn event(&mut self, ev: TraceEvent);

    /// Plain events the sink takes before its next flush (a
    /// [`EventSink::COUNTS_PLAIN`] sink only).
    fn plain_room(&self) -> usize {
        0
    }

    /// Counts `n` plain events of `section`; `n` stays below
    /// [`EventSink::plain_room`], so no flush falls inside the run.
    fn plain_run(&mut self, n: usize, section: Section) {
        let _ = (n, section);
        unreachable!("only a plain-counting sink takes runs");
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

/// Block-at-a-time delivery into a branch-only batch
/// ([`EventBatch::for_tool`] of a tool that does not
/// [`Pintool::needs_every_event`]): branch events go straight into the
/// dense branch slice and plain events are only counted, so the batch
/// fills, and flushes, at the same event positions a full batch does.
pub(crate) struct BranchSink<'a, 'b, T: Pintool + ?Sized> {
    pub batch: &'a mut EventBatch,
    pub tool: &'b mut T,
}

impl<T: Pintool + ?Sized> EventSink for BranchSink<'_, '_, T> {
    const COUNTS_PLAIN: bool = true;

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
    fn plain_run(&mut self, n: usize, section: Section) {
        self.batch.count_plain(n, section);
        debug_assert!(!self.batch.is_full(), "a run must not reach a flush");
    }
}

/// A fixed-capacity block of trace events with a dense branch slice,
/// section counts, and interleaved section-start notifications. The
/// branch slice is built right before delivery — inside
/// [`Pintool::on_batch`] it is always consistent with
/// [`EventBatch::events`], but between pushes it is empty.
///
/// A snapshot replay into a tool set that does not
/// [`Pintool::needs_every_event`] fills a **branch-only** batch
/// instead: branch events go straight into the branch slice (no gather
/// at flush time), and plain events are only counted into
/// [`EventBatch::len`], [`EventBatch::sections`] and the
/// [`EventBatch::section_starts`] positions. Everything but
/// [`EventBatch::events`] reads the same as for a full batch; debug
/// builds panic when a branch-only batch's plain events are read.
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
    /// `(position, section)` pairs: the notification fires before the
    /// event at `position` (== `events.len()` for a trailing start).
    starts: Vec<(u32, Section)>,
    sections: BySection<u64>,
    /// Branches buffered so far — maintained in `push` so
    /// [`EventBatch::summary`] is exact even before the branch slice
    /// exists.
    branch_count: u64,
    taken_branches: u64,
    /// Events counted without a slot in `events`: every event of a
    /// branch-only batch, none of a full one.
    counted: usize,
    /// `false` for a branch-only batch, whose `events` stays empty.
    stores_plain: bool,
    capacity: usize,
}

impl Default for EventBatch {
    /// An empty batch at [`DEFAULT_BATCH_CAPACITY`]. Buffers
    /// are not pre-allocated; they grow on first use and are retained
    /// across [`EventBatch::clear`], so a reused batch allocates once.
    fn default() -> Self {
        EventBatch {
            events: Vec::new(),
            branches: Vec::new(),
            starts: Vec::new(),
            sections: BySection::default(),
            branch_count: 0,
            taken_branches: 0,
            counted: 0,
            stores_plain: true,
            capacity: DEFAULT_BATCH_CAPACITY,
        }
    }
}

impl EventBatch {
    /// An empty batch at [`DEFAULT_BATCH_CAPACITY`], buffers allocated
    /// lazily on first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch holding at most `capacity` events, with the event
    /// buffer pre-allocated to that capacity.
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

    /// The batch a replay into `tool` fills: a full one at `capacity`
    /// when the tool [`Pintool::needs_every_event`], else a branch-only
    /// one.
    ///
    /// # Panics
    ///
    /// As for [`EventBatch::with_capacity`].
    pub(crate) fn for_tool<T: Pintool + ?Sized>(capacity: usize, tool: &T) -> Self {
        if tool.needs_every_event() {
            return EventBatch::with_capacity(capacity);
        }
        check_capacity(capacity);
        EventBatch {
            stores_plain: false,
            capacity,
            ..EventBatch::default()
        }
    }

    /// `false` for a branch-only batch, which counts its plain events
    /// without storing them.
    pub(crate) fn stores_plain(&self) -> bool {
        self.stores_plain
    }

    /// Maximum events the batch holds before it reports
    /// [`EventBatch::is_full`].
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered (for a branch-only batch: counted).
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
    /// In debug builds, on a branch-only batch (one delivered to a tool
    /// set that does not [`Pintool::needs_every_event`]): it stores no
    /// plain events, so a tool reading them would under-count.
    pub fn events(&self) -> &[TraceEvent] {
        debug_assert!(
            self.stores_plain,
            "a branch-only batch stores no plain events: a tool that reads them must leave \
             Pintool::needs_every_event at true"
        );
        &self.events
    }

    /// The branch-payload events, densely packed in delivery order —
    /// the precomputed slice branch-only tools stream instead of
    /// filtering the full block. A full batch builds it at flush time
    /// (populated inside [`Pintool::on_batch`], empty between pushes); a
    /// branch-only batch appends each branch as it arrives.
    pub fn branch_events(&self) -> &[TraceEvent] {
        &self.branches
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

    /// Appends an event, maintaining the counters. The dense branch
    /// slice is **not** built here — it is gathered in one pass per
    /// block by [`EventBatch::flush_into`] right before delivery, which
    /// keeps this producer-side hot loop down to a single buffer
    /// append.
    ///
    /// Producers should check [`EventBatch::is_full`] (and flush) after
    /// each push; pushing past capacity only grows the block, it is not
    /// an error.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        debug_assert!(self.stores_plain, "push into a branch-only batch");
        if let Some(branch) = &ev.branch {
            self.branch_count += 1;
            if branch.outcome.is_taken() {
                self.taken_branches += 1;
            }
        }
        *self.sections.get_mut(ev.section) += 1;
        self.events.push(ev);
    }

    /// Appends a branch event to a branch-only batch, straight into the
    /// dense branch slice.
    #[inline]
    fn push_branch(&mut self, ev: TraceEvent) {
        debug_assert!(!self.stores_plain && ev.branch.is_some());
        self.branch_count += 1;
        self.taken_branches += u64::from(ev.is_taken_branch());
        *self.sections.get_mut(ev.section) += 1;
        self.counted += 1;
        self.branches.push(ev);
    }

    /// Counts `n` plain events of `section` into a branch-only batch.
    #[inline]
    fn count_plain(&mut self, n: usize, section: Section) {
        debug_assert!(!self.stores_plain);
        *self.sections.get_mut(section) += n as u64;
        self.counted += n;
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
        self.starts.clear();
        self.sections = BySection::default();
        self.branch_count = 0;
        self.taken_branches = 0;
        self.counted = 0;
    }

    /// Delivers the batch to `tool` via
    /// [`Pintool::on_batch`](crate::Pintool::on_batch) and clears it.
    /// A no-op on an empty batch. A full batch builds its branch slice
    /// first, so consumers always see it populated; a branch-only batch
    /// filled it while it was pushed.
    pub fn flush_into<T: Pintool + ?Sized>(&mut self, tool: &mut T) {
        if self.is_empty() {
            return;
        }
        if self.stores_plain {
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
    /// In debug builds, on a branch-only batch, as for
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
    /// which replays plain events too.
    #[derive(Default)]
    struct ClaimsBranchOnly(Recorder);

    impl Pintool for ClaimsBranchOnly {
        fn on_inst(&mut self, ev: &TraceEvent) {
            self.0.on_inst(ev);
        }

        fn needs_every_event(&self) -> bool {
            false
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

        fn needs_every_event(&self) -> bool {
            false
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
            assert!(!batch.stores_plain());
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
        sink.plain_run(5, Section::Parallel);
        sink.section_start(Section::Serial);
        sink.event(branch(0x200, true, Section::Serial));
        sink.plain_run(3, Section::Serial);
        assert_eq!(sink.plain_room(), 7);
        assert_eq!(batch.len(), 9);
        assert_eq!(batch.sections(), BySection::new(4, 5));
        assert_eq!(batch.section_starts(), &[(5, Section::Serial)]);
        let s = batch.summary();
        assert_eq!((s.instructions, s.branches, s.taken_branches), (9, 1, 1));
    }

    /// A tool that claims to read only branches but reads plain events
    /// fails loudly in debug builds instead of under-counting.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "branch-only batch stores no plain events")]
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
