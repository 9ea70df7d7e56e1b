//! The `Pintool` observer interface and combinators.

use crate::batch::EventBatch;
use crate::event::TraceEvent;
use crate::section::Section;

/// An analysis tool attached to the instruction stream — the equivalent of
/// a pintool's analysis routine.
///
/// Implementations receive every executed instruction via
/// [`Pintool::on_inst`]. Tools that care about phase boundaries can
/// override [`Pintool::on_section_start`].
///
/// Producers deliver events **block-at-a-time** through
/// [`Pintool::on_batch`]; its default implementation replays the batch
/// into `on_inst`/`on_section_start` in the exact per-event order, so a
/// tool that only implements `on_inst` observes an identical call
/// sequence either way. Hot tools override `on_batch` with a tight loop
/// over the batch's [`EventBatch::pieces`] (branches and sequential runs
/// of plain instructions) or its dense [`EventBatch::branch_events`]
/// slice; a tool that reads only branches says so with
/// [`Need::Branches`], so a replay skips the plain instructions.
///
/// # Examples
///
/// ```
/// use rebalance_trace::{EventBatch, Pintool, TraceEvent};
///
/// #[derive(Default)]
/// struct TakenCounter {
///     taken: u64,
/// }
///
/// impl Pintool for TakenCounter {
///     fn on_inst(&mut self, ev: &TraceEvent) {
///         if ev.is_taken_branch() {
///             self.taken += 1;
///         }
///     }
///
///     // Optional: one add per batch instead of one check per event.
///     fn on_batch(&mut self, batch: &EventBatch) {
///         self.taken += batch.summary().taken_branches;
///     }
/// }
/// ```
pub trait Pintool {
    /// Called for every executed instruction, in program order.
    fn on_inst(&mut self, ev: &TraceEvent);

    /// Called when execution enters a new serial/parallel section.
    fn on_section_start(&mut self, section: Section) {
        let _ = section;
    }

    /// Called with each block of events (and interleaved section
    /// starts). The default, [`EventBatch::replay_into`], expands the
    /// batch's runs and forwards per event, preserving the exact
    /// per-event call order — override with a tight loop over
    /// [`EventBatch::pieces`] or [`EventBatch::branch_events`] in hot
    /// tools.
    fn on_batch(&mut self, batch: &EventBatch) {
        batch.replay_into(self);
    }

    /// Called by a sampled (phase-representative) replay after the
    /// events of one representative interval have been delivered: the
    /// stream observed since the previous call stands in for `weight`
    /// intervals of the full trace, so weight-aware tools scale the
    /// counters accumulated in that window by `weight`.
    ///
    /// `weight == 1` means the window represents exactly itself; tools
    /// must treat that case as a no-op on their counters so a sampled
    /// replay where every weight is 1 (k ≥ #intervals) stays
    /// bit-identical to an unsampled replay.
    fn on_sample_weight(&mut self, weight: u64) {
        let _ = weight;
    }

    /// Called by a sampled replay when delivery is about to **skip**
    /// events: the previous window has closed (its
    /// [`Pintool::on_sample_weight`] already ran) and the next delivered
    /// event will not be the successor of the last one. Tools that
    /// track stream-position state (a current cache line, an
    /// in-progress block) should drop it here — and only here, so
    /// contiguous boundaries (a warmup prefix flowing into its
    /// representative, adjacent representatives) don't pay a spurious
    /// discontinuity.
    fn on_sample_gap(&mut self) {}

    /// `true` if this tool's counters scale correctly under
    /// [`Pintool::on_sample_weight`]. Sampled replays refuse tools that
    /// leave this `false` (the default), so a weight-oblivious tool can
    /// never silently under-count.
    fn supports_sampled_replay(&self) -> bool {
        false
    }

    /// What this tool's [`Pintool::on_batch`] reads of a batch, which
    /// picks the batch a snapshot or live replay fills for it. The
    /// default, [`Need::Events`], is right for every tool; a tool that
    /// overrides `on_batch` to read only branches returns
    /// [`Need::Branches`], and a replay whose whole tool set needs only
    /// branches decodes less. Debug builds panic when a tool reads plain
    /// instructions of a branch-only batch.
    fn need(&self) -> Need {
        Need::Events
    }
}

/// What a tool reads of each [`EventBatch`], in increasing order; a tool
/// set needs the maximum of its members.
///
/// | need | batch | a tool reads |
/// |---|---|---|
/// | [`Need::Branches`] | branch-only | [`EventBatch::branch_events`], [`EventBatch::sections`], [`EventBatch::section_starts`], [`EventBatch::len`], [`EventBatch::summary`] |
/// | [`Need::Events`] | run | the above and [`EventBatch::pieces`], the plain runs between branches, or the per-event [`EventBatch::replay_into`] the default `on_batch` runs |
///
/// A snapshot decode into a branch-only batch counts plain records and
/// skips runs of sequential ones several at a time; into a run batch it
/// keeps each run's start, length in instructions and bytes, and its
/// instruction lengths, but builds no [`TraceEvent`] for it. Batch
/// edges, section-start positions and every counter are the same in
/// both shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Need {
    /// Branch events, section counts and section starts.
    Branches,
    /// Every event: the branches and, between them, the plain
    /// instructions as sequential runs.
    Events,
}

/// Forwards the full `Pintool` surface through a pointer-like wrapper,
/// so `&mut T` and `Box<T>` never silently fall back to the default
/// (slow-path) `on_batch` of a hand-written partial impl.
macro_rules! impl_pintool_forward {
    ($($ty:ty),+ $(,)?) => {$(
        impl<T: Pintool + ?Sized> Pintool for $ty {
            #[inline]
            fn on_inst(&mut self, ev: &TraceEvent) {
                (**self).on_inst(ev);
            }

            #[inline]
            fn on_section_start(&mut self, section: Section) {
                (**self).on_section_start(section);
            }

            #[inline]
            fn on_batch(&mut self, batch: &EventBatch) {
                (**self).on_batch(batch);
            }

            #[inline]
            fn on_sample_weight(&mut self, weight: u64) {
                (**self).on_sample_weight(weight);
            }

            #[inline]
            fn on_sample_gap(&mut self) {
                (**self).on_sample_gap();
            }

            #[inline]
            fn supports_sampled_replay(&self) -> bool {
                (**self).supports_sampled_replay()
            }

            #[inline]
            fn need(&self) -> Need {
                (**self).need()
            }
        }
    )+};
}

impl_pintool_forward!(&mut T, Box<T>);

macro_rules! impl_pintool_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Pintool),+> Pintool for ($($name,)+) {
            fn on_inst(&mut self, ev: &TraceEvent) {
                $(self.$idx.on_inst(ev);)+
            }

            fn on_section_start(&mut self, section: Section) {
                $(self.$idx.on_section_start(section);)+
            }

            fn on_batch(&mut self, batch: &EventBatch) {
                $(self.$idx.on_batch(batch);)+
            }

            fn on_sample_weight(&mut self, weight: u64) {
                $(self.$idx.on_sample_weight(weight);)+
            }

            fn on_sample_gap(&mut self) {
                $(self.$idx.on_sample_gap();)+
            }

            fn supports_sampled_replay(&self) -> bool {
                true $(&& self.$idx.supports_sampled_replay())+
            }

            fn need(&self) -> Need {
                Need::Branches $(.max(self.$idx.need()))+
            }
        }
    };
}

impl_pintool_tuple!(A: 0);
impl_pintool_tuple!(A: 0, B: 1);
impl_pintool_tuple!(A: 0, B: 1, C: 2);
impl_pintool_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_pintool_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_pintool_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// A tool that ignores everything; useful to drive the interpreter for
/// its [`RunSummary`](crate::RunSummary) alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTool;

impl Pintool for NullTool {
    #[inline]
    fn on_inst(&mut self, _ev: &TraceEvent) {}

    #[inline]
    fn on_batch(&mut self, _batch: &EventBatch) {}

    #[inline]
    fn supports_sampled_replay(&self) -> bool {
        true
    }

    #[inline]
    fn need(&self) -> Need {
        Need::Branches
    }
}

/// Adapts a closure into a [`Pintool`].
///
/// # Examples
///
/// ```
/// use rebalance_trace::{FnTool, Pintool, TraceEvent};
///
/// let mut count = 0u64;
/// let mut tool = FnTool::new(|_ev: &TraceEvent| count += 1);
/// # let _ = &mut tool;
/// ```
#[derive(Debug)]
pub struct FnTool<F> {
    f: F,
}

impl<F: FnMut(&TraceEvent)> FnTool<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        FnTool { f }
    }
}

impl<F: FnMut(&TraceEvent)> Pintool for FnTool<F> {
    #[inline]
    fn on_inst(&mut self, ev: &TraceEvent) {
        (self.f)(ev);
    }
}

/// A dynamically-composed set of tools sharing one trace replay.
///
/// Prefer tuples of concrete tools (statically dispatched) in hot paths;
/// `MultiTool` trades a virtual call per instruction per tool for runtime
/// flexibility, exactly like running several pintools in one Pin session.
#[derive(Default)]
pub struct MultiTool<'a> {
    tools: Vec<&'a mut dyn Pintool>,
}

impl std::fmt::Debug for MultiTool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTool")
            .field("tools", &self.tools.len())
            .finish()
    }
}

impl<'a> MultiTool<'a> {
    /// Creates an empty set.
    pub fn new() -> Self {
        MultiTool { tools: Vec::new() }
    }

    /// Adds a tool; returns `self` for chaining.
    pub fn with(mut self, tool: &'a mut dyn Pintool) -> Self {
        self.tools.push(tool);
        self
    }

    /// Adds a tool in place.
    pub fn push(&mut self, tool: &'a mut dyn Pintool) {
        self.tools.push(tool);
    }

    /// Number of attached tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// `true` if no tools are attached.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

impl Pintool for MultiTool<'_> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        for t in &mut self.tools {
            t.on_inst(ev);
        }
    }

    fn on_section_start(&mut self, section: Section) {
        for t in &mut self.tools {
            t.on_section_start(section);
        }
    }

    /// One virtual transition per tool per **batch** instead of per
    /// event — the whole point of block-at-a-time delivery for
    /// dynamically-composed tool sets.
    fn on_batch(&mut self, batch: &EventBatch) {
        for t in &mut self.tools {
            t.on_batch(batch);
        }
    }

    fn on_sample_weight(&mut self, weight: u64) {
        for t in &mut self.tools {
            t.on_sample_weight(weight);
        }
    }

    fn on_sample_gap(&mut self) {
        for t in &mut self.tools {
            t.on_sample_gap();
        }
    }

    fn supports_sampled_replay(&self) -> bool {
        self.tools.iter().all(|t| t.supports_sampled_replay())
    }

    fn need(&self) -> Need {
        self.tools
            .iter()
            .map(|t| t.need())
            .max()
            .unwrap_or(Need::Branches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, InstClass};

    fn ev() -> TraceEvent {
        TraceEvent {
            pc: Addr::new(0x100),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section: Section::Serial,
        }
    }

    #[derive(Default)]
    struct Recorder {
        insts: u64,
        sections: Vec<Section>,
    }

    impl Pintool for Recorder {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_section_start(&mut self, section: Section) {
            self.sections.push(section);
        }
    }

    #[test]
    fn tuple_composition_dispatches_to_all() {
        let mut pair = (Recorder::default(), Recorder::default());
        pair.on_inst(&ev());
        pair.on_section_start(Section::Parallel);
        assert_eq!(pair.0.insts, 1);
        assert_eq!(pair.1.insts, 1);
        assert_eq!(pair.0.sections, vec![Section::Parallel]);
        assert_eq!(pair.1.sections, vec![Section::Parallel]);
    }

    #[test]
    fn mut_ref_and_box_forward() {
        let mut r = Recorder::default();
        {
            let mut as_ref = &mut r;
            <&mut Recorder as Pintool>::on_inst(&mut as_ref, &ev());
        }
        assert_eq!(r.insts, 1);
        let mut boxed: Box<dyn Pintool> = Box::new(Recorder::default());
        boxed.on_inst(&ev());
        boxed.on_section_start(Section::Serial);
    }

    #[test]
    fn multi_tool_runs_all() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        {
            let mut multi = MultiTool::new().with(&mut a).with(&mut b);
            assert_eq!(multi.len(), 2);
            assert!(!multi.is_empty());
            multi.on_inst(&ev());
            multi.on_inst(&ev());
            multi.on_section_start(Section::Serial);
        }
        assert_eq!(a.insts, 2);
        assert_eq!(b.insts, 2);
        assert_eq!(a.sections.len(), 1);
    }

    #[test]
    fn multi_tool_empty_is_fine() {
        let mut multi = MultiTool::new();
        assert!(multi.is_empty());
        multi.on_inst(&ev());
    }

    #[test]
    fn fn_tool_invokes_closure() {
        let mut n = 0;
        {
            let mut tool = FnTool::new(|_: &TraceEvent| n += 1);
            tool.on_inst(&ev());
            tool.on_inst(&ev());
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn null_tool_ignores() {
        let mut t = NullTool;
        t.on_inst(&ev());
        t.on_section_start(Section::Parallel);
        t.on_batch(&EventBatch::with_capacity(4));
    }

    /// A tool whose `on_batch` override is observable: wrappers must
    /// reach it, not the per-event default.
    #[derive(Default)]
    struct BatchAware {
        batches: u64,
        insts: u64,
    }

    impl Pintool for BatchAware {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_batch(&mut self, batch: &EventBatch) {
            self.batches += 1;
            self.insts += batch.len() as u64;
        }
    }

    fn two_event_batch() -> EventBatch {
        let mut batch = EventBatch::with_capacity(4);
        batch.push(ev());
        batch.push(ev());
        batch
    }

    #[test]
    fn wrappers_forward_on_batch_to_the_override() {
        let batch = two_event_batch();
        let mut tool = BatchAware::default();
        {
            let mut as_ref = &mut tool;
            <&mut BatchAware as Pintool>::on_batch(&mut as_ref, &batch);
        }
        assert_eq!(tool.batches, 1, "&mut T must reach the override");
        let mut boxed = Box::new(BatchAware::default());
        <Box<BatchAware> as Pintool>::on_batch(&mut boxed, &batch);
        assert_eq!(boxed.batches, 1, "Box<T> must reach the override");

        let mut pair = (BatchAware::default(), Recorder::default());
        pair.on_batch(&batch);
        assert_eq!(pair.0.batches, 1, "tuples forward whole batches");
        assert_eq!(pair.1.insts, 2, "default impl replays per event");
    }

    #[test]
    fn multi_tool_forwards_whole_batches() {
        let batch = two_event_batch();
        let mut a = BatchAware::default();
        let mut b = Recorder::default();
        {
            let mut multi = MultiTool::new().with(&mut a).with(&mut b);
            multi.on_batch(&batch);
        }
        assert_eq!(a.batches, 1);
        assert_eq!(a.insts, 2);
        assert_eq!(b.insts, 2);
    }

    #[test]
    fn a_set_needs_the_most_any_member_needs() {
        assert_eq!(Recorder::default().need(), Need::Events, "the default");
        assert_eq!(NullTool.need(), Need::Branches);
        assert_eq!((NullTool, NullTool).need(), Need::Branches);
        assert_eq!((NullTool, Recorder::default()).need(), Need::Events);
        assert_eq!(
            (Recorder::default(), NullTool, NullTool).need(),
            Need::Events
        );
        assert_eq!(Box::new(Recorder::default()).need(), Need::Events);
        let mut null = NullTool;
        assert_eq!(<&mut NullTool as Pintool>::need(&&mut null), Need::Branches);
        let (mut a, mut b, mut c) = (NullTool, NullTool, Recorder::default());
        let mut multi = MultiTool::new();
        assert_eq!(multi.need(), Need::Branches, "an empty set reads nothing");
        multi.push(&mut a);
        multi.push(&mut b);
        assert_eq!(multi.need(), Need::Branches);
        multi.push(&mut c);
        assert_eq!(multi.need(), Need::Events);
    }

    #[test]
    fn default_on_batch_preserves_per_event_order() {
        let mut batch = EventBatch::with_capacity(4);
        batch.push_section_start(Section::Parallel);
        batch.push(ev());
        batch.push(ev());
        batch.push_section_start(Section::Serial);
        let mut rec = Recorder::default();
        rec.on_batch(&batch);
        assert_eq!(rec.insts, 2);
        assert_eq!(rec.sections, vec![Section::Parallel, Section::Serial]);
    }
}
