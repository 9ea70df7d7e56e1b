//! [`ToolSet`]: a homogeneous fan-out combinator — N tools of one type
//! fed by a single trace replay.

use crate::batch::EventBatch;
use crate::event::TraceEvent;
use crate::observer::{Need, Pintool};
use crate::report::LaneFill;
use crate::section::Section;

/// A set of same-typed tools sharing one pass over the instruction
/// stream.
///
/// This is the statically-dispatched sibling of
/// [`MultiTool`](crate::MultiTool): where `MultiTool` borrows
/// heterogeneous tools through `&mut dyn Pintool`, a `ToolSet<T>` *owns*
/// a vector of concrete tools, dispatches without virtual calls, and
/// hands the tools back via [`ToolSet::into_inner`] when the replay is
/// done. It is the building block of the sweep engine: sweeping N
/// predictor or cache configurations costs one replay instead of N.
///
/// # Examples
///
/// ```
/// use rebalance_trace::{Pintool, ToolSet, TraceEvent};
///
/// #[derive(Default)]
/// struct Counter(u64);
/// impl Pintool for Counter {
///     fn on_inst(&mut self, _ev: &TraceEvent) {
///         self.0 += 1;
///     }
/// }
///
/// let mut set: ToolSet<Counter> = (0..3).map(|_| Counter::default()).collect();
/// assert_eq!(set.len(), 3);
/// // ... replay a trace into `set` ...
/// let counters = set.into_inner();
/// assert_eq!(counters.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct ToolSet<T> {
    tools: Vec<T>,
    lanes: LaneFill,
}

impl<T> ToolSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ToolSet::from_tools(Vec::new())
    }

    /// Wraps an existing vector of tools.
    pub fn from_tools(tools: Vec<T>) -> Self {
        ToolSet {
            tools,
            lanes: LaneFill::default(),
        }
    }

    /// Adds a tool.
    pub fn push(&mut self, tool: T) {
        self.tools.push(tool);
    }

    /// Number of tools in the set.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// `true` if the set holds no tools.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Shared view of the tools.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.tools.iter()
    }

    /// Mutable view of the tools.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.tools.iter_mut()
    }

    /// Events this set received through [`Pintool::on_batch`], and how
    /// many of them were branches.
    pub fn lanes(&self) -> LaneFill {
        self.lanes
    }

    /// Consumes the set, returning the tools in insertion order.
    pub fn into_inner(self) -> Vec<T> {
        self.tools
    }
}

impl<T> From<Vec<T>> for ToolSet<T> {
    fn from(tools: Vec<T>) -> Self {
        ToolSet::from_tools(tools)
    }
}

impl<T> FromIterator<T> for ToolSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ToolSet::from_tools(iter.into_iter().collect())
    }
}

impl<T> IntoIterator for ToolSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.tools.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a ToolSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.tools.iter()
    }
}

impl<T: Pintool> Pintool for ToolSet<T> {
    #[inline]
    fn on_inst(&mut self, ev: &TraceEvent) {
        for tool in &mut self.tools {
            tool.on_inst(ev);
        }
    }

    fn on_section_start(&mut self, section: Section) {
        for tool in &mut self.tools {
            tool.on_section_start(section);
        }
    }

    /// Fans the whole block out: each tool walks the batch with its own
    /// (statically dispatched, possibly branch-subset-only) loop while
    /// the block is hot in cache, instead of interleaving all N tools
    /// on every single event. Also tallies the block into this set's
    /// [`ToolSet::lanes`] — the choke point every sweep's batches pass
    /// through.
    fn on_batch(&mut self, batch: &EventBatch) {
        self.lanes.instructions += batch.len() as u64;
        self.lanes.branches += batch.summary().branches;
        for tool in &mut self.tools {
            tool.on_batch(batch);
        }
    }

    fn on_sample_weight(&mut self, weight: u64) {
        for tool in &mut self.tools {
            tool.on_sample_weight(weight);
        }
    }

    fn on_sample_gap(&mut self) {
        for tool in &mut self.tools {
            tool.on_sample_gap();
        }
    }

    fn supports_sampled_replay(&self) -> bool {
        self.tools.iter().all(Pintool::supports_sampled_replay)
    }

    fn need(&self) -> Need {
        self.tools
            .iter()
            .map(Pintool::need)
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
            pc: Addr::new(0x40),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section: Section::Serial,
        }
    }

    #[derive(Default, Debug, PartialEq)]
    struct Recorder {
        insts: u64,
        sections: u64,
    }

    impl Pintool for Recorder {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_section_start(&mut self, _section: Section) {
            self.sections += 1;
        }
    }

    #[test]
    fn dispatches_to_every_tool() {
        let mut set: ToolSet<Recorder> = (0..4).map(|_| Recorder::default()).collect();
        set.on_section_start(Section::Parallel);
        set.on_inst(&ev());
        set.on_inst(&ev());
        for r in set.iter() {
            assert_eq!(r.insts, 2);
            assert_eq!(r.sections, 1);
        }
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        let tools = set.into_inner();
        assert_eq!(tools.len(), 4);
    }

    #[test]
    fn construction_paths_agree() {
        let mut a = ToolSet::new();
        a.push(Recorder::default());
        let b = ToolSet::from_tools(vec![Recorder::default()]);
        let c: ToolSet<Recorder> = ToolSet::from(vec![Recorder::default()]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), c.len());
        assert!(ToolSet::<Recorder>::new().is_empty());
    }

    #[test]
    fn iteration_orders_match_insertion() {
        let mut set = ToolSet::new();
        for i in 0..3u64 {
            set.push(Recorder {
                insts: i,
                sections: 0,
            });
        }
        let seen: Vec<u64> = (&set).into_iter().map(|r| r.insts).collect();
        assert_eq!(seen, vec![0, 1, 2]);
        for r in set.iter_mut() {
            r.insts += 10;
        }
        let owned: Vec<u64> = set.into_iter().map(|r| r.insts).collect();
        assert_eq!(owned, vec![10, 11, 12]);
    }

    #[test]
    fn a_set_needs_the_most_any_tool_needs() {
        let nulls: ToolSet<crate::NullTool> = vec![crate::NullTool; 3].into();
        assert_eq!(nulls.need(), Need::Branches);
        let recorders: ToolSet<Recorder> = vec![Recorder::default()].into();
        assert_eq!(recorders.need(), Need::Events);
        assert_eq!(ToolSet::<Recorder>::new().need(), Need::Branches);
    }

    #[test]
    fn empty_set_is_a_valid_tool() {
        let mut set: ToolSet<Recorder> = ToolSet::new();
        set.on_inst(&ev());
        set.on_section_start(Section::Serial);
    }
}
