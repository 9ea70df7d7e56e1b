//! Per-tool telemetry: a [`Pintool`] wrapper that attributes `on_batch`
//! time to a named counter.

use std::ops::{Deref, DerefMut};
use std::time::Instant;

use rebalance_telemetry as telemetry;

use crate::batch::EventBatch;
use crate::event::TraceEvent;
use crate::observer::{Need, Pintool};
use crate::section::Section;

/// Wraps a tool and charges the wall-clock time its [`Pintool::on_batch`]
/// consumes to the counter `tool.<label>.on_batch_ns`.
///
/// Every other `Pintool` method forwards untouched, so behaviour (batch
/// ordering, sampled-replay support) is bit-identical to the bare tool;
/// only the batch path is bracketed by two monotonic clock reads, and
/// even those are skipped while telemetry is disabled. The
/// wrapper [`Deref`]s to the inner tool, so `timed.report()`-style calls
/// keep working.
///
/// # Examples
///
/// ```
/// use rebalance_trace::{NullTool, Pintool, Timed};
///
/// let mut tool = Timed::new("null", NullTool);
/// tool.on_batch(&rebalance_trace::EventBatch::with_capacity(4));
/// assert_eq!(*tool, NullTool);
/// ```
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    on_batch_ns: telemetry::Counter,
    on_batch_calls: telemetry::Counter,
}

impl<T> Timed<T> {
    /// Wraps `inner`, registering `tool.<label>.on_batch_ns` and
    /// `tool.<label>.on_batch_calls` in the metrics registry.
    pub fn new(label: &str, inner: T) -> Self {
        Timed {
            inner,
            on_batch_ns: telemetry::counter(&format!("tool.{label}.on_batch_ns")),
            on_batch_calls: telemetry::counter(&format!("tool.{label}.on_batch_calls")),
        }
    }

    /// Consumes the wrapper, returning the inner tool.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T> Deref for Timed<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Timed<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Pintool> Pintool for Timed<T> {
    #[inline]
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.inner.on_inst(ev);
    }

    #[inline]
    fn on_section_start(&mut self, section: Section) {
        self.inner.on_section_start(section);
    }

    #[inline]
    fn on_batch(&mut self, batch: &EventBatch) {
        let start = telemetry::enabled().then(Instant::now);
        self.inner.on_batch(batch);
        if let Some(start) = start {
            self.on_batch_ns.add(start.elapsed().as_nanos() as u64);
            self.on_batch_calls.incr();
        }
    }

    #[inline]
    fn on_sample_weight(&mut self, weight: u64) {
        self.inner.on_sample_weight(weight);
    }

    #[inline]
    fn on_sample_gap(&mut self) {
        self.inner.on_sample_gap();
    }

    #[inline]
    fn supports_sampled_replay(&self) -> bool {
        self.inner.supports_sampled_replay()
    }

    #[inline]
    fn need(&self) -> Need {
        self.inner.need()
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

    /// Overridden `on_batch` must be reached through the wrapper, and the
    /// full surface must forward.
    #[derive(Default)]
    struct BatchAware {
        batches: u64,
        insts: u64,
        weights: u64,
        gaps: u64,
    }

    impl Pintool for BatchAware {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_batch(&mut self, batch: &EventBatch) {
            self.batches += 1;
            self.insts += batch.len() as u64;
        }

        fn on_sample_weight(&mut self, weight: u64) {
            self.weights += weight;
        }

        fn on_sample_gap(&mut self) {
            self.gaps += 1;
        }

        fn supports_sampled_replay(&self) -> bool {
            true
        }
    }

    #[test]
    fn timed_forwards_the_full_surface() {
        let mut batch = EventBatch::with_capacity(4);
        batch.push(ev());
        batch.push(ev());

        let mut tool = Timed::new("test_forward", BatchAware::default());
        tool.on_inst(&ev());
        tool.on_batch(&batch);
        tool.on_sample_weight(7);
        tool.on_sample_gap();
        assert!(tool.supports_sampled_replay());
        assert_eq!(tool.need(), Need::Events);
        assert_eq!(
            Timed::new("test_forward_null", crate::NullTool).need(),
            Need::Branches
        );

        let inner = tool.into_inner();
        assert_eq!(inner.batches, 1, "wrapper must reach the override");
        assert_eq!(inner.insts, 3);
        assert_eq!(inner.weights, 7);
        assert_eq!(inner.gaps, 1);
    }

    #[test]
    fn timed_charges_batch_time_when_enabled() {
        telemetry::set_enabled(true);
        let mut batch = EventBatch::with_capacity(4);
        batch.push(ev());

        let mut tool = Timed::new("test_charge", BatchAware::default());
        tool.on_batch(&batch);
        tool.on_batch(&batch);

        let snap = telemetry::snapshot();
        assert_eq!(
            snap.counters.get("tool.test_charge.on_batch_calls"),
            Some(&2)
        );
        assert!(snap.counters.contains_key("tool.test_charge.on_batch_ns"));
        telemetry::set_enabled(false);
    }

    #[test]
    fn timed_derefs_to_inner() {
        let mut tool = Timed::new("test_deref", BatchAware::default());
        tool.on_inst(&ev());
        assert_eq!(tool.insts, 1, "Deref exposes inner fields");
        tool.insts = 5;
        assert_eq!(tool.into_inner().insts, 5);
    }
}
