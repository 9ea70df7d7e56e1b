//! Process-wide telemetry: per-tool counters and a hierarchical span
//! tree, read out as one [`MetricsSnapshot`] per process.
//!
//! The sweep pipeline runs its work on the executor's threads, and a
//! measurement is only trustworthy if it does not depend on which
//! thread did the work: every thread's spans fold into one tree
//! ([`SpanNode::absorb`] adds totals and counts node by node), and
//! counters are shared atomics.
//!
//! Telemetry says where a run's *time* went. What a run *did* — its
//! replays, cache hits and generations, delivered events — is counted
//! once, in the run's own record (the sweep engine's `Report`), which
//! `--metrics` renders next to the span tree; no metric here mirrors
//! it.
//!
//! Two primitives:
//!
//! * **Counters** — [`Counter`] handles addressable by stable dotted
//!   names (`tool.predictors.on_batch_calls`). Handles are cheap `Arc`s
//!   over atomics; call sites cache them so the hot path is a single
//!   relaxed atomic op.
//! * **Spans** — [`span`] returns an RAII guard over a monotonic clock.
//!   Nested guards build a per-thread timing tree with **no global
//!   locks on the hot path**: opening a span resolves its node in the
//!   thread's tree once, closing it adds to that node, and a thread
//!   only touches the shared tree when its outermost span closes,
//!   merging its whole local subtree in one lock acquisition.
//!
//! Collection is off by default and only [`set_enabled`] switches it
//! (the CLI calls it for `--metrics`); no environment variable is
//! read. While off, every instrumentation call reduces to one
//! [`enabled`] check (a relaxed atomic load) and a branch.
//!
//! Naming scheme: dotted lowercase segments, most-general first
//! (`tool.predictors.on_batch_ns`). Metrics whose *value* is a duration
//! carry a `_ns` suffix; run-to-run comparisons treat those as
//! machine-dependent and compare them structurally, never by value.
//!
//! # Examples
//!
//! ```
//! use rebalance_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! let events = telemetry::counter("demo.events");
//! {
//!     let _outer = telemetry::span("outer");
//!     let _inner = telemetry::span("inner");
//!     events.add(3);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["demo.events"], 3);
//! let outer = &snap.spans.children["outer"];
//! assert_eq!(outer.children["inner"].count, 1);
//! assert!(snap.check_attribution().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Version stamp written into [`MetricsSnapshot::to_json`] output.
/// Version 2 carries the caller's run record under `report` and has no
/// `gauges` or `histograms`.
pub const SNAPSHOT_VERSION: u32 = 2;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is currently on: one relaxed atomic
/// load.
///
/// Out of line on purpose: callers check once per span or block, where
/// a call costs nothing, and inlining the load into the delivery loops
/// slowed the warm nine-predictor sweep by about 2% (2-vCPU x86-64
/// host), through code layout rather than work.
#[inline(never)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off for the whole process. Typically called
/// once by a CLI front-end after flag parsing, before any instrumented
/// work runs.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Locks `mutex` even if a panicking thread poisoned it: the shared maps
/// hold only counter handles and span totals, which stay valid whatever
/// a panicking holder was doing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` metric.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter (no-op while collection is off).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter (no-op while collection is off).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns the process-wide counter registered under `name`, creating
/// it on first use. The handle is a cheap clone; cache it in a
/// `OnceLock` at hot call sites to skip the registry lock.
pub fn counter(name: &str) -> Counter {
    let mut map = lock(&registry().counters);
    map.entry(name.to_string())
        .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
        .clone()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One node of the process span tree: total inclusive nanoseconds,
/// number of completed spans, and child nodes keyed by span name.
///
/// Self-time is implicit: `total_ns` minus the sum of child totals is
/// the time attributed to this node's own code. Construction
/// guarantees the children never sum past the parent (they are
/// strictly nested on one thread), and [`SpanNode::absorb`] preserves
/// that invariant node-by-node — [`MetricsSnapshot::check_attribution`]
/// verifies it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Total inclusive time across all completed spans at this node.
    pub total_ns: u64,
    /// How many spans completed at this node.
    pub count: u64,
    /// Child spans, keyed by name, in deterministic order.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Merges `other` into `self`: totals and counts add, children
    /// merge recursively. Associative and commutative, with the empty
    /// node as identity.
    pub fn absorb(&mut self, other: &SpanNode) {
        self.total_ns += other.total_ns;
        self.count += other.count;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().absorb(child);
        }
    }

    /// True when nothing has been recorded at or below this node.
    pub fn is_empty(&self) -> bool {
        self.total_ns == 0 && self.count == 0 && self.children.is_empty()
    }

    /// Inclusive time minus the children's totals: the time spent in
    /// this span's own code.
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.values().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }
}

/// One node of a thread's private span tree, addressed by its index in
/// [`LocalSpans::nodes`].
#[derive(Default)]
struct LocalNode {
    name: &'static str,
    total_ns: u64,
    count: u64,
    children: Vec<usize>,
}

/// A thread's span tree as an arena (index 0 is the synthetic root,
/// added by the first span) and its open spans, innermost last, each
/// with the node it adds to when it closes.
#[derive(Default)]
struct LocalSpans {
    nodes: Vec<LocalNode>,
    stack: Vec<(usize, Instant)>,
}

impl LocalSpans {
    /// The node for a span named `name` under the innermost open span,
    /// created on first use.
    fn node(&mut self, name: &'static str) -> usize {
        if self.nodes.is_empty() {
            self.nodes.push(LocalNode::default());
        }
        let parent = self.stack.last().map_or(0, |&(i, _)| i);
        let children = &self.nodes[parent].children;
        if let Some(&i) = children.iter().find(|&&c| self.nodes[c].name == name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(LocalNode {
            name,
            ..LocalNode::default()
        });
        self.nodes[parent].children.push(i);
        i
    }

    /// Converts the arena below `i` into a [`SpanNode`] tree.
    fn tree(&self, i: usize) -> SpanNode {
        let node = &self.nodes[i];
        SpanNode {
            total_ns: node.total_ns,
            count: node.count,
            children: node
                .children
                .iter()
                .map(|&c| (self.nodes[c].name.to_owned(), self.tree(c)))
                .collect(),
        }
    }

    /// Takes the finished tree, emptying the arena.
    fn take(&mut self) -> SpanNode {
        let tree = self.tree(0);
        self.nodes.clear();
        tree
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::default());
}

fn global_spans() -> &'static Mutex<SpanNode> {
    static GLOBAL: OnceLock<Mutex<SpanNode>> = OnceLock::new();
    GLOBAL.get_or_init(Mutex::default)
}

/// RAII guard returned by [`span`]; records the elapsed time into the
/// thread-local tree when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let flush = LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            let (i, start) = local.stack.pop()?;
            let node = &mut local.nodes[i];
            node.total_ns += start.elapsed().as_nanos() as u64;
            node.count += 1;
            local.stack.is_empty().then(|| local.take())
        });
        // Only the outermost span on a thread pays the global lock,
        // and it carries the whole finished subtree in one absorb.
        if let Some(tree) = flush {
            lock(global_spans()).absorb(&tree);
        }
    }
}

/// Opens a named span on the current thread. While collection is off
/// this returns an inert guard (one atomic load, no clock read).
///
/// Spans nest lexically: guards dropped in reverse creation order form
/// parent/child edges in the merged tree. Each thread accumulates into
/// a private tree and merges it into the process tree only when its
/// outermost span closes.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        let i = local.node(name);
        local.stack.push((i, Instant::now()));
    });
    SpanGuard { active: true }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of every counter and the full span tree: what
/// `--metrics` renders and writes to `metrics.json`, next to the run's
/// own record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name (zero-valued counters are omitted).
    pub counters: BTreeMap<String, u64>,
    /// Root of the span tree. The root itself is synthetic
    /// (`count == 0`); real spans start at its children.
    pub spans: SpanNode,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no counters and no spans.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    /// Verifies the attribution invariant on every recorded span: a
    /// node's children may never account for more time than the node
    /// itself measured, so every nanosecond belongs to exactly one
    /// leaf (self-time counts as an implicit leaf). Mirrors
    /// `FetchReport::check_attribution`.
    pub fn check_attribution(&self) -> Result<(), String> {
        fn walk(path: &str, node: &SpanNode) -> Result<(), String> {
            let kids: u64 = node.children.values().map(|c| c.total_ns).sum();
            if node.count > 0 && kids > node.total_ns {
                return Err(format!(
                    "span {path}: children account for {kids}ns but the span only measured {}ns",
                    node.total_ns
                ));
            }
            for (name, child) in &node.children {
                let child_path = if path.is_empty() {
                    name.clone()
                } else {
                    format!("{path}/{name}")
                };
                walk(&child_path, child)?;
            }
            Ok(())
        }
        walk("", &self.spans)
    }

    /// Serializes the snapshot as versioned JSON (the `metrics.json`
    /// schema), with `report` — the caller's run record, already
    /// serialized as a JSON value — under the `report` key. Keys are
    /// sorted, output is deterministic.
    pub fn to_json(&self, report: &str) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        fn span_json(node: &SpanNode, out: &mut String) {
            let _ = write!(
                out,
                "{{\"total_ns\":{},\"count\":{}",
                node.total_ns, node.count
            );
            if !node.children.is_empty() {
                out.push_str(",\"children\":{");
                for (i, (name, child)) in node.children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", esc(name));
                    span_json(child, out);
                }
                out.push('}');
            }
            out.push('}');
        }

        let mut out = String::new();
        let _ = write!(out, "{{\"version\":{SNAPSHOT_VERSION},\"report\":{report}");
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(name), v);
        }
        out.push_str("},\"spans\":");
        span_json(&self.spans, &mut out);
        out.push('}');
        out
    }

    /// Renders `report` (the caller's run record, one line), the span
    /// tree and the top counters as an indented text block, the
    /// `--metrics text` output.
    pub fn render_text(&self, report: &str) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.3}ms", ns as f64 / 1e6)
        }
        fn tree(node: &SpanNode, depth: usize, out: &mut String) {
            for (name, child) in &node.children {
                let label = format!("{}{}", "  ".repeat(depth), name);
                let _ = writeln!(
                    out,
                    "  {label:<32} {:>12} x{}",
                    ms(child.total_ns),
                    child.count
                );
                tree(child, depth + 1, out);
            }
        }

        let mut out = String::new();
        out.push_str("telemetry\n");
        let _ = writeln!(out, "run report:\n  {report}");
        if !self.spans.children.is_empty() {
            out.push_str("spans (inclusive time, completions):\n");
            tree(&self.spans, 0, &mut out);
        }
        if !self.counters.is_empty() {
            out.push_str("top counters:\n");
            let mut rows: Vec<(&String, &u64)> = self.counters.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            const SHOWN: usize = 24;
            for (name, v) in rows.iter().take(SHOWN) {
                let _ = writeln!(out, "  {name:<32} {v:>14}");
            }
            if rows.len() > SHOWN {
                let _ = writeln!(out, "  ... and {} more", rows.len() - SHOWN);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Process-level collection
// ---------------------------------------------------------------------------

/// Captures everything recorded so far: the live registry and the
/// process span tree. A thread's spans join the process tree when its
/// outermost span closes, so spans still open are not included.
///
/// Zero-valued counters are omitted so that which handles happened to
/// be *registered* (vs actually used) never shows up in run-to-run
/// comparisons.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, c) in lock(&registry().counters).iter() {
        let v = c.value();
        if v > 0 {
            snap.counters.insert(name.clone(), v);
        }
    }
    snap.spans = lock(global_spans()).clone();
    snap
}

/// Clears every counter and the span tree. For
/// benches and tests that measure deltas.
pub fn reset() {
    for c in lock(&registry().counters).values() {
        c.0.store(0, Ordering::Relaxed);
    }
    *lock(global_spans()) = SpanNode::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry + span state is process-global; tests that touch it
    // serialize on this lock (tests on hand-built snapshots don't need
    // it).
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_are_inert_while_disabled() {
        let _g = test_guard();
        reset();
        set_enabled(false);
        let c = counter("test.disabled");
        c.add(5);
        c.incr();
        assert_eq!(c.value(), 0);
        set_enabled(true);
        c.add(2);
        assert_eq!(c.value(), 2);
        set_enabled(false);
        reset();
    }

    #[test]
    fn spans_nest_and_pass_attribution() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                std::hint::black_box(0u64);
            }
        }
        let snap = snapshot();
        let outer = &snap.spans.children["outer"];
        assert_eq!(outer.count, 1);
        let inner = &outer.children["inner"];
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(snap.check_attribution().is_ok());
        set_enabled(false);
        reset();
    }

    #[test]
    fn threads_merge_into_one_tree() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _sp = span("worker");
                    let _in = span("step");
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.spans.children["worker"].count, 4);
        assert_eq!(snap.spans.children["worker"].children["step"].count, 4);
        assert!(snap.check_attribution().is_ok());
        set_enabled(false);
        reset();
    }

    #[test]
    fn spans_resolve_by_path_across_flushes() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        {
            let _a = span("a");
            drop(span("x"));
            {
                let _b = span("b");
                let _x = span("x");
            }
            drop(span("x"));
        }
        {
            // A second outermost span starts from a fresh local tree.
            let _a = span("a");
            let _x = span("x");
        }
        let snap = snapshot();
        assert_eq!(snap.spans.children.len(), 1);
        let a = &snap.spans.children["a"];
        assert_eq!(a.count, 2);
        assert_eq!(a.children["x"].count, 3);
        assert_eq!(a.children["b"].count, 1);
        assert_eq!(a.children["b"].children["x"].count, 1);
        assert!(snap.check_attribution().is_ok());
        set_enabled(false);
        reset();
    }

    #[test]
    fn poisoned_locks_still_count_and_record() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let c = counter("test.poisoned");
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _counters = lock(&registry().counters);
                let _spans = lock(global_spans());
                panic!("a thread dies holding both telemetry locks");
            });
            assert!(poisoner.join().is_err());
        });
        c.incr();
        counter("test.poisoned").incr();
        drop(span("after_poison"));
        let snap = snapshot();
        assert_eq!(snap.counters["test.poisoned"], 2);
        assert_eq!(snap.spans.children["after_poison"].count, 1);
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_guard();
        reset();
        set_enabled(false);
        {
            let _sp = span("ghost");
        }
        assert!(snapshot().spans.is_empty());
        reset();
    }

    #[test]
    fn attribution_violation_is_reported() {
        let mut snap = MetricsSnapshot::default();
        let mut parent = SpanNode {
            total_ns: 10,
            count: 1,
            children: BTreeMap::new(),
        };
        parent.children.insert(
            "child".into(),
            SpanNode {
                total_ns: 11,
                count: 1,
                children: BTreeMap::new(),
            },
        );
        snap.spans.children.insert("parent".into(), parent);
        let err = snap.check_attribution().unwrap_err();
        assert!(err.contains("parent"), "{err}");
        assert!(err.contains("11ns"), "{err}");
    }

    #[test]
    fn json_is_versioned_and_deterministic() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("b.two".into(), 2);
        snap.counters.insert("a.one".into(), 1);
        snap.spans.children.insert(
            "root".into(),
            SpanNode {
                total_ns: 42,
                count: 1,
                children: BTreeMap::new(),
            },
        );
        let json = snap.to_json("{\"replays\":3}");
        assert!(
            json.starts_with("{\"version\":2,\"report\":{\"replays\":3},\"counters\""),
            "{json}"
        );
        // Sorted keys: a.one before b.two.
        assert!(json.find("a.one").unwrap() < json.find("b.two").unwrap());
        assert!(json.contains("\"spans\":{\"total_ns\":0,\"count\":0,\"children\":{\"root\":{\"total_ns\":42,\"count\":1}}}"));
        assert_eq!(json, snap.clone().to_json("{\"replays\":3}"));
    }

    #[test]
    fn render_text_lists_spans_and_counters() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("tool.gshare.on_batch_calls".into(), 9);
        snap.spans.children.insert(
            "sweep".into(),
            SpanNode {
                total_ns: 2_000_000,
                count: 1,
                children: BTreeMap::new(),
            },
        );
        let text = snap.render_text("replays: 1 | generations: 0");
        assert!(
            text.contains("run report:\n  replays: 1 | generations: 0\n"),
            "{text}"
        );
        assert!(text.contains("sweep"), "{text}");
        assert!(text.contains("2.000ms"), "{text}");
        assert!(text.contains("tool.gshare.on_batch_calls"), "{text}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a span tree from generated (slot, value) pairs: slots
    /// map onto a small fixed name space so paths collide and
    /// [`SpanNode::absorb`] folds many spans into one node.
    fn snap_from(parts: &[(u8, u16)]) -> MetricsSnapshot {
        const NAMES: [&str; 4] = ["a.x", "a.y_ns", "b.x", "b.z"];
        let mut snap = MetricsSnapshot::default();
        for &(slot, v) in parts {
            let name = NAMES[(slot % 4) as usize];
            let mut node = SpanNode {
                total_ns: v as u64 + 1,
                count: 1,
                children: BTreeMap::new(),
            };
            if slot % 2 == 0 {
                node.children.insert(
                    "leaf".into(),
                    SpanNode {
                        total_ns: (v as u64) / 2,
                        count: 1,
                        children: BTreeMap::new(),
                    },
                );
            }
            snap.spans
                .children
                .entry(name.into())
                .or_default()
                .absorb(&node);
        }
        snap
    }

    proptest! {
        #[test]
        fn absorbed_spans_keep_attribution(
            xs in proptest::collection::vec((0u8..12, 0u16..1000), 0..40),
        ) {
            prop_assert!(snap_from(&xs).check_attribution().is_ok());
        }
    }
}
