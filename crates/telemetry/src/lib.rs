//! Process-wide telemetry: a metrics registry and a hierarchical span
//! tree, read out as one [`MetricsSnapshot`] per process.
//!
//! The sweep pipeline runs its work on the executor's threads, and a
//! measurement is only trustworthy if it does not depend on which
//! thread did the work: every thread's spans fold into one tree
//! ([`SpanNode::absorb`] adds totals and counts node by node), and
//! registry metrics are shared atomics.
//!
//! Two primitives:
//!
//! * **Registry metrics** — [`Counter`], [`Gauge`], and [`Histogram`]
//!   handles addressable by stable dotted names (`cache.hits`,
//!   `replay.batches`). Handles are cheap `Arc`s over atomics;
//!   call sites cache them in `OnceLock` statics so the hot path is a
//!   single relaxed atomic op.
//! * **Spans** — [`span`] returns an RAII guard over a monotonic clock.
//!   Nested guards build a per-thread timing tree with **no global
//!   locks on the hot path**: a thread only touches the shared tree
//!   when its outermost span closes, merging its whole local subtree
//!   in one lock acquisition.
//!
//! Collection is off by default. It latches on when the
//! [`METRICS_ENV`] environment variable is set (to anything but `0` or
//! empty) or when [`set_enabled`] is called; while off, every
//! instrumentation call reduces to one relaxed atomic load and a
//! branch.
//!
//! Naming scheme: dotted lowercase segments, most-general first
//! (`cache.lock_wait_ns`). Metrics whose *value* is a duration carry a
//! `_ns` suffix; run-to-run comparisons treat those as
//! machine-dependent and compare them structurally, never by value.
//! Counters add; gauges record configuration-like values (e.g. batch
//! capacity); histograms count observations in log2 buckets.
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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Environment variable that latches telemetry collection on for the
/// whole process (any value except empty or `0`).
pub const METRICS_ENV: &str = "REBALANCE_METRICS";

/// Version stamp written into [`MetricsSnapshot::to_json`] output.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Number of log2 buckets in every [`Histogram`].
pub const HIST_BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENABLED_INIT: Once = Once::new();

fn init_enabled() {
    ENABLED_INIT.call_once(|| {
        if let Ok(v) = std::env::var(METRICS_ENV) {
            if !v.is_empty() && v != "0" {
                ENABLED.store(true, Ordering::Relaxed);
            }
        }
    });
}

/// Whether telemetry collection is currently on.
///
/// The first call consults [`METRICS_ENV`]; afterwards this is a single
/// relaxed atomic load, cheap enough for per-event call sites.
#[inline]
pub fn enabled() -> bool {
    init_enabled();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off for the whole process, overriding the
/// environment latch. Typically called once by a CLI front-end after
/// flag parsing, before any instrumented work runs.
pub fn set_enabled(on: bool) {
    init_enabled();
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry metrics
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

/// A last-writer-wins `i64` metric for configuration-like values
/// (thread counts, batch capacity).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Records `v` (no-op while collection is off).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A `u64` histogram with [`HIST_BUCKETS`] fixed log2 buckets: bucket
/// `i` counts observations whose bit width is `i` (values in
/// `[2^(i-1), 2^i)`), with zero landing in bucket 0 and anything with
/// the top bit set clamped into the last bucket.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Records one observation (no-op while collection is off).
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
            self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns the process-wide counter registered under `name`, creating
/// it on first use. The handle is a cheap clone; cache it in a
/// `OnceLock` at hot call sites to skip the registry lock.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("counter registry");
    map.entry(name.to_string())
        .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
        .clone()
}

/// Returns the process-wide gauge registered under `name`, creating it
/// on first use.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().expect("gauge registry");
    map.entry(name.to_string())
        .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
        .clone()
}

/// Returns the process-wide histogram registered under `name`,
/// creating it on first use.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().histograms.lock().expect("histogram registry");
    map.entry(name.to_string())
        .or_insert_with(|| {
            Histogram(Arc::new(HistogramInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }))
        })
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

#[derive(Default)]
struct LocalSpans {
    stack: Vec<(&'static str, Instant)>,
    root: SpanNode,
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
            let LocalSpans { stack, root } = &mut *local;
            let (name, start) = stack.pop()?;
            let elapsed = start.elapsed().as_nanos() as u64;
            let mut node = &mut *root;
            for (ancestor, _) in stack.iter() {
                node = node.children.entry((*ancestor).to_string()).or_default();
            }
            let leaf = node.children.entry(name.to_string()).or_default();
            leaf.total_ns += elapsed;
            leaf.count += 1;
            if stack.is_empty() {
                Some(std::mem::take(root))
            } else {
                None
            }
        });
        // Only the outermost span on a thread pays the global lock,
        // and it carries the whole finished subtree in one absorb.
        if let Some(tree) = flush {
            global_spans().lock().expect("span tree").absorb(&tree);
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
    LOCAL.with(|cell| cell.borrow_mut().stack.push((name, Instant::now())));
    SpanGuard { active: true }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram: total count, value sum, and
/// [`HIST_BUCKETS`] log2 bucket counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (`buckets[i]` holds values of bit
    /// width `i`; see [`Histogram`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper bound of the highest nonzero bucket (`2^i`), or 0 when
    /// the histogram is empty. A cheap tail indicator for rendering.
    pub fn max_bound(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(0) | None => 0,
            Some(i) if i >= 63 => u64::MAX,
            Some(i) => 1u64 << i,
        }
    }
}

/// A point-in-time copy of every metric and the full span tree: what
/// `--metrics` renders and writes to `metrics.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name (zero-valued counters are omitted).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (zero-valued gauges are omitted).
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Root of the span tree. The root itself is synthetic
    /// (`count == 0`); real spans start at its children.
    pub spans: SpanNode,
}

impl MetricsSnapshot {
    /// True when the snapshot holds no metrics and no spans.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
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
    /// schema). Keys are sorted, output is deterministic.
    pub fn to_json(&self) -> String {
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
        let _ = write!(out, "{{\"version\":{SNAPSHOT_VERSION}");
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(name), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", esc(name), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                esc(name),
                h.count,
                h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("},\"spans\":");
        span_json(&self.spans, &mut out);
        out.push('}');
        out
    }

    /// Renders the span tree and top counters as an indented text
    /// block, the `--metrics text` output.
    pub fn render_text(&self) -> String {
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
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} count={} sum={} max<{}",
                    h.count,
                    h.sum,
                    h.max_bound()
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Process-level collection
// ---------------------------------------------------------------------------

/// Captures everything recorded so far: the live registry and the
/// process span tree (including this thread's finished spans).
///
/// Zero-valued counters/gauges and empty histograms are omitted so
/// that which handles happened to be *registered* (vs actually used)
/// never shows up in run-to-run comparisons.
pub fn snapshot() -> MetricsSnapshot {
    // Flush this thread's finished spans so a snapshot taken right
    // after the top-level span closes sees it.
    let local = LOCAL.with(|cell| std::mem::take(&mut cell.borrow_mut().root));
    if !local.is_empty() {
        global_spans().lock().expect("span tree").absorb(&local);
    }

    let mut snap = MetricsSnapshot::default();
    let reg = registry();
    for (name, c) in reg.counters.lock().expect("counter registry").iter() {
        let v = c.value();
        if v > 0 {
            snap.counters.insert(name.clone(), v);
        }
    }
    for (name, g) in reg.gauges.lock().expect("gauge registry").iter() {
        let v = g.value();
        if v != 0 {
            snap.gauges.insert(name.clone(), v);
        }
    }
    for (name, h) in reg.histograms.lock().expect("histogram registry").iter() {
        let hs = h.snapshot();
        if hs.count > 0 {
            snap.histograms.insert(name.clone(), hs);
        }
    }
    snap.spans = global_spans().lock().expect("span tree").clone();
    snap
}

/// Clears every counter, gauge, histogram, and the span tree. For
/// benches and tests that measure deltas.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().expect("gauge registry").values() {
        g.0.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.lock().expect("histogram registry").values() {
        h.reset();
    }
    *global_spans().lock().expect("span tree") = SpanNode::default();
    LOCAL.with(|cell| cell.borrow_mut().root = SpanNode::default());
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
    fn histogram_buckets_follow_bit_width() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);

        let _g = test_guard();
        reset();
        set_enabled(true);
        let h = histogram("test.hist");
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        let hs = h.snapshot();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1030);
        assert_eq!(hs.buckets[0], 1);
        assert_eq!(hs.buckets[1], 1);
        assert_eq!(hs.buckets[2], 2);
        assert_eq!(hs.buckets[11], 1);
        assert_eq!(hs.max_bound(), 2048);
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
        snap.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum: 5,
                buckets: vec![0, 0, 0, 1],
            },
        );
        snap.spans.children.insert(
            "root".into(),
            SpanNode {
                total_ns: 42,
                count: 1,
                children: BTreeMap::new(),
            },
        );
        let json = snap.to_json();
        assert!(json.starts_with("{\"version\":1"), "{json}");
        // Sorted keys: a.one before b.two.
        assert!(json.find("a.one").unwrap() < json.find("b.two").unwrap());
        assert!(json.contains("\"spans\":{\"total_ns\":0,\"count\":0,\"children\":{\"root\":{\"total_ns\":42,\"count\":1}}}"));
        assert_eq!(json, snap.clone().to_json());
    }

    #[test]
    fn render_text_lists_spans_and_counters() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("cache.hits".into(), 9);
        snap.spans.children.insert(
            "sweep".into(),
            SpanNode {
                total_ns: 2_000_000,
                count: 1,
                children: BTreeMap::new(),
            },
        );
        let text = snap.render_text();
        assert!(text.contains("sweep"), "{text}");
        assert!(text.contains("2.000ms"), "{text}");
        assert!(text.contains("cache.hits"), "{text}");
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
