//! The sweep engine: replay each trace **once**, feed every tool.
//!
//! The naive way to sweep N hardware configurations over a trace is N
//! replays — the cost the HPM-engineering literature warns about when
//! one instruction stream is measured with many counter sets. The
//! engine inverts that: a [`ToolSet`] fans a single replay out to all N
//! tools, and independent `(workload, scale)` items run in parallel on
//! a shared [`Executor`]. Sweep cost drops from
//! `O(tools × replays)` to `O(replays)`.

use std::sync::atomic::{AtomicU64, Ordering};

use rebalance_telemetry as telemetry;

use crate::cache::{CacheError, CachedReplay, TraceCache, TraceKey};
use crate::exec::RunSummary;
use crate::executor::Executor;
use crate::observer::Pintool;
use crate::report::{LaneFill, Report};
use crate::sampling::{Fingerprinter, SamplePlan, SampledReplay, SamplingConfig};
use crate::schedule::SyntheticTrace;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::toolset::ToolSet;

/// The result of sweeping one item: the item itself, its tools (now
/// holding their accumulated measurements), and the replay summary.
#[derive(Debug)]
pub struct SweepOutcome<I, T> {
    /// The swept item (typically a workload).
    pub item: I,
    /// The tools after observing the item's full trace, in the order
    /// the tool factory produced them.
    pub tools: Vec<T>,
    /// Interpreter summary of the single shared replay.
    pub summary: RunSummary,
}

/// The result of sampling one item: like [`SweepOutcome`], plus the
/// sampling plan and how many instructions were actually delivered
/// (one [`SweepEngine::replay_sampled`] with its item).
#[derive(Debug)]
pub struct SampledOutcome<I, T> {
    /// The swept item (typically a workload).
    pub item: I,
    /// The tools after observing the weighted representative replay.
    pub tools: Vec<T>,
    /// Summary of the **full** stream, as the plan pass's full decode
    /// validated it (the sampled replay decodes only its windows — see
    /// [`Snapshot::replay_sampled`]).
    pub summary: RunSummary,
    /// Instructions delivered to the tools (representatives only).
    pub delivered_instructions: u64,
    /// The plan the replay followed.
    pub plan: SamplePlan,
}

/// Replays traces once per item through fan-out tool sets, in parallel
/// across items: [`SweepEngine::map`] schedules the items and
/// [`SweepEngine::fan_out`] (live), [`SweepEngine::fan_out_cached`] or
/// [`SweepEngine::replay_sampled`] (a snapshot's weighted
/// representatives) replays each one.
///
/// The engine counts every replay it performs ([`SweepEngine::replays`]),
/// which is how tests assert the one-replay-per-item guarantee, and
/// every event its tool sets received in batches
/// ([`SweepEngine::lanes`]).
///
/// # Examples
///
/// Sweep two tools over one synthetic trace in a single pass (a `Vec`
/// of tools of one concrete type forms the fan-out):
///
/// ```
/// use rebalance_trace::{
///     CondBehavior, IterCount, Phase, Pintool, ProgramBuilder, Schedule, Section,
///     SweepEngine, SyntheticTrace, Terminator, TraceEvent,
/// };
///
/// #[derive(Default)]
/// struct Counter(u64);
/// impl Pintool for Counter {
///     fn on_inst(&mut self, _ev: &TraceEvent) {
///         self.0 += 1;
///     }
/// }
///
/// let mut b = ProgramBuilder::new();
/// let region = b.region("hot");
/// let body = b.reserve_block();
/// let exit = b.reserve_block();
/// b.define_block(body, region, 3, Terminator::Cond {
///     taken: body,
///     fall: exit,
///     behavior: CondBehavior::Loop { count: IterCount::Fixed(10) },
/// });
/// b.define_block(exit, region, 1, Terminator::Exit);
/// let program = b.build().unwrap();
/// let schedule = Schedule::new(vec![Phase::new(Section::Parallel, body, 1_000)]);
/// let trace = SyntheticTrace::new(program, schedule, 1);
///
/// let engine = SweepEngine::new();
/// let outcomes = engine.map(&[trace], |t| {
///     engine.fan_out(t, vec![Counter::default(), Counter::default()])
/// });
/// assert_eq!(engine.replays(), 1, "two tools, one replay");
/// let (tools, _summary) = &outcomes[0];
/// assert_eq!(tools[0].0, 1_000);
/// assert_eq!(tools[1].0, 1_000);
/// ```
#[derive(Debug, Default)]
pub struct SweepEngine {
    executor: Executor,
    replays: AtomicU64,
    generations: AtomicU64,
    lane_instructions: AtomicU64,
    lane_branches: AtomicU64,
}

impl SweepEngine {
    /// An engine on a machine-sized [`Executor`].
    pub fn new() -> Self {
        SweepEngine::default()
    }

    /// An engine on an explicit executor (e.g. single-threaded for
    /// deterministic ordering in tests).
    pub fn with_executor(executor: Executor) -> Self {
        SweepEngine {
            executor,
            ..SweepEngine::default()
        }
    }

    /// The executor items are scheduled on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Total trace replays this engine has performed: live
    /// ([`SweepEngine::fan_out`]), through a cache
    /// ([`SweepEngine::fan_out_cached`]) or phase-sampled
    /// ([`SweepEngine::replay_sampled`]). Every cache-mediated replay is
    /// one cache hit or one generation, so when all of a run's replays go
    /// through one engine and one cache, this equals the cache's hits
    /// plus generations.
    /// Scoped to this engine instance, so replays elsewhere in the
    /// process never pollute it.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Traces this engine synthesized outside a cache
    /// ([`SweepEngine::generate`]); a [`TraceCache`] counts its own.
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Synthesizes one trace through `make_trace` for replays outside
    /// a cache, counting it in [`SweepEngine::generations`].
    ///
    /// # Errors
    ///
    /// Whatever `make_trace` returns.
    pub fn generate(
        &self,
        make_trace: impl FnOnce() -> Result<SyntheticTrace, String>,
    ) -> Result<SyntheticTrace, String> {
        self.generations.fetch_add(1, Ordering::Relaxed);
        make_trace()
    }

    /// Events this engine's replays delivered in batches, and how many
    /// of them were branches.
    pub fn lanes(&self) -> LaneFill {
        LaneFill {
            instructions: self.lane_instructions.load(Ordering::Relaxed),
            branches: self.lane_branches.load(Ordering::Relaxed),
        }
    }

    /// Counts one finished replay through `set`: the replay itself and
    /// the events its batches carried.
    fn record<T>(&self, set: &ToolSet<T>) {
        let lanes = set.lanes();
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.lane_instructions
            .fetch_add(lanes.instructions, Ordering::Relaxed);
        self.lane_branches
            .fetch_add(lanes.branches, Ordering::Relaxed);
    }

    /// Replays `trace` once, feeding all `tools`; returns the tools and
    /// the replay summary. Every live replay goes through here, and the
    /// replay and its batched events are counted
    /// ([`SweepEngine::replays`], [`SweepEngine::lanes`]).
    pub fn fan_out<T: Pintool>(
        &self,
        trace: &SyntheticTrace,
        tools: Vec<T>,
    ) -> (Vec<T>, RunSummary) {
        let _replay_span = telemetry::span("replay");
        let mut set = ToolSet::from_tools(tools);
        let summary = trace.replay(&mut set);
        self.record(&set);
        (set.into_inner(), summary)
    }

    /// Replays the trace addressed by `key` once through all `tools`,
    /// serving the stream from `cache` when possible: on a hit no
    /// generation happens at all, on a miss the live replay is teed to
    /// disk for next time. The cached counterpart of
    /// [`SweepEngine::fan_out`].
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`]: generation failures, or a decode
    /// failure on a checksum-valid snapshot (a writer bug). Corrupt
    /// files and unwritable cache directories do **not** error — see
    /// [`TraceCache::replay_with`].
    pub fn fan_out_cached<T: Pintool>(
        &self,
        cache: &TraceCache,
        key: &TraceKey,
        make_trace: impl FnOnce() -> Result<SyntheticTrace, String>,
        tools: Vec<T>,
    ) -> Result<(Vec<T>, CachedReplay), CacheError> {
        let _replay_span = telemetry::span("replay");
        let mut set = ToolSet::from_tools(tools);
        let replay = cache.replay_with(key, make_trace, &mut set)?;
        self.record(&set);
        Ok((set.into_inner(), replay))
    }

    /// Replays the whole of an in-memory `snapshot` once through all
    /// `tools`: the full counterpart of [`SweepEngine::replay_sampled`],
    /// so one snapshot can serve a full and a sampled replay.
    ///
    /// # Errors
    ///
    /// A decode failure.
    pub fn replay_snapshot<T: Pintool>(
        &self,
        snapshot: &Snapshot<'_>,
        tools: Vec<T>,
    ) -> Result<(Vec<T>, RunSummary), SnapshotError> {
        let _replay_span = telemetry::span("replay");
        let mut set = ToolSet::from_tools(tools);
        let summary = snapshot.replay(&mut set)?;
        self.record(&set);
        Ok((set.into_inner(), summary))
    }

    /// Replays one item phase-sampled: fingerprints `snapshot` into a
    /// [`SamplePlan`] under `config`, then replays only the plan's
    /// weighted representatives through all `tools`
    /// ([`Snapshot::replay_sampled`]). Every command samples each
    /// `(workload, config)` once, so the plan is built where it is used
    /// and not kept. The sampled counterpart of
    /// [`SweepEngine::fan_out_cached`]; tools must be weight-aware
    /// ([`Pintool::supports_sampled_replay`]).
    ///
    /// # Errors
    ///
    /// A decode failure while building the plan or replaying its
    /// windows.
    pub fn replay_sampled<T: Pintool, FP: Fingerprinter>(
        &self,
        snapshot: &Snapshot<'_>,
        config: &SamplingConfig,
        tools: Vec<T>,
        fingerprinter: impl FnOnce() -> FP,
    ) -> Result<(Vec<T>, SampledReplay, SamplePlan), SnapshotError> {
        let _replay_span = telemetry::span("replay");
        let plan = {
            let _plan_span = telemetry::span("sampling.plan");
            SamplePlan::from_snapshot(snapshot, &mut fingerprinter(), config)?
        };
        let mut set = ToolSet::from_tools(tools);
        let replay = snapshot.replay_sampled(&mut set, &plan)?;
        self.record(&set);
        Ok((set.into_inner(), replay, plan))
    }

    /// This engine's replay and lane accounting as a printable
    /// [`Report`] (attach cache stats with [`Report::with_cache`]).
    pub fn report(&self) -> Report {
        Report::from_engine(self)
    }

    /// Parallel map over independent items on the engine's executor,
    /// results in item order: how a sweep schedules one
    /// [`SweepEngine::fan_out`] or [`SweepEngine::fan_out_cached`] per
    /// item, and how other work (e.g. full CMP simulations) shares the
    /// sweep's scheduling.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.executor.map(items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CondBehavior, IterCount, Program, Terminator};
    use crate::schedule::{Phase, Schedule};
    use crate::section::Section;
    use crate::ProgramBuilder;
    use crate::TraceEvent;

    fn tiny_trace(budget: u64, seed: u64) -> SyntheticTrace {
        let mut b = ProgramBuilder::new();
        let region = b.region("hot");
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.define_block(
            body,
            region,
            5,
            Terminator::Cond {
                taken: body,
                fall: exit,
                behavior: CondBehavior::Loop {
                    count: IterCount::Fixed(9),
                },
            },
        );
        b.define_block(exit, region, 1, Terminator::Exit);
        let program: Program = b.build().unwrap();
        let schedule = Schedule::new(vec![Phase::new(Section::Parallel, body, budget)]);
        SyntheticTrace::new(program, schedule, seed)
    }

    #[derive(Default, Clone)]
    struct PcSum(u64);

    impl Pintool for PcSum {
        fn on_inst(&mut self, ev: &TraceEvent) {
            self.0 = self.0.wrapping_add(ev.pc.as_u64());
        }
    }

    #[test]
    fn fan_out_feeds_every_tool_identically() {
        let engine = SweepEngine::new();
        let trace = tiny_trace(2_000, 3);
        let (tools, summary) = engine.fan_out(&trace, vec![PcSum::default(); 3]);
        assert_eq!(summary.instructions, 2_000);
        assert_eq!(engine.replays(), 1);
        assert_eq!(
            engine.lanes().instructions,
            2_000,
            "every event reached the set in a batch"
        );
        assert!(tools[0].0 > 0);
        assert!(tools.iter().all(|t| t.0 == tools[0].0));
    }

    #[test]
    fn sweep_replays_once_per_item_not_per_tool() {
        let engine = SweepEngine::new();
        let items: Vec<u64> = (0..7).collect();
        let outcomes = engine.map(&items, |&seed| {
            engine.fan_out(
                &tiny_trace(500 + 10 * seed, seed),
                vec![PcSum::default(); 11],
            )
        });
        assert_eq!(outcomes.len(), 7);
        assert_eq!(engine.replays(), 7, "7 items x 11 tools = 7 replays");
        for (seed, (tools, summary)) in items.iter().zip(&outcomes) {
            assert_eq!(tools.len(), 11);
            assert_eq!(
                summary.instructions,
                500 + 10 * seed,
                "item order preserved"
            );
        }
    }

    #[test]
    fn sweep_matches_sequential_single_tool_replays() {
        let engine = SweepEngine::with_executor(Executor::with_threads(1));
        let seeds = [1u64, 2];
        let outcomes = engine.map(&seeds, |&seed| {
            engine.fan_out(&tiny_trace(800, seed), vec![PcSum::default(); 2])
        });
        for (&seed, (tools, _)) in seeds.iter().zip(&outcomes) {
            let mut alone = PcSum::default();
            tiny_trace(800, seed).replay(&mut alone);
            for t in tools {
                assert_eq!(t.0, alone.0, "fan-out must be bit-identical");
            }
        }
    }

    #[test]
    fn sweep_cached_generates_once_then_serves_hits() {
        let cache = TraceCache::scratch().unwrap();
        let engine = SweepEngine::new();
        let items: Vec<u64> = (0..3).collect();
        let run = |engine: &SweepEngine| {
            engine.map(&items, |&i| {
                engine
                    .fan_out_cached(
                        &cache,
                        &TraceKey::new(format!("w{i}"), "t", i, 0),
                        || Ok(tiny_trace(300, i)),
                        vec![PcSum::default(); 2],
                    )
                    .unwrap()
            })
        };
        let cold = run(&engine);
        assert_eq!(cache.stats().generations, 3, "cold run generates each item");
        let warm = run(&engine);
        let stats = cache.stats();
        assert_eq!(stats.generations, 3, "warm run generates nothing new");
        assert_eq!(stats.hits, 3);
        assert_eq!(
            engine.replays(),
            6,
            "replays tick for hits and misses alike"
        );
        for ((a_tools, a), (b_tools, b)) in cold.iter().zip(&warm) {
            assert_eq!(a_tools[0].0, b_tools[0].0, "cached stream is identical");
            assert_eq!(a.summary, b.summary);
        }
        let report = engine.report().with_cache(&cache);
        assert_eq!(report.replays, 6);
        assert_eq!(report.generations(), 3);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Weight-aware instruction counter (mark/delta scaling).
    #[derive(Default, Clone)]
    struct WeightedCount {
        insts: u64,
        mark: u64,
        weight_calls: u64,
    }

    impl Pintool for WeightedCount {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.insts += 1;
        }

        fn on_sample_weight(&mut self, weight: u64) {
            self.insts = crate::weighted_add(self.mark, self.insts - self.mark, weight);
            self.mark = self.insts;
            self.weight_calls += 1;
        }

        fn supports_sampled_replay(&self) -> bool {
            true
        }
    }

    /// A fingerprinter that gives every interval the same vector, so
    /// all intervals collapse into one cluster.
    #[derive(Default)]
    struct ConstFp {
        interval: u64,
        seen: u64,
        vectors: Vec<Vec<f64>>,
    }

    impl Pintool for ConstFp {
        fn on_inst(&mut self, _ev: &TraceEvent) {
            self.seen += 1;
            if self.seen == self.interval {
                self.vectors.push(vec![1.0]);
                self.seen = 0;
            }
        }
    }

    impl crate::Fingerprinter for ConstFp {
        fn set_interval_insts(&mut self, insts: u64) {
            self.interval = insts;
        }

        fn finish(&mut self) -> Vec<Vec<f64>> {
            if self.seen > 0 {
                self.vectors.push(vec![1.0]);
            }
            std::mem::take(&mut self.vectors)
        }
    }

    /// Samples `tiny_trace(budget, seed)` once through `engine`, its
    /// snapshot served by `cache`.
    fn sample(
        engine: &SweepEngine,
        cache: &TraceCache,
        config: &SamplingConfig,
        (seed, budget): (u64, u64),
        tools: Vec<WeightedCount>,
    ) -> (Vec<WeightedCount>, SampledReplay, SamplePlan) {
        let key = TraceKey::new(format!("w{seed}"), "t", seed, 0);
        let owned = cache.snapshot(&key, || Ok(tiny_trace(budget, seed)));
        let owned = owned.unwrap();
        engine
            .replay_sampled(&owned.snapshot(), config, tools, ConstFp::default)
            .unwrap()
    }

    #[test]
    fn sweep_sampled_reproduces_totals_from_one_representative() {
        let cache = TraceCache::scratch().unwrap();
        let engine = SweepEngine::new();
        let config = crate::SamplingConfig::default()
            .with_intervals(10)
            .with_k(2);
        let run = |engine: &SweepEngine| {
            [1u64, 2].map(|seed| {
                let tools = vec![WeightedCount::default(); 2];
                sample(engine, &cache, &config, (seed, 2_000), tools)
            })
        };
        let cold = run(&engine);
        for (tools, replay, plan) in &cold {
            assert_eq!(
                replay.summary.instructions, 2_000,
                "full stream still decoded"
            );
            // Identical fingerprints: the pinned startup interval
            // (weight 1) plus one weight-9 cluster whose representative
            // is interval 1 — adjacent to the pin, so no warmup window.
            assert_eq!(plan.clusters().len(), 2);
            assert_eq!(plan.clusters()[0].weight, 1);
            assert_eq!(plan.clusters()[1].weight, 9);
            assert_eq!(replay.delivered_instructions, 400);
            for t in tools {
                assert_eq!(t.insts, 2_000, "weighted counts match the full replay");
                assert_eq!(t.weight_calls, 2);
            }
        }
        let generations = cache.stats().generations;
        assert_eq!(generations, 2, "one snapshot pass per item");

        let warm = run(&engine);
        assert_eq!(
            cache.stats().generations,
            2,
            "warm sweep regenerates nothing"
        );
        assert_eq!(engine.replays(), 4, "one replay per sampled item");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.0[0].insts, b.0[0].insts);
            assert_eq!(a.2, b.2, "a rebuilt plan is the same plan");
        }
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn sweep_sampled_degenerates_to_full_replay_for_large_k() {
        let cache = TraceCache::scratch().unwrap();
        let engine = SweepEngine::new();
        let config = crate::SamplingConfig::default()
            .with_intervals(4)
            .with_k(64);
        let tools = vec![WeightedCount::default()];
        let (tools, replay, plan) = sample(&engine, &cache, &config, (5, 1_000), tools);
        assert!(plan.is_full_replay());
        assert_eq!(replay.delivered_instructions, 1_000);
        assert_eq!(tools[0].insts, 1_000);
        assert_eq!(
            tools[0].weight_calls, 0,
            "degenerate plans take the unsampled path"
        );
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn map_shares_the_executor() {
        let engine = SweepEngine::new();
        let out = engine.map(&[1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(engine.replays(), 0, "map alone does not replay");
        assert!(engine.executor().threads() >= 1);
    }
}
