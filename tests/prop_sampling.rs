//! Property-based invariants of the phase-sampling pipeline: random
//! fingerprint sets through the clusterer, degenerate plans over real
//! synthesized traces, and the windowed sampled replay against a
//! decode-everything-and-filter oracle — both its callbacks and what an
//! `ICacheSim` fed them reports, and what a `PredictorBank` and an
//! `ICacheBank` report against solo sims fed them. The predictor bank,
//! solo predictor sims and a `BtbSim` read only branches, so their
//! windows decode into branch-only batches: they too must report what
//! the oracle's per-event feed makes them report.

use proptest::prelude::*;
use rebalance::coresim::{CoreModel, FrontendKeys};
use rebalance::frontend::predictor::{DirectionPredictor, PredictorBank, PredictorSim};
use rebalance::frontend::{
    BtbConfig, BtbSim, CacheConfig, CoreKind, ICacheBank, ICacheSim, PredictorChoice,
};
use rebalance::isa::{Addr, InstClass, Outcome};
use rebalance::pintools::BbvTool;
use rebalance::trace::snapshot::{self, checksum, KIND_TABLE};
use rebalance::trace::{
    BranchEvent, EventBatch, FnTool, Need, Pintool, SamplePlan, SamplingConfig, Section, Snapshot,
    SnapshotError, SnapshotWriter, ToolSet, TraceEvent, DEFAULT_BATCH_CAPACITY,
};
use rebalance::Scale;

/// A snapshot of one roster workload at Smoke scale, parsed in place.
fn snapshot_of(name: &str) -> Vec<u8> {
    let w = rebalance::workloads::find(name).expect("roster workload");
    let trace = w.trace(Scale::Smoke).expect("valid roster profile");
    let (bytes, _) = snapshot::snapshot_bytes(&trace, 0).expect("snapshot serializes");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clustering is a pure function of `(vectors, geometry, seed)`:
    /// the same inputs always produce the identical plan.
    #[test]
    fn clustering_is_deterministic_for_a_fixed_seed(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 6),
            2..64,
        ),
        k in 1usize..12,
        seed in any::<u64>(),
    ) {
        let cfg = SamplingConfig::default().with_intervals(vectors.len()).with_k(k);
        let cfg = SamplingConfig { seed, ..cfg };
        let a = SamplePlan::from_vectors(&vectors, 100, vectors.len() as u64 * 100, &cfg);
        let b = SamplePlan::from_vectors(&vectors, 100, vectors.len() as u64 * 100, &cfg);
        prop_assert_eq!(a, b);
    }

    /// Cluster weights always sum to the interval count exactly — the
    /// weighted merge then scales counters by precisely the number of
    /// intervals each representative stands in for.
    #[test]
    fn cluster_weights_sum_to_the_interval_count(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 4),
            1..96,
        ),
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let cfg = SamplingConfig { seed, ..SamplingConfig::default() }
            .with_intervals(vectors.len())
            .with_k(k);
        let plan = SamplePlan::from_vectors(&vectors, 50, vectors.len() as u64 * 50, &cfg);
        let total: u64 = plan.clusters().iter().map(|c| c.weight).sum();
        prop_assert_eq!(total, vectors.len() as u64);
        prop_assert_eq!(plan.assignments().len(), vectors.len());
        // Every assignment points at a real cluster.
        for &a in plan.assignments() {
            prop_assert!((a as usize) < plan.clusters().len());
        }
    }

    /// `k >= #intervals` degenerates to a plan that IS the full replay:
    /// every interval its own weight-1 representative.
    #[test]
    fn k_at_least_interval_count_degenerates_to_full_replay(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 4),
            1..48,
        ),
        extra in 0usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = SamplingConfig { seed, ..SamplingConfig::default() }
            .with_intervals(vectors.len())
            .with_k(vectors.len() + extra);
        let plan = SamplePlan::from_vectors(&vectors, 10, vectors.len() as u64 * 10, &cfg);
        prop_assert!(plan.is_full_replay());
        prop_assert_eq!(plan.clusters().len(), vectors.len());
        for (i, c) in plan.clusters().iter().enumerate() {
            prop_assert_eq!(c.representative, i);
            prop_assert_eq!(c.weight, 1);
        }
    }
}

/// One solo sim per front-end structure of `model`: the one-of-each
/// reference its keyed families are checked against.
fn solo_sims(model: &CoreModel) -> (PredictorSim<Box<dyn DirectionPredictor>>, BtbSim, ICacheSim) {
    let frontend = model.frontend();
    (
        PredictorSim::new(frontend.predictor.build()),
        BtbSim::new(frontend.btb),
        ICacheSim::new(frontend.icache),
    )
}

/// A degenerate plan over a real trace is *bit-identical* to the full
/// replay: same tool reports, every instruction delivered. The keyed
/// families the core is priced from read the same as its solo sims,
/// sampled or not.
#[test]
fn degenerate_plan_replays_real_traces_bit_identically() {
    for name in ["CG", "k.branchy"] {
        let bytes = snapshot_of(name);
        let snap = Snapshot::parse(&bytes).expect("snapshot parses");
        let total = snap.info().summary.instructions;

        let cfg = SamplingConfig::default().with_intervals(16).with_k(16);
        let mut fp = BbvTool::new(cfg.dims);
        let plan = SamplePlan::from_snapshot(&snap, &mut fp, &cfg).expect("plan");
        assert!(
            plan.is_full_replay(),
            "{name}: k == intervals must degenerate"
        );

        let model = CoreModel::new(CoreKind::Baseline);
        let mut full = solo_sims(&model);
        snap.replay(&mut full).expect("full replay");
        let mut sampled = solo_sims(&model);
        let replay = snap
            .replay_sampled(&mut sampled, &plan)
            .expect("sampled replay");
        let keys = FrontendKeys::of(&[model]);
        let mut families = keys.tools();
        snap.replay_sampled(&mut families, &plan)
            .expect("sampled replay");
        let backend = rebalance::workloads::find(name).unwrap().profile().backend;
        assert_eq!(
            keys.reports(&families).timing(&model, &backend),
            model.timing(
                &sampled.0.report(),
                &sampled.1.report(),
                &sampled.2.report(),
                &backend
            ),
            "{name}: the families price like the solo sims"
        );

        assert_eq!(
            replay.delivered_instructions, total,
            "{name}: all delivered"
        );
        assert_eq!(
            format!(
                "{:?}",
                (&full.0.report(), &full.1.report(), &full.2.report())
            ),
            format!(
                "{:?}",
                (
                    &sampled.0.report(),
                    &sampled.1.report(),
                    &sampled.2.report()
                )
            ),
            "{name}: degenerate sampled replay must be bit-identical"
        );
    }
}

/// Interval size 1 (as many intervals as instructions) loses no events:
/// decoding still sees the whole stream, weights still cover every
/// instruction, and the delivered count matches the plan's promise.
#[test]
fn interval_size_one_loses_no_events() {
    let bytes = snapshot_of("k.triad");
    let snap = Snapshot::parse(&bytes).expect("snapshot parses");
    let total = snap.info().summary.instructions;

    let cfg = SamplingConfig::default()
        .with_intervals(total as usize)
        .with_k(8);
    let mut fp = BbvTool::new(cfg.dims);
    let plan = SamplePlan::from_snapshot(&snap, &mut fp, &cfg).expect("plan");
    assert_eq!(plan.interval_insts(), 1, "one instruction per interval");
    assert_eq!(plan.num_intervals() as u64, total);
    let weights: u64 = plan.clusters().iter().map(|c| c.weight).sum();
    assert_eq!(weights, total, "every instruction is weighted exactly once");

    let model = CoreModel::new(CoreKind::Baseline);
    let mut tools = solo_sims(&model);
    let replay = snap
        .replay_sampled(&mut tools, &plan)
        .expect("sampled replay");
    assert_eq!(
        replay.summary.instructions, total,
        "the summary covers the full trace"
    );
    assert_eq!(
        replay.delivered_instructions,
        plan.replayed_instructions(),
        "delivered exactly the planned windows"
    );
}

/// One observable tool callback, with a batch's full contents.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Inst(TraceEvent),
    SectionStart(Section),
    Batch {
        events: Vec<TraceEvent>,
        starts: Vec<(u32, Section)>,
    },
    Weight(u64),
    Gap,
}

/// A weight-aware tool that logs every callback it receives.
#[derive(Default)]
struct CallLog(Vec<Call>);

impl Pintool for CallLog {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.0.push(Call::Inst(*ev));
    }

    fn on_section_start(&mut self, section: Section) {
        self.0.push(Call::SectionStart(section));
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        let mut events = Vec::new();
        batch.replay_into(&mut FnTool::new(|ev: &TraceEvent| events.push(*ev)));
        self.0.push(Call::Batch {
            events,
            starts: batch.section_starts().to_vec(),
        });
    }

    fn on_sample_weight(&mut self, weight: u64) {
        self.0.push(Call::Weight(weight));
    }

    fn on_sample_gap(&mut self) {
        self.0.push(Call::Gap);
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }
}

/// The reference sampled delivery: a per-event pass over the **whole**
/// stream that forwards only the events of the plan's windows, batching
/// them at the given capacity, and announces each window's weight (0
/// after a warmup prefix, the cluster weight after the representative)
/// and each gap at the point the windowed replay must.
struct FilterOracle<'a> {
    tool: &'a mut CallLog,
    plan: &'a SamplePlan,
    batch: EventBatch,
    /// Instructions seen so far (interval cursor).
    decoded: u64,
    /// Instructions forwarded to the tool.
    delivered: u64,
    /// Next entry of `plan.clusters()` to deliver.
    next_rep: usize,
}

impl FilterOracle<'_> {
    fn window(&self) -> Option<(u64, u64, u64)> {
        (self.next_rep < self.plan.clusters().len()).then(|| self.plan.window(self.next_rep))
    }

    fn close_rep(&mut self) {
        self.batch.flush_into(self.tool);
        let weight = self.plan.clusters()[self.next_rep].weight;
        let end = self.plan.window(self.next_rep).2;
        self.tool.on_sample_weight(weight);
        self.next_rep += 1;
        match self.window() {
            Some((warm, _, _)) if warm == end => {}
            _ => self.tool.on_sample_gap(),
        }
    }

    fn finish(mut self) -> u64 {
        if let Some((warm, start, _)) = self.window() {
            if self.decoded > start {
                self.close_rep();
            } else if self.decoded > warm {
                self.batch.flush_into(self.tool);
                self.tool.on_sample_weight(0);
            }
        }
        self.batch.flush_into(self.tool);
        self.delivered
    }
}

impl Pintool for FilterOracle<'_> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        if let Some((warm, start, end)) = self.window() {
            if self.decoded >= warm {
                self.batch.push(*ev);
                self.delivered += 1;
                if self.batch.is_full() {
                    self.batch.flush_into(self.tool);
                }
                if self.decoded + 1 == start {
                    self.batch.flush_into(self.tool);
                    self.tool.on_sample_weight(0);
                } else if self.decoded + 1 == end {
                    self.close_rep();
                }
            }
        }
        self.decoded += 1;
    }

    fn on_section_start(&mut self, section: Section) {
        if let Some((warm, _, end)) = self.window() {
            if self.decoded >= warm && self.decoded < end {
                if self.batch.is_full() {
                    self.batch.flush_into(self.tool);
                }
                self.batch.push_section_start(section);
            }
        }
    }
}

/// The oracle's call log and delivered count for `plan` at `capacity`.
/// A full-replay plan is plain batched replay, as for the real thing.
fn oracle(snap: &Snapshot<'_>, plan: &SamplePlan, capacity: usize) -> (Vec<Call>, u64) {
    let mut log = CallLog::default();
    if plan.is_full_replay() {
        let summary = snap
            .replay_batched(&mut log, capacity)
            .expect("full replay");
        return (log.0, summary.instructions);
    }
    let mut filter = FilterOracle {
        tool: &mut log,
        plan,
        batch: EventBatch::with_capacity(capacity),
        decoded: 0,
        delivered: 0,
        next_rep: 0,
    };
    snap.replay_per_event(&mut filter).expect("oracle decode");
    let delivered = filter.finish();
    (log.0, delivered)
}

/// What a plan's geometry exercises, for coverage assertions.
#[derive(Debug, Default)]
struct Coverage {
    adjacent: bool,
    gap: bool,
    short_tail: bool,
    warmup: bool,
    full_replay: bool,
    /// Some representative stands in for more than one interval.
    weighted: bool,
}

impl Coverage {
    fn note(&mut self, plan: &SamplePlan) {
        let n = plan.clusters().len();
        for i in 1..n {
            let prev_end = plan.window(i - 1).2;
            let (warm, start, _) = plan.window(i);
            self.adjacent |= warm == prev_end;
            self.gap |= warm != prev_end;
            self.warmup |= warm < start;
        }
        self.short_tail |= !plan
            .total_instructions()
            .is_multiple_of(plan.interval_insts());
        self.full_replay |= plan.is_full_replay();
        self.weighted |= plan.clusters().iter().any(|c| c.weight > 1);
    }
}

/// Feeds an oracle call log into `tool` one event at a time: each
/// batch's section starts and events in order, then weights and gaps
/// where they fell.
fn feed_per_event<T: Pintool>(calls: &[Call], tool: &mut T) {
    for call in calls {
        match call {
            Call::Inst(ev) => tool.on_inst(ev),
            Call::SectionStart(section) => tool.on_section_start(*section),
            Call::Batch { events, starts } => {
                let mut starts = starts.iter().peekable();
                for (at, ev) in events.iter().enumerate() {
                    while let Some(&(_, section)) = starts.next_if(|&&(pos, _)| pos as usize <= at)
                    {
                        tool.on_section_start(section);
                    }
                    tool.on_inst(ev);
                }
                for &(_, section) in starts {
                    tool.on_section_start(section);
                }
            }
            Call::Weight(weight) => tool.on_sample_weight(*weight),
            Call::Gap => tool.on_sample_gap(),
        }
    }
}

/// Asserts that a windowed replay into an `ICacheSim` at `capacity`
/// reports exactly what the same sim reports when fed `oracle_calls`
/// one event at a time, usefulness compared as `f64` bits. Window
/// edges and gaps land mid-line, so the sim's batched line buffer must
/// flush at every batch end and restart after a gap. The sims are
/// small caches that evict often, with and without next-line prefetch;
/// in the one-line cache every prefetch evicts the line being fetched
/// from. One `ICacheBank` over every geometry (32, 64 and 128 B lines,
/// one of them twice) must report the same as the per-event solo sims,
/// its members scaled by each representative's weight.
fn assert_icache_matches_oracle(
    label: &str,
    snap: &Snapshot<'_>,
    plan: &SamplePlan,
    capacity: usize,
    oracle_calls: &[Call],
) {
    let keys = [
        (1024, 64, 2, false),
        (1024, 64, 2, true),
        (64, 64, 1, false),
        (64, 64, 1, true),
        (512, 32, 2, false),
        (1024, 128, 2, false),
        (1024, 64, 2, false),
    ];
    let config =
        |(size, line, assoc, _): (usize, usize, usize, bool)| CacheConfig::new(size, line, assoc);
    let mut expected_all = Vec::new();
    for key in keys {
        let (size, line, assoc, prefetch) = key;
        let sim = || {
            let sim = ICacheSim::new(config(key));
            if prefetch {
                sim.with_next_line_prefetch()
            } else {
                sim
            }
        };
        let mut expected = sim();
        feed_per_event(oracle_calls, &mut expected);
        let mut windowed = sim();
        snap.replay_sampled_batched(&mut windowed, plan, capacity)
            .unwrap_or_else(|e| panic!("{label} cap {capacity}: {e}"));
        let (expected, got) = (expected.report(), windowed.report());
        let label = format!("{label} cap {capacity} {size}/{line}/{assoc} prefetch {prefetch}");
        assert_eq!(got.sections, expected.sections, "{label}: i-cache stats");
        assert_eq!(
            got.usefulness.to_bits(),
            expected.usefulness.to_bits(),
            "{label}: usefulness"
        );
        expected_all.push((key, expected));
    }
    let configs_where = |prefetch: bool| -> Vec<CacheConfig> {
        let keys = keys.iter().filter(|k| k.3 == prefetch);
        keys.map(|&k| config(k)).collect()
    };
    let mut bank =
        ICacheBank::new(&configs_where(false)).with_next_line_prefetch(&configs_where(true));
    snap.replay_sampled_batched(&mut bank, plan, capacity)
        .unwrap_or_else(|e| panic!("{label} cap {capacity}: {e}"));
    let bank_keys = (keys.iter().filter(|k| !k.3)).chain(keys.iter().filter(|k| k.3));
    for (key, got) in bank_keys.zip(bank.reports()) {
        let expected = &expected_all.iter().find(|(k, _)| k == key).unwrap().1;
        let label = format!("{label} cap {capacity} bank {key:?}");
        assert_eq!(got.sections, expected.sections, "{label}: i-cache stats");
        assert_eq!(
            got.usefulness.to_bits(),
            expected.usefulness.to_bits(),
            "{label}: usefulness"
        );
    }
}

/// Asserts that a windowed replay into a `PredictorBank` over the nine
/// Figure 5 configurations at `capacity` reports exactly what nine solo
/// `PredictorSim`s report when fed `oracle_calls` one event at a time:
/// each member scales its own window counts by the representative's
/// weight, exactly as its solo sim does. The nine solo sims and a small
/// `BtbSim`, replayed windowed, report what they report fed the oracle.
/// All of these read only branches, so the windowed replays decode
/// into branch-only batches.
fn assert_bank_matches_oracle(
    label: &str,
    snap: &Snapshot<'_>,
    plan: &SamplePlan,
    capacity: usize,
    oracle_calls: &[Call],
) {
    let choices = PredictorChoice::figure5_set();
    let btb = || BtbSim::new(BtbConfig::new(16, 2));
    let mut solo = ToolSet::from_tools(PredictorChoice::build_sims(&choices));
    let mut oracle_btb = btb();
    feed_per_event(oracle_calls, &mut (&mut solo, &mut oracle_btb));
    let expected: Vec<_> = solo.iter().map(|s| s.report()).collect();
    let mut bank = PredictorBank::new(&choices);
    let mut windowed = (
        ToolSet::from_tools(PredictorChoice::build_sims(&choices)),
        btb(),
    );
    for tools in [&mut bank as &mut dyn Pintool, &mut windowed] {
        assert_eq!(tools.need(), Need::Branches, "{label}: branch-only tools");
        snap.replay_sampled_batched(tools, plan, capacity)
            .unwrap_or_else(|e| panic!("{label} cap {capacity}: {e}"));
    }
    assert_eq!(bank.reports(), expected, "{label} cap {capacity}: bank");
    let solo_windowed: Vec<_> = windowed.0.iter().map(|s| s.report()).collect();
    assert_eq!(solo_windowed, expected, "{label} cap {capacity}: solo sims");
    assert_eq!(
        windowed.1.report(),
        oracle_btb.report(),
        "{label} cap {capacity}: BTB"
    );
}

/// Asserts the windowed replay's call log, delivered count and summary
/// match the oracle's for `plan`, and that `ICacheSim`s, an `ICacheBank`
/// and a `PredictorBank` report the same either way
/// ([`assert_icache_matches_oracle`], [`assert_bank_matches_oracle`]),
/// at batch capacities 1, 7 and the default.
fn assert_matches_oracle(label: &str, snap: &Snapshot<'_>, plan: &SamplePlan) {
    for capacity in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
        let (expected, expected_delivered) = oracle(snap, plan, capacity);
        let mut log = CallLog::default();
        let replay = snap
            .replay_sampled_batched(&mut log, plan, capacity)
            .unwrap_or_else(|e| panic!("{label} cap {capacity}: {e}"));
        if let Some(at) =
            (0..expected.len().max(log.0.len())).find(|&i| expected.get(i) != log.0.get(i))
        {
            panic!(
                "{label} cap {capacity}: call {at} of {} differs: oracle {:?}, windowed {:?}",
                expected.len(),
                expected.get(at),
                log.0.get(at)
            );
        }
        assert_eq!(
            replay.delivered_instructions, expected_delivered,
            "{label} cap {capacity}: delivered"
        );
        assert_eq!(
            replay.delivered_instructions,
            plan.replayed_instructions(),
            "{label} cap {capacity}: delivered the planned windows"
        );
        assert_eq!(
            replay.summary,
            snap.info().summary,
            "{label} cap {capacity}: summary is the validated full-trace one"
        );
        assert_icache_matches_oracle(label, snap, plan, capacity, &expected);
        assert_bank_matches_oracle(label, snap, plan, capacity, &expected);
    }
}

/// One drawn raw event: `(class selector, pc step, len, taken, target,
/// section start here when 0)`.
type RawEvent = (u8, u8, u8, bool, u64, u8);

/// Encodes drawn events as a live replay would: mostly sequential code
/// with occasional jumps, random branches, and section starts that
/// switch the section.
fn encode_random(raws: &[RawEvent]) -> Vec<u8> {
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    let mut pc = 0x1000u64;
    let mut section = Section::Serial;
    for &(class_sel, step, len, taken, target, start) in raws {
        if start == 0 {
            section = match section {
                Section::Serial => Section::Parallel,
                Section::Parallel => Section::Serial,
            };
            writer.on_section_start(section);
        }
        if step % 5 == 0 {
            pc = pc.wrapping_add(u64::from(step) * 64);
        }
        let (class, branch) = if class_sel == 0 {
            (InstClass::Other, None)
        } else {
            let kind = KIND_TABLE[usize::from(class_sel - 1) % KIND_TABLE.len()];
            (
                InstClass::Branch(kind),
                Some(BranchEvent {
                    kind,
                    outcome: Outcome::from_taken(taken),
                    target: (target % 3 != 0).then_some(Addr::new(target >> 8)),
                }),
            )
        };
        writer.on_inst(&TraceEvent {
            pc: Addr::new(pc),
            len,
            class,
            branch,
            section,
        });
        pc = pc.wrapping_add(u64::from(len));
    }
    writer.finish().expect("Vec sink cannot fail").0
}

/// Deterministic fingerprint vectors with a few repeating archetypes,
/// so the clusterer sees real phase structure.
fn archetype_vectors(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let arch = (x % 4) as usize;
            (0..4).map(|d| f64::from(u8::from(d == arch))).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On arbitrary streams and plan geometries (interval length 1 up
    /// to the whole stream, short tails, warmup 0/1/3, adjacent and
    /// gapped representatives, k at or beyond the interval count), the
    /// windowed replay delivers exactly the oracle's callbacks — both
    /// for plans built from the snapshot (cursor table from the plan
    /// pass) and from bare vectors (cursor table built on demand).
    #[test]
    fn windowed_replay_matches_the_filter_oracle_on_random_streams(
        raws in proptest::collection::vec(
            (0u8..8, any::<u8>(), 1u8..=15, any::<bool>(), any::<u64>(), 0u8..20),
            1..300,
        ),
        intervals in 1usize..400,
        k in 1usize..12,
        warmup in 0usize..3,
        seed in any::<u64>(),
    ) {
        let bytes = encode_random(&raws);
        let snap = Snapshot::parse(&bytes).expect("writer output parses");
        let total = snap.info().summary.instructions;
        let cfg = SamplingConfig { seed, ..SamplingConfig::default() }
            .with_intervals(intervals.min(total as usize))
            .with_k(k)
            .with_warmup([0, 1, 3][warmup]);

        let planned = SamplePlan::from_snapshot(&snap, &mut BbvTool::new(cfg.dims), &cfg)
            .expect("plan");
        assert_matches_oracle("from_snapshot", &snap, &planned);

        let interval_insts = cfg.interval_insts(total);
        let n = total.div_ceil(interval_insts) as usize;
        let vectors = archetype_vectors(n, seed);
        let bare = SamplePlan::from_vectors(&vectors, interval_insts, total, &cfg);
        assert_matches_oracle("from_vectors", &snap, &bare);
    }
}

/// The windowed replay matches the oracle on real traces, across plan
/// geometries that cover warmup, adjacent representatives, gaps, short
/// tails and the degenerate full replay.
#[test]
fn windowed_replay_matches_the_filter_oracle_on_real_traces() {
    let mut coverage = Coverage::default();
    for name in ["CG", "gcc", "k.bfs"] {
        let bytes = snapshot_of(name);
        let snap = Snapshot::parse(&bytes).expect("snapshot parses");
        for (intervals, k, warmup) in [
            (160, 8, 1),
            (160, 8, 0),
            (37, 5, 3),
            (12, 9, 1),
            (16, 32, 1),
        ] {
            let cfg = SamplingConfig::default()
                .with_intervals(intervals)
                .with_k(k)
                .with_warmup(warmup);
            let plan =
                SamplePlan::from_snapshot(&snap, &mut BbvTool::new(cfg.dims), &cfg).expect("plan");
            coverage.note(&plan);
            let label = format!("{name} {intervals}/{k} warmup {warmup}");
            assert_matches_oracle(&label, &snap, &plan);
        }
    }
    assert!(
        coverage.adjacent
            && coverage.gap
            && coverage.short_tail
            && coverage.warmup
            && coverage.full_replay
            && coverage.weighted,
        "the geometries must exercise every window shape: {coverage:?}"
    );
}

/// A plan is tied to the snapshot it indexed: applied to another
/// snapshot it fails with a typed error before delivering anything.
#[test]
fn a_plan_applied_to_another_snapshot_is_a_typed_error() {
    let cg_bytes = snapshot_of("CG");
    let cg = Snapshot::parse(&cg_bytes).expect("snapshot parses");
    let gcc_bytes = snapshot_of("gcc");
    let gcc = Snapshot::parse(&gcc_bytes).expect("snapshot parses");
    let cfg = SamplingConfig::default();
    let plan = SamplePlan::from_snapshot(&cg, &mut BbvTool::new(cfg.dims), &cfg).expect("plan");
    assert!(!plan.is_full_replay());

    let mut log = CallLog::default();
    let err = gcc
        .replay_sampled(&mut log, &plan)
        .expect_err("a foreign cursor table must be refused");
    assert!(
        matches!(
            err,
            SnapshotError::PlanMismatch {
                field: "checksum",
                ..
            }
        ),
        "{err}"
    );
    assert!(log.0.is_empty(), "nothing delivered: {:?}", log.0.len());

    // A bare plan whose geometry covers another instruction count is
    // refused the same way, after its cursor table is recorded.
    let total = gcc.info().summary.instructions + 1;
    let interval_insts = cfg.interval_insts(total);
    let vectors = archetype_vectors(total.div_ceil(interval_insts) as usize, 3);
    let bare = SamplePlan::from_vectors(&vectors, interval_insts, total, &cfg);
    let err = gcc
        .replay_sampled(&mut log, &bare)
        .expect_err("a plan for another length must be refused");
    assert!(
        matches!(
            err,
            SnapshotError::PlanMismatch {
                field: "instruction",
                ..
            }
        ),
        "{err}"
    );
    assert!(log.0.is_empty(), "nothing delivered: {:?}", log.0.len());
}

/// A stream whose last record is cut short inside a representative
/// window, re-sealed with a valid checksum, fails the sampled replay
/// with `Truncated` or `Malformed` and delivers nothing.
#[test]
fn records_truncated_inside_a_window_fail_the_sampled_replay() {
    let good = snapshot_of("k.bfs");
    // Layout: records | end tag | 48 footer bytes | 8 checksum bytes.
    // Drop the last record byte and re-seal.
    let end_tag_at = good.len() - 57;
    let mut bad = good[..end_tag_at - 1].to_vec();
    bad.extend_from_slice(&good[end_tag_at..good.len() - 8]);
    let sealed = checksum(&bad);
    bad.extend_from_slice(&sealed.to_le_bytes());
    let snap = Snapshot::parse(&bad).expect("the checksum was re-sealed");
    let total = snap.info().summary.instructions;

    // The last interval is a singleton cluster, so its window holds the
    // cut record.
    let cfg = SamplingConfig::default().with_intervals(20).with_k(3);
    let interval_insts = cfg.interval_insts(total);
    let n = total.div_ceil(interval_insts) as usize;
    let mut vectors = vec![vec![0.0, 1.0]; n];
    vectors[n - 1] = vec![1.0, 0.0];
    let plan = SamplePlan::from_vectors(&vectors, interval_insts, total, &cfg);
    let last = plan.clusters().last().expect("clusters");
    assert_eq!(last.representative, n - 1, "{:?}", plan.clusters());

    let typed = |err: &SnapshotError| {
        matches!(
            err,
            SnapshotError::Truncated { .. } | SnapshotError::Malformed { .. }
        )
    };
    let mut log = CallLog::default();
    let err = snap
        .replay_sampled(&mut log, &plan)
        .expect_err("a cut record must fail");
    assert!(typed(&err), "{err}");
    assert!(log.0.is_empty(), "nothing delivered: {:?}", log.0.len());

    let err = SamplePlan::from_snapshot(&snap, &mut BbvTool::new(cfg.dims), &cfg)
        .expect_err("the plan pass decodes the cut record too");
    assert!(typed(&err), "{err}");
}
