//! Property tests for block-at-a-time delivery: for **arbitrary**
//! event streams (arbitrary pcs, lengths, branch shapes, sections, and
//! section-start placement) and arbitrary batch capacities — including
//! the degenerate capacity 1, where every position is a batch edge —
//! batched delivery is bit-identical to per-event delivery:
//!
//! 1. pushing the stream through an [`EventBatch`] and flushing on
//!    capacity reproduces the exact per-event call sequence,
//! 2. decoding a snapshot of the stream block-at-a-time equals the
//!    per-event decode, and
//! 3. a stateful, section-sensitive tool ([`BasicBlockTool`], which
//!    relies on the default batch delivery to replay its section
//!    boundaries in order) accumulates identical statistics either
//!    way — even when boundaries land exactly on batch edges, and
//! 4. `ICacheSim`'s line-buffer `on_batch` loop matches its per-event
//!    path on streams with real fetch locality, which arbitrary pcs
//!    never have, and so does an `ICacheBank` that walks each line
//!    size once for many geometries, and
//! 5. a `PredictorBank` over the nine Figure 5 configurations reports
//!    exactly what nine solo `PredictorSim`s report, per event and
//!    batched, on loop-shaped streams where the loop predictor becomes
//!    confident and overrides its base, and
//! 6. the tools that read only branches (`PredictorBank`, solo
//!    `PredictorSim`s, `BtbSim` and the mix/direction/bias pintools),
//!    replayed from a snapshot through branch-only batches, report what
//!    per-event delivery reports, and their `ToolSet` lanes and
//!    `on_batch` calls match a replay through run batches, and
//! 7. the tools that read runs (`BasicBlockTool`, `FootprintTool`,
//!    `ICacheSim`, `ICacheBank`, `BbvTool` and a `FetchGrid` over a
//!    mixed design grid), replayed from a snapshot through run batches,
//!    report what per-event delivery reports, over whole streams and
//!    sampled windows, however the batch capacity cuts the runs (at
//!    capacity 1 every run is one instruction), and `FootprintTool`
//!    keeps each PC's first-seen length and section, and
//! 8. run batches are lossless: a tool that only implements `on_inst`
//!    sees, through the default `on_batch`, the exact per-event call
//!    sequence of streams with long sequential runs, pushed or decoded,
//!    also where a run wraps past the top of the address space.

use proptest::prelude::*;

use rebalance::fetchsim::{FetchConfig, FetchGrid, FetchReport, FtqConfig};
use rebalance::frontend::predictor::{
    DirectionPredictor, PredictorBank, PredictorReport, PredictorSim,
};
use rebalance::frontend::{
    BtbConfig, BtbReport, BtbSim, CacheConfig, FrontendConfig, ICacheBank, ICacheReport, ICacheSim,
    PredictorChoice,
};
use rebalance::isa::{Addr, BranchKind, InstClass, Outcome};
use rebalance::pintools::{
    BasicBlockReport, BasicBlockTool, BbvTool, BiasReport, BranchBiasTool, BranchMixReport,
    BranchMixTool, DirectionReport, DirectionTool, FootprintReport, FootprintTool,
};
use rebalance::trace::sampling::Fingerprinter;
use rebalance::trace::snapshot::KIND_TABLE;
use rebalance::trace::{
    BranchEvent, BySection, EventBatch, FnTool, LaneFill, Need, Piece, Pintool, SamplePlan,
    SamplingConfig, Section, Snapshot, SnapshotWriter, ToolSet, TraceEvent, DEFAULT_BATCH_CAPACITY,
};

/// One drawn raw event: `(class selector, pc, len, taken, target,
/// parallel?)` — the same shape as `prop_snapshot`'s strategy, kept
/// within the vendored proptest's 6-element tuple limit.
type RawEvent = (u8, u64, u8, bool, u64, bool);

fn build_event(raw: RawEvent) -> TraceEvent {
    let (class_sel, pc, len, taken, target, parallel) = raw;
    let section = if parallel {
        Section::Parallel
    } else {
        Section::Serial
    };
    let (class, branch) = if class_sel == 0 {
        (InstClass::Other, None)
    } else {
        let kind = KIND_TABLE[usize::from(class_sel - 1) % KIND_TABLE.len()];
        let target = (target % 2 == 0).then_some(Addr::new(target));
        (
            InstClass::Branch(kind),
            Some(BranchEvent {
                kind,
                outcome: Outcome::from_taken(taken),
                target,
            }),
        )
    };
    TraceEvent {
        pc: Addr::new(pc),
        len,
        class,
        branch,
        section,
    }
}

/// A section boundary precedes the event iff its drawn pc is 0 mod 7 —
/// arbitrary but deterministic placement, so boundaries land on batch
/// edges for many (raws, capacity) draws.
fn boundary_here(raw: &RawEvent) -> bool {
    raw.1.is_multiple_of(7)
}

#[derive(Default, PartialEq, Debug)]
struct CallLog {
    calls: Vec<Result<TraceEvent, Section>>,
}

impl Pintool for CallLog {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.calls.push(Ok(*ev));
    }

    fn on_section_start(&mut self, section: Section) {
        self.calls.push(Err(section));
    }
}

/// A stream to deliver: each event, `true` when a section start
/// precedes it.
type Stream = Vec<(TraceEvent, bool)>;

/// The stream of drawn raw events.
fn stream_of(raws: &[RawEvent]) -> Stream {
    raws.iter()
        .map(|raw| (build_event(*raw), boundary_here(raw)))
        .collect()
}

/// Feeds the stream per event into `tool`, the baseline delivery.
fn deliver_per_event<T: Pintool>(stream: &[(TraceEvent, bool)], tool: &mut T) {
    for (ev, boundary) in stream {
        if *boundary {
            tool.on_section_start(ev.section);
        }
        tool.on_inst(ev);
    }
}

/// Feeds the stream through a run batch of the given capacity
/// ([`EventBatch::push`]), flushing whenever it fills, exactly as the
/// producers do.
fn deliver_batched<T: Pintool>(stream: &[(TraceEvent, bool)], capacity: usize, tool: &mut T) {
    let mut batch = EventBatch::with_capacity(capacity);
    for &(ev, boundary) in stream {
        if boundary {
            batch.push_section_start(ev.section);
        }
        batch.push(ev);
        if batch.is_full() {
            batch.flush_into(tool);
        }
    }
    batch.flush_into(tool);
}

/// Snapshot-encodes the stream the way a live replay would.
fn encode(raws: &[RawEvent]) -> Vec<u8> {
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    deliver_per_event(&stream_of(raws), &mut writer);
    writer.finish().expect("Vec sink cannot fail").0
}

/// Fingerprint vectors as raw `f64` bits, so equality is bit-identity.
fn vector_bits(vectors: Vec<Vec<f64>>) -> Vec<Vec<u64>> {
    vectors
        .into_iter()
        .map(|v| v.into_iter().map(f64::to_bits).collect())
        .collect()
}

fn raw_events(max: usize) -> impl Strategy<Value = Vec<RawEvent>> {
    proptest::collection::vec(
        (
            0u8..8,
            any::<u64>(),
            1u8..=15,
            any::<bool>(),
            any::<u64>(),
            any::<bool>(),
        ),
        0..max,
    )
}

/// One drawn step of a local stream: `(shape, delta, len, taken,
/// target, section switch when 0)`.
type LocalStep = (u8, u8, u8, bool, u8, u8);

fn local_steps(max: usize) -> impl Strategy<Value = Vec<LocalStep>> {
    proptest::collection::vec(
        (
            0u8..32,
            any::<u8>(),
            1u8..=15,
            any::<bool>(),
            any::<u8>(),
            0u8..12,
        ),
        0..max,
    )
}

/// A stream with the locality of real fetch, so consecutive events
/// share a line: most events start where the previous one ended (its
/// next pc), some after a short jump of up to two 64 B lines either
/// way, some just before a 128 B line end so the instruction straddles
/// lines at every line size, and some are branches. A taken branch with
/// a target sends the next pc there; targets are missing, inside the
/// branch's 16 B line (so in its line at every line size), or a few
/// lines away. Section switches fall anywhere, inside a line included.
fn local_stream(steps: &[LocalStep]) -> Stream {
    let mut pc = 1u64 << 32;
    let mut section = Section::Serial;
    let mut stream = Vec::with_capacity(steps.len());
    for &(shape, delta, len, taken, target, switch) in steps {
        match shape {
            20..=23 => pc = pc.wrapping_add(u64::from(delta)).wrapping_sub(128),
            24 | 25 => pc = (pc | 0x7f) - u64::from(delta % 4),
            _ => {}
        }
        let boundary = switch == 0;
        if boundary {
            section = match section {
                Section::Serial => Section::Parallel,
                Section::Parallel => Section::Serial,
            };
        }
        let mut next = pc + u64::from(len);
        let (class, branch) = if shape >= 26 {
            let kind = KIND_TABLE[usize::from(delta) % KIND_TABLE.len()];
            let target = match target % 4 {
                0 => None,
                1 | 2 => Some((pc & !15) | u64::from(target >> 4)),
                _ => Some(pc.wrapping_add(u64::from(target) * 8).wrapping_sub(1024)),
            };
            if let (true, Some(target)) = (taken, target) {
                next = target;
            }
            (
                InstClass::Branch(kind),
                Some(BranchEvent {
                    kind,
                    outcome: Outcome::from_taken(taken),
                    target: target.map(Addr::new),
                }),
            )
        } else {
            (InstClass::Other, None)
        };
        let ev = TraceEvent {
            pc: Addr::new(pc),
            len,
            class,
            branch,
            section,
        };
        stream.push((ev, boundary));
        pc = next;
    }
    stream
}

/// One drawn loop execution: `(loop, trip drift when 0, drawn trip,
/// body length, noisy branch when nonzero, section switch when 0)`.
type LoopStep = (u8, u8, u8, u8, u8, u8);

fn loop_steps(max: usize) -> impl Strategy<Value = Vec<LoopStep>> {
    proptest::collection::vec((0u8..6, 0u8..6, 1u8..12, 0u8..3, 0u8..6, 0u8..10), 0..max)
}

/// The backward loop branches of a loop-shaped stream and their usual
/// trip counts, two of them longer than any small base's history. The
/// last one shares the first one's loop-predictor slot under another
/// tag, so the two evict each other.
const LOOPS: [(u64, u8); 6] = [
    (0x1000, 4),
    (0x1016, 17),
    (0x102c, 2),
    (0x1042, 9),
    (0x1058, 40),
    (0x1080, 3),
];

fn cond(pc: u64, target: u64, taken: bool, section: Section) -> TraceEvent {
    TraceEvent {
        pc: Addr::new(pc),
        len: 4,
        class: InstClass::Branch(BranchKind::CondDirect),
        branch: Some(BranchEvent {
            kind: BranchKind::CondDirect,
            outcome: Outcome::from_taken(taken),
            target: Some(Addr::new(target)),
        }),
        section,
    }
}

/// A loop-heavy stream: each step runs one execution of one of
/// [`LOOPS`], taken `trip` times and then not taken, where `trip` is
/// the loop's usual count unless the step drifts it. Each iteration
/// body holds plain instructions and, when drawn, a forward branch
/// whose direction flips with the iteration and the step.
fn loop_stream(steps: &[LoopStep]) -> Stream {
    let mut section = Section::Serial;
    let mut stream = Vec::new();
    for (n, &(which, drift, drawn, body, noisy, switch)) in steps.iter().enumerate() {
        let (pc, usual) = LOOPS[usize::from(which)];
        let trip = if drift == 0 { drawn } else { usual };
        let mut boundary = switch == 0;
        if boundary {
            section = match section {
                Section::Serial => Section::Parallel,
                Section::Parallel => Section::Serial,
            };
        }
        let top = pc - 0x10;
        for i in 0..=trip {
            let mut events = (0..u64::from(body)).map(|j| TraceEvent {
                pc: Addr::new(top + 4 * j),
                len: 4,
                class: InstClass::Other,
                branch: None,
                section,
            });
            let mut body_events: Vec<TraceEvent> = events.by_ref().collect();
            if noisy != 0 {
                let at = 0x4000 + 0x22 * u64::from(noisy);
                let taken = (usize::from(i) + n) % usize::from(noisy + 1) == 0;
                body_events.push(cond(at, at + 0x20, taken, section));
            }
            body_events.push(cond(pc, top, i < trip, section));
            for ev in body_events {
                stream.push((ev, std::mem::take(&mut boundary)));
            }
        }
    }
    stream
}

/// I-cache geometries for the line-buffer check, `(size, line, assoc,
/// next-line prefetch)`. The first holds one line, so every prefetch
/// evicts the line being fetched from.
const ICACHE_GEOMETRIES: [(usize, usize, usize, bool); 7] = [
    (64, 64, 1, true),
    (256, 16, 2, false),
    (256, 16, 2, true),
    (1024, 64, 4, false),
    (1024, 64, 4, true),
    (2048, 128, 8, false),
    (2048, 128, 8, true),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Live-side equivalence: the batch buffer itself preserves the
    /// call sequence for any stream and any capacity.
    #[test]
    fn batched_delivery_is_bit_identical_to_per_event(
        raws in raw_events(120),
        capacity in 1usize..10,
    ) {
        let mut baseline = CallLog::default();
        deliver_per_event(&stream_of(&raws), &mut baseline);
        let mut batched = CallLog::default();
        deliver_batched(&stream_of(&raws), capacity, &mut batched);
        prop_assert_eq!(batched, baseline);
    }

    /// Snapshot-side equivalence: batched decode equals per-event
    /// decode (and both equal the original stream).
    #[test]
    fn batched_decode_is_bit_identical_to_per_event_decode(
        raws in raw_events(120),
        capacity in 1usize..10,
    ) {
        let bytes = encode(&raws);
        let snapshot = Snapshot::parse(&bytes).expect("writer output parses");

        let mut baseline = CallLog::default();
        let base_summary = snapshot.replay_per_event(&mut baseline).expect("decodes");

        let mut original = CallLog::default();
        deliver_per_event(&stream_of(&raws), &mut original);
        prop_assert_eq!(&baseline, &original, "per-event decode = recorded stream");

        let mut batched = CallLog::default();
        let summary = snapshot.replay_batched(&mut batched, capacity).expect("decodes");
        prop_assert_eq!(batched, baseline);
        prop_assert_eq!(summary, base_summary);
    }

    /// Every hot tool with its own `on_batch` loop (predictor fan-out,
    /// BTB, i-cache, the mix/direction/bias pintools and the BBV
    /// fingerprint, compared as `f64` bits) must report
    /// identically under batched and per-event delivery — for arbitrary
    /// streams, including branch shapes (targetless taken branches,
    /// every kind, arbitrary sections) no real workload synthesizes.
    #[test]
    fn hot_tools_on_batch_match_per_event_reports(
        raws in raw_events(120),
        capacity in 1usize..10,
        interval in 1u64..40,
    ) {
        let configs = PredictorChoice::figure5_set();
        let measure = |batched: bool| {
            // Three predictor configs keep the TAGE table setup cost
            // proportionate to a 120-event stream.
            let mut preds = ToolSet::from_tools(PredictorChoice::build_sims(&configs[..3]));
            let mut btb = BtbSim::new(BtbConfig::new(64, 2));
            let mut icache = ICacheSim::new(CacheConfig::new(4 * 1024, 64, 2));
            let mut mix = BranchMixTool::new();
            let mut dir = DirectionTool::new();
            let mut bias = BranchBiasTool::new();
            // Intervals end mid-batch for most (capacity, interval)
            // draws, and section starts land anywhere in a batch.
            let mut bbv = BbvTool::new(16);
            bbv.set_interval_insts(interval);
            {
                let mut tools = (
                    (&mut preds, &mut btb, &mut icache, &mut mix, &mut dir, &mut bias),
                    &mut bbv,
                );
                if batched {
                    deliver_batched(&stream_of(&raws), capacity, &mut tools);
                } else {
                    deliver_per_event(&stream_of(&raws), &mut tools);
                }
            }
            (
                preds.iter().map(|s| s.report()).collect::<Vec<_>>(),
                btb.report(),
                icache.report(),
                mix.report(),
                dir.report(),
                bias.report(),
                vector_bits(bbv.finish()),
            )
        };
        prop_assert_eq!(
            measure(true),
            measure(false),
            "batched loops diverged from per-event"
        );
    }

    /// A stateful section-sensitive tool: `BasicBlockTool` resets its
    /// open block/run at every section boundary, so batch delivery
    /// must replay boundaries in exactly the right slots — including
    /// boundaries that land on (or trail) a batch edge and the
    /// capacity-1 case where every event is its own batch.
    #[test]
    fn stateful_tool_statistics_survive_batching(
        raws in raw_events(120),
        capacity in 1usize..10,
    ) {
        let mut baseline = BasicBlockTool::new();
        deliver_per_event(&stream_of(&raws), &mut baseline);
        let mut batched = BasicBlockTool::new();
        deliver_batched(&stream_of(&raws), capacity, &mut batched);
        prop_assert_eq!(batched.report(), baseline.report());

        // And through the snapshot decoder.
        let bytes = encode(&raws);
        let snapshot = Snapshot::parse(&bytes).expect("parses");
        let mut decoded = BasicBlockTool::new();
        snapshot.replay_batched(&mut decoded, capacity).expect("decodes");
        prop_assert_eq!(decoded.report(), baseline.report());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ICacheSim`'s batched line-buffer loop reports exactly what its
    /// per-event path reports (usefulness as `f64` bits) on streams
    /// with real locality, where most events stay in the current line
    /// and take the loop's fast path: intra-line taken branches, branches
    /// out of the line, targetless taken branches, straddling
    /// instructions and section switches inside a line, at every small
    /// capacity and over a matrix of geometries with and without
    /// next-line prefetch.
    #[test]
    fn icache_line_buffer_matches_per_event_on_local_streams(
        steps in local_steps(300),
        capacity in 1usize..=10,
    ) {
        let stream = local_stream(&steps);
        for (size, line, assoc, prefetch) in ICACHE_GEOMETRIES {
            let sim = || {
                let sim = ICacheSim::new(CacheConfig::new(size, line, assoc));
                if prefetch {
                    sim.with_next_line_prefetch()
                } else {
                    sim
                }
            };
            let mut per_event = sim();
            deliver_per_event(&stream, &mut per_event);
            let mut batched = sim();
            deliver_batched(&stream, capacity, &mut batched);
            let (expected, got) = (per_event.report(), batched.report());
            let label = format!("{size}/{line}/{assoc} prefetch {prefetch}");
            prop_assert_eq!(got.sections, expected.sections, "{}", &label);
            prop_assert_eq!(
                got.usefulness.to_bits(),
                expected.usefulness.to_bits(),
                "{}",
                &label
            );
        }
    }
}

/// An I-cache bank's members: 32, 64 and 128 B lines, two of them
/// repeated, plus the prefetching geometries, the one-set one among
/// them.
const BANK_PLAIN: [(usize, usize, usize); 7] = [
    (512, 32, 2),
    (1024, 64, 4),
    (2048, 128, 8),
    (64, 64, 1),
    (1024, 64, 4),
    (4096, 64, 2),
    (2048, 128, 8),
];
const BANK_PREFETCH: [(usize, usize, usize); 3] = [(64, 64, 1), (1024, 64, 4), (2048, 128, 8)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bank against solo: one `ICacheBank` walks each line size once
    /// and feeds every geometry of that size, yet each of its reports
    /// equals a solo `ICacheSim`'s fed per event (usefulness as `f64`
    /// bits), whether the bank is fed per event or batched at any small
    /// capacity. Repeated geometries share one cache and report alike;
    /// in the one-set prefetching cache every prefetch evicts the line
    /// being fetched from.
    #[test]
    fn icache_bank_matches_solo_sims_on_local_streams(
        steps in local_steps(300),
        capacity in 1usize..=10,
    ) {
        let stream = local_stream(&steps);
        let config = |(size, line, assoc)| CacheConfig::new(size, line, assoc);
        let solo = |key, prefetch: bool| {
            let mut sim = ICacheSim::new(config(key));
            if prefetch {
                sim = sim.with_next_line_prefetch();
            }
            deliver_per_event(&stream, &mut sim);
            sim.report()
        };
        let expected: Vec<_> = (BANK_PLAIN.iter().map(|&k| solo(k, false)))
            .chain(BANK_PREFETCH.iter().map(|&k| solo(k, true)))
            .collect();
        let bank = || {
            let plain: Vec<_> = BANK_PLAIN.iter().map(|&k| config(k)).collect();
            let prefetch: Vec<_> = BANK_PREFETCH.iter().map(|&k| config(k)).collect();
            ICacheBank::new(&plain).with_next_line_prefetch(&prefetch)
        };
        let mut per_event = bank();
        deliver_per_event(&stream, &mut per_event);
        let mut batched = bank();
        deliver_batched(&stream, capacity, &mut batched);
        prop_assert_eq!(batched.shape(), (3, 8), "3 walks, 8 distinct caches");
        for (label, bank) in [("per event", &per_event), ("batched", &batched)] {
            for (i, (got, expected)) in bank.reports().iter().zip(&expected).enumerate() {
                prop_assert_eq!(got.sections, expected.sections, "{} member {}", label, i);
                prop_assert_eq!(
                    got.usefulness.to_bits(),
                    expected.usefulness.to_bits(),
                    "{} member {}",
                    label,
                    i
                );
            }
        }
    }
}

/// The reports of the nine solo Figure 5 sims fed `stream` per event:
/// the oracle a predictor bank must match.
fn solo_reports(stream: &[(TraceEvent, bool)]) -> Vec<PredictorReport> {
    let choices = PredictorChoice::figure5_set();
    let mut solo = ToolSet::from_tools(PredictorChoice::build_sims(&choices));
    deliver_per_event(stream, &mut solo);
    solo.iter().map(|s| s.report()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bank against solo: a `PredictorBank` runs each small base once
    /// for both `X-small` and `L-X-small` and lays one loop predictor
    /// over it, yet every one of its nine reports equals the solo
    /// `PredictorSim`'s, fed per event or batched at any small
    /// capacity, with section switches anywhere.
    #[test]
    fn predictor_bank_matches_nine_solo_sims_on_loop_streams(
        steps in loop_steps(40),
        capacity in 1usize..=10,
    ) {
        let stream = loop_stream(&steps);
        let expected = solo_reports(&stream);
        let choices = PredictorChoice::figure5_set();
        let mut per_event = PredictorBank::new(&choices);
        deliver_per_event(&stream, &mut per_event);
        prop_assert_eq!(per_event.reports(), expected.clone(), "per event");
        let mut batched = PredictorBank::new(&choices);
        deliver_batched(&stream, capacity, &mut batched);
        prop_assert_eq!(batched.reports(), expected, "batched");
    }
}

/// The loop-shaped streams reach the bank's override path: on a stream
/// of steady loops each `L-X-small` mispredicts less than its
/// `X-small`, which only the loop predictor's confident predictions
/// can cause, since the two share one base.
#[test]
fn loop_streams_make_the_loop_predictor_override_its_base() {
    let steps: Vec<LoopStep> = (0..120u8).map(|n| (n % 6, 1, 1, 1, n % 3, 1)).collect();
    let stream = loop_stream(&steps);
    let mut bank = PredictorBank::new(&PredictorChoice::figure5_set());
    deliver_batched(&stream, 7, &mut bank);
    let reports = bank.reports();
    assert_eq!(reports, solo_reports(&stream));
    for (plain, looped) in reports[3..6].iter().zip(&reports[6..]) {
        let misses = |r: &PredictorReport| r.total().breakdown.total();
        assert!(
            misses(looped) < misses(plain),
            "{}: {} vs {}: {}",
            looped.name,
            misses(looped),
            plain.name,
            misses(plain)
        );
    }
}

/// Counts the batches a tool set receives; reads nothing plain.
#[derive(Default)]
struct BatchCount(u64);

impl Pintool for BatchCount {
    fn on_inst(&mut self, _ev: &TraceEvent) {}

    fn on_batch(&mut self, _batch: &EventBatch) {
        self.0 += 1;
    }

    fn need(&self) -> Need {
        Need::Branches
    }
}

/// One of each tool that reads only branches, the bank and the solo
/// sims both in a `ToolSet` for their lanes.
type BranchTools = (
    (
        ToolSet<PredictorBank>,
        ToolSet<PredictorSim<Box<dyn DirectionPredictor>>>,
        BtbSim,
    ),
    (BranchMixTool, DirectionTool, BranchBiasTool),
    BatchCount,
);

fn branch_tools() -> BranchTools {
    let choices = PredictorChoice::figure5_set();
    (
        (
            ToolSet::from_tools(vec![PredictorBank::new(&choices)]),
            ToolSet::from_tools(PredictorChoice::build_sims(&choices)),
            BtbSim::new(BtbConfig::new(64, 2)),
        ),
        (
            BranchMixTool::new(),
            DirectionTool::new(),
            BranchBiasTool::new(),
        ),
        BatchCount::default(),
    )
}

/// Everything the branch-only tools report, their lanes and the number
/// of `on_batch` calls.
type BranchReadout = (
    Vec<PredictorReport>,
    Vec<PredictorReport>,
    BtbReport,
    BranchMixReport,
    DirectionReport,
    BiasReport,
    (LaneFill, LaneFill, u64),
);

fn readout(tools: &BranchTools) -> BranchReadout {
    let ((bank, solo, btb), (mix, dir, bias), batches) = tools;
    (
        bank.iter().flat_map(PredictorBank::reports).collect(),
        solo.iter().map(|s| s.report()).collect(),
        btb.report(),
        mix.report(),
        dir.report(),
        bias.report(),
        (bank.lanes(), solo.lanes(), batches.0),
    )
}

/// Replays `stream`, snapshot-encoded, into the branch-only tools at
/// each capacity, and asserts that they report what per-event delivery
/// of the stream reports, and that lanes and `on_batch` calls match a
/// replay through run batches.
fn assert_branch_only_replay_matches(stream: &[(TraceEvent, bool)]) {
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    deliver_per_event(stream, &mut writer);
    let bytes = writer.finish().expect("Vec sink cannot fail").0;
    let snapshot = Snapshot::parse(&bytes).expect("writer output parses");

    let mut oracle = branch_tools();
    deliver_per_event(stream, &mut oracle);
    let (bank, solo, btb, mix, dir, bias, _) = readout(&oracle);
    assert_eq!(&bank, &solo, "the bank matches the solo sims");
    // At 5 and 9 the four-record skip runs up to batch edges.
    for capacity in [1, 3, 5, 9, DEFAULT_BATCH_CAPACITY] {
        let mut branch_only = branch_tools();
        assert_eq!(branch_only.need(), Need::Branches);
        let summary = snapshot
            .replay_batched(&mut branch_only, capacity)
            .expect("decodes");
        let got = readout(&branch_only);
        assert_eq!(&got.0, &bank, "bank at capacity {}", capacity);
        assert_eq!(&got.1, &solo, "solo sims at capacity {}", capacity);
        assert_eq!(got.2, btb, "BTB at capacity {}", capacity);
        assert_eq!(&got.3, &mix, "mix at capacity {}", capacity);
        assert_eq!(&got.4, &dir, "direction at capacity {}", capacity);
        assert_eq!(&got.5, &bias, "bias at capacity {}", capacity);

        // The same tools through run batches: one tool that reads
        // every event makes the whole set take them.
        let mut runs = branch_tools();
        let mut every = (&mut runs, FnTool::new(|_: &TraceEvent| {}));
        assert_eq!(every.need(), Need::Events);
        assert_eq!(
            snapshot
                .replay_batched(&mut every, capacity)
                .expect("decodes"),
            summary
        );
        let lanes = readout(&runs).6;
        assert_eq!(
            got.6, lanes,
            "lanes and on_batch calls at capacity {}",
            capacity
        );
        assert_eq!(lanes.0.instructions, stream.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Branch-only batches on loop-shaped streams (long sequential
    /// runs the decoder skips a word at a time, a section switch per
    /// few loops), on local streams (short jumps, so non-sequential
    /// plain records) and on arbitrary ones.
    #[test]
    fn branch_only_replay_matches_per_event_reports(
        loops in loop_steps(24),
        local in local_steps(200),
        raws in raw_events(80),
    ) {
        assert_branch_only_replay_matches(&loop_stream(&loops));
        assert_branch_only_replay_matches(&local_stream(&local));
        assert_branch_only_replay_matches(&stream_of(&raws));
    }
}

/// A fetch design grid in the shape of `integration_fetchsim`'s mixed
/// grid: both line sizes, three BTBs, fetch widths 2 and 4, with and
/// without prefetch, so width cuts fall inside runs and streams share
/// nothing but the branch unit.
fn mixed_grid() -> Vec<FetchConfig> {
    let baseline = FrontendConfig::baseline();
    let tailored = FrontendConfig::tailored();
    let tiny_btb = FrontendConfig {
        btb: BtbConfig::new(16, 1),
        ..baseline
    };
    let mut grid = Vec::new();
    for frontend in [baseline, tailored, tiny_btb] {
        for (depth, width, degree) in [(16, 4, 4), (4, 4, 0), (16, 2, 2)] {
            grid.push(FetchConfig::new(
                frontend,
                FtqConfig::new(depth, width, degree),
            ));
        }
    }
    grid
}

/// One of each tool that reads runs.
type RunTools = (
    BasicBlockTool,
    FootprintTool,
    ICacheBank,
    ICacheSim,
    BbvTool,
    FetchGrid,
);

fn run_tools(interval: u64) -> RunTools {
    use rebalance::trace::sampling::Fingerprinter as _;
    let plain: Vec<_> = BANK_PLAIN
        .iter()
        .map(|&(s, l, a)| CacheConfig::new(s, l, a))
        .collect();
    let prefetch: Vec<_> = (BANK_PREFETCH.iter())
        .map(|&(s, l, a)| CacheConfig::new(s, l, a))
        .collect();
    let mut bbv = BbvTool::new(16);
    bbv.set_interval_insts(interval);
    (
        BasicBlockTool::new(),
        FootprintTool::new(),
        ICacheBank::new(&plain).with_next_line_prefetch(&prefetch),
        ICacheSim::new(CacheConfig::new(256, 16, 2)).with_next_line_prefetch(),
        bbv,
        FetchGrid::new(&mixed_grid()),
    )
}

/// An I-cache report with its usefulness as bits.
type ICacheBits = (BySection<rebalance::frontend::ICacheStats>, u64);

fn icache_bits(report: &ICacheReport) -> ICacheBits {
    (report.sections, report.usefulness.to_bits())
}

/// Everything the run readers report (floats as bits).
type RunReadout = (
    BasicBlockReport,
    FootprintReport,
    usize,
    Vec<ICacheBits>,
    Vec<Vec<u64>>,
    Vec<FetchReport>,
);

fn run_readout(tools: RunTools) -> RunReadout {
    let (bb, footprint, bank, icache, mut bbv, grid) = tools;
    let mut icaches: Vec<_> = bank.reports().iter().map(icache_bits).collect();
    icaches.push(icache_bits(&icache.report()));
    (
        bb.report(),
        footprint.dynamic_footprint(0.99),
        footprint.distinct_instructions(),
        icaches,
        vector_bits(bbv.finish()),
        grid.reports(),
    )
}

/// The footprint a per-PC count gives at full coverage: per section,
/// the instructions and the first-seen length of each PC, credited to
/// its first-seen section.
fn per_pc_footprint(stream: &[(TraceEvent, bool)]) -> (BySection<(u64, u64)>, usize) {
    let mut first: std::collections::HashMap<u64, (u64, u8, Section)> = Default::default();
    for (ev, _) in stream {
        first
            .entry(ev.pc.as_u64())
            .or_insert((0, ev.len, ev.section))
            .0 += 1;
    }
    let mut sections = BySection::<(u64, u64)>::default();
    for &(count, len, section) in first.values() {
        let s = sections.get_mut(section);
        s.0 += count;
        s.1 += u64::from(len);
    }
    (sections, first.len())
}

/// Replays `stream`, snapshot-encoded, into the run readers through
/// run batches at capacities 1, 7 and the default, and asserts each
/// reports what per-event delivery reports; then asserts the
/// weight-aware ones report the same over sampled windows at every
/// capacity. Capacity 1 cuts every run to one instruction.
fn assert_run_replay_matches(stream: &[(TraceEvent, bool)], interval: u64) {
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    deliver_per_event(stream, &mut writer);
    let bytes = writer.finish().expect("Vec sink cannot fail").0;
    let snapshot = Snapshot::parse(&bytes).expect("writer output parses");

    let mut oracle = run_tools(interval);
    deliver_per_event(stream, &mut oracle);
    let (sections, distinct) = per_pc_footprint(stream);
    let full = oracle.1.dynamic_footprint(1.0);
    for section in Section::ALL {
        let got = full.sections.get(section);
        assert_eq!(
            (got.instructions, got.touched_bytes),
            *sections.get(section),
            "first-seen footprint, {section:?}"
        );
    }
    assert_eq!(oracle.1.distinct_instructions(), distinct);
    let expected = run_readout(oracle);

    for capacity in [1, 7, DEFAULT_BATCH_CAPACITY] {
        let mut runs = run_tools(interval);
        assert_eq!(runs.need(), Need::Events);
        snapshot
            .replay_batched(&mut runs, capacity)
            .expect("decodes");
        assert!(
            run_readout(runs) == expected,
            "run batches at capacity {capacity}"
        );
    }

    // Sampled windows: the weight-aware readers through run batches,
    // long runs against runs of one.
    let total = snapshot.info().summary.instructions;
    if total < 8 {
        return;
    }
    let cfg = SamplingConfig::default().with_intervals(8).with_k(3);
    let interval_insts = cfg.interval_insts(total);
    let n = total.div_ceil(interval_insts) as usize;
    let vectors: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 3) as f64, (i % 2) as f64])
        .collect();
    let plan = SamplePlan::from_vectors(&vectors, interval_insts, total, &cfg);
    let sampled_tools = || {
        let (_, _, bank, icache, _, grid) = run_tools(interval);
        (bank, icache, grid)
    };
    let read = |(bank, icache, grid): (ICacheBank, ICacheSim, FetchGrid)| {
        let mut icaches: Vec<_> = bank.reports().iter().map(icache_bits).collect();
        icaches.push(icache_bits(&icache.report()));
        (icaches, grid.reports())
    };
    let sampled = |capacity| {
        let mut runs = sampled_tools();
        snapshot
            .replay_sampled_batched(&mut runs, &plan, capacity)
            .expect("sampled replay");
        read(runs)
    };
    let runs_of_one = sampled(1);
    for capacity in [7, DEFAULT_BATCH_CAPACITY] {
        assert!(
            sampled(capacity) == runs_of_one,
            "sampled windows at capacity {capacity}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Run batches on loop-shaped streams (long sequential runs cut by
    /// branches and section switches), on local streams (runs that
    /// straddle lines, short jumps that make non-sequential plain
    /// records, section switches inside a line) and on arbitrary ones,
    /// with intervals ending inside runs.
    #[test]
    fn run_replay_matches_per_event_reports(
        loops in loop_steps(16),
        local in local_steps(200),
        raws in raw_events(80),
        interval in 1u64..40,
    ) {
        assert_run_replay_matches(&loop_stream(&loops), interval);
        assert_run_replay_matches(&local_stream(&local), interval);
        assert_run_replay_matches(&stream_of(&raws), interval);
    }
}

/// Asserts that a tool that only implements `on_inst` sees, through the
/// default `on_batch`, the exact per-event call sequence of `stream`,
/// pushed into run batches and decoded from its snapshot at capacities
/// 1, 3, 7 and the default.
fn assert_run_batches_are_lossless(stream: &[(TraceEvent, bool)]) {
    let mut expected = CallLog::default();
    deliver_per_event(stream, &mut expected);
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    deliver_per_event(stream, &mut writer);
    let bytes = writer.finish().expect("Vec sink cannot fail").0;
    let snapshot = Snapshot::parse(&bytes).expect("writer output parses");
    for capacity in [1, 3, 7, DEFAULT_BATCH_CAPACITY] {
        let mut pushed = CallLog::default();
        assert_eq!(pushed.need(), Need::Events);
        deliver_batched(stream, capacity, &mut pushed);
        assert!(pushed == expected, "pushed at capacity {capacity}");
        let mut decoded = CallLog::default();
        snapshot
            .replay_batched(&mut decoded, capacity)
            .expect("decodes");
        assert!(decoded == expected, "decoded at capacity {capacity}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Run batches on the streams where runs are long: loop bodies of
    /// sequential plain instructions, and local streams with lines
    /// walked in order. Arbitrary pcs almost never make two plain
    /// instructions sequential, so these are the streams that put
    /// runs of many instructions through the default `on_batch`.
    #[test]
    fn run_batches_replay_every_event_to_an_on_inst_tool(
        loops in loop_steps(24),
        local in local_steps(300),
    ) {
        assert_run_batches_are_lossless(&loop_stream(&loops));
        assert_run_batches_are_lossless(&local_stream(&local));
    }
}

/// A run that wraps past the top of the address space stays one run,
/// and its expansion wraps each pc the way the stream did.
#[test]
fn a_run_across_the_top_of_the_address_space_replays_exactly() {
    let plain = |pc: u64, section| TraceEvent {
        pc: Addr::new(pc),
        len: 4,
        class: InstClass::Other,
        branch: None,
        section,
    };
    let mut stream: Stream = (0..6u64)
        .map(|i| {
            let pc = (u64::MAX - 11).wrapping_add(4 * i);
            (plain(pc, Section::Parallel), i == 0)
        })
        .collect();
    assert_eq!(stream[3].0.pc.as_u64(), 0, "the fourth pc wraps");
    stream.push((cond(12, 0x40, true, Section::Parallel), false));
    stream.push((plain(0x40, Section::Serial), true));
    assert_run_batches_are_lossless(&stream);

    let mut batch = EventBatch::with_capacity(DEFAULT_BATCH_CAPACITY);
    for &(ev, start) in &stream {
        if start {
            batch.push_section_start(ev.section);
        }
        batch.push(ev);
    }
    let runs: Vec<_> = batch
        .pieces()
        .filter_map(|piece| match piece {
            Piece::Run(run) => Some((run.pc.as_u64(), run.bytes, run.lens.len())),
            _ => None,
        })
        .collect();
    assert_eq!(runs, vec![(u64::MAX - 11, 24, 6), (0x40, 4, 1)]);
}
