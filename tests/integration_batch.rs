//! End-to-end guarantees of batched (block-at-a-time) event delivery
//! on real synthesized workloads:
//!
//! 1. batched live replay is **bit-identical** to per-event replay —
//!    same events, same section notifications, same summary — at the
//!    default capacity, at capacity 1, and at a capacity that lands
//!    batch edges exactly on phase boundaries;
//! 2. batched snapshot decode is bit-identical to per-event decode;
//! 3. every hot tool's `on_batch` override produces exactly the
//!    results of its per-event path, live and from a snapshot, and the
//!    predictor bank reports exactly what nine solo predictor sims do.
//!
//! Capacity 1 — every position a batch edge — is pinned explicitly in
//! each check, next to the default.

use rebalance::frontend::predictor::{DirectionPredictor, PredictorBank, PredictorSim};
use rebalance::frontend::{BtbConfig, BtbSim, CacheConfig, ICacheBank, ICacheSim, PredictorChoice};
use rebalance::pintools::{characterization_from_tools, characterization_tools, BbvTool};
use rebalance::trace::sampling::Fingerprinter;
use rebalance::trace::{
    snapshot, EventBatch, Phase, Pintool, ProgramBuilder, Schedule, Section, Snapshot,
    SyntheticTrace, Terminator, ToolSet, TraceEvent, DEFAULT_BATCH_CAPACITY,
};
use rebalance::workloads::find;
use rebalance::Scale;

/// Records the exact observer call sequence.
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

fn smoke_trace(name: &str) -> SyntheticTrace {
    find(name).unwrap().trace(Scale::Smoke).unwrap()
}

#[test]
fn batched_live_replay_is_bit_identical_to_per_event() {
    let trace = smoke_trace("CG");
    let mut baseline = CallLog::default();
    let base_summary = trace.replay_per_event(&mut baseline);

    // Default capacity.
    let mut batched = CallLog::default();
    let summary = trace.replay(&mut batched);
    assert_eq!(summary, base_summary);
    assert_eq!(batched, baseline, "default-capacity replay must match");

    // Worst case (1) and a mid-size capacity.
    for cap in [1usize, 1013] {
        let mut b = CallLog::default();
        let s = trace.replay_batched(&mut b, cap);
        assert_eq!(s, base_summary, "capacity {cap}");
        assert_eq!(b, baseline, "capacity {cap} replay must match");
    }
}

#[test]
fn batch_edges_on_section_boundaries_change_nothing() {
    // Phases of exactly 8 instructions: with capacity 8 every batch
    // edge lands exactly on a section boundary, with capacity 3 the
    // boundaries fall mid-batch, with capacity 1 every position is an
    // edge.
    let mut b = ProgramBuilder::new();
    let r = b.region("main");
    let blk = b.add_block(r, 4, Terminator::Exit);
    let program = b.build().unwrap();
    let schedule = Schedule::with_repeat(
        vec![
            Phase::new(Section::Serial, blk, 8),
            Phase::new(Section::Parallel, blk, 8),
        ],
        5,
    );
    let trace = SyntheticTrace::new(program, schedule, 3);

    let mut baseline = CallLog::default();
    trace.replay_per_event(&mut baseline);
    assert_eq!(
        baseline.calls.iter().filter(|c| c.is_err()).count(),
        10,
        "every phase announces itself"
    );
    for cap in [1usize, 3, 8, 16] {
        let mut batched = CallLog::default();
        trace.replay_batched(&mut batched, cap);
        assert_eq!(batched, baseline, "capacity {cap}");
    }
}

#[test]
fn batched_snapshot_decode_is_bit_identical_to_per_event_decode() {
    let trace = smoke_trace("CoMD");
    let (bytes, info) = snapshot::snapshot_bytes(&trace, 0).unwrap();
    let snapshot = Snapshot::parse(&bytes).unwrap();

    let mut baseline = CallLog::default();
    let base_summary = snapshot.replay_per_event(&mut baseline).unwrap();
    assert_eq!(base_summary, info.summary);

    let mut batched = CallLog::default();
    let summary = snapshot.replay(&mut batched).unwrap();
    assert_eq!(summary, base_summary);
    assert_eq!(batched, baseline, "default-capacity decode must match");

    for cap in [1usize, 977] {
        let mut b = CallLog::default();
        let s = snapshot.replay_batched(&mut b, cap).unwrap();
        assert_eq!(s, base_summary, "capacity {cap}");
        assert_eq!(b, baseline, "capacity {cap} decode must match");
    }

    // And the decoded stream equals the live stream (the PR 2
    // guarantee survives batching).
    let mut live = CallLog::default();
    trace.replay(&mut live);
    assert_eq!(live, baseline);
}

/// Every hot front-end tool, the characterization set and the BBV
/// fingerprint, batched vs per-event, live and snapshot-decoded at
/// capacities 1, 7 and the default: reports must be equal. The
/// predictor bank and an I-cache bank (32, 64 and 128 B lines) ride
/// along and must match their solo sims per event, so they match them
/// under every delivery.
#[test]
fn hot_tool_on_batch_overrides_match_per_event_results() {
    let trace = smoke_trace("FT");

    fn predictor_sims() -> ToolSet<PredictorSim<Box<dyn DirectionPredictor>>> {
        ToolSet::from_tools(PredictorChoice::build_sims(&PredictorChoice::figure5_set()))
    }

    let static_bytes = trace.program().static_bytes();
    let bank_configs = [
        CacheConfig::new(16 * 1024, 64, 4),
        CacheConfig::new(8 * 1024, 32, 2),
        CacheConfig::new(16 * 1024, 128, 8),
        CacheConfig::new(32 * 1024, 64, 8),
    ];

    // One measurement = all tools over one shared replay, delivered by
    // the requested mode. Returns comparable report values.
    type Measured = (
        Vec<rebalance::frontend::predictor::PredictorReport>,
        Vec<rebalance::frontend::predictor::PredictorReport>,
        rebalance::frontend::BtbReport,
        rebalance::frontend::ICacheReport,
        Vec<rebalance::frontend::ICacheReport>,
        rebalance::Characterization,
        Vec<Vec<u64>>,
    );
    let measure = |mode: &str, cap: usize| -> Measured {
        let mut preds = predictor_sims();
        let mut bank = PredictorBank::new(&PredictorChoice::figure5_set());
        let mut btb = BtbSim::new(BtbConfig::new(512, 4));
        let mut icache = ICacheSim::new(CacheConfig::new(16 * 1024, 64, 4));
        let mut icache_bank = ICacheBank::new(&bank_configs);
        let mut chars = characterization_tools();
        // A prime interval ends mid-batch at every capacity but 1.
        let mut bbv = BbvTool::new(32);
        bbv.set_interval_insts(997);
        {
            let mut tools = (
                (&mut preds, &mut bank),
                &mut btb,
                (&mut icache, &mut icache_bank),
                &mut chars,
                &mut bbv,
            );
            match mode {
                "per-event" => {
                    trace.replay_per_event(&mut tools);
                }
                "batched" => {
                    trace.replay_batched(&mut tools, cap);
                }
                "snapshot" => {
                    let (bytes, _) = snapshot::snapshot_bytes(&trace, 0).unwrap();
                    let snap = Snapshot::parse(&bytes).unwrap();
                    snap.replay_batched(&mut tools, cap).unwrap();
                }
                other => panic!("unknown mode {other}"),
            }
        }
        (
            preds.iter().map(|s| s.report()).collect(),
            bank.reports(),
            btb.report(),
            icache.report(),
            icache_bank.reports(),
            characterization_from_tools(chars, static_bytes, Default::default()),
            // The fingerprints as raw bits: equality is bit-identity.
            bbv.finish()
                .into_iter()
                .map(|v| v.into_iter().map(f64::to_bits).collect())
                .collect(),
        )
    };

    let baseline = measure("per-event", 0);
    assert_eq!(baseline.1, baseline.0, "bank vs nine solo sims");
    for (got, &config) in baseline.4.iter().zip(&bank_configs) {
        let mut solo = ICacheSim::new(config);
        trace.replay_per_event(&mut solo);
        let expected = solo.report();
        assert_eq!(got.sections, expected.sections, "{}", config.label());
        assert_eq!(
            got.usefulness.to_bits(),
            expected.usefulness.to_bits(),
            "{}",
            config.label()
        );
    }
    for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
        for mode in ["batched", "snapshot"] {
            assert_eq!(
                measure(mode, cap),
                baseline,
                "{mode} (cap {cap}) diverged from per-event results"
            );
        }
    }
}

/// Roster-wide decode oracle: for **every** registered workload,
/// batched snapshot decode delivers bit-identical event streams and
/// section notifications to per-event decode, at capacity 1 and the
/// default.
#[test]
fn all_workloads_batched_decode_is_bit_identical() {
    for w in rebalance::workloads::all() {
        let trace = w.trace(Scale::Smoke).unwrap();
        let (bytes, info) = snapshot::snapshot_bytes(&trace, 0).unwrap();
        let snap = Snapshot::parse(&bytes).unwrap();

        let mut baseline = CallLog::default();
        let base_summary = snap.replay_per_event(&mut baseline).unwrap();
        assert_eq!(base_summary, info.summary, "{}", w.name());

        for cap in [1usize, DEFAULT_BATCH_CAPACITY] {
            let mut got = CallLog::default();
            let summary = snap.replay_batched(&mut got, cap).unwrap();
            assert_eq!(summary, base_summary, "{}: cap {cap}", w.name());
            assert_eq!(got, baseline, "{}: cap {cap}", w.name());
        }
    }
}

/// Differential oracle over the kernel-archetype suite: for every new
/// kernel workload, per-event and batched delivery (capacity 1, 7, and
/// the default) produce bit-identical event streams, section
/// notifications, summaries, and tool reports — including the
/// phase-shape paths (drift windows, ramped epochs) the paper roster
/// never exercises.
#[test]
fn kernel_archetypes_batched_delivery_is_bit_identical() {
    for w in rebalance::workloads::kernels() {
        let trace = w.trace(Scale::Smoke).unwrap();

        let mut baseline = CallLog::default();
        let base_summary = trace.replay_per_event(&mut baseline);
        for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
            let mut batched = CallLog::default();
            let summary = trace.replay_batched(&mut batched, cap);
            assert_eq!(summary, base_summary, "{}: capacity {cap}", w.name());
            assert_eq!(batched, baseline, "{}: capacity {cap}", w.name());
        }

        // Tool-report equivalence: the full characterization set and a
        // predictor fan-out observed per-event vs batched.
        let static_bytes = trace.program().static_bytes();
        let measure = |per_event: bool, cap: usize| {
            let mut preds =
                ToolSet::from_tools(PredictorChoice::build_sims(&PredictorChoice::figure5_set()));
            let mut chars = characterization_tools();
            {
                let mut tools = (&mut preds, &mut chars);
                if per_event {
                    trace.replay_per_event(&mut tools);
                } else {
                    trace.replay_batched(&mut tools, cap);
                }
            }
            (
                preds.iter().map(|s| s.report()).collect::<Vec<_>>(),
                characterization_from_tools(chars, static_bytes, Default::default()),
            )
        };
        let expected = measure(true, 0);
        for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
            assert_eq!(
                measure(false, cap),
                expected,
                "{}: tool reports diverged at capacity {cap}",
                w.name()
            );
        }
    }
}

/// Hand-filled batches flush their buffered tail (including
/// trailing section starts) exactly once.
#[test]
fn manual_batch_round_trip() {
    let trace = smoke_trace("EP");
    let mut events = Vec::new();
    {
        let mut tool = rebalance::trace::FnTool::new(|ev: &TraceEvent| events.push(*ev));
        trace.replay_per_event(&mut tool);
    }

    let mut batch = EventBatch::with_capacity(64);
    let mut replayed = CallLog::default();
    for ev in &events {
        batch.push(*ev);
        if batch.is_full() {
            batch.flush_into(&mut replayed);
        }
    }
    batch.flush_into(&mut replayed);
    let got: Vec<_> = replayed
        .calls
        .iter()
        .filter_map(|c| c.as_ref().ok())
        .copied()
        .collect();
    assert_eq!(got, events);
}
