//! End-to-end guarantees of the snapshot + trace-cache layer on real
//! synthesized workloads:
//!
//! 1. a recorded snapshot replays **bit-identically** to the live
//!    replay it captured, and recording it through run batches of any
//!    capacity writes the bytes per-event recording writes,
//! 2. a cache-warm sweep performs **zero trace generations** (asserted
//!    via the cache's hit/miss/generation accounting) while producing
//!    results identical to an uncached sweep, at batch capacities 1, 7
//!    and the default (and a predictor bank fed the cached snapshot
//!    reports what the nine solo sims report live), and
//! 3. the cached CMP and characterization paths match their live
//!    counterparts exactly.

use rebalance::frontend::predictor::{
    DirectionPredictor, PredictorBank, PredictorReport, PredictorSim,
};
use rebalance::frontend::PredictorChoice;
use rebalance::pintools::{characterization_from_tools, characterization_tools, characterize};
use rebalance::trace::{
    FnTool, Need, Pintool, Report, Snapshot, SnapshotWriter, SweepEngine, ToolSet, TraceCache,
    TraceEvent, DEFAULT_BATCH_CAPACITY,
};
use rebalance::workloads::{find, Workload};
use rebalance::Scale;
use rebalance_experiments::util::Run;

fn workloads(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| find(n).unwrap()).collect()
}

fn predictor_sims() -> Vec<PredictorSim<Box<dyn DirectionPredictor>>> {
    PredictorChoice::build_sims(&PredictorChoice::figure5_set())
}

fn reports(sims: &[PredictorSim<Box<dyn DirectionPredictor>>]) -> Vec<PredictorReport> {
    sims.iter().map(PredictorSim::report).collect()
}

/// Each workload's predictor reports from one live replay apiece.
fn live_sweep(ws: &[Workload], scale: Scale) -> Vec<Vec<PredictorReport>> {
    let engine = SweepEngine::new();
    engine.map(ws, |w| {
        let trace = w.trace(scale).expect("roster profile");
        reports(&engine.fan_out(&trace, predictor_sims()).0)
    })
}

/// Each workload's predictor reports from one replay through `cache`.
fn cached_sweep(
    engine: &SweepEngine,
    cache: &TraceCache,
    ws: &[Workload],
    scale: Scale,
) -> Vec<Vec<PredictorReport>> {
    engine.map(ws, |w| {
        let (sims, _) = engine
            .fan_out_cached(
                cache,
                &w.trace_key(scale),
                || w.trace(scale),
                predictor_sims(),
            )
            .expect("cache replay");
        reports(&sims)
    })
}

#[test]
fn recorded_snapshot_replays_bit_identically() {
    let trace = find("CoMD").unwrap().trace(Scale::Smoke).unwrap();
    let collect_live = || {
        let mut events = Vec::new();
        let mut tool = FnTool::new(|ev: &TraceEvent| events.push(*ev));
        let summary = trace.replay(&mut tool);
        (events, summary)
    };
    let (live_events, live_summary) = collect_live();

    let (bytes, info) = rebalance::trace::snapshot::snapshot_bytes(&trace, 0).unwrap();
    assert_eq!(info.summary, live_summary);
    assert_eq!(info.seed, trace.seed());
    assert_eq!(info.static_bytes, trace.program().static_bytes());

    // The writer reads runs: recorded through run batches of any
    // capacity it writes what per-event recording writes.
    let record = |deliver: &dyn Fn(&mut SnapshotWriter<Vec<u8>>)| {
        let mut writer = SnapshotWriter::new(Vec::new(), trace.seed(), 0)
            .with_static_bytes(trace.program().static_bytes());
        deliver(&mut writer);
        writer.finish().unwrap().0
    };
    assert_eq!(SnapshotWriter::new(Vec::new(), 0, 0).need(), Need::Events);
    let per_event = record(&|w| {
        trace.replay_per_event(w);
    });
    assert_eq!(per_event, bytes);
    for cap in [1, 7] {
        let batched = record(&|w| {
            trace.replay_batched(w, cap);
        });
        assert_eq!(batched, bytes, "capacity {cap}");
    }

    let snapshot = Snapshot::parse(&bytes).unwrap();
    let mut decoded_events = Vec::new();
    let mut tool = FnTool::new(|ev: &TraceEvent| decoded_events.push(*ev));
    let decoded_summary = snapshot.replay(&mut tool).unwrap();
    assert_eq!(decoded_summary, live_summary);
    assert_eq!(
        decoded_events, live_events,
        "decode must reproduce the live event stream bit-identically"
    );
    assert!(
        (bytes.len() as f64) < live_events.len() as f64 * 3.0,
        "encoding stays compact: {} bytes for {} events",
        bytes.len(),
        live_events.len()
    );
}

#[test]
fn cache_warm_sweep_performs_zero_generations() {
    let cache = TraceCache::scratch().unwrap();
    let names = ["CG", "FT", "gcc", "swim"];
    let scale = Scale::Smoke;

    let ws = workloads(&names);

    // Cold: every workload is generated once and recorded.
    let cold_engine = SweepEngine::new();
    let cold = cached_sweep(&cold_engine, &cache, &ws, scale);
    let after_cold = cache.stats();
    assert_eq!(after_cold.generations, names.len() as u64);
    assert_eq!(after_cold.misses, names.len() as u64);
    assert_eq!(after_cold.hits, 0);
    assert_eq!(cold_engine.replays(), names.len() as u64);

    // Warm: zero generations, all hits — the acceptance criterion.
    let warm_engine = SweepEngine::new();
    let warm = cached_sweep(&warm_engine, &cache, &ws, scale);
    let delta = cache.stats().since(&after_cold);
    assert_eq!(
        delta.generations, 0,
        "a cache-warm sweep must not generate any trace"
    );
    assert_eq!(delta.hits, names.len() as u64);
    assert_eq!(delta.misses, 0);
    assert_eq!(warm_engine.replays(), names.len() as u64);

    // Both cached runs match an uncached sweep bit-identically.
    let live = live_sweep(&ws, scale);
    assert_eq!(cold, live, "recording replay != live");
    assert_eq!(warm, live, "decoded replay != live");

    // The shared report surfaces the same accounting.
    let report = Report::from_engine(&warm_engine).with_cache(&cache);
    assert_eq!(report.replays, names.len() as u64);
    assert_eq!(report.generations(), names.len() as u64, "cumulative");
    assert!(report.to_string().contains("hits"));

    // Live and cached replays still agree when every event is its own
    // batch, and at a capacity that puts batch edges mid-block; so does
    // the predictor bank a sweep runs, against the solo sims.
    for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
        for (w, expected) in ws.iter().zip(&live) {
            let owned = cache
                .snapshot(&w.trace_key(scale), || w.trace(scale))
                .expect("warm snapshot");
            let mut bank = PredictorBank::new(&PredictorChoice::figure5_set());
            owned.snapshot().replay_batched(&mut bank, cap).unwrap();
            assert_eq!(&bank.reports(), expected, "{}: bank, cap {cap}", w.name());
            let mut decoded = ToolSet::from_tools(predictor_sims());
            owned.snapshot().replay_batched(&mut decoded, cap).unwrap();
            let mut replayed = ToolSet::from_tools(predictor_sims());
            w.trace(scale).unwrap().replay_batched(&mut replayed, cap);
            let (decoded, replayed) = (decoded.into_inner(), replayed.into_inner());
            assert_eq!(
                &reports(&decoded),
                expected,
                "{}: cached, cap {cap}",
                w.name()
            );
            assert_eq!(
                &reports(&replayed),
                expected,
                "{}: live, cap {cap}",
                w.name()
            );
        }
    }

    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Differential oracle over the kernel-archetype suite: cached-snapshot
/// replay (recording pass and decoded pass alike) must produce tool
/// reports bit-identical to fresh generation, and a warm kernels sweep
/// must perform zero generations — the drift-window/ramped-epoch
/// schedules survive the snapshot encoding exactly.
#[test]
fn kernel_archetypes_cached_replay_matches_fresh() {
    let cache = TraceCache::scratch().unwrap();
    let kernels = rebalance::workloads::kernels();
    assert!(kernels.len() >= 6, "six archetypes minimum");
    let scale = Scale::Smoke;

    for w in &kernels {
        let trace = w.trace(scale).unwrap();
        let live = characterize(&trace);
        let run_cached = || {
            let mut tools = characterization_tools();
            let replay = cache
                .replay_with(&w.trace_key(scale), || w.trace(scale), &mut tools)
                .unwrap();
            characterization_from_tools(tools, trace.program().static_bytes(), replay.summary)
        };
        assert_eq!(run_cached(), live, "{}: recording pass", w.name());
        assert_eq!(run_cached(), live, "{}: decoded pass", w.name());
    }
    assert_eq!(
        cache.stats().generations,
        kernels.len() as u64,
        "one generation per kernel, then pure cache hits"
    );

    // The full sweep path: cold (recording) and warm (decoding) engine
    // sweeps over the kernels suite match an uncached sweep, and the
    // warm sweep generates nothing.
    let before = cache.stats();
    let cold = cached_sweep(&SweepEngine::new(), &cache, &kernels, scale);
    let warm = cached_sweep(&SweepEngine::new(), &cache, &kernels, scale);
    let delta = cache.stats().since(&before);
    assert_eq!(delta.generations, 0, "kernels were already recorded");
    let live = live_sweep(&kernels, scale);
    assert_eq!(cold, live);
    assert_eq!(warm, live);

    let _ = std::fs::remove_dir_all(cache.dir());
}

/// The CMP path exhibits take: a cached [`Run`]'s floorplans, cold
/// (recording) and warm (decoding), match the live reference
/// simulation under both timing backends.
#[test]
fn cached_cmp_simulation_matches_live() {
    use rebalance::coresim::{simulate_floorplans, CmpSim, FetchModelKind};
    use rebalance::mcpat::CmpFloorplan;

    let w = find("CoEVP").unwrap();
    let sims: Vec<CmpSim> = CmpFloorplan::figure10_set()
        .into_iter()
        .map(CmpSim::new)
        .collect();
    let mut run = Run {
        cache: Some(TraceCache::scratch().unwrap()),
        ..Run::default()
    };
    for model in [FetchModelKind::Penalty, FetchModelKind::Ftq] {
        run.fetch_model = model;
        let live = simulate_floorplans(&sims, &w, Scale::Smoke, model).unwrap();
        for pass in ["first", "second"] {
            assert_eq!(
                run.floorplans(&sims, &w, Scale::Smoke).unwrap(),
                live,
                "{model}: {pass} cached pass"
            );
        }
    }
    let cache = run.cache.as_ref().unwrap();
    assert_eq!(
        cache.stats().generations,
        1,
        "four floorplans under two models, one generation"
    );
    assert_eq!(run.report().replays, 4, "every pass counted by the engine");

    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn cached_characterization_matches_live() {
    let cache = TraceCache::scratch().unwrap();
    let w = find("LULESH").unwrap();
    let trace = w.trace(Scale::Smoke).unwrap();
    let live = characterize(&trace);

    let run_cached = || {
        let mut tools = characterization_tools();
        let replay = cache
            .replay_with(&w.trace_key(Scale::Smoke), || Ok(trace.clone()), &mut tools)
            .unwrap();
        characterization_from_tools(tools, trace.program().static_bytes(), replay.summary)
    };
    assert_eq!(run_cached(), live, "recording pass");
    assert_eq!(run_cached(), live, "decoded pass");
    assert_eq!(cache.stats().hits, 1);

    let _ = std::fs::remove_dir_all(cache.dir());
}
