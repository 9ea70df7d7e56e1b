//! End-to-end guarantees of the snapshot + trace-cache layer on real
//! synthesized workloads:
//!
//! 1. a recorded snapshot replays **bit-identically** to the live
//!    replay it captured,
//! 2. a cache-warm sweep performs **zero trace generations** (asserted
//!    via the cache's hit/miss/generation accounting) while producing
//!    results identical to an uncached sweep, and
//! 3. the cached CMP and characterization paths match their live
//!    counterparts exactly.

use rebalance::frontend::predictor::{DirectionPredictor, PredictorReport, PredictorSim};
use rebalance::frontend::PredictorChoice;
use rebalance::pintools::{characterization_from_tools, characterization_tools, characterize};
use rebalance::trace::{FnTool, Report, Snapshot, SweepEngine, TraceCache, TraceEvent};
use rebalance::workloads::{find, Workload};
use rebalance::Scale;
use rebalance_experiments::util::Run;

fn workloads(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| find(n).unwrap()).collect()
}

fn predictor_sims() -> Vec<PredictorSim<Box<dyn DirectionPredictor>>> {
    PredictorChoice::build_sims(&PredictorChoice::figure5_set())
}

fn reports(
    outcomes: &[rebalance::trace::SweepOutcome<
        Workload,
        PredictorSim<Box<dyn DirectionPredictor>>,
    >],
) -> Vec<Vec<PredictorReport>> {
    outcomes
        .iter()
        .map(|o| o.tools.iter().map(PredictorSim::report).collect())
        .collect()
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

    let cached_sweep = |engine: &SweepEngine| {
        engine
            .sweep_cached(
                &cache,
                workloads(&names),
                |w| w.trace_key(scale),
                |w| w.trace(scale),
                |_| predictor_sims(),
            )
            .expect("cache replay")
    };

    // Cold: every workload is generated once and recorded.
    let cold_engine = SweepEngine::new();
    let cold = cached_sweep(&cold_engine);
    let after_cold = cache.stats();
    assert_eq!(after_cold.generations, names.len() as u64);
    assert_eq!(after_cold.misses, names.len() as u64);
    assert_eq!(after_cold.hits, 0);
    assert_eq!(cold_engine.replays(), names.len() as u64);

    // Warm: zero generations, all hits — the acceptance criterion.
    let warm_engine = SweepEngine::new();
    let warm = cached_sweep(&warm_engine);
    let delta = cache.stats().since(&after_cold);
    assert_eq!(
        delta.generations, 0,
        "a cache-warm sweep must not generate any trace"
    );
    assert_eq!(delta.hits, names.len() as u64);
    assert_eq!(delta.misses, 0);
    assert_eq!(warm_engine.replays(), names.len() as u64);

    // Both cached runs match an uncached sweep bit-identically.
    let live = SweepEngine::new().sweep(
        workloads(&names),
        |w| w.trace(scale).expect("roster profile"),
        |_| predictor_sims(),
    );
    assert_eq!(reports(&cold), reports(&live), "recording replay != live");
    assert_eq!(reports(&warm), reports(&live), "decoded replay != live");

    // The shared report surfaces the same accounting.
    let report = Report::from_engine(&warm_engine).with_cache(&cache);
    assert_eq!(report.replays, names.len() as u64);
    assert_eq!(report.generations(), names.len() as u64, "cumulative");
    assert!(report.to_string().contains("hits"));

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
    let cached_sweep = |engine: &SweepEngine| {
        engine
            .sweep_cached(
                &cache,
                rebalance::workloads::kernels(),
                |w| w.trace_key(scale),
                |w| w.trace(scale),
                |_| predictor_sims(),
            )
            .expect("cache replay")
    };
    let before = cache.stats();
    let cold = cached_sweep(&SweepEngine::new());
    let warm = cached_sweep(&SweepEngine::new());
    let delta = cache.stats().since(&before);
    assert_eq!(delta.generations, 0, "kernels were already recorded");
    let live = SweepEngine::new().sweep(
        rebalance::workloads::kernels(),
        |w| w.trace(scale).expect("kernel profile"),
        |_| predictor_sims(),
    );
    assert_eq!(reports(&cold), reports(&live));
    assert_eq!(reports(&warm), reports(&live));

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
    let mut run = Run::default();
    run.cache = Some(TraceCache::scratch().unwrap());
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
