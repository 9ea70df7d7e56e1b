//! The sweep engine's core guarantees, end to end on real synthesized
//! workloads:
//!
//! 1. a fan-out [`ToolSet`] replay produces **bit-identical** reports to
//!    N sequential single-tool replays, and
//! 2. a sweep ([`SweepEngine::map`] over [`SweepEngine::fan_out`])
//!    performs exactly **one** trace replay per `(workload, scale)`
//!    item, however many tools are attached.
//!
//! Replays are counted on each test's own [`SweepEngine`]
//! ([`SweepEngine::replays`]), so the counts are exact while sibling
//! tests replay concurrently.

use rebalance::frontend::predictor::{DirectionPredictor, PredictorReport, PredictorSim};
use rebalance::frontend::{BtbConfig, BtbSim, CacheConfig, ICacheBank, ICacheSim, PredictorChoice};
use rebalance::trace::{Executor, SweepEngine, SyntheticTrace, ToolSet};
use rebalance::Scale;

fn trace_for(name: &str) -> SyntheticTrace {
    rebalance::workloads::find(name)
        .unwrap()
        .trace(Scale::Smoke)
        .unwrap()
}

fn predictor_sims() -> Vec<PredictorSim<Box<dyn DirectionPredictor>>> {
    PredictorChoice::build_sims(&PredictorChoice::figure5_set())
}

#[test]
fn fan_out_replay_is_bit_identical_to_sequential_replays() {
    let trace = trace_for("CoMD");

    // --- Predictors: nine configurations, one replay. ---
    let engine = SweepEngine::new();
    let (fanned, _) = engine.fan_out(&trace, predictor_sims());
    assert_eq!(
        engine.replays(),
        1,
        "a fan-out of nine sims costs one replay"
    );
    let fanned_reports: Vec<PredictorReport> = fanned.iter().map(PredictorSim::report).collect();

    let engine = SweepEngine::new();
    let sequential_reports: Vec<PredictorReport> = predictor_sims()
        .into_iter()
        .map(|sim| {
            let (sims, _) = engine.fan_out(&trace, vec![sim]);
            sims[0].report()
        })
        .collect();
    assert_eq!(engine.replays(), 9, "the baseline costs nine");
    assert_eq!(fanned_reports, sequential_reports, "bit-identical reports");

    // --- I-cache geometries: one bank, one line walk per line size. ---
    let cache_configs = [
        CacheConfig::new(8 * 1024, 64, 2),
        CacheConfig::new(16 * 1024, 128, 8),
        CacheConfig::new(32 * 1024, 64, 4),
        CacheConfig::new(16 * 1024, 32, 4),
    ];
    let mut bank = ICacheBank::new(&cache_configs);
    assert_eq!(bank.shape(), (3, 4), "3 line walks feed 4 caches");
    trace.replay(&mut bank);
    for (report, &config) in bank.reports().iter().zip(&cache_configs) {
        let mut alone = ICacheSim::new(config);
        trace.replay(&mut alone);
        assert_eq!(*report, alone.report(), "{}", config.label());
    }

    // --- BTB geometries. ---
    let btb_configs = [BtbConfig::new(256, 8), BtbConfig::new(1024, 4)];
    let mut fanned: ToolSet<BtbSim> = btb_configs.iter().map(|&c| BtbSim::new(c)).collect();
    trace.replay(&mut fanned);
    for (sim, &config) in fanned.iter().zip(&btb_configs) {
        let mut alone = BtbSim::new(config);
        trace.replay(&mut alone);
        assert_eq!(sim.report(), alone.report());
    }
}

#[test]
fn sweep_replays_each_workload_exactly_once() {
    let workloads: Vec<_> = ["CG", "FT", "gcc", "swim"]
        .iter()
        .map(|n| rebalance::workloads::find(n).unwrap())
        .collect();
    let n_workloads = workloads.len();

    let engine = SweepEngine::new();
    let outcomes = engine.map(&workloads, |w| {
        engine.fan_out(
            &w.trace(Scale::Smoke).expect("roster profile"),
            predictor_sims(),
        )
    });

    assert_eq!(outcomes.len(), n_workloads);
    assert!(outcomes.iter().all(|(tools, _)| tools.len() == 9));
    assert_eq!(
        engine.replays(),
        n_workloads as u64,
        "one replay per workload, independent of the nine tools attached"
    );
    let instructions: u64 = outcomes.iter().map(|(_, s)| s.instructions).sum();
    assert_eq!(
        engine.lanes().instructions,
        instructions,
        "each replayed event reaches the tools once, in a batch"
    );
}

#[test]
fn parallel_sweep_matches_single_threaded_sweep() {
    let names = ["CoEVP", "MG", "astar"];
    let run = |engine: SweepEngine| -> Vec<Vec<PredictorReport>> {
        let workloads: Vec<_> = names
            .iter()
            .map(|n| rebalance::workloads::find(n).unwrap())
            .collect();
        engine.map(&workloads, |w| {
            let trace = w.trace(Scale::Smoke).expect("roster profile");
            let (sims, _) = engine.fan_out(&trace, predictor_sims());
            sims.iter().map(PredictorSim::report).collect()
        })
    };
    let parallel = run(SweepEngine::new());
    let serial = run(SweepEngine::with_executor(Executor::with_threads(1)));
    assert_eq!(parallel, serial, "scheduling must not change results");
}
