//! End-to-end guarantees of the decoupled front-end simulator on real
//! synthesized workloads:
//!
//! 1. the **stall-attribution invariant**: for every workload in the
//!    paper roster *and* the kernels suite, busy cycles plus the four
//!    stall categories sum exactly to total modeled fetch cycles, per
//!    section and in total, and no instruction is dropped;
//! 2. a design-grid sweep costs exactly **one** trace replay (or zero
//!    trace generations, cache-warm) per `(workload, scale)` item,
//!    regardless of grid size, and the fan-out is bit-identical to
//!    sequential single-design replays;
//! 3. batched delivery — live and snapshot-decoded, down to capacity
//!    1 — is bit-identical to per-event delivery for [`FetchSim`];
//! 4. the FTQ timing backend cross-validates against the closed-form
//!    penalty model through [`CoreModel`].

use rebalance::coresim::{CoreModel, FetchModelKind};
use rebalance::fetchsim::{FetchConfig, FetchReport, FetchSim, FtqConfig};
use rebalance::frontend::{BtbConfig, CoreKind, FrontendConfig};
use rebalance::trace::{snapshot, Snapshot, SweepEngine, ToolSet, TraceCache};
use rebalance::workloads::find;
use rebalance::Scale;

/// A small depth × prefetch × BTB design grid (the CLI's default grid
/// is a superset; size is irrelevant to the one-replay guarantee).
fn grid() -> Vec<FetchConfig> {
    let mut v = Vec::new();
    for depth in [4usize, 16] {
        for degree in [0usize, 4] {
            for btb in [2048usize, 256] {
                v.push(FetchConfig::new(
                    FrontendConfig {
                        btb: BtbConfig::new(btb, 8),
                        ..FrontendConfig::baseline()
                    },
                    FtqConfig::new(depth, 4, degree),
                ));
            }
        }
    }
    v
}

fn grid_sims() -> Vec<FetchSim> {
    grid().into_iter().map(FetchSim::new).collect()
}

#[test]
fn stall_attribution_invariant_holds_for_every_roster_workload() {
    // The full registry is the paper's 41 benchmarks plus the kernel
    // archetypes — every one must attribute exactly, on both core
    // designs, from one shared replay each.
    for w in rebalance::workloads::all() {
        let trace = w.trace(Scale::Smoke).unwrap();
        let mut set: ToolSet<FetchSim> = [CoreKind::Baseline, CoreKind::Tailored]
            .map(FetchConfig::for_core)
            .map(FetchSim::new)
            .into_iter()
            .collect();
        let summary = trace.replay(&mut set);
        for sim in set.iter() {
            let r = sim.report();
            let label = format!("{} [{}]", w.name(), sim.config().label());
            r.check_attribution()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            // Spell the invariant out: busy + the four categories.
            let t = r.total();
            assert_eq!(
                t.busy
                    + t.stalls.mispredict
                    + t.stalls.resteer
                    + t.stalls.icache
                    + t.stalls.ftq_empty,
                r.total_cycles,
                "{label}: categories must partition the fetch clock"
            );
            assert_eq!(
                r.sections.serial.cycles() + r.sections.parallel.cycles(),
                r.total_cycles,
                "{label}: sections must partition the fetch clock"
            );
            assert_eq!(
                t.insts, summary.instructions,
                "{label}: every replayed instruction is accounted"
            );
            assert!(t.busy > 0, "{label}: fetch delivered something");
        }
    }
}

#[test]
fn grid_sweep_costs_one_replay_per_workload_and_matches_solo_runs() {
    let workloads: Vec<_> = ["CG", "FT", "gcc", "k.triad"]
        .iter()
        .map(|n| find(n).unwrap())
        .collect();
    let n_workloads = workloads.len();

    let engine = SweepEngine::new();
    let outcomes = engine.sweep(
        workloads,
        |w| w.trace(Scale::Smoke).expect("roster profile"),
        |_| grid_sims(),
    );
    assert_eq!(
        engine.replays(),
        n_workloads as u64,
        "one replay per workload, independent of the {}-point grid",
        grid().len()
    );

    // Bit-identical to running each design alone.
    for o in &outcomes {
        let trace = o.item.trace(Scale::Smoke).unwrap();
        for (sim, config) in o.tools.iter().zip(grid()) {
            let mut alone = FetchSim::new(config);
            trace.replay(&mut alone);
            assert_eq!(
                sim.report(),
                alone.report(),
                "{} [{}]",
                o.item.name(),
                config.label()
            );
        }
    }
}

#[test]
fn warm_cache_grid_sweep_generates_no_traces() {
    let cache = TraceCache::scratch().unwrap();
    let engine = SweepEngine::new();
    let names = ["MG", "k.stencil"];
    let run = || {
        let workloads: Vec<_> = names.iter().map(|n| find(n).unwrap()).collect();
        engine
            .sweep_cached(
                &cache,
                workloads,
                |w| w.trace_key(Scale::Smoke),
                |w| w.trace(Scale::Smoke),
                |_| grid_sims(),
            )
            .unwrap()
    };
    let cold = run();
    assert_eq!(cache.stats().generations, names.len() as u64);
    let warm = run();
    let stats = cache.stats();
    assert_eq!(
        stats.generations,
        names.len() as u64,
        "a warm grid sweep synthesizes nothing"
    );
    assert_eq!(stats.hits, names.len() as u64);
    for (a, b) in cold.iter().zip(&warm) {
        let reports = |o: &rebalance::trace::SweepOutcome<_, FetchSim>| -> Vec<FetchReport> {
            o.tools.iter().map(FetchSim::report).collect()
        };
        assert_eq!(
            reports(a),
            reports(b),
            "decoded stream measures identically"
        );
    }
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

#[test]
fn batched_delivery_is_bit_identical_for_fetchsim() {
    // An HPC workload, a serial desktop workload, and a kernel
    // archetype with drifting phase structure.
    for name in ["CG", "gcc", "k.bfs"] {
        let trace = find(name).unwrap().trace(Scale::Smoke).unwrap();
        let config = FetchConfig::for_core(CoreKind::Tailored);

        let mut baseline = FetchSim::new(config);
        trace.replay_per_event(&mut baseline);
        let expected = baseline.report();
        expected.check_attribution().unwrap();

        for cap in [1usize, 7, rebalance::trace::batch_capacity()] {
            let mut live = FetchSim::new(config);
            trace.replay_batched(&mut live, cap);
            assert_eq!(live.report(), expected, "{name}: live capacity {cap}");

            let (bytes, _) = snapshot::snapshot_bytes(&trace, 0).unwrap();
            let mut decoded = FetchSim::new(config);
            Snapshot::parse(&bytes)
                .unwrap()
                .replay_batched(&mut decoded, cap)
                .unwrap();
            assert_eq!(
                decoded.report(),
                expected,
                "{name}: snapshot capacity {cap}"
            );
        }
    }
}

#[test]
fn ftq_backend_cross_validates_against_the_penalty_backend() {
    for name in ["CG", "swim", "gcc"] {
        let w = find(name).unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        let floor = backend.base_cpi + backend.data_stall_cpi;
        let penalty = CoreModel::new(CoreKind::Baseline).measure(&trace, &backend);
        let ftq = CoreModel::new(CoreKind::Baseline)
            .with_fetch_model(FetchModelKind::Ftq)
            .measure(&trace, &backend);
        let section = if w.suite().has_parallel_sections() {
            rebalance::trace::Section::Parallel
        } else {
            rebalance::trace::Section::Serial
        };
        let (p, f) = (penalty.section(section), ftq.section(section));
        assert!(f.cpi >= floor, "{name}: {} below the backend floor", f.cpi);
        assert!(
            f.cpi <= p.cpi + 0.05,
            "{name}: measured fetch stalls ({}) cannot exceed fully-priced rates ({})",
            f.cpi,
            p.cpi
        );
        // Both backends observe the same direction-predictor events.
        assert!(
            (f.bp_mpki - p.bp_mpki).abs() <= p.bp_mpki.max(0.5) * 0.5,
            "{name}: mispredict rates should be the same order: {} vs {}",
            f.bp_mpki,
            p.bp_mpki
        );
    }
}
