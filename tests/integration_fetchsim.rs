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
//!    penalty model through [`CoreModel`];
//! 5. the grid-vs-reference check: a [`FetchGrid`], which shares every
//!    timing-free stage across its design points, reports bit for bit
//!    what one solo [`FetchSim`] per point reports — over the whole
//!    roster, under every delivery mode, sampled replay included, and
//!    when read mid-replay, and on a hand-built stream whose blocks
//!    put two lines in one I-cache set, where prefetch changes what
//!    the cache holds. A grid with no design points reports nothing
//!    and leaves the tools beside it as they are alone.

use rebalance::coresim::{CoreModel, FetchModelKind};
use rebalance::fetchsim::{FetchConfig, FetchGrid, FetchReport, FetchSim, FtqConfig};
use rebalance::frontend::{BtbConfig, BtbSim, CacheConfig, CoreKind, FrontendConfig};
use rebalance::isa::{Addr, BranchKind, InstClass, Outcome};
use rebalance::pintools::BbvTool;
use rebalance::trace::{
    snapshot, BranchEvent, Pintool, SamplePlan, SamplingConfig, Section, Snapshot, SnapshotWriter,
    SweepEngine, SyntheticTrace, ToolSet, TraceCache, TraceEvent, DEFAULT_BATCH_CAPACITY,
};
use rebalance::workloads::find;
use rebalance::Scale;
use rebalance_experiments::fetchsim::default_grid;

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
    let outcomes = engine.map(&workloads, |w| {
        let trace = w.trace(Scale::Smoke).expect("roster profile");
        engine.fan_out(&trace, grid_sims()).0
    });
    assert_eq!(
        engine.replays(),
        n_workloads as u64,
        "one replay per workload, independent of the {}-point grid",
        grid().len()
    );

    // Bit-identical to running each design alone.
    for (w, tools) in workloads.iter().zip(&outcomes) {
        let trace = w.trace(Scale::Smoke).unwrap();
        for (sim, config) in tools.iter().zip(grid()) {
            let mut alone = FetchSim::new(config);
            trace.replay(&mut alone);
            assert_eq!(
                sim.report(),
                alone.report(),
                "{} [{}]",
                w.name(),
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
    let workloads: Vec<_> = names.iter().map(|n| find(n).unwrap()).collect();
    let run = || -> Vec<Vec<FetchReport>> {
        engine.map(&workloads, |w| {
            let (sims, _) = engine
                .fan_out_cached(
                    &cache,
                    &w.trace_key(Scale::Smoke),
                    || w.trace(Scale::Smoke),
                    grid_sims(),
                )
                .unwrap();
            sims.iter().map(FetchSim::report).collect()
        })
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
    assert_eq!(cold, warm, "decoded stream measures identically");
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

        for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
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
        let models = [
            CoreModel::new(CoreKind::Baseline),
            CoreModel::new(CoreKind::Baseline).with_fetch_model(FetchModelKind::Ftq),
        ];
        let [penalty, ftq] = CoreModel::measure_many(&models, &trace, &backend)
            .try_into()
            .expect("one timing per model");
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

/// A grid where every stage has more than one group: two predictors,
/// three BTBs (crossed, so a predictor feeds several), 64 B and 128 B
/// lines, two widths, three prefetch degrees, several RAS penalties,
/// and two design points that differ only in latencies (one line
/// cache, two timing models). The 16-entry direct-mapped BTB misses
/// often, so resteers and indirect-target misses are frequent on the
/// block streams every BTB shares.
fn mixed_grid() -> Vec<FetchConfig> {
    let baseline = FrontendConfig::baseline();
    let tailored = FrontendConfig::tailored();
    let small_btb = FrontendConfig {
        btb: tailored.btb,
        ..baseline
    };
    let tiny_btb = FrontendConfig {
        btb: BtbConfig::new(16, 1),
        ..baseline
    };
    let wide_lines = FrontendConfig {
        icache: tailored.icache,
        ..baseline
    };
    let mut grid = Vec::new();
    for frontend in [baseline, tailored, small_btb, tiny_btb, wide_lines] {
        for (depth, width, degree, ras) in [(16, 4, 4, 12), (4, 4, 0, 20), (16, 2, 2, 6)] {
            grid.push(FetchConfig::new(
                frontend,
                FtqConfig::new(depth, width, degree).with_ras_penalty(ras),
            ));
        }
    }
    grid.push(FetchConfig::new(
        tailored,
        FtqConfig::new(8, 4, 4).with_latencies(30, 15, 5),
    ));
    grid
}

/// One solo [`FetchSim`] per design point.
fn solos(grid: &[FetchConfig]) -> ToolSet<FetchSim> {
    grid.iter().copied().map(FetchSim::new).collect()
}

fn solo_reports(set: &ToolSet<FetchSim>) -> Vec<FetchReport> {
    set.iter().map(FetchSim::report).collect()
}

/// Asserts the grid's reports equal the solo reports, cell by cell.
fn assert_grid_matches(label: &str, grid: &FetchGrid, solo: &ToolSet<FetchSim>) {
    let (shared, alone) = (grid.reports(), solo_reports(solo));
    assert_eq!(shared.len(), alone.len(), "{label}: one report per point");
    for (g, s) in shared.iter().zip(&alone) {
        g.check_attribution()
            .unwrap_or_else(|e| panic!("{label} [{}]: {e}", g.config));
        assert_eq!(g, s, "{label} [{}]", g.config);
    }
}

#[test]
fn fetch_grid_matches_solo_fetchsims_on_the_default_grid_over_the_roster() {
    let grid = default_grid();
    let workloads = rebalance::workloads::all();
    let engine = SweepEngine::new();
    let trace = |w: &rebalance::workloads::Workload| w.trace(Scale::Smoke).expect("roster profile");
    let shared = engine.map(&workloads, |w| {
        engine.fan_out(&trace(w), vec![FetchGrid::new(&grid)]).0
    });
    let alone = engine.map(&workloads, |w| {
        engine
            .fan_out(&trace(w), grid.iter().copied().map(FetchSim::new).collect())
            .0
    });
    for ((w, g), s) in workloads.iter().zip(&shared).zip(&alone) {
        let reports: Vec<FetchReport> = s.iter().map(FetchSim::report).collect();
        assert_eq!(g[0].reports(), reports, "{}", w.name());
    }
}

/// Replays into a fresh grid beside a BTB, a fresh solo set and a BTB
/// alone through `deliver`, and asserts that the grid agrees with the
/// solo set and leaves its sibling BTB bit-identical. The BTB reads
/// only branches, so beside an empty grid it gets branch-only batches.
fn check_delivery(label: &str, grid: &[FetchConfig], mut deliver: impl FnMut(&mut dyn Pintool)) {
    let btb = || BtbSim::new(FrontendConfig::tailored().btb);
    let mut shared = (FetchGrid::new(grid), btb());
    deliver(&mut shared);
    let mut alone = solos(grid);
    deliver(&mut alone);
    let mut sibling = btb();
    deliver(&mut sibling);
    assert_grid_matches(label, &shared.0, &alone);
    assert_eq!(shared.1.report(), sibling.report(), "{label}: sibling BTB");
}

#[test]
fn fetch_grid_matches_solo_fetchsims_under_every_delivery_mode() {
    for name in ["CG", "gcc", "k.bfs"] {
        let trace = find(name).unwrap().trace(Scale::Smoke).unwrap();
        let (bytes, _) = snapshot::snapshot_bytes(&trace, 0).unwrap();
        let snap = Snapshot::parse(&bytes).unwrap();
        let config = SamplingConfig::default().with_intervals(160).with_k(8);
        let plan = SamplePlan::from_snapshot(&snap, &mut BbvTool::new(config.dims), &config)
            .expect("sampling plan");
        assert!(!plan.is_full_replay(), "{name}: the plan must skip");

        let grids = [
            ("default", default_grid()),
            ("mixed", mixed_grid()),
            ("empty", Vec::new()),
        ];
        for (grid_name, grid) in grids {
            let label = |mode: &str| format!("{name} {grid_name} grid, {mode}");
            check_delivery(&label("per-event"), &grid, |t| {
                trace.replay_per_event(t);
            });
            for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
                check_delivery(&label(&format!("batched {cap}")), &grid, |t| {
                    trace.replay_batched(t, cap);
                });
            }
            check_delivery(&label("snapshot-decoded"), &grid, |t| {
                snap.replay(t).expect("snapshot replay");
            });
            check_delivery(&label("sampled"), &grid, |t| {
                snap.replay_sampled(t, &plan).expect("sampled replay");
            });
        }
    }
}

/// Feeds a grid and its solo reference event by event, reading every
/// report once at event `at`.
struct MidReplayProbe {
    grid: FetchGrid,
    solo: ToolSet<FetchSim>,
    seen: u64,
    at: u64,
    mid: Option<(Vec<FetchReport>, Vec<FetchReport>)>,
}

impl Pintool for MidReplayProbe {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.grid.on_inst(ev);
        self.solo.on_inst(ev);
        self.seen += 1;
        if self.seen == self.at {
            let first = self.grid.reports();
            assert_eq!(first, self.grid.reports(), "reading is idempotent");
            self.mid = Some((first, solo_reports(&self.solo)));
        }
    }
}

#[test]
fn fetch_grid_reports_mid_replay_without_disturbing_the_live_grid() {
    let grid = mixed_grid();
    for name in ["CG", "k.bfs"] {
        let trace: SyntheticTrace = find(name).unwrap().trace(Scale::Smoke).unwrap();
        // An odd event count lands mid-block for most design points.
        let at = trace.schedule().total_instructions() / 2 + 1;
        let mut probe = MidReplayProbe {
            grid: FetchGrid::new(&grid),
            solo: solos(&grid),
            seen: 0,
            at,
            mid: None,
        };
        trace.replay_per_event(&mut probe);
        let (shared, alone) = probe.mid.expect("probe fired");
        assert_eq!(shared, alone, "{name}: mid-replay reports");
        assert!(shared.iter().all(|r| r.total().insts == at));

        let mut undisturbed = FetchGrid::new(&grid);
        trace.replay_per_event(&mut undisturbed);
        assert_eq!(
            probe.grid.reports(),
            undisturbed.reports(),
            "{name}: reading mid-replay changed the live grid"
        );
        assert_grid_matches(name, &probe.grid, &probe.solo);
    }
}

/// A 1-set, 2-way I-cache: every line conflicts with every other.
fn one_set_grid() -> Vec<FetchConfig> {
    [0, 2]
        .map(|degree| {
            FetchConfig::new(
                FrontendConfig {
                    icache: CacheConfig::new(128, 64, 2),
                    ..FrontendConfig::baseline()
                },
                FtqConfig::new(16, 4, degree),
            )
        })
        .into()
}

/// `rounds` rounds of three blocks over lines `A` (0x2000), `B`
/// (0x2040) and `X` (0x1000) of a one-set cache: a block on `A`, a
/// block on `X`, then a block spanning `A` and `B`. When the third
/// block starts, `A` is resident but least recent and `B` is absent.
/// Without prefetch `A` hits; a prefetch of `B` evicts `A` first, so
/// `A` misses.
fn conflicting_blocks(rounds: usize) -> Vec<TraceEvent> {
    let inst = |pc: u64| TraceEvent {
        pc: Addr::new(pc),
        len: 4,
        class: InstClass::Other,
        branch: None,
        section: Section::Parallel,
    };
    let jump = |pc: u64, target: u64| TraceEvent {
        class: InstClass::Branch(BranchKind::UncondDirect),
        branch: Some(BranchEvent {
            kind: BranchKind::UncondDirect,
            outcome: Outcome::from_taken(true),
            target: Some(Addr::new(target)),
        }),
        ..inst(pc)
    };
    let round = [
        inst(0x2000),
        jump(0x2004, 0x1000),
        inst(0x1000),
        jump(0x1004, 0x203c),
        inst(0x203c),
        inst(0x2040),
        jump(0x2044, 0x2000),
    ];
    round
        .iter()
        .copied()
        .cycle()
        .take(rounds * round.len())
        .collect()
}

#[test]
fn fetch_grid_matches_solo_fetchsims_when_a_block_puts_two_lines_in_one_set() {
    let rounds = 200;
    let events = conflicting_blocks(rounds);
    let mut writer = SnapshotWriter::new(Vec::new(), 1, 0);
    events.iter().for_each(|ev| writer.on_inst(ev));
    let bytes = writer.finish().expect("a Vec sink cannot fail").0;
    let snap = Snapshot::parse(&bytes).unwrap();
    let config = SamplingConfig::default().with_intervals(40).with_k(4);
    let plan = SamplePlan::from_snapshot(&snap, &mut BbvTool::new(config.dims), &config)
        .expect("sampling plan");
    assert!(!plan.is_full_replay(), "the plan must skip");

    let grid = one_set_grid();
    check_delivery("one set, per-event", &grid, |t| {
        events.iter().for_each(|ev| t.on_inst(ev));
    });
    for cap in [1usize, 7, DEFAULT_BATCH_CAPACITY] {
        check_delivery(&format!("one set, batched {cap}"), &grid, |t| {
            snap.replay_batched(t, cap).expect("snapshot replay");
        });
    }
    check_delivery("one set, snapshot-decoded", &grid, |t| {
        snap.replay(t).expect("snapshot replay");
    });
    check_delivery("one set, sampled", &grid, |t| {
        snap.replay_sampled(t, &plan).expect("sampled replay");
    });

    // The stream does what it is built for: with prefetch, `A` misses
    // in every round, which a no-prefetch walk would call a hit.
    let mut solo = solos(&grid);
    events.iter().for_each(|ev| solo.on_inst(ev));
    let [plain, prefetching] = [0, 1].map(|d| solo_reports(&solo)[d].total());
    // Without prefetch, `X` and `B` evict each other: two misses a
    // round, plus the cold miss on `A`.
    assert_eq!(plain.icache_misses, 2 * rounds as u64 + 1);
    assert!(prefetching.icache_misses - prefetching.prefetch_late >= rounds as u64);
}
