//! Decoupled front-end (FTQ + FDIP) benchmarks: the design grid three
//! ways, plus the single-design simulation cost.
//!
//! `per_design_replays` pays one full trace replay per grid point (16
//! with the default grid); `single_pass_fan_out` pays one replay and
//! fans the stream out to 16 solo [`FetchSim`]s; `shared_stages` pays
//! one replay into one [`FetchGrid`], which also builds each
//! timing-free stage once per distinct key — the path the `fetchsim`
//! exhibit and the `rebalance fetch` subcommand take.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rebalance_bench::{bench_trace, BENCH_SCALE};
use rebalance_experiments::fetchsim::default_grid;
use rebalance_fetchsim::{FetchConfig, FetchGrid, FetchSim};
use rebalance_frontend::CoreKind;
use rebalance_trace::SweepEngine;

fn grid_sims() -> Vec<FetchSim> {
    default_grid().into_iter().map(FetchSim::new).collect()
}

/// One workload, the 16-point design grid: 16 replays vs one, and 16
/// solo simulators vs one shared grid.
fn bench_grid_fan_out_vs_per_design(c: &mut Criterion) {
    let trace = bench_trace("CG");
    let insts = trace.schedule().total_instructions();
    let grid_len = default_grid().len() as u64;
    let mut g = c.benchmark_group("fetchsim_grid");
    g.sample_size(10);
    g.throughput(Throughput::Elements(insts * grid_len));

    g.bench_function("per_design_replays", |b| {
        b.iter(|| {
            grid_sims()
                .into_iter()
                .map(|mut sim| {
                    trace.replay(&mut sim);
                    sim.report().total().bandwidth()
                })
                .sum::<f64>()
        })
    });

    g.bench_function("single_pass_fan_out", |b| {
        b.iter(|| {
            let engine = SweepEngine::new();
            let (sims, _) = engine.fan_out(&trace, grid_sims());
            sims.iter()
                .map(|sim| sim.report().total().bandwidth())
                .sum::<f64>()
        })
    });

    g.bench_function("shared_stages", |b| {
        b.iter(|| {
            let mut grid = FetchGrid::new(&default_grid());
            trace.replay(&mut grid);
            grid.reports()
                .iter()
                .map(|r| r.total().bandwidth())
                .sum::<f64>()
        })
    });
    g.finish();
}

/// The cost of one fetch-pipeline simulation, next to the structures it
/// wraps (compare with the `components` bench): both paper cores, and
/// the parallel multi-workload grid sweep.
fn bench_single_design_and_parallel_sweep(c: &mut Criterion) {
    let trace = bench_trace("FT");
    let insts = trace.schedule().total_instructions();
    let mut g = c.benchmark_group("fetchsim_single");
    g.sample_size(10);
    g.throughput(Throughput::Elements(insts));
    for kind in [CoreKind::Baseline, CoreKind::Tailored] {
        g.bench_function(format!("replay_{kind}"), |b| {
            b.iter(|| {
                let mut sim = FetchSim::new(FetchConfig::for_core(kind));
                trace.replay(&mut sim);
                sim.report().total_cycles
            })
        });
    }
    g.finish();

    let names = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];
    let workloads: Vec<_> = names.iter().map(|n| rebalance_bench::workload(n)).collect();
    let mut g = c.benchmark_group("fetchsim_parallel_sweep");
    g.sample_size(10);
    g.bench_function("engine_grid_sweep", |b| {
        b.iter(|| {
            let engine = SweepEngine::new();
            engine
                .sweep(
                    workloads.clone(),
                    |w| w.trace(BENCH_SCALE).expect("roster profile"),
                    |_| vec![FetchGrid::new(&default_grid())],
                )
                .iter()
                .flat_map(|o| o.tools[0].reports())
                .map(|r| r.total().bandwidth())
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_grid_fan_out_vs_per_design,
    bench_single_design_and_parallel_sweep
);
criterion_main!(benches);
