//! Whole-exhibit regression benches: each paper figure/table harness at
//! bench scale, so a slowdown or panic in any regenerator is caught.

use criterion::{criterion_group, criterion_main, Criterion};
use rebalance_bench::BENCH_SCALE;
use rebalance_experiments::util::Run;
use rebalance_experiments::{caches, characterization, cmp, predictors};

fn bench_characterization_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    let run = Run::default();
    // Figures 1-4 + Table I share one pass.
    g.bench_function("fig1_to_fig4_table1", |b| {
        b.iter(|| characterization::run(&run, BENCH_SCALE))
    });
    g.bench_function("table2", |b| b.iter(predictors::table2));
    g.bench_function("table3", |b| b.iter(cmp::table3));
    g.finish();
}

fn bench_subset_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits_subset");
    g.sample_size(10);
    let run = Run::default();
    g.bench_function("fig6", |b| b.iter(|| predictors::fig6(&run, BENCH_SCALE)));
    g.bench_function("fig9", |b| b.iter(|| caches::fig9(&run, BENCH_SCALE)));
    g.bench_function("fig11", |b| b.iter(|| cmp::fig11(&run, BENCH_SCALE)));
    g.finish();
}

criterion_group!(benches, bench_characterization_set, bench_subset_figures);
criterion_main!(benches);
