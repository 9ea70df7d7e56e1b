//! Whole-exhibit regression benches: each paper figure/table harness at
//! bench scale, so a slowdown or panic in any regenerator is caught.

use criterion::{criterion_group, criterion_main, Criterion};
use rebalance_bench::BENCH_SCALE;
use rebalance_experiments::driver;
use rebalance_experiments::util::{Run, RunError};

/// Renders `exhibits` through the exhibit driver: one fused pass over
/// the workloads they read, then their aggregations.
fn render(run: &Run, exhibits: &[&str]) -> Result<(), RunError> {
    let names: Vec<String> = exhibits.iter().map(|e| (*e).to_owned()).collect();
    driver::run_exhibits(run, &names, BENCH_SCALE, None, &mut std::io::sink())
}

fn bench_characterization_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    let run = Run::default();
    // Figures 1-4 + Table I share one pass.
    g.bench_function("fig1_to_fig4_table1", |b| {
        b.iter(|| render(&run, &["fig1", "fig2", "table1", "fig3", "fig4"]))
    });
    g.bench_function("table2", |b| b.iter(|| render(&run, &["table2"])));
    g.bench_function("table3", |b| b.iter(|| render(&run, &["table3"])));
    g.finish();
}

fn bench_subset_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits_subset");
    g.sample_size(10);
    let run = Run::default();
    for exhibit in ["fig6", "fig9", "fig11"] {
        g.bench_function(exhibit, |b| b.iter(|| render(&run, &[exhibit])));
    }
    g.finish();
}

criterion_group!(benches, bench_characterization_set, bench_subset_figures);
criterion_main!(benches);
