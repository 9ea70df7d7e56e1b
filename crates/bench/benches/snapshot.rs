//! Snapshot + trace-cache benchmarks: what a cache hit actually buys.
//!
//! The headline comparison: `generate_and_replay` pays CFG synthesis
//! plus a full interpreter pass (the per-sweep cost before the cache),
//! while `decode_from_snapshot` streams the identical event sequence
//! out of the compact binary encoding — no synthesis, no interpreter,
//! no RNG. `record_snapshot` prices the one-time cost of a cold miss,
//! and the `cached_sweep` group shows the end-to-end effect on a
//! multi-workload predictor sweep.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rebalance_bench::{bench_trace, figure5_sims, warmed_cache, workload, BENCH_SCALE};
use rebalance_trace::{snapshot, NullTool, Snapshot, SweepEngine, ToolSet};

/// One workload, tool-free: isolates trace delivery cost
/// (generation+interpretation vs snapshot decode).
fn bench_decode_vs_generate(c: &mut Criterion) {
    let w = workload("CG");
    let trace = bench_trace("CG");
    let insts = trace.schedule().total_instructions();
    let (bytes, info) = snapshot::snapshot_bytes(&trace, 0).expect("encode");
    assert_eq!(info.summary.instructions, insts);

    let mut g = c.benchmark_group("snapshot_replay");
    g.sample_size(10);
    g.throughput(Throughput::Elements(insts));

    g.bench_function("generate_and_replay", |b| {
        b.iter(|| {
            let t = w.trace(BENCH_SCALE).expect("roster profile");
            t.replay(&mut NullTool).instructions
        })
    });

    g.bench_function("decode_from_snapshot", |b| {
        b.iter(|| {
            Snapshot::parse(black_box(&bytes))
                .expect("parse")
                .replay(&mut NullTool)
                .expect("decode")
                .instructions
        })
    });

    g.bench_function("record_snapshot", |b| {
        b.iter(|| snapshot::snapshot_bytes(&trace, 0).expect("encode").0.len())
    });
    g.finish();
}

/// The batching headline: cache-warm replay of the six-workload,
/// nine-predictor sweep, delivered per event vs block-at-a-time.
///
/// Both sides decode the identical pre-validated snapshots into the
/// identical fan-out tool set; the only difference is the delivery
/// spine (`Snapshot::replay_per_event` vs the batched
/// `Snapshot::replay`), so the ratio is the win from the
/// batch-at-a-time refactor: branch-slice iteration and fused
/// `observe` calls in the predictor sims, plus per-batch instead of
/// per-event fan-out transitions. How much of it shows end-to-end
/// depends on how compute-bound the tools are: the TAGE sims'
/// per-branch table/fold work is inherent and paid by both sides
/// (`update` now shares the fused `observe` pipeline everywhere), so
/// this group lands ~1.2× overall on a small host, while
/// delivery-bound tools (counting pintools, `MultiTool` fan-outs) see
/// well over 2×.
fn bench_warm_replay_per_event_vs_batched(c: &mut Criterion) {
    let names = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];
    let snapshots: Vec<Vec<u8>> = names
        .iter()
        .map(|n| {
            snapshot::snapshot_bytes(&bench_trace(n), 0)
                .expect("encode")
                .0
        })
        .collect();
    // Parse (framing + checksum validation) happens once, outside the
    // timed loop: both sides replay identical pre-validated snapshots,
    // so the measured delta is purely the delivery spine.
    let parsed: Vec<Snapshot> = snapshots
        .iter()
        .map(|b| Snapshot::parse(b).expect("parse"))
        .collect();
    let insts: u64 = parsed.iter().map(|s| s.info().summary.instructions).sum();

    let mut g = c.benchmark_group("warm_replay_six_workloads");
    g.sample_size(10);
    g.throughput(Throughput::Elements(insts * 9));

    // Fresh (cold) sims per measurement, built outside the timed
    // region: constructing 54 predictor tables is setup, not replay.
    let fresh_sims = || -> Vec<_> {
        (0..names.len())
            .map(|_| ToolSet::from_tools(figure5_sims()))
            .collect()
    };

    g.bench_function("per_event", |b| {
        b.iter_batched(
            fresh_sims,
            |mut sims| {
                parsed
                    .iter()
                    .zip(&mut sims)
                    .map(|(snap, set)| {
                        black_box(snap).replay_per_event(set).expect("decode");
                        set.iter()
                            .map(|sim| sim.report().total().mpki())
                            .sum::<f64>()
                    })
                    .sum::<f64>()
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("batched", |b| {
        b.iter_batched(
            fresh_sims,
            |mut sims| {
                parsed
                    .iter()
                    .zip(&mut sims)
                    .map(|(snap, set)| {
                        black_box(snap).replay(set).expect("decode");
                        set.iter()
                            .map(|sim| sim.report().total().mpki())
                            .sum::<f64>()
                    })
                    .sum::<f64>()
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

/// Several workloads through the full engine: cache-warm sweep vs
/// regenerating every trace (both fan nine predictor sims out over one
/// replay per workload — the delta is pure generation cost).
fn bench_cached_sweep(c: &mut Criterion) {
    let names = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];
    let cache = warmed_cache(&names);
    let workloads: Vec<_> = names.iter().map(|n| workload(n)).collect();

    let mut g = c.benchmark_group("cached_sweep");
    g.sample_size(10);

    g.bench_function("sweep_regenerating", |b| {
        b.iter(|| {
            let engine = SweepEngine::new();
            engine
                .sweep(
                    workloads.clone(),
                    |w| w.trace(BENCH_SCALE).expect("roster profile"),
                    |_| figure5_sims(),
                )
                .iter()
                .flat_map(|o| o.tools.iter().map(|sim| sim.report().total().mpki()))
                .sum::<f64>()
        })
    });

    g.bench_function("sweep_cache_warm", |b| {
        b.iter(|| {
            let engine = SweepEngine::new();
            engine
                .sweep_cached(
                    &cache,
                    workloads.clone(),
                    |w| w.trace_key(BENCH_SCALE),
                    |w| w.trace(BENCH_SCALE),
                    |_| figure5_sims(),
                )
                .expect("cache replay")
                .iter()
                .flat_map(|o| o.tools.iter().map(|sim| sim.report().total().mpki()))
                .sum::<f64>()
        })
    });
    g.finish();

    let stats = cache.stats();
    assert_eq!(stats.generations, 0, "warm sweep bench must never generate");
    let _ = std::fs::remove_dir_all(cache.dir());
}

criterion_group!(
    benches,
    bench_decode_vs_generate,
    bench_warm_replay_per_event_vs_batched,
    bench_cached_sweep
);
criterion_main!(benches);
