//! `rebalance bench` — replay-throughput measurement per delivery mode,
//! the CLI mirror of the `warm_replay_six_workloads` criterion group
//! plus a sampled-sweep row.
//!
//! Four measurements, all over pre-validated in-memory snapshots so
//! the timed region is purely the delivery spine and the tools:
//!
//! * **warm sweep** — the nine-predictor fan-out replayed per event
//!   and batched; dominated by TAGE table compute both sides pay, so
//!   the delivery win shows as a modest ratio here,
//! * **pintools** — the branch-profiling fan-out (mix, direction,
//!   bias) composed dynamically as `ToolSet<Box<dyn Pintool>>`, the
//!   delivery-bound case: batched delivery pays the virtual
//!   transitions once per block and walks only the dense branch
//!   subset, while per-event delivery pays three virtual calls on
//!   every instruction,
//! * **sampled sweep** — phase-sampled batched replay, reported as
//!   both delivered and effective (full-trace-equivalent) throughput,
//! * **telemetry** — the warm batched sweep timed with telemetry
//!   collection off and on (min-of-passes), the measured overhead
//!   percentage, and the per-stage span breakdown from the enabled
//!   passes. The bench *fails* if enabled-mode overhead exceeds
//!   [`TELEMETRY_OVERHEAD_BUDGET_PCT`], which bounds disabled-mode
//!   overhead too (disabled spans are strictly cheaper: one atomic
//!   load, no clock read).
//!
//! Always writes `BENCH_replay.json` — into `--json DIR` when given,
//! else the current directory.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rebalance_experiments::util::{f2, TextTable};
use rebalance_frontend::predictor::{DirectionPredictor, PredictorSim};
use rebalance_frontend::PredictorChoice;
use rebalance_pintools::{BbvTool, BranchBiasTool, BranchMixTool, DirectionTool};
use rebalance_telemetry::{self as telemetry, SpanNode};
use rebalance_trace::{batch_capacity, snapshot, NullTool, Pintool, SamplePlan, Snapshot, ToolSet};
use serde::Serialize;

use crate::args;

/// Workloads measured when no selection is given — the same six the
/// `warm_replay_six_workloads` criterion group replays, so CLI numbers
/// line up with bench history.
const DEFAULT_ROSTER: [&str; 6] = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];

/// Minimum measured wall time per mode (after one untimed warmup pass).
const MIN_MEASURE: Duration = Duration::from_millis(300);

/// Iteration cap so tiny traces do not spin for thousands of passes.
const MAX_ITERS: u32 = 200;

/// Hard ceiling on the telemetry group's measured enabled-mode
/// overhead; the bench errors beyond it.
const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// The whole dump, `BENCH_replay.json`.
#[derive(Debug, Serialize)]
struct BenchJson {
    host: HostJson,
    scale: String,
    batch_capacity: usize,
    workloads: Vec<String>,
    total_instructions: u64,
    /// Nine-predictor fan-out (the criterion group's tool set).
    warm_sweep: Vec<ModeRow>,
    /// Branch-profiling pintool fan-out (mix + direction + bias),
    /// dynamically composed — the delivery-bound sweep shape.
    pintools: Vec<ModeRow>,
    /// Phase-sampled batched replay.
    sampled_sweep: SampledRow,
    /// Telemetry on/off timing plus the per-stage span breakdown.
    telemetry: TelemetryJson,
}

/// Where the numbers came from.
#[derive(Debug, Serialize)]
struct HostJson {
    cpu: String,
    logical_cores: usize,
    os: String,
    arch: String,
}

/// One delivery mode's throughput over the full event stream.
#[derive(Debug, Serialize)]
struct ModeRow {
    mode: String,
    melem_per_s: f64,
    speedup_vs_per_event: f64,
}

/// Sampled-replay throughput. `delivered` counts only events handed to
/// the tools; `effective` credits the full trace the sampled totals
/// reproduce.
#[derive(Debug, Serialize)]
struct SampledRow {
    delivered_fraction: f64,
    delivered_melem_per_s: f64,
    effective_melem_per_s: f64,
}

/// The telemetry group: the warm batched nine-predictor sweep timed
/// with collection off and on, and where the enabled passes' time
/// went, stage by stage.
#[derive(Debug, Serialize)]
struct TelemetryJson {
    /// Min seconds per pass, collection off.
    disabled_secs: f64,
    /// Min seconds per pass, collection on.
    enabled_secs: f64,
    /// `(enabled/disabled - 1) * 100`; negative values are measurement
    /// noise. Must stay within [`TELEMETRY_OVERHEAD_BUDGET_PCT`].
    overhead_pct: f64,
    /// Every span path recorded by the enabled passes, depth-first.
    breakdown: Vec<BreakdownRow>,
}

/// One span path of the telemetry breakdown.
#[derive(Debug, Serialize)]
struct BreakdownRow {
    /// Dot-joined path from the root, e.g. `decode.batch.tools`.
    span: String,
    /// Inclusive milliseconds across all passes.
    total_ms: f64,
    /// Inclusive minus children: this stage's own code.
    self_ms: f64,
    /// Completed spans at this path.
    count: u64,
}

/// Flattens a span tree into dot-joined-path rows, depth-first.
fn flatten_spans(node: &SpanNode, prefix: &str, out: &mut Vec<BreakdownRow>) {
    for (name, child) in &node.children {
        let span = if prefix.is_empty() {
            name.clone()
        } else {
            format!("{prefix}.{name}")
        };
        out.push(BreakdownRow {
            total_ms: child.total_ns as f64 / 1e6,
            self_ms: child.self_ns() as f64 / 1e6,
            count: child.count,
            span: span.clone(),
        });
        flatten_spans(child, &span, out);
    }
}

/// First `model name` from `/proc/cpuinfo`, or a placeholder off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host() -> HostJson {
    HostJson {
        cpu: cpu_model(),
        logical_cores: std::thread::available_parallelism().map_or(1, usize::from),
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
    }
}

/// Times `routine` over fresh `setup()` inputs (setup is untimed, like
/// criterion's `iter_batched`): one warmup pass, then passes until
/// [`MIN_MEASURE`] of measured time or [`MAX_ITERS`]. Returns mean
/// seconds per pass.
fn measure<T>(mut setup: impl FnMut() -> T, mut routine: impl FnMut(&mut T)) -> f64 {
    let mut warm = setup();
    routine(&mut warm);
    let mut total = Duration::ZERO;
    let mut iters = 0u32;
    while (total < MIN_MEASURE || iters < 3) && iters < MAX_ITERS {
        let mut input = setup();
        let start = Instant::now();
        routine(&mut input);
        total += start.elapsed();
        iters += 1;
    }
    total.as_secs_f64() / f64::from(iters)
}

/// Like [`measure`], but returns the *minimum* pass time: the right
/// statistic for an A/B overhead comparison, where any single pass's
/// slowdown is scheduler noise, not the code under test.
fn measure_min<T>(mut setup: impl FnMut() -> T, mut routine: impl FnMut(&mut T)) -> f64 {
    let mut warm = setup();
    routine(&mut warm);
    let mut total = Duration::ZERO;
    let mut iters = 0u32;
    let mut best = f64::INFINITY;
    while (total < MIN_MEASURE || iters < 5) && iters < MAX_ITERS {
        let mut input = setup();
        let start = Instant::now();
        routine(&mut input);
        let elapsed = start.elapsed();
        best = best.min(elapsed.as_secs_f64());
        total += elapsed;
        iters += 1;
    }
    best
}

/// Replays every snapshot into `tool`, batched or per event.
fn replay_all<T: Pintool>(snaps: &[Snapshot<'_>], tool: &mut [T], batched: bool) {
    for (snap, tool) in snaps.iter().zip(tool.iter_mut()) {
        let result = if batched {
            snap.replay(tool)
        } else {
            snap.replay_per_event(tool)
        };
        result.expect("validated snapshot replays");
    }
}

/// The two delivery modes, with their display/JSON labels (`batched`
/// flag per mode).
fn modes() -> [(String, bool); 2] {
    [
        ("per_event".to_owned(), false),
        ("batched".to_owned(), true),
    ]
}

/// Seconds-per-pass for each mode → rows with per-event-relative
/// speedups.
fn mode_rows(secs: &[(String, f64)], insts: u64) -> Vec<ModeRow> {
    let per_event_secs = secs[0].1;
    secs.iter()
        .map(|(mode, s)| ModeRow {
            mode: mode.clone(),
            melem_per_s: insts as f64 / s / 1e6,
            speedup_vs_per_event: per_event_secs / s,
        })
        .collect()
}

/// Runs the benchmark and writes `BENCH_replay.json`.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.force, "--force"),
        (parsed.model.is_some(), "--model"),
        // Snapshots are encoded in memory; the on-disk cache never
        // participates.
        (parsed.cache_dir.is_some(), "--cache"),
        (parsed.no_cache, "--no-cache"),
    ])?;
    args::configure_metrics(&parsed);

    let workloads = if parsed.positional.is_empty() && !parsed.all && parsed.suite.is_none() {
        let names: Vec<String> = DEFAULT_ROSTER.iter().map(|s| (*s).to_owned()).collect();
        args::resolve_workloads(&names, false, None)?
    } else {
        args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?
    };

    // Synthesize + encode once; parse (framing, checksum) once. Every
    // timed pass below replays identical pre-validated snapshots.
    let mut names = Vec::new();
    let mut encoded = Vec::new();
    for w in &workloads {
        let trace = w.trace(parsed.scale)?;
        let (bytes, _info) = snapshot::snapshot_bytes(&trace, 0).map_err(|e| e.to_string())?;
        names.push(w.name().to_owned());
        encoded.push(bytes);
    }
    let snaps: Vec<Snapshot<'_>> = encoded
        .iter()
        .map(|b| Snapshot::parse(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let insts: u64 = snaps.iter().map(|s| s.info().summary.instructions).sum();
    if insts == 0 {
        return Err("selection replays zero instructions".into());
    }

    let configs = PredictorChoice::figure5_set();
    let fresh_sims = || -> Vec<ToolSet<PredictorSim<Box<dyn DirectionPredictor>>>> {
        snaps
            .iter()
            .map(|_| ToolSet::from_tools(PredictorChoice::build_sims(&configs)))
            .collect()
    };

    let warm_secs: Vec<(String, f64)> = modes()
        .into_iter()
        .map(|(label, mode)| {
            let s = measure(fresh_sims, |sims| replay_all(&snaps, sims, mode));
            (label, s)
        })
        .collect();
    let warm_sweep = mode_rows(&warm_secs, insts);

    // The delivery-bound case: a dynamically-composed fan-out (the
    // sweep-engine / MultiTool shape). Per-event delivery pays one
    // virtual transition per tool per instruction; batched delivery
    // pays them once per block, and the branch-profiling tools then
    // walk only the dense branch subset (~10% of events).
    let fresh_pintools = || -> Vec<ToolSet<Box<dyn Pintool>>> {
        snaps
            .iter()
            .map(|_| {
                ToolSet::from_tools(vec![
                    Box::new(BranchMixTool::new()) as Box<dyn Pintool>,
                    Box::new(DirectionTool::new()),
                    Box::new(BranchBiasTool::new()),
                ])
            })
            .collect()
    };
    let pintool_secs: Vec<(String, f64)> = modes()
        .into_iter()
        .map(|(label, mode)| {
            let s = measure(fresh_pintools, |tools| replay_all(&snaps, tools, mode));
            (label, s)
        })
        .collect();
    let pintools = mode_rows(&pintool_secs, insts);

    // Sampled sweep: one plan per snapshot (untimed — planning is a
    // per-roster one-off in real sweeps too), then replay only the
    // weighted representatives.
    let config = args::sampling_config(&parsed).unwrap_or_default();
    let plans: Vec<SamplePlan> = snaps
        .iter()
        .map(|s| {
            SamplePlan::from_snapshot(s, &mut BbvTool::new(config.dims), &config)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let delivered: u64 = snaps
        .iter()
        .zip(&plans)
        .map(|(s, p)| {
            s.replay_sampled(&mut NullTool, p)
                .expect("validated snapshot replays")
                .delivered_instructions
        })
        .sum();
    let sampled_secs = measure(fresh_sims, |sims| {
        for ((snap, plan), set) in snaps.iter().zip(&plans).zip(sims.iter_mut()) {
            snap.replay_sampled(set, plan)
                .expect("validated snapshot replays");
        }
    });
    let sampled_sweep = SampledRow {
        delivered_fraction: delivered as f64 / insts as f64,
        delivered_melem_per_s: delivered as f64 / sampled_secs / 1e6,
        effective_melem_per_s: insts as f64 / sampled_secs / 1e6,
    };

    // Telemetry overhead: the same warm batched sweep with collection
    // off, then on, min-of-passes so the delta is instrumentation
    // cost rather than scheduler noise. The enabled passes also feed
    // the per-stage breakdown below.
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(false);
    let disabled_secs = measure_min(fresh_sims, |sims| replay_all(&snaps, sims, true));
    telemetry::set_enabled(true);
    let enabled_secs = measure_min(fresh_sims, |sims| replay_all(&snaps, sims, true));
    let mut breakdown = Vec::new();
    flatten_spans(&telemetry::snapshot().spans, "", &mut breakdown);
    telemetry::set_enabled(was_enabled);
    let overhead_pct = (enabled_secs / disabled_secs - 1.0) * 100.0;
    if overhead_pct > TELEMETRY_OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "telemetry overhead {overhead_pct:.2}% exceeds the \
             {TELEMETRY_OVERHEAD_BUDGET_PCT}% budget \
             (disabled {disabled_secs:.4}s vs enabled {enabled_secs:.4}s per pass)"
        ));
    }
    let telemetry_group = TelemetryJson {
        disabled_secs,
        enabled_secs,
        overhead_pct,
        breakdown,
    };

    let json = BenchJson {
        host: host(),
        scale: parsed.scale.to_string(),
        batch_capacity: batch_capacity(),
        workloads: names,
        total_instructions: insts,
        warm_sweep,
        pintools,
        sampled_sweep,
        telemetry: telemetry_group,
    };
    let dir = parsed.json_dir.as_deref().unwrap_or(".");
    crate::write_json(dir, "BENCH_replay", &json)?;

    let mut t = TextTable::new(vec!["group", "mode", "Melem/s", "vs per_event"]);
    for (group, rows) in [
        ("warm_sweep", &json.warm_sweep),
        ("pintools", &json.pintools),
    ] {
        for r in rows {
            t.row(vec![
                group.to_owned(),
                r.mode.clone(),
                f2(r.melem_per_s),
                format!("{}x", f2(r.speedup_vs_per_event)),
            ]);
        }
    }
    t.row(vec![
        "sampled_sweep".to_owned(),
        "batched".to_owned(),
        f2(json.sampled_sweep.delivered_melem_per_s),
        format!("{} effective", f2(json.sampled_sweep.effective_melem_per_s)),
    ]);
    t.row(vec![
        "telemetry".to_owned(),
        "disabled".to_owned(),
        f2(insts as f64 / json.telemetry.disabled_secs / 1e6),
        "baseline".to_owned(),
    ]);
    t.row(vec![
        "telemetry".to_owned(),
        "enabled".to_owned(),
        f2(insts as f64 / json.telemetry.enabled_secs / 1e6),
        format!("{:+.2}% overhead", json.telemetry.overhead_pct),
    ]);
    crate::print_ignoring_pipe(&format!(
        "replay throughput ({} events over {} workload(s), scale {}, batch {})\n{}wrote {}/BENCH_replay.json\n",
        insts,
        json.workloads.len(),
        json.scale,
        json.batch_capacity,
        t.render(),
        dir,
    ));
    crate::metrics::emit(&parsed, None)?;
    Ok(ExitCode::SUCCESS)
}
