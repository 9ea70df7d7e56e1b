//! `rebalance bench` — the two measurements the repo benchmark
//! (`rebalance-benchmark/`) does not take, both over pre-validated
//! in-memory snapshots so the timed region is purely the delivery spine
//! and the tools:
//!
//! * **the oracle's cost** — per-event delivery, the reference every
//!   batched loop is checked against, timed against batched delivery
//!   for three fan-outs: the nine-predictor sweep (`warm_sweep`: nine solo
//!   `PredictorSim`s per event against the predictor bank a sweep runs,
//!   batched), dominated by TAGE table compute, the
//!   branch-profiling pintools (mix, direction, bias) composed as
//!   `ToolSet<Box<dyn Pintool>>` (`pintools`), the delivery-bound case
//!   where per-event delivery pays three virtual calls per instruction,
//!   and the fetch design grid (`fetch_grid`: one
//!   `FetchGrid::new(&default_grid())` per workload, both sides), the
//!   fetchsim pricing a `paper` replay runs;
//! * **the telemetry gate** — the sweep's batched predictor bank with
//!   collection off and on, paired one workload at a time. The command
//!   fails if the median per-pair overhead exceeds
//!   [`TELEMETRY_OVERHEAD_BUDGET_PCT`], which bounds disabled-mode
//!   overhead too (a disabled span is one atomic load and no clock read).
//!
//! The two sides of each comparison run as interleaved A/B pairs whose
//! order alternates from pair to pair, so host drift hits both sides
//! alike. Every row of `BENCH_replay.json` (written into `--json DIR`,
//! else the current directory) is the median of its samples with their
//! quartiles and count. `--metrics` writes the span tree of the passes
//! that ran with collection on.

use std::process::ExitCode;
use std::time::Instant;

use rebalance_experiments::fetchsim::default_grid;
use rebalance_experiments::util::{f2, TextTable};
use rebalance_fetchsim::FetchGrid;
use rebalance_frontend::predictor::{DirectionPredictor, PredictorSim};
use rebalance_frontend::PredictorChoice;
use rebalance_pintools::{BranchBiasTool, BranchMixTool, DirectionTool};
use rebalance_telemetry as telemetry;
use rebalance_trace::{snapshot, Pintool, Snapshot, ToolSet, DEFAULT_BATCH_CAPACITY};
use serde::Serialize;

use crate::args;
use crate::sweep_cmd::{sweep_keys, sweep_tools};

/// Workloads measured when no selection is given: six spanning the four
/// paper suites.
const DEFAULT_ROSTER: [&str; 6] = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];

/// Minimum measured seconds per oracle-cost comparison, both sides
/// together.
const MIN_MEASURE_S: f64 = 0.6;

/// Minimum measured seconds of the telemetry comparison, both sides and
/// every workload together. Enabled-mode overhead measures near 1% of
/// the sweep, so the gate needs a median steady to a few tenths of a
/// percent.
const GATE_MEASURE_S: f64 = 2.0;

/// Fewest pairs per sampling loop, so the quartiles rest on enough
/// samples.
const MIN_PAIRS: usize = 15;

/// Most pairs per sampling loop, so tiny traces do not spin.
const MAX_PAIRS: usize = 1000;

/// Ceiling on the median per-pair enabled-mode telemetry overhead; the
/// command fails beyond it.
const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// The whole dump, `BENCH_replay.json`.
#[derive(Debug, Serialize)]
struct BenchJson {
    host: HostJson,
    scale: String,
    batch_capacity: usize,
    workloads: Vec<String>,
    total_instructions: u64,
    telemetry_budget_pct: f64,
    rows: Vec<Row>,
}

/// Where the numbers came from.
#[derive(Debug, Serialize)]
struct HostJson {
    cpu: String,
    logical_cores: usize,
    os: String,
    arch: String,
}

/// One measured quantity: the median of its samples, their quartiles
/// and their count.
#[derive(Debug, Serialize)]
struct Row {
    group: &'static str,
    metric: &'static str,
    unit: &'static str,
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Row {
    fn of(group: &'static str, metric: &'static str, unit: &'static str, samples: &[f64]) -> Row {
        let [q1, median, q3] = quartiles(samples);
        Row {
            group,
            metric,
            unit,
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }
}

/// `[q1, median, q3]` of `samples` by the "exclusive" method, the
/// default of Python's `statistics.quantiles(data, n=4)` and the one the
/// repo benchmark uses. One sample is its own quartiles; none give NaN.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return [sorted.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Per-pair enabled-mode overhead in percent, from `(disabled_secs,
/// enabled_secs)` pairs.
fn overheads(pairs: &[(f64, f64)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|(off, on)| (on / off - 1.0) * 100.0)
        .collect()
}

/// The telemetry gate: `Err` when the overhead row's median exceeds
/// [`TELEMETRY_OVERHEAD_BUDGET_PCT`].
fn gate(overhead: &Row) -> Result<(), String> {
    if overhead.median > TELEMETRY_OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "telemetry overhead {:.2}% (median of {} pairs, quartiles {:.2}%..{:.2}%) exceeds the \
             {TELEMETRY_OVERHEAD_BUDGET_PCT}% budget",
            overhead.median, overhead.n, overhead.q1, overhead.q3
        ));
    }
    Ok(())
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

/// Seconds one `routine` pass takes over a fresh, untimed `setup()`.
fn timed<T>(
    setup: impl FnOnce() -> T,
    routine: impl FnOnce(&mut T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut input = setup();
    let start = Instant::now();
    routine(&mut input)?;
    Ok(start.elapsed().as_secs_f64())
}

/// The sampling loop: one untimed warmup pass of each side, then
/// `(a_secs, b_secs)` pairs, A first in even pairs and B first in odd
/// ones, until `min_secs` of measured time and [`MIN_PAIRS`] are both
/// reached or [`MAX_PAIRS`] is.
fn pairs(
    min_secs: f64,
    mut a: impl FnMut() -> Result<f64, String>,
    mut b: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<(f64, f64)>, String> {
    a()?;
    b()?;
    let mut pairs = Vec::new();
    let mut total = 0.0;
    while (total < min_secs || pairs.len() < MIN_PAIRS) && pairs.len() < MAX_PAIRS {
        let pair = if pairs.len() % 2 == 0 {
            let a_secs = a()?;
            (a_secs, b()?)
        } else {
            let b_secs = b()?;
            (a()?, b_secs)
        };
        total += pair.0 + pair.1;
        pairs.push(pair);
    }
    Ok(pairs)
}

/// Replays every snapshot into its tool, batched or per event.
fn replay_all<T: Pintool>(
    snaps: &[(String, Snapshot<'_>)],
    tools: &mut [T],
    batched: bool,
) -> Result<(), String> {
    for ((name, snap), tool) in snaps.iter().zip(tools) {
        let result = if batched {
            snap.replay(tool)
        } else {
            snap.replay_per_event(tool)
        };
        result.map_err(|e| format!("cannot replay {name}: {e}"))?;
    }
    Ok(())
}

/// The oracle's cost for one fan-out: per-event delivery (A) to one
/// fresh `per_event` tool per snapshot against batched delivery (B) to
/// one fresh `batched` tool per snapshot, over the `insts` events in
/// `snaps`.
fn oracle_rows<A: Pintool, B: Pintool>(
    group: &'static str,
    snaps: &[(String, Snapshot<'_>)],
    insts: u64,
    per_event: impl Fn(usize) -> Vec<A>,
    batched: impl Fn(usize) -> Vec<B>,
) -> Result<[Row; 3], String> {
    let pairs = pairs(
        MIN_MEASURE_S,
        || {
            timed(
                || per_event(snaps.len()),
                |tools| replay_all(snaps, tools, false),
            )
        },
        || {
            timed(
                || batched(snaps.len()),
                |tools| replay_all(snaps, tools, true),
            )
        },
    )?;
    let melem_per_s = |side: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        pairs.iter().map(|p| insts as f64 / side(p) / 1e6).collect()
    };
    let speedups: Vec<f64> = pairs
        .iter()
        .map(|(per_event, batched)| per_event / batched)
        .collect();
    Ok([
        Row::of(group, "per_event", "Melem/s", &melem_per_s(|p| p.0)),
        Row::of(group, "batched", "Melem/s", &melem_per_s(|p| p.1)),
        Row::of(group, "speedup_vs_per_event", "x", &speedups),
    ])
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
    args::forbid(&args::sampling_flags(&parsed))?;
    args::configure_metrics(&parsed);

    let workloads = if parsed.positional.is_empty() && !parsed.all && parsed.suite.is_none() {
        let names: Vec<String> = DEFAULT_ROSTER.iter().map(|s| (*s).to_owned()).collect();
        args::resolve_workloads(&names, false, None)?
    } else {
        args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?
    };

    // Synthesize + encode once; parse (framing, checksum) once. Every
    // timed pass below replays identical pre-validated snapshots.
    let mut encoded = Vec::new();
    for w in &workloads {
        let trace = w.trace(parsed.scale)?;
        let (bytes, _info) = snapshot::snapshot_bytes(&trace, 0).map_err(|e| e.to_string())?;
        encoded.push((w.name().to_owned(), bytes));
    }
    let snaps: Vec<(String, Snapshot<'_>)> = encoded
        .iter()
        .map(|(name, b)| Ok((name.clone(), Snapshot::parse(b).map_err(|e| e.to_string())?)))
        .collect::<Result<_, String>>()?;
    let insts: u64 = snaps
        .iter()
        .map(|(_, s)| s.info().summary.instructions)
        .sum();
    if insts == 0 {
        return Err("selection replays zero instructions".into());
    }

    let configs = PredictorChoice::figure5_set();
    let fresh_sims = |count: usize| -> Vec<ToolSet<PredictorSim<Box<dyn DirectionPredictor>>>> {
        (0..count)
            .map(|_| ToolSet::from_tools(PredictorChoice::build_sims(&configs)))
            .collect()
    };
    let keys = sweep_keys(&[]);
    let fresh_banks = |count: usize| -> Vec<_> { (0..count).map(|_| sweep_tools(&keys)).collect() };
    let fresh_pintools = |count: usize| -> Vec<ToolSet<Box<dyn Pintool>>> {
        (0..count)
            .map(|_| {
                ToolSet::from_tools(vec![
                    Box::new(BranchMixTool::new()) as Box<dyn Pintool>,
                    Box::new(DirectionTool::new()),
                    Box::new(BranchBiasTool::new()),
                ])
            })
            .collect()
    };
    let grid = default_grid();
    let fresh_grids =
        |count: usize| -> Vec<FetchGrid> { (0..count).map(|_| FetchGrid::new(&grid)).collect() };
    let mut rows = Vec::new();
    rows.extend(oracle_rows(
        "warm_sweep",
        &snaps,
        insts,
        fresh_sims,
        fresh_banks,
    )?);
    rows.extend(oracle_rows(
        "pintools",
        &snaps,
        insts,
        fresh_pintools,
        fresh_pintools,
    )?);
    rows.extend(oracle_rows(
        "fetch_grid",
        &snaps,
        insts,
        fresh_grids,
        fresh_grids,
    )?);

    // Telemetry overhead: collection off (A) against on (B) over the
    // sweep's batched predictor bank, paired one workload at a time so
    // the two sides of a pair run milliseconds apart.
    let was_enabled = telemetry::enabled();
    let min_secs = GATE_MEASURE_S / snaps.len() as f64;
    let on_off: Result<Vec<Vec<(f64, f64)>>, String> = (snaps.chunks(1))
        .map(|one| {
            let pass = |enabled| {
                telemetry::set_enabled(enabled);
                timed(|| fresh_banks(1), |banks| replay_all(one, banks, true))
            };
            pairs(min_secs, || pass(false), || pass(true))
        })
        .collect();
    telemetry::set_enabled(was_enabled);
    let overhead = Row::of("telemetry", "overhead", "%", &overheads(&on_off?.concat()));
    let verdict = gate(&overhead);
    rows.push(overhead);

    let json = BenchJson {
        host: host(),
        scale: parsed.scale.to_string(),
        batch_capacity: DEFAULT_BATCH_CAPACITY,
        workloads: snaps.iter().map(|(name, _)| name.clone()).collect(),
        total_instructions: insts,
        telemetry_budget_pct: TELEMETRY_OVERHEAD_BUDGET_PCT,
        rows,
    };
    let dir = parsed.json_dir.as_deref().unwrap_or(".");
    crate::write_json(dir, "BENCH_replay", &json)?;

    let mut t = TextTable::new(vec!["group", "metric", "median", "q1", "q3", "n", "unit"]);
    for r in &json.rows {
        t.row(vec![
            r.group.to_owned(),
            r.metric.to_owned(),
            f2(r.median),
            f2(r.q1),
            f2(r.q3),
            r.n.to_string(),
            r.unit.to_owned(),
        ]);
    }
    crate::print_ignoring_pipe(&format!(
        "replay throughput ({} events over {} workload(s), scale {}, batch {}; A/B pairs, median [q1, q3])\n{}wrote {}/BENCH_replay.json\n",
        insts,
        json.workloads.len(),
        json.scale,
        json.batch_capacity,
        t.render(),
        dir,
    ));
    crate::metrics::emit(&parsed, None)?;
    verdict?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // Reference values from Python 3: statistics.quantiles(data, n=4)
        // with the median in the middle.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), [2.5, 5.0, 7.5]);
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        let row = Row::of("g", "m", "u", &nine);
        assert_eq!((row.q1, row.median, row.q3, row.n), (2.5, 5.0, 7.5, 9));
    }

    /// 20 `(disabled, enabled)` pairs with a steady `ratio` between the
    /// sides and host speed swinging ±40% from one pair to the next.
    fn drifting_pairs(ratio: f64) -> Vec<(f64, f64)> {
        (0..20)
            .map(|i| {
                let secs = if i % 2 == 0 { 0.014 } else { 0.006 };
                (secs, secs * ratio)
            })
            .collect()
    }

    fn overhead_row(pairs: &[(f64, f64)]) -> Row {
        Row::of("telemetry", "overhead", "%", &overheads(pairs))
    }

    #[test]
    fn a_steady_three_percent_overhead_fails_the_gate_under_drift() {
        let row = overhead_row(&drifting_pairs(1.03));
        assert!((row.median - 3.0).abs() < 1e-9, "{}", row.median);
        assert!(gate(&row).is_err());
    }

    #[test]
    fn no_overhead_passes_the_gate_under_drift() {
        let row = overhead_row(&drifting_pairs(1.0));
        assert_eq!((row.q1, row.median, row.q3), (0.0, 0.0, 0.0));
        assert!(gate(&row).is_ok());
    }
}
