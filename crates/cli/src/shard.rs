//! Sharded multi-worker sweeps: a coordinator that splits a selection
//! across worker subprocesses and merges their typed results.
//!
//! Protocol: for each shard the coordinator spawns `rebalance
//! __worker`, writes one JSON request on the worker's stdin, and reads
//! one JSON response from its stdout (stderr passes through for
//! diagnostics). Workers replay their shard against the shared on-disk
//! trace cache — safe under concurrent writers thanks to the cache's
//! single-flight generation and atomic tmp→rename commits — and return
//! plain data rows plus a per-shard [`Report`] delta scoped by
//! [`util::report_baseline`].
//!
//! Merge rules: shards are *contiguous* slices of the selection, so
//! concatenating shard rows in shard order reproduces selection order;
//! reports fold with [`Report::merged`] (counters add). The
//! coordinator then renders through the same code path as
//! a single-process run, making the merged output bit-identical.

use std::io::Write as _;
use std::process::{Child, Command, Stdio};

use rebalance_experiments::fetchsim::{FetchSummary, FetchsimRow};
use rebalance_experiments::{driver, util};
use rebalance_telemetry::{self as telemetry, HistogramSnapshot, MetricsSnapshot, SpanNode};
use rebalance_trace::{CacheStats, LaneFill, Report};
use rebalance_workloads::{Scale, Suite, Workload};
use serde::{Serialize, Value};

use crate::args::{self, Parsed};
use crate::sweep_cmd::{CpiJsonRow, SweepJsonRow, SweepRows};

/// One worker's marching orders: which task to run over which shard,
/// plus every process-wide knob the equivalent single-process command
/// would have latched before its first replay.
#[derive(Debug, Serialize)]
struct WorkerRequest {
    /// `sweep`, `fetch`, or `paper`.
    task: String,
    /// Scale in `parse_scale` spelling (custom scales as bare factors).
    scale: String,
    /// Workload names (sweep/fetch) or exhibit names (paper), in
    /// selection order.
    items: Vec<String>,
    /// Cache directory; `None` runs uncached (`--no-cache`).
    cache: Option<String>,
    batch_size: Option<u64>,
    model: Option<String>,
    sample: Option<u64>,
    sample_k: Option<u64>,
    /// Suite filter (paper only — sweep/fetch shards pre-resolved
    /// workloads instead).
    suite: Option<String>,
    /// JSON dump directory (paper only: exhibits write their own
    /// dumps; sweep/fetch dumps are written by the coordinator).
    json_dir: Option<String>,
    /// `true` when the coordinator collects telemetry: the worker
    /// enables its own collection and ships a metrics snapshot in the
    /// response.
    metrics: bool,
}

impl WorkerRequest {
    fn new(parsed: &Parsed, task: &str, items: Vec<String>) -> WorkerRequest {
        WorkerRequest {
            task: task.to_owned(),
            scale: scale_arg(parsed.scale),
            items,
            cache: (!parsed.no_cache).then(|| args::cache_dir(parsed)),
            batch_size: parsed.batch_size.map(|n| n as u64),
            model: parsed.model.map(|m| m.to_string()),
            sample: parsed.sample.map(|n| n as u64),
            sample_k: parsed.sample_k.map(|n| n as u64),
            suite: None,
            json_dir: None,
            metrics: telemetry::enabled(),
        }
    }
}

/// `Scale` in the spelling `driver::parse_scale` accepts: the label for
/// the named scales, the bare factor for custom ones (whose `Display`
/// form `custom(x)` does not re-parse).
fn scale_arg(scale: Scale) -> String {
    let s = scale.to_string();
    s.strip_prefix("custom(")
        .and_then(|rest| rest.strip_suffix(')'))
        .map(str::to_owned)
        .unwrap_or(s)
}

/// Splits `items` into at most `workers` contiguous shards whose sizes
/// differ by at most one; empty shards are dropped rather than spawned.
fn shards<T: Clone>(items: &[T], workers: usize) -> Vec<Vec<T>> {
    let n = workers.clamp(1, items.len().max(1));
    let base = items.len() / n;
    let extra = items.len() % n;
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        if len > 0 {
            out.push(items[start..start + len].to_vec());
        }
        start += len;
    }
    out
}

/// Spawns one worker per request and collects their parsed responses,
/// in request order.
fn run_workers(requests: &[WorkerRequest]) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut children: Vec<Child> = Vec::new();
    {
        let _spawn_span = telemetry::span("shard.spawn");
        for request in requests {
            let json = serde_json::to_string(request).map_err(|e| e.to_string())?;
            let mut child = Command::new(&exe)
                .arg("__worker")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn worker: {e}"))?;
            child
                .stdin
                .take()
                .expect("stdin was piped")
                .write_all(json.as_bytes())
                .map_err(|e| format!("cannot send worker request: {e}"))?;
            children.push(child);
        }
    }
    let _gather_span = telemetry::span("shard.gather");
    children
        .into_iter()
        .enumerate()
        .map(|(i, child)| {
            let output = child
                .wait_with_output()
                .map_err(|e| format!("worker {i}: {e}"))?;
            if !output.status.success() {
                return Err(format!("worker {i} failed ({})", output.status));
            }
            let text = String::from_utf8(output.stdout)
                .map_err(|_| format!("worker {i}: response is not UTF-8"))?;
            serde_json::from_str(&text).map_err(|e| format!("worker {i}: malformed response: {e}"))
        })
        .collect()
}

/// Decodes the optional metrics snapshot a worker attached to its
/// response and folds it into this process's absorbed telemetry — the
/// same associative merge [`Report::merged`] applies to cache stats,
/// so coordinator metrics stay bit-stable against a single-process
/// run for every machine-independent metric.
fn absorb_worker_metrics(response: &Value) -> Result<(), String> {
    let Some(text) = response.get("metrics").and_then(Value::as_str) else {
        return Ok(());
    };
    let value: Value = serde_json::from_str(text)
        .map_err(|e| format!("worker metrics snapshot is malformed: {e}"))?;
    telemetry::absorb(&decode_metrics(&value)?);
    Ok(())
}

/// Folds per-shard report deltas into the selection-wide report.
fn merge_reports(reports: impl IntoIterator<Item = Report>) -> Report {
    reports
        .into_iter()
        .fold(Report::default(), |acc, r| acc.merged(&r))
}

// ---------------------------------------------------------------------------
// Coordinators (one per sharded subcommand)
// ---------------------------------------------------------------------------

/// Runs the predictor sweep (and optional CPI addendum) sharded across
/// `workers` subprocesses; returns the merged rows and report.
pub fn sweep_sharded(
    parsed: &Parsed,
    workloads: &[Workload],
    workers: usize,
) -> Result<(SweepRows, Report), String> {
    let requests: Vec<WorkerRequest> = shards(workloads, workers)
        .into_iter()
        .map(|shard| {
            WorkerRequest::new(
                parsed,
                "sweep",
                shard.iter().map(|w| w.name().to_owned()).collect(),
            )
        })
        .collect();
    let responses = run_workers(&requests)?;
    let _merge_span = telemetry::span("shard.merge");
    let mut rows = Vec::new();
    let mut cpi: Option<Vec<CpiJsonRow>> = None;
    let mut reports = Vec::new();
    for response in responses {
        rows.extend(decode_sweep_rows(seq(&response, "rows")?)?);
        match field(&response, "cpi")? {
            Value::Null => {}
            v => cpi
                .get_or_insert_with(Vec::new)
                .extend(decode_cpi_rows(as_seq(v, "cpi")?)?),
        }
        reports.push(decode_report(field(&response, "report")?)?);
        absorb_worker_metrics(&response)?;
    }
    Ok((SweepRows { rows, cpi }, merge_reports(reports)))
}

/// Runs the fetch design-grid sweep sharded across `workers`
/// subprocesses; returns the merged grid rows and report.
pub fn fetch_sharded(
    parsed: &Parsed,
    workloads: &[Workload],
    workers: usize,
) -> Result<(Vec<FetchsimRow>, Report), String> {
    let requests: Vec<WorkerRequest> = shards(workloads, workers)
        .into_iter()
        .map(|shard| {
            WorkerRequest::new(
                parsed,
                "fetch",
                shard.iter().map(|w| w.name().to_owned()).collect(),
            )
        })
        .collect();
    let responses = run_workers(&requests)?;
    let _merge_span = telemetry::span("shard.merge");
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for response in responses {
        rows.extend(decode_fetch_rows(seq(&response, "rows")?)?);
        reports.push(decode_report(field(&response, "report")?)?);
        absorb_worker_metrics(&response)?;
    }
    Ok((rows, merge_reports(reports)))
}

/// Regenerates paper exhibits sharded across `workers` subprocesses:
/// each worker captures its exhibits' text (JSON dumps go straight to
/// the shared `--json` directory); the coordinator returns the
/// concatenated text in exhibit order plus the merged report.
pub fn paper_sharded(
    parsed: &Parsed,
    exhibits: &[String],
    workers: usize,
) -> Result<(String, Report), String> {
    let requests: Vec<WorkerRequest> = shards(exhibits, workers)
        .into_iter()
        .map(|shard| {
            let mut request = WorkerRequest::new(parsed, "paper", shard);
            request.suite = parsed.suite.map(|s| s.to_string());
            request.json_dir = parsed.json_dir.clone();
            request
        })
        .collect();
    let responses = run_workers(&requests)?;
    let _merge_span = telemetry::span("shard.merge");
    let mut text = String::new();
    let mut reports = Vec::new();
    for response in responses {
        text.push_str(str_field(&response, "text")?);
        reports.push(decode_report(field(&response, "report")?)?);
        absorb_worker_metrics(&response)?;
    }
    Ok((text, merge_reports(reports)))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// One worker shard's sweep payload.
#[derive(Debug, Serialize)]
struct SweepResponse {
    rows: Vec<SweepJsonRow>,
    cpi: Option<Vec<CpiJsonRow>>,
    report: Report,
    /// The shard's metrics snapshot as embedded snapshot JSON
    /// (`None` when telemetry is off).
    metrics: Option<String>,
}

/// One worker shard's fetch payload.
#[derive(Debug, Serialize)]
struct FetchResponse {
    rows: Vec<FetchsimRow>,
    report: Report,
    /// The shard's metrics snapshot (see [`SweepResponse::metrics`]).
    metrics: Option<String>,
}

/// One worker shard's paper payload: the exhibits' captured text.
#[derive(Debug, Serialize)]
struct PaperResponse {
    text: String,
    report: Report,
    /// The shard's metrics snapshot (see [`SweepResponse::metrics`]).
    metrics: Option<String>,
}

/// The intermediate result of one worker task, before the response —
/// split out so the `worker` span can close before the snapshot is
/// taken.
enum TaskData {
    Sweep(SweepRows),
    Fetch(Vec<FetchsimRow>),
    Paper(String),
}

/// The hidden `__worker` subcommand: reads one request from stdin,
/// latches the process-wide knobs exactly as the equivalent
/// single-process subcommand would, runs its shard, and writes one
/// response to stdout.
pub fn worker(argv: &[String]) -> Result<std::process::ExitCode, String> {
    if !argv.is_empty() {
        return Err("__worker reads its request from stdin and takes no arguments".into());
    }
    let mut input = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut input)
        .map_err(|e| format!("cannot read worker request: {e}"))?;
    let request = serde_json::from_str(&input).map_err(|e| format!("malformed request: {e}"))?;

    match field(&request, "cache")? {
        Value::Null => std::env::remove_var(util::TRACE_CACHE_ENV),
        v => std::env::set_var(util::TRACE_CACHE_ENV, as_str(v, "cache")?),
    }
    if let Some(n) = opt_u64(&request, "batch_size")? {
        rebalance_trace::set_batch_capacity(n as usize).map_err(|e| e.to_string())?;
    }
    let sample = opt_u64(&request, "sample")?;
    let sample_k = opt_u64(&request, "sample_k")?;
    if sample.is_some() || sample_k.is_some() {
        let mut cfg = rebalance_trace::SamplingConfig::default();
        if let Some(n) = sample {
            cfg = cfg.with_intervals(n as usize);
        }
        if let Some(k) = sample_k {
            cfg = cfg.with_k(k as usize);
        }
        util::set_sampling(Some(cfg));
    }
    let scale_spelling = str_field(&request, "scale")?;
    let scale = driver::parse_scale(scale_spelling)
        .ok_or_else(|| format!("invalid scale `{scale_spelling}`"))?;
    let model = opt_str(&request, "model")?
        .map(|name| {
            rebalance_coresim::FetchModelKind::parse(name)
                .ok_or_else(|| format!("unknown model `{name}`"))
        })
        .transpose()?;
    let items: Vec<String> = seq(&request, "items")?
        .iter()
        .map(|v| as_str(v, "items").map(str::to_owned))
        .collect::<Result<_, _>>()?;

    // The coordinator's --metrics (or its env latch) propagates to
    // every shard, so worker-side stages are instrumented too.
    if field(&request, "metrics")?.as_bool().unwrap_or(false) {
        telemetry::set_enabled(true);
    }

    // Scope the response's report to this shard's replays (nothing ran
    // yet in this process, but the delta is the contract).
    let baseline = util::report_baseline();
    let data = {
        // Every stage this shard runs nests under one `worker` span,
        // closed before the snapshot so the snapshot sees it.
        let _worker_span = telemetry::span("worker");
        match str_field(&request, "task")? {
            "sweep" => {
                let workloads = args::resolve_workloads(&items, false, None)?;
                TaskData::Sweep(crate::sweep_cmd::compute(&workloads, scale, model))
            }
            "fetch" => {
                let workloads = args::resolve_workloads(&items, false, None)?;
                let grid = rebalance_experiments::fetchsim::default_grid();
                TaskData::Fetch(
                    rebalance_experiments::fetchsim::sweep_grid(workloads, scale, &grid).rows,
                )
            }
            "paper" => {
                if let Some(name) = opt_str(&request, "suite")? {
                    let suite =
                        Suite::parse(name).ok_or_else(|| format!("unknown suite `{name}`"))?;
                    util::set_suite_filter(Some(suite));
                }
                if let Some(kind) = model {
                    rebalance_coresim::set_default_fetch_model(kind);
                }
                let json_dir = opt_str(&request, "json_dir")?.map(std::path::PathBuf::from);
                let mut buffer = Vec::new();
                driver::run_exhibits(&items, scale, json_dir.as_deref(), &mut buffer)
                    .map_err(|e| e.to_string())?;
                TaskData::Paper(String::from_utf8_lossy(&buffer).into_owned())
            }
            other => return Err(format!("unknown worker task `{other}`")),
        }
    };
    let report = util::sweep_report_since(&baseline);
    let metrics = telemetry::enabled().then(|| telemetry::snapshot().to_json());
    let response = match data {
        TaskData::Sweep(data) => serde_json::to_string(&SweepResponse {
            rows: data.rows,
            cpi: data.cpi,
            report,
            metrics,
        }),
        TaskData::Fetch(rows) => serde_json::to_string(&FetchResponse {
            rows,
            report,
            metrics,
        }),
        TaskData::Paper(text) => serde_json::to_string(&PaperResponse {
            text,
            report,
            metrics,
        }),
    }
    .map_err(|e| e.to_string())?;
    crate::print_ignoring_pipe(&response);
    Ok(std::process::ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Wire decoding (the vendored serde deserializes to `Value` trees only)
// ---------------------------------------------------------------------------

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("`{what}` is not a string"))
}

fn as_seq<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    v.as_seq()
        .ok_or_else(|| format!("`{what}` is not an array"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    as_str(field(v, key)?, key)
}

fn seq<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    as_seq(field(v, key)?, key)
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    let v = field(v, key)?;
    // The writer renders non-finite floats as `null`; round-trip them.
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64().ok_or_else(|| format!("`{key}` is not a number"))
}

fn opt_str<'a>(v: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match field(v, key)? {
        Value::Null => Ok(None),
        v => as_str(v, key).map(Some),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match field(v, key)? {
        Value::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not an unsigned integer")),
    }
}

fn f64_seq(v: &Value, what: &str) -> Result<Vec<f64>, String> {
    as_seq(v, what)?
        .iter()
        .map(|x| {
            if x.is_null() {
                return Ok(f64::NAN);
            }
            x.as_f64()
                .ok_or_else(|| format!("`{what}` holds a non-number"))
        })
        .collect()
}

/// The suite a workload name belongs to, via the (deterministic)
/// registry — suites are not transported over the wire.
fn suite_of(workload: &str) -> Result<Suite, String> {
    rebalance_workloads::find(workload)
        .map(|w| w.suite())
        .ok_or_else(|| format!("worker returned unknown workload `{workload}`"))
}

fn decode_sweep_rows(rows: &[Value]) -> Result<Vec<SweepJsonRow>, String> {
    rows.iter()
        .map(|r| {
            let workload = str_field(r, "workload")?.to_owned();
            Ok(SweepJsonRow {
                suite: suite_of(&workload)?,
                mpki: f64_seq(field(r, "mpki")?, "mpki")?,
                workload,
            })
        })
        .collect()
}

fn decode_cpi_rows(rows: &[Value]) -> Result<Vec<CpiJsonRow>, String> {
    rows.iter()
        .map(|r| {
            let workload = str_field(r, "workload")?.to_owned();
            Ok(CpiJsonRow {
                suite: suite_of(&workload)?,
                section: str_field(r, "section")?.to_owned(),
                baseline_cpi: f64_field(r, "baseline_cpi")?,
                tailored_cpi: f64_field(r, "tailored_cpi")?,
                workload,
            })
        })
        .collect()
}

fn decode_fetch_rows(rows: &[Value]) -> Result<Vec<FetchsimRow>, String> {
    rows.iter()
        .map(|r| {
            let workload = str_field(r, "workload")?.to_owned();
            let summaries = seq(r, "summaries")?
                .iter()
                .map(|s| {
                    Ok(FetchSummary {
                        bandwidth: f64_field(s, "bandwidth")?,
                        serial_bandwidth: f64_field(s, "serial_bandwidth")?,
                        parallel_bandwidth: f64_field(s, "parallel_bandwidth")?,
                        cycles: u64_field(s, "cycles")?,
                        mispredict_cpk: f64_field(s, "mispredict_cpk")?,
                        resteer_cpk: f64_field(s, "resteer_cpk")?,
                        icache_cpk: f64_field(s, "icache_cpk")?,
                        ftq_empty_cpk: f64_field(s, "ftq_empty_cpk")?,
                    })
                })
                .collect::<Result<_, String>>()?;
            Ok(FetchsimRow {
                suite: suite_of(&workload)?,
                workload,
                summaries,
            })
        })
        .collect()
}

fn decode_cache_stats(v: &Value) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: u64_field(v, "hits")?,
        misses: u64_field(v, "misses")?,
        generations: u64_field(v, "generations")?,
        rejected: u64_field(v, "rejected")?,
        write_failures: u64_field(v, "write_failures")?,
        coalesced: u64_field(v, "coalesced")?,
        tmp_swept: u64_field(v, "tmp_swept")?,
        bytes_read: u64_field(v, "bytes_read")?,
        bytes_written: u64_field(v, "bytes_written")?,
        lock_wait_ns: u64_field(v, "lock_wait_ns")?,
    })
}

fn decode_report(v: &Value) -> Result<Report, String> {
    let cache = match field(v, "cache")? {
        Value::Null => None,
        stats => Some(decode_cache_stats(stats)?),
    };
    let lanes = match field(v, "lanes")? {
        Value::Null => None,
        l => Some(LaneFill {
            instructions: u64_field(l, "instructions")?,
            branches: u64_field(l, "branches")?,
        }),
    };
    Ok(Report {
        replays: u64_field(v, "replays")?,
        cache,
        lanes,
    })
}

/// Decodes a worker's `metrics.json`-shaped snapshot back into a
/// [`MetricsSnapshot`] (the vendored serde deserializes to `Value`
/// trees only, so this is hand-rolled like the report decoders).
fn decode_metrics(v: &Value) -> Result<MetricsSnapshot, String> {
    let version = u64_field(v, "version")?;
    if version != u64::from(telemetry::SNAPSHOT_VERSION) {
        return Err(format!("unsupported metrics snapshot version {version}"));
    }
    let mut snap = MetricsSnapshot::default();
    for (name, value) in map(v, "counters")? {
        snap.counters.insert(
            name.clone(),
            value
                .as_u64()
                .ok_or_else(|| format!("counter `{name}` is not an unsigned integer"))?,
        );
    }
    for (name, value) in map(v, "gauges")? {
        snap.gauges.insert(
            name.clone(),
            value
                .as_i64()
                .ok_or_else(|| format!("gauge `{name}` is not an integer"))?,
        );
    }
    for (name, value) in map(v, "histograms")? {
        let buckets = as_seq(field(value, "buckets")?, "buckets")?
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or_else(|| format!("histogram `{name}` holds a non-integer bucket"))
            })
            .collect::<Result<_, _>>()?;
        snap.histograms.insert(
            name.clone(),
            HistogramSnapshot {
                count: u64_field(value, "count")?,
                sum: u64_field(value, "sum")?,
                buckets,
            },
        );
    }
    snap.spans = decode_span(field(v, "spans")?)?;
    Ok(snap)
}

fn decode_span(v: &Value) -> Result<SpanNode, String> {
    let mut node = SpanNode {
        total_ns: u64_field(v, "total_ns")?,
        count: u64_field(v, "count")?,
        ..SpanNode::default()
    };
    // Leaf nodes omit the `children` key entirely.
    if let Some(children) = v.get("children") {
        for (name, child) in children
            .as_map()
            .ok_or_else(|| "`children` is not an object".to_owned())?
        {
            node.children.insert(name.clone(), decode_span(child)?);
        }
    }
    Ok(node)
}

fn map<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    field(v, key)?
        .as_map()
        .ok_or_else(|| format!("`{key}` is not an object"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_contiguous_and_balanced() {
        let items: Vec<u32> = (0..7).collect();
        let chunks = shards(&items, 3);
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        let flat: Vec<u32> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, items, "concatenation preserves selection order");
        // More workers than items: one singleton shard each, no empties.
        assert_eq!(shards(&items[..2], 8), vec![vec![0], vec![1]]);
        assert_eq!(shards(&items, 1), vec![items.clone()]);
        assert!(shards(&[] as &[u32], 4).is_empty());
    }

    #[test]
    fn scale_arg_round_trips_through_parse_scale() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Full, Scale::Custom(0.35)] {
            let spelled = scale_arg(scale);
            let parsed = driver::parse_scale(&spelled).expect("spelling must re-parse");
            assert_eq!(parsed, scale, "{spelled}");
        }
    }

    #[test]
    fn report_round_trips_over_the_wire() {
        let report = Report {
            replays: 47,
            cache: Some(CacheStats {
                hits: 40,
                misses: 7,
                generations: 7,
                rejected: 1,
                write_failures: 2,
                coalesced: 3,
                tmp_swept: 4,
                bytes_read: 123_456,
                bytes_written: 789,
                lock_wait_ns: 5_000_000,
            }),
            lanes: Some(LaneFill {
                instructions: 1_000_000,
                branches: 150_000,
            }),
        };
        let json = serde_json::to_string(&report).unwrap();
        let decoded = decode_report(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(decoded, report);
        // Sparse reports (no cache, no delivery tally) round-trip too.
        let sparse = Report {
            replays: 3,
            ..Report::default()
        };
        let json = serde_json::to_string(&sparse).unwrap();
        let decoded = decode_report(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(decoded, sparse);
    }

    #[test]
    fn metrics_snapshot_round_trips_over_the_wire() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("cache.hits".into(), 12);
        snap.counters.insert("replay.events".into(), 40_000);
        snap.gauges.insert("workers".into(), 2);
        let mut hist = HistogramSnapshot {
            count: 2,
            sum: 1030,
            buckets: vec![0; telemetry::HIST_BUCKETS],
        };
        hist.buckets[10] = 1;
        hist.buckets[4] = 1;
        snap.histograms.insert("cache.generation_ns".into(), hist);
        let mut replay = SpanNode {
            total_ns: 900,
            count: 3,
            ..SpanNode::default()
        };
        replay.children.insert(
            "decode".into(),
            SpanNode {
                total_ns: 400,
                count: 3,
                ..SpanNode::default()
            },
        );
        snap.spans.children.insert("replay".into(), replay);

        let json = snap.to_json();
        let decoded = decode_metrics(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(decoded, snap);

        // An unknown version is a clean error, not a misread.
        let bumped = json.replacen("\"version\":1", "\"version\":999", 1);
        assert!(decode_metrics(&serde_json::from_str(&bumped).unwrap()).is_err());
    }

    #[test]
    fn merge_reports_folds_shard_deltas() {
        let shard = |replays| Report {
            replays,
            ..Report::default()
        };
        let merged = merge_reports([shard(3), shard(4), shard(5)]);
        assert_eq!(merged.replays, 12);
        assert_eq!(merge_reports([]), Report::default());
    }
}
