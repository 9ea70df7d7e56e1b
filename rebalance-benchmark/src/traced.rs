//! The traced run: each layer's public API called in-process on one
//! thread, on a workload's own selection and scale, inside spans the
//! benchmark records itself. Spans live in memory and are written to
//! `trace.json` at the end.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use rebalance_coresim::{CoreModel, FetchModelKind};
use rebalance_fetchsim::FetchSim;
use rebalance_frontend::predictor::PredictorSim;
use rebalance_frontend::{CoreKind, PredictorChoice};
use rebalance_pintools::{characterization_tools, BbvTool};
use rebalance_trace::{
    snapshot, NullTool, SamplePlan, SamplingConfig, Snapshot, ToolSet, TraceCache,
};
use rebalance_workloads::Scale;

use crate::json::Value;
use crate::proc::run_measured;
use crate::spec::{Workload, PAPER_GROUPS, PREDICTOR_LABELS};

/// One recorded span: what ran, inside which span, and when, in
/// nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread. Spans nest: a span opened
/// while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: impl Into<String>) {
        let span = Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn close(&mut self) {
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let result = f();
        self.close();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of the spans named `name` among those
    /// recorded since span number `from`.
    pub fn total_ms(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Each span's self time: its duration minus the part its children
    /// cover. Children run one after another inside their parent, so
    /// that part is the sum of their durations.
    ///
    /// # Errors
    ///
    /// A span whose children outlast it, which would be a recorder bug.
    pub fn self_ns(&self) -> Result<Vec<u64>, String> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children_ns)
            .map(|(span, children)| {
                (span.end_ns - span.start_ns)
                    .checked_sub(children)
                    .ok_or_else(|| format!("span `{}` has negative self time", span.name))
            })
            .collect()
    }
}

/// Nanoseconds one empty span costs this recorder.
fn empty_span_ns() -> f64 {
    const N: u32 = 20_000;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        tracer.span("empty", || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Event counts one pass saw, the bases of its rates.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    branches: u64,
    bytes: u64,
    delivered: u64,
}

/// The sampling geometry of the `sweep_sampled` workload
/// (`--sample 160 --sample-k 8`).
fn sampling_config() -> SamplingConfig {
    SamplingConfig::default().with_intervals(160).with_k(8)
}

/// Calls every layer on one roster workload, each inside its own span.
fn trace_one(
    t: &mut Tracer,
    w: &rebalance_workloads::Workload,
    scale: Scale,
    warm: &TraceCache,
    scratch: &TraceCache,
    counts: &mut Counts,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", w.name());
    let key = w.trace_key(scale);
    let trace = t.span("workloads.synth", || w.trace(scale))?;
    t.span("trace.interpret", || trace.replay(&mut NullTool));
    t.span("snapshot.encode", || {
        snapshot::snapshot_bytes(&trace, key.fingerprint())
    })
    .map_err(|e| err(&e))?;
    t.span("cache.record", || scratch.record(&key, &trace))
        .map_err(|e| err(&e))?;
    drop(trace);
    // Only the read is timed; the scratch copy is not needed again.
    let _ = fs::remove_file(scratch.path_for(&key));

    let bytes = t
        .span("cache.read", || {
            warm.snapshot_bytes(&key, || Err("not in the warm cache".to_owned()))
        })
        .map_err(|e| err(&e))?;
    let snap = t
        .span("snapshot.parse", || Snapshot::parse(&bytes))
        .map_err(|e| err(&e))?;
    let summary = t
        .span("snapshot.decode", || snap.replay(&mut NullTool))
        .map_err(|e| err(&e))?;
    counts.events += summary.instructions;
    counts.branches += summary.branches;
    counts.bytes += snap.info().total_bytes;

    let cfg = sampling_config();
    let mut bbv = BbvTool::new(cfg.dims);
    let plan = t
        .span("sampling.plan", || {
            SamplePlan::from_snapshot(&snap, &mut bbv, &cfg)
        })
        .map_err(|e| err(&e))?;
    let sampled = t
        .span("sampling.replay", || {
            snap.replay_sampled(&mut NullTool, &plan)
        })
        .map_err(|e| err(&e))?;
    counts.delivered += sampled.delivered_instructions;

    let choices = PredictorChoice::figure5_set();
    let mut sims = ToolSet::from_tools(PredictorChoice::build_sims(&choices));
    t.span("frontend.predictors", || snap.replay(&mut sims))
        .map_err(|e| err(&e))?;
    for choice in &choices {
        let mut sim = PredictorSim::new(choice.build());
        t.span(format!("frontend.{}", choice.label()), || {
            snap.replay(&mut sim)
        })
        .map_err(|e| err(&e))?;
    }
    let mut sims = ToolSet::from_tools(PredictorChoice::build_sims(&choices));
    t.span("frontend.predictors_sampled", || {
        snap.replay_sampled(&mut sims, &plan)
    })
    .map_err(|e| err(&e))?;

    let mut grid = ToolSet::from_tools(
        rebalance_experiments::fetchsim::default_grid()
            .into_iter()
            .map(FetchSim::new)
            .collect(),
    );
    t.span("fetchsim.grid", || snap.replay(&mut grid))
        .map_err(|e| err(&e))?;

    let mut tools = characterization_tools();
    t.span("pintools.characterize", || snap.replay(&mut tools))
        .map_err(|e| err(&e))?;

    let core = |kind| CoreModel::new(kind).with_fetch_model(FetchModelKind::Penalty);
    let mut cores = (
        core(CoreKind::Baseline).fetch_tools(),
        core(CoreKind::Tailored).fetch_tools(),
    );
    t.span("coresim.fetch_tools", || snap.replay(&mut cores))
        .map_err(|e| err(&e))?;
    Ok(())
}

/// Everything a traced pass needs from the end-to-end side.
pub struct PassInputs<'a> {
    pub workload: &'a Workload,
    pub input_set: u32,
    /// The `rebalance` binary, for the paper-group children.
    pub cli: &'a Path,
    /// The workload's warm cache, filled by set-up.
    pub warm_cache: &'a Path,
    /// Scratch space this pass may fill and empty.
    pub scratch: &'a Path,
}

/// One traced pass: every layer over the whole roster, then each paper
/// group as a child. Returns each per-layer metric's value.
fn pass(t: &mut Tracer, inputs: &PassInputs<'_>) -> Result<BTreeMap<String, f64>, String> {
    let scale = inputs.workload.scale(inputs.input_set);
    let io = |e: std::io::Error| e.to_string();
    let warm = TraceCache::new(inputs.warm_cache).map_err(io)?;
    let scratch_cache = inputs.scratch.join("cache");
    let scratch = TraceCache::new(&scratch_cache).map_err(io)?;
    let mut counts = Counts::default();
    let first_span = t.spans().len();
    t.open("pass");
    for w in rebalance_workloads::all() {
        t.open(w.name());
        let result = trace_one(t, &w, scale, &warm, &scratch, &mut counts);
        t.close();
        result?;
    }
    let json_dir = inputs.scratch.join("json");
    let scale_arg = inputs.workload.scale_arg(inputs.input_set);
    let mut paper_s = Vec::new();
    for (group, exhibits) in PAPER_GROUPS {
        let _ = fs::remove_dir_all(&json_dir);
        let mut cmd = Command::new(inputs.cli);
        cmd.arg("paper")
            .args(exhibits)
            .args(["--scale", &scale_arg, "--cache"])
            .arg(inputs.warm_cache)
            .arg("--json")
            .arg(&json_dir)
            .stdout(std::process::Stdio::null());
        let cost = t
            .span(format!("paper.{group}"), || run_measured(&mut cmd))
            .map_err(io)?;
        if !cost.status.success() {
            return Err(format!(
                "`rebalance paper {}` failed: {}",
                exhibits.join(" "),
                cost.status
            ));
        }
        paper_s.push((group, cost.wall_s));
    }
    t.close();
    let _ = fs::remove_dir_all(&scratch_cache);
    let _ = fs::remove_dir_all(&json_dir);

    let ms = |name: &str| t.total_ms(first_span, name);
    let events = counts.events as f64;
    let decode = ms("snapshot.decode");
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| m.insert(name.to_owned(), value);
    put("workloads.synth_ms", ms("workloads.synth"));
    put(
        "trace.interpret_mev_s",
        events / ms("trace.interpret") / 1e3,
    );
    put(
        "snapshot.encode_ms",
        ms("snapshot.encode") - ms("trace.interpret"),
    );
    put("snapshot.bytes_per_event", counts.bytes as f64 / events);
    put("cache.write_ms", ms("cache.record") - ms("snapshot.encode"));
    put("cache.read_ms", ms("cache.read"));
    put(
        "cache.read_mb_s",
        counts.bytes as f64 / 1e3 / ms("cache.read"),
    );
    put("snapshot.parse_ms", ms("snapshot.parse"));
    put("snapshot.decode_ms", decode);
    put("snapshot.decode_mev_s", events / decode / 1e3);
    put("sampling.plan_ms", ms("sampling.plan"));
    put("sampling.replay_ms", ms("sampling.replay"));
    put(
        "sampling.effective_mev_s",
        events / ms("sampling.replay") / 1e3,
    );
    put("sampling.delivered_frac", counts.delivered as f64 / events);
    let predictors = ms("frontend.predictors") - decode;
    put("frontend.predictors_ms", predictors);
    put(
        "frontend.ns_per_branch",
        predictors * 1e6 / (counts.branches as f64 * PREDICTOR_LABELS.len() as f64),
    );
    for label in PREDICTOR_LABELS {
        put(
            &format!("frontend.{label}.ms"),
            ms(&format!("frontend.{label}")) - decode,
        );
    }
    put(
        "frontend.predictors_sampled_ms",
        ms("frontend.predictors_sampled") - ms("sampling.replay"),
    );
    let grid = ms("fetchsim.grid") - decode;
    let designs = rebalance_experiments::fetchsim::default_grid().len() as f64;
    put("fetchsim.grid_ms", grid);
    put(
        "fetchsim.ns_per_event_design",
        grid * 1e6 / (events * designs),
    );
    put(
        "pintools.characterize_ms",
        ms("pintools.characterize") - decode,
    );
    put("coresim.fetch_tools_ms", ms("coresim.fetch_tools") - decode);
    for (group, secs) in paper_s {
        put(&format!("paper.{group}_s"), secs);
    }
    Ok(m)
}

/// What a traced run produced: per-layer values (medians over passes),
/// the pass count, and the spans as `trace.json` entries.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub passes: usize,
    pub spans: Value,
}

/// Repeats traced passes while another pass as long as the last one
/// still ends within `seconds` (at least one pass), and reports each
/// metric's median over the passes.
///
/// # Errors
///
/// A failing layer call or paper child, or a negative self time.
pub fn run(inputs: &PassInputs<'_>, seconds: f64) -> Result<Traced, String> {
    let span_ns = empty_span_ns();
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let mut per_pass: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_pass_s = 0.0;
    while per_pass.is_empty() || start.elapsed().as_secs_f64() + last_pass_s <= seconds {
        let pass_start = Instant::now();
        let spans_before = tracer.spans().len();
        let mut m = pass(&mut tracer, inputs)?;
        let spans = (tracer.spans().len() - spans_before) as f64;
        m.insert("trace.overhead_ms".to_owned(), spans * span_ns / 1e6);
        per_pass.push(m);
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    let metrics = per_pass[0]
        .keys()
        .map(|name| {
            let mut xs: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
            xs.sort_by(f64::total_cmp);
            (
                name.clone(),
                crate::stats::median(&xs).expect("one pass at least"),
            )
        })
        .collect();
    let self_ns = tracer.self_ns()?;
    let spans = Value::Arr(
        tracer
            .spans()
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::str(s.name.as_str())),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns as f64)),
                ])
            })
            .collect(),
    );
    Ok(Traced {
        metrics,
        passes: per_pass.len(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.open("root");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || ());
        t.close();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let self_ns = t.self_ns().unwrap();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(self_ns[0], dur(0) - dur(1) - dur(2));
        assert_eq!(self_ns[1], dur(1));
        assert!(t.total_ms(0, "a") >= 2.0);
        assert_eq!(t.total_ms(2, "a"), 0.0);
    }
}
