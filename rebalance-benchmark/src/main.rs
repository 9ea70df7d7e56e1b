//! `rebalance-benchmark` — the repo benchmark.
//!
//! ```text
//! rebalance-benchmark [--workload NAME]... [--seed N] [--rounds N | --seconds S]
//!                     [--trace 0|1] [--out DIR]
//! rebalance-benchmark --bless [--out DIR]
//! rebalance-benchmark compare PARENT.json CHANGE.json [--force]
//! ```
//!
//! Run it from the repository root. It builds the `rebalance` CLI with
//! cargo, then times the CLI end to end on warm-cache workloads
//! (`--trace 0`), or calls each layer in-process inside its own spans
//! (`--trace 1`); with no `--trace` it does both. End-to-end times are
//! restated at one nominal host speed with a reference kernel timed
//! before each command (see `reference.rs`). It writes
//! `results.json` and `trace.json` under `--out` (default
//! `$CARGO_TARGET_DIR/bench`, else `target/bench`), prints every metric
//! with its unit, and, when one workload is selected, ends with a JSON
//! line: `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod digest;
mod json;
mod proc;
mod reference;
mod run;
mod spec;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Value;
use reference::Reference;
use run::{Env, Passes, Samples, Stop};
use spec::Workload;
use stats::Summary;

/// Set-up passes per workload, which `setup_s` summarises: at least
/// three, and at least two seconds' worth for the sub-second smoke
/// scale.
const SETUP_PASSES: Passes = Passes {
    min: 3,
    min_seconds: 2.0,
    max: 30,
};

/// A traced run needs a warm cache but reports no set-up time.
const ONE_PASS: Passes = Passes {
    min: 1,
    min_seconds: 0.0,
    max: 1,
};

/// Timed rounds when neither `--rounds` nor `--seconds` is given.
const DEFAULT_ROUNDS: usize = 15;

/// Configuration the CLI would otherwise read from the environment.
/// The benchmark measures the defaults, so it clears them for itself
/// and every child.
const CLEARED_ENV: [&str; 4] = [
    "REBALANCE_BATCH",
    "REBALANCE_BACKEND",
    "REBALANCE_METRICS",
    "REBALANCE_TRACE_CACHE",
];

const USAGE: &str = "usage: rebalance-benchmark [--workload NAME]... [--seed N] [--rounds N | --seconds S] [--trace 0|1] [--out DIR]\n\
       rebalance-benchmark --bless [--out DIR]\n\
       rebalance-benchmark compare PARENT.json CHANGE.json [--force]\n\
workloads: sweep_full sweep_sampled paper (default: all three)";

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    stop: Stop,
    /// `None`: both phases; `Some(false)`: end to end; `Some(true)`: traced.
    trace: Option<bool>,
    out: Option<PathBuf>,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 0,
        stop: Stop::Rounds(DEFAULT_ROUNDS),
        trace: None,
        out: None,
        bless: false,
    };
    let mut stop_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = spec::workload(name).ok_or(format!("unknown workload `{name}`"))?;
                if !opts.workloads.iter().any(|x| x.name == w.name) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--rounds" | "--seconds" if stop_given => {
                return Err("give one of --rounds and --seconds".into())
            }
            "--rounds" => {
                stop_given = true;
                let n: usize = value()?.parse().map_err(|_| "--rounds needs an integer")?;
                opts.stop = Stop::Rounds(n.max(1));
            }
            "--seconds" => {
                stop_given = true;
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.stop = Stop::Seconds(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--bless" => opts.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(opts)
}

/// Builds the CLI under test from the current directory's workspace and
/// returns the target directory it went to.
fn build_cli() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "rebalance-cli",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building the rebalance CLI failed ({status}); run from the repository root"
        ));
    }
    Ok(std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from))
}

/// One end-to-end metric of a workload: the run's figure, and the
/// per-round (for `setup_s`, per-pass) samples it summarises.
struct E2e {
    metric: &'static spec::EndToEnd,
    value: f64,
    samples: Vec<f64>,
}

impl E2e {
    fn json(&self) -> Value {
        let s = Summary::of(&self.samples);
        let num = |f: fn(&Summary) -> f64| s.as_ref().map_or(Value::Null, |s| Value::Num(f(s)));
        let m = self.metric;
        Value::obj([
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
            ("bound", Value::Num(m.bound)),
            ("value", Value::Num(self.value)),
            ("median", num(|s| s.median)),
            ("q1", num(|s| s.q1)),
            ("q3", num(|s| s.q3)),
            ("n", Value::Num(self.samples.len() as f64)),
            ("samples", Value::nums(&self.samples)),
        ])
    }
}

/// A workload's end-to-end metrics, every time at the nominal host
/// speed; each time sample is one round's (or set-up pass's) time over
/// the reference run before it. The figure of a timed round is the
/// rounds' total time over the total of their reference runs, times the
/// nominal reference time: the mean per invocation at that speed. Over
/// runs on a drifting host it spreads less than the median of the
/// per-round samples. The figure of set-up is the median pass.
fn end_to_end(s: &Samples) -> [E2e; 5] {
    let scaled = |secs: &[f64], reference_s: &[f64]| -> Vec<f64> {
        secs.iter()
            .zip(reference_s)
            .map(|(&x, &r)| reference::at_nominal(x, r))
            .collect()
    };
    let round = |metric, secs: &[f64]| E2e {
        metric,
        value: reference::at_nominal(secs.iter().sum(), s.round_reference_s.iter().sum()),
        samples: scaled(secs, &s.round_reference_s),
    };
    let setup = scaled(&s.setup_s, &s.setup_reference_s);
    [
        round(&spec::WALL_S, &s.wall_s),
        round(&spec::CPU_S, &s.cpu_s),
        E2e {
            metric: &spec::SETUP_S,
            value: median_of(&setup),
            samples: setup,
        },
        E2e {
            metric: &spec::PEAK_RSS_MB,
            value: median_of(&s.peak_rss_mb),
            samples: s.peak_rss_mb.clone(),
        },
        E2e {
            metric: &spec::FAIL_FRAC,
            value: s.tally.fail_frac(),
            samples: vec![s.tally.fail_frac()],
        },
    ]
}

/// The times as measured, before scaling, and the reference times.
fn measured_json(s: &Samples) -> Value {
    Value::obj([
        ("reference_nominal_s", Value::Num(reference::NOMINAL_S)),
        ("wall_s", Value::nums(&s.wall_s)),
        ("cpu_s", Value::nums(&s.cpu_s)),
        ("round_reference_s", Value::nums(&s.round_reference_s)),
        ("setup_s", Value::nums(&s.setup_s)),
        ("setup_reference_s", Value::nums(&s.setup_reference_s)),
    ])
}

fn median_of(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

fn end_to_end_json(samples: &[Samples], set: u32) -> Value {
    Value::obj(samples.iter().map(|s| {
        let w = s.workload;
        let metrics = end_to_end(s).map(|e| (e.metric.name, e.json()));
        (
            w.name,
            Value::obj([
                (
                    "command",
                    Value::str(format!(
                        "rebalance {} --scale {}",
                        w.args.join(" "),
                        w.scale_arg(set)
                    )),
                ),
                ("why", Value::str(w.why)),
                ("attempted", Value::Num(s.tally.attempted as f64)),
                ("failed", Value::Num(s.tally.failed as f64)),
                (
                    "failures",
                    Value::Arr(
                        s.tally
                            .reasons
                            .iter()
                            .map(|r| Value::str(r.as_str()))
                            .collect(),
                    ),
                ),
                ("metrics", Value::obj(metrics)),
                ("measured", measured_json(s)),
            ]),
        )
    }))
}

fn write(path: &std::path::Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, format!("{value}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The final line a caller parses.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                )
            })),
        ),
    ])
}

fn run(opts: &Options) -> Result<bool, String> {
    let target = build_cli()?;
    let out = opts.out.clone().unwrap_or_else(|| target.join("bench"));
    let env = Env {
        cli: target.join("release").join("rebalance"),
        work: out.join("work"),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
    let expected = digest::parse_expected(include_str!("../expected_digests.txt"))?;
    let mut reference = Reference::new();
    if opts.bless {
        return bless(&env, &mut reference).map(|()| true);
    }
    let set = spec::input_set(opts.seed);
    let traced_only = opts.trace == Some(true);
    // A traced-only run still checks one warm invocation per workload.
    let (passes, stop) = if traced_only {
        (ONE_PASS, Stop::Rounds(0))
    } else {
        (SETUP_PASSES, opts.stop)
    };
    let mut samples = run::prepare(
        &env,
        &mut reference,
        &opts.workloads,
        set,
        passes,
        &expected,
    )?;
    let rounds = run::rounds(&env, &mut reference, set, &mut samples, stop)?;
    let host = proc::host_block(rounds, opts.seed, set);
    let attempted: u64 = samples.iter().map(|s| s.tally.attempted).sum();
    let failed: u64 = samples.iter().map(|s| s.tally.failed).sum();
    for s in &samples {
        for reason in &s.tally.reasons {
            eprintln!("{}: FAILED: {reason}", s.workload.name);
        }
    }
    let single = (opts.workloads.len() == 1).then(|| &samples[0]);
    let mut line = None;

    if !traced_only {
        write(
            &out.join("results.json"),
            &Value::obj([
                ("host", host.clone()),
                ("workloads", end_to_end_json(&samples, set)),
            ]),
        )?;
        println!(
            "end to end ({rounds} timed rounds, input set {set}; times at the speed where the reference kernel takes {} s; value, then median [q1, q3] of the samples)",
            reference::NOMINAL_S
        );
        for s in &samples {
            println!(
                "  {:<14} {:<12} {:>10.4} s      median reference run as measured",
                s.workload.name,
                "reference_s",
                median_of(&s.round_reference_s)
            );
            for e in end_to_end(s) {
                let (med, q1, q3) = Summary::of(&e.samples)
                    .map_or((f64::NAN, f64::NAN, f64::NAN), |s| (s.median, s.q1, s.q3));
                println!(
                    "  {:<14} {:<12} {:>10.4} {:<6} {med:.4} [{q1:.4}, {q3:.4}] n={}",
                    s.workload.name,
                    e.metric.name,
                    e.value,
                    e.metric.unit,
                    e.samples.len()
                );
            }
        }
        println!("wrote {}", out.join("results.json").display());
        if let Some(s) = single {
            line = Some(
                end_to_end(s)
                    .into_iter()
                    .filter(|e| spec::LINE_METRICS.iter().any(|l| l.name == e.metric.name))
                    .map(|e| (e.metric.name.to_owned(), e.value, e.metric.unit))
                    .collect(),
            );
        }
    }

    if opts.trace != Some(false) {
        let seconds = match opts.stop {
            Stop::Seconds(s) if traced_only => s,
            _ => 0.0,
        };
        let layers = spec::layers();
        // Per-layer numbers depend only on the inputs (the whole roster
        // at one scale), so workloads sharing a scale share one traced run.
        let mut inputs_json = Vec::new();
        let mut traced_scales: Vec<String> = Vec::new();
        for s in &samples {
            let w = s.workload;
            let scale = w.scale_arg(set);
            if traced_scales.contains(&scale) {
                continue;
            }
            let sharing: Vec<&str> = samples
                .iter()
                .map(|x| x.workload)
                .filter(|x| x.scale_arg(set) == scale)
                .map(|x| x.name)
                .collect();
            let scratch = env.work.join("traced").join(w.name);
            let cache = env.cache_dir(w);
            let inputs = traced::PassInputs {
                workload: w,
                input_set: set,
                cli: &env.cli,
                warm_cache: &cache,
                scratch: &scratch,
            };
            let t = traced::run(&inputs, seconds)?;
            let label = sharing.join(", ");
            println!(
                "per layer: {label} at scale {scale} ({} traced pass(es))",
                t.passes
            );
            for l in &layers {
                println!("  {:<34} {:>12.4} {}", l.name, t.metrics[&l.name], l.unit);
            }
            if single.is_some() && traced_only {
                line = Some(
                    layers
                        .iter()
                        .map(|l| (l.name.clone(), t.metrics[&l.name], l.unit))
                        .collect(),
                );
            }
            let metrics = layers.iter().map(|l| {
                (
                    l.name.clone(),
                    Value::obj([
                        ("value", Value::Num(t.metrics[&l.name])),
                        ("unit", Value::str(l.unit)),
                        ("better", Value::str(l.better.as_str())),
                        ("layer", Value::str(l.layer)),
                        ("moves", Value::str(l.moves)),
                    ]),
                )
            });
            inputs_json.push(Value::obj([
                ("scale", Value::str(scale.as_str())),
                (
                    "workloads",
                    Value::Arr(sharing.into_iter().map(Value::str).collect()),
                ),
                ("passes", Value::Num(t.passes as f64)),
                ("metrics", Value::obj(metrics)),
                ("spans", t.spans),
            ]));
            traced_scales.push(scale);
        }
        write(
            &out.join("trace.json"),
            &Value::obj([("host", host), ("inputs", Value::Arr(inputs_json))]),
        )?;
        println!("wrote {}", out.join("trace.json").display());
    }
    let _ = std::fs::remove_dir_all(&env.work);
    let correct = failed == 0;
    if let Some(metrics) = line {
        println!("{}", result_line(correct, attempted, failed, metrics));
    }
    Ok(correct)
}

/// Runs every workload on every input set twice, checks the two
/// digests agree, and rewrites `expected_digests.txt`.
fn bless(env: &Env, reference: &mut Reference) -> Result<(), String> {
    let mut expected = digest::Expected::new();
    for set in 0..spec::INPUT_SETS {
        for w in &spec::WORKLOADS {
            run::set_up(env, reference, w, set, ONE_PASS)?;
            let mut digests = Vec::new();
            for _ in 0..2 {
                let (cost, d) = run::invoke(env, w, set)?;
                if !cost.status.success() {
                    return Err(format!(
                        "{} (input set {set}) exited with {}",
                        w.name, cost.status
                    ));
                }
                digests.push(d.ok_or(format!("{}: no --json output", w.name))?);
            }
            if digests[0] != digests[1] {
                return Err(format!("{} (input set {set}) is not deterministic", w.name));
            }
            println!("{} {set} {:016x}", w.name, digests[0]);
            expected.insert((w.name.to_owned(), set), digests[0]);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_digests.txt");
    std::fs::write(path, digest::render_expected(&expected)).map_err(|e| format!("{path}: {e}"))?;
    let _ = std::fs::remove_dir_all(&env.work);
    println!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    for var in CLEARED_ENV {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [parent, change] => compare::run(parent, change, false).map(|_| true),
            [parent, change, force] if force == "--force" => {
                compare::run(parent, change, true).map(|_| true)
            }
            _ => Err(USAGE.to_owned()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|opts| run(&opts)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rebalance-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
