//! Minimal flag parsing shared by the subcommands (the workspace builds
//! offline, so no clap), and the [`Run`] built from the parsed flags.

use rebalance_coresim::FetchModelKind;
use rebalance_experiments::util::Run;
use rebalance_trace::TraceCache;
use rebalance_workloads::{Scale, Suite};

/// Accumulates positional arguments and recognized flags; rejects
/// anything else.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Non-flag arguments in order.
    pub positional: Vec<String>,
    /// `--scale` value (default smoke: CLI runs favor fast iteration).
    pub scale: Scale,
    /// `--suite NAME` (restrict the selection to one suite).
    pub suite: Option<Suite>,
    /// `--cache DIR`.
    pub cache_dir: Option<String>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--all`.
    pub all: bool,
    /// `--force`.
    pub force: bool,
    /// `--json DIR`.
    pub json_dir: Option<String>,
    /// `--model {penalty,ftq}` (CPI timing backend).
    pub model: Option<FetchModelKind>,
    /// `--sample N` (slice each replay into N intervals and replay one
    /// weighted representative per phase cluster).
    pub sample: Option<usize>,
    /// `--sample-k K` (number of phase clusters; implies `--sample`
    /// with the default interval count when given alone).
    pub sample_k: Option<usize>,
    /// `--metrics [text|json[=PATH]]` (collect and emit the telemetry
    /// snapshot after the report; bare `--metrics` means `text`).
    pub metrics: Option<MetricsMode>,
}

/// How `--metrics` renders the telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsMode {
    /// Span tree plus top counters after the report.
    Text,
    /// Versioned `metrics.json`; `Some(path)` overrides the default
    /// location (`--json` dir if given, else the working directory).
    Json(Option<String>),
}

/// Parses `argv` into [`Parsed`].
///
/// # Errors
///
/// A usage message naming the offending flag or missing value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        scale: Scale::Smoke,
        ..Parsed::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                parsed.scale = rebalance_experiments::driver::parse_scale(v)
                    .ok_or_else(|| format!("invalid scale `{v}`"))?;
            }
            "--cache" => {
                parsed.cache_dir = Some(it.next().ok_or("--cache needs a directory")?.clone());
            }
            "--suite" => {
                let v = it.next().ok_or("--suite needs a name")?;
                parsed.suite = Some(Suite::parse(v).ok_or_else(|| {
                    format!("unknown suite `{v}` (expected: exmatex specomp npb specint kernels)")
                })?);
            }
            "--json" => {
                parsed.json_dir = Some(it.next().ok_or("--json needs a directory")?.clone());
            }
            "--workloads" => {
                // Comma-separated names; equivalent to listing them as
                // positional arguments.
                parsed
                    .positional
                    .push(it.next().ok_or("--workloads needs a name list")?.clone());
            }
            "--model" => {
                let v = it.next().ok_or("--model needs a value")?;
                parsed.model = Some(
                    FetchModelKind::parse(v)
                        .ok_or_else(|| format!("unknown model `{v}` (expected: penalty ftq)"))?,
                );
            }
            "--sample" => {
                let v = it.next().ok_or("--sample needs an interval count")?;
                parsed.sample = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("invalid interval count `{v}` (expected >= 1)"))?,
                );
            }
            "--sample-k" => {
                let v = it.next().ok_or("--sample-k needs a cluster count")?;
                parsed.sample_k = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("invalid cluster count `{v}` (expected >= 1)"))?,
                );
            }
            "--metrics" => {
                // The value is optional: consume the next argument only
                // when it names a mode, so `--metrics CG` still treats
                // `CG` as a positional workload.
                parsed.metrics = Some(match it.peek().map(|s| s.as_str()) {
                    Some("text") => {
                        it.next();
                        MetricsMode::Text
                    }
                    Some("json") => {
                        it.next();
                        MetricsMode::Json(None)
                    }
                    Some(v) if v.starts_with("json=") => {
                        let path = v["json=".len()..].to_owned();
                        if path.is_empty() {
                            return Err("--metrics json= needs a file path".into());
                        }
                        it.next();
                        MetricsMode::Json(Some(path))
                    }
                    _ => MetricsMode::Text,
                });
            }
            "--no-cache" => parsed.no_cache = true,
            "--all" => parsed.all = true,
            "--force" => parsed.force = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => parsed.positional.push(positional.to_owned()),
        }
    }
    if parsed.no_cache && parsed.cache_dir.is_some() {
        return Err("--no-cache and --cache are mutually exclusive".into());
    }
    Ok(parsed)
}

/// Rejects options the calling subcommand does not support. Each entry
/// is `(was the flag given, its name)`.
///
/// # Errors
///
/// Names the first inapplicable flag.
pub fn forbid(flags: &[(bool, &str)]) -> Result<(), String> {
    for (present, name) in flags {
        if *present {
            return Err(format!("{name} is not supported by this subcommand"));
        }
    }
    Ok(())
}

/// The sampling flags as [`forbid`] entries, for subcommands that do
/// not run timing sweeps.
pub fn sampling_flags(parsed: &Parsed) -> [(bool, &'static str); 2] {
    [
        (parsed.sample.is_some(), "--sample"),
        (parsed.sample_k.is_some(), "--sample-k"),
    ]
}

/// The `--metrics` flag as a [`forbid`] entry, for subcommands without
/// a telemetry surface.
pub fn metrics_flag(parsed: &Parsed) -> [(bool, &'static str); 1] {
    [(parsed.metrics.is_some(), "--metrics")]
}

/// Turns telemetry collection on when `--metrics` was given, the only
/// switch for it. Must run before the first replay so every stage is
/// covered.
pub fn configure_metrics(parsed: &Parsed) {
    if parsed.metrics.is_some() {
        rebalance_telemetry::set_enabled(true);
    }
}

/// The cache directory to use: explicit `--cache`, or the default.
pub fn cache_dir(parsed: &Parsed) -> String {
    parsed
        .cache_dir
        .clone()
        .unwrap_or_else(|| crate::DEFAULT_CACHE_DIR.to_owned())
}

/// The sampling configuration implied by `--sample`/`--sample-k`:
/// `None` when neither flag was given, otherwise the default geometry
/// with the given knobs overridden (either flag alone implies the
/// other's default).
pub fn sampling_config(parsed: &Parsed) -> Option<rebalance_trace::SamplingConfig> {
    if parsed.sample.is_none() && parsed.sample_k.is_none() {
        return None;
    }
    let mut cfg = rebalance_trace::SamplingConfig::default();
    if let Some(n) = parsed.sample {
        cfg = cfg.with_intervals(n);
    }
    if let Some(k) = parsed.sample_k {
        cfg = cfg.with_k(k);
    }
    Some(cfg)
}

/// Opens the trace cache at [`cache_dir`].
///
/// # Errors
///
/// The directory cannot be created or used, named in the message.
pub fn open_cache(parsed: &Parsed) -> Result<TraceCache, String> {
    let dir = cache_dir(parsed);
    TraceCache::new(&dir).map_err(|e| format!("cannot open trace cache {dir}: {e}"))
}

/// Builds the [`Run`] every replay of this invocation goes through:
/// the cache from `--cache`/`--no-cache`, the suite filter from
/// `--suite`, the sampling geometry from `--sample`/`--sample-k` and
/// the CPI fetch model from `--model`.
///
/// # Errors
///
/// The trace cache cannot be opened (see [`open_cache`]).
pub fn run(parsed: &Parsed) -> Result<Run, String> {
    let mut run = Run::default();
    if !parsed.no_cache {
        run.cache = Some(open_cache(parsed)?);
    }
    run.suite = parsed.suite;
    run.sampling = sampling_config(parsed);
    run.fetch_model = parsed.model.unwrap_or_default();
    Ok(run)
}

/// Resolves a suite filter, workload names, or the whole roster into
/// `Workload`s.
///
/// # Errors
///
/// Names not present in the roster.
pub fn resolve_workloads(
    names: &[String],
    all: bool,
    suite: Option<Suite>,
) -> Result<Vec<rebalance_workloads::Workload>, String> {
    if let Some(suite) = suite {
        if !names.is_empty() || all {
            return Err(
                "--suite is mutually exclusive with --all and explicit workload names".into(),
            );
        }
        return Ok(rebalance_workloads::by_suite(suite));
    }
    if all || names.is_empty() {
        return Ok(rebalance_workloads::all());
    }
    names
        .iter()
        .flat_map(|arg| arg.split(','))
        .filter(|name| !name.is_empty())
        .map(|name| {
            rebalance_workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let p = parse(&argv(&["CG", "--scale", "quick", "--cache", "d", "FT"])).unwrap();
        assert_eq!(p.positional, vec!["CG", "FT"]);
        assert_eq!(p.scale, Scale::Quick);
        assert_eq!(p.cache_dir.as_deref(), Some("d"));
        assert_eq!(cache_dir(&p), "d");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv(&["--scale"])).is_err());
        assert!(parse(&argv(&["--scale", "zero"])).is_err());
        assert!(parse(&argv(&["--bogus"])).is_err());
        assert!(parse(&argv(&["--no-cache", "--cache", "d"])).is_err());
    }

    #[test]
    fn parses_model() {
        let p = parse(&argv(&["--model", "ftq"])).unwrap();
        assert_eq!(p.model, Some(FetchModelKind::Ftq));
        let p = parse(&argv(&["--model", "penalty"])).unwrap();
        assert_eq!(p.model, Some(FetchModelKind::Penalty));
        assert_eq!(parse(&argv(&[])).unwrap().model, None);
        assert!(parse(&argv(&["--model"])).is_err());
        assert!(parse(&argv(&["--model", "sniper"])).is_err());
    }

    #[test]
    fn rejects_the_removed_block_size_flag() {
        // No flag or environment variable sets the block size; the
        // old flag fails like any other unknown flag.
        let flag = format!("--{}-size", "batch");
        let err = parse(&[flag.clone(), "512".to_owned()]).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}`"));
    }

    #[test]
    fn run_carries_the_parsed_configuration() {
        let p = parse(&argv(&[
            "--no-cache",
            "--suite",
            "npb",
            "--sample-k",
            "3",
            "--model",
            "ftq",
        ]))
        .unwrap();
        let run = run(&p).unwrap();
        assert!(run.cache.is_none());
        assert_eq!(run.suite, Some(Suite::Npb));
        assert_eq!(run.sampling, sampling_config(&p));
        assert_eq!(run.fetch_model, FetchModelKind::Ftq);
        let defaults = super::run(&parse(&argv(&["--no-cache"])).unwrap()).unwrap();
        assert_eq!(defaults.suite, None);
        assert_eq!(defaults.sampling, None);
        assert_eq!(defaults.fetch_model, FetchModelKind::Penalty);
    }

    #[test]
    fn rejects_the_removed_compute_backend_flag() {
        // The scalar/wide compute-backend switch is gone; its old
        // spelling fails like any other unknown flag.
        let flag = format!("--{}", "backend");
        let err = parse(&[flag.clone(), "wide".to_owned()]).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}`"));
    }

    #[test]
    fn parses_sampling_knobs() {
        let p = parse(&argv(&["--sample", "40", "--sample-k", "4"])).unwrap();
        assert_eq!(p.sample, Some(40));
        assert_eq!(p.sample_k, Some(4));
        let cfg = sampling_config(&p).unwrap();
        assert_eq!(cfg.intervals, 40);
        assert_eq!(cfg.k, 4);
        // Either knob alone implies the other's default.
        let cfg = sampling_config(&parse(&argv(&["--sample", "40"])).unwrap()).unwrap();
        assert_eq!(cfg.k, rebalance_trace::SamplingConfig::default().k);
        let cfg = sampling_config(&parse(&argv(&["--sample-k", "2"])).unwrap()).unwrap();
        assert_eq!(
            cfg.intervals,
            rebalance_trace::SamplingConfig::default().intervals
        );
        assert_eq!(sampling_config(&parse(&argv(&[])).unwrap()), None);
        assert!(parse(&argv(&["--sample"])).is_err());
        assert!(parse(&argv(&["--sample", "0"])).is_err());
        assert!(parse(&argv(&["--sample-k", "none"])).is_err());
    }

    #[test]
    fn rejects_the_removed_workers_flag() {
        // Subprocess sharding is gone; its old spelling fails like any
        // other unknown flag.
        let flag = format!("--{}", "workers");
        let err = parse(&[flag.clone(), "2".to_owned()]).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}`"));
    }

    #[test]
    fn parses_metrics_modes() {
        assert_eq!(parse(&argv(&[])).unwrap().metrics, None);
        let p = parse(&argv(&["--metrics"])).unwrap();
        assert_eq!(p.metrics, Some(MetricsMode::Text));
        let p = parse(&argv(&["--metrics", "text"])).unwrap();
        assert_eq!(p.metrics, Some(MetricsMode::Text));
        let p = parse(&argv(&["--metrics", "json"])).unwrap();
        assert_eq!(p.metrics, Some(MetricsMode::Json(None)));
        let p = parse(&argv(&["--metrics", "json=out/m.json"])).unwrap();
        assert_eq!(
            p.metrics,
            Some(MetricsMode::Json(Some("out/m.json".to_owned())))
        );
        assert!(parse(&argv(&["--metrics", "json="])).is_err());
        // A non-mode word after the flag stays positional.
        let p = parse(&argv(&["--metrics", "CG"])).unwrap();
        assert_eq!(p.metrics, Some(MetricsMode::Text));
        assert_eq!(p.positional, vec!["CG"]);
    }

    #[test]
    fn workload_resolution() {
        let ws = resolve_workloads(&argv(&["CG,FT", "gcc"]), false, None).unwrap();
        assert_eq!(ws.len(), 3);
        assert!(resolve_workloads(&argv(&["nope"]), false, None).is_err());
        assert_eq!(
            resolve_workloads(&[], false, None).unwrap().len(),
            rebalance_workloads::all().len()
        );
        // A suite filter selects exactly that suite's roster.
        let kernels = resolve_workloads(&[], false, Some(Suite::Kernels)).unwrap();
        assert!(kernels.len() >= 6);
        assert!(kernels.iter().all(|w| w.suite() == Suite::Kernels));
    }

    #[test]
    fn parses_suite_filter() {
        let p = parse(&argv(&["--suite", "kernels"])).unwrap();
        assert_eq!(p.suite, Some(Suite::Kernels));
        assert!(parse(&argv(&["--suite"])).is_err());
        assert!(parse(&argv(&["--suite", "quake3"])).is_err());
        assert!(
            resolve_workloads(&argv(&["CG"]), false, Some(Suite::Npb)).is_err(),
            "suite filter and names are mutually exclusive"
        );
        assert!(
            resolve_workloads(&[], true, Some(Suite::Npb)).is_err(),
            "suite filter and --all are mutually exclusive"
        );
    }
}
