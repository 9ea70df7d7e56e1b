//! `rebalance sweep` — the nine-configuration predictor sweep, replays
//! served from the trace cache, the nine configurations measured by one
//! predictor bank.
//!
//! The command is split into a *compute* half (replay the selection,
//! reduce to plain per-workload rows) and a *render* half (tables and
//! JSON from those rows), so the printed tables and the `--json` dumps
//! are rendered from the same rows.

use std::process::ExitCode;

use rebalance_coresim::{CoreModel, FetchModelKind, FrontendKeys};
use rebalance_experiments::util::{self, f2, Run, RunError, TextTable};
use rebalance_frontend::predictor::PredictorBank;
use rebalance_frontend::{CoreKind, PredictorChoice};
use rebalance_trace::Timed;
use rebalance_workloads::{Suite, Workload};
use serde::Serialize;

use crate::args;

/// Machine-readable mirror of the printed MPKI table (`--json DIR`
/// writes it as `sweep.json`, next to the shared `report.json`).
#[derive(Debug, Serialize)]
struct SweepJson {
    scale: String,
    configs: Vec<String>,
    rows: Vec<SweepJsonRow>,
}

/// One workload's MPKI under every configuration.
#[derive(Debug, Serialize)]
struct SweepJsonRow {
    workload: String,
    suite: Suite,
    mpki: Vec<f64>,
}

/// The reduced result of the sweep's compute half: everything the
/// render half needs, with no live tools.
struct SweepRows {
    rows: Vec<SweepJsonRow>,
    cpi: Option<Vec<CpiJsonRow>>,
}

/// The predictor tool of one sweep replay: `configs` as one
/// [`PredictorBank`], which runs each distinct base predictor once per
/// branch. With telemetry on, its `on_batch` time lands on one counter,
/// `tool.predictors.on_batch_ns`, not on one per configuration: timing
/// each base inside the bank would take two clock reads per branch and
/// base, which costs more than the sharing saves. `Timed` derefs to the
/// bank, so `.reports()` reads through it.
pub(crate) fn predictor_bank(configs: &[PredictorChoice]) -> Timed<PredictorBank> {
    Timed::new("predictors", PredictorBank::new(configs))
}

/// Replays the selection and reduces it to per-workload rows; with
/// `model`, a second shared replay per workload measures both paper
/// cores' CPI through the chosen timing backend.
fn compute(
    run: &Run,
    workloads: &[Workload],
    scale: rebalance_workloads::Scale,
    model: Option<FetchModelKind>,
) -> Result<SweepRows, RunError> {
    let configs = PredictorChoice::figure5_set();
    let rows = run
        .sweep_weighted(workloads.to_vec(), scale, |_| {
            vec![predictor_bank(&configs)]
        })?
        .iter()
        .map(|o| SweepJsonRow {
            workload: o.item.name().to_owned(),
            suite: o.item.suite(),
            mpki: (o.tools[0].reports().iter())
                .map(|r| r.total().mpki())
                .collect(),
        })
        .collect();
    Ok(SweepRows {
        rows,
        cpi: model
            .map(|kind| measure_cpi(run, workloads, scale, kind))
            .transpose()?,
    })
}

/// Runs the sweep and prints MPKI plus the shared replay/cache report:
/// per-suite means over multi-suite selections, per-workload rows when
/// a single suite is selected (`--suite kernels` reads best that way).
/// With `--model {penalty,ftq}`, a per-workload CPI table measured
/// through the chosen timing backend follows.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[(parsed.force, "--force")])?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;
    let run = args::run(&parsed)?;
    args::configure_metrics(&parsed);

    let configs = PredictorChoice::figure5_set();
    let (data, report) = {
        // The whole compute half nests under one `sweep` span, closed
        // before the snapshot `metrics::emit` takes below.
        let _sweep_span = rebalance_telemetry::span("sweep");
        (
            compute(&run, &workloads, parsed.scale, parsed.model).map_err(|e| e.to_string())?,
            run.report(),
        )
    };

    let suites: Vec<Suite> = Suite::ALL
        .into_iter()
        .filter(|s| data.rows.iter().any(|r| r.suite == *s))
        .collect();

    let table = if suites.len() == 1 {
        // Single suite: per-workload rows, configs as columns.
        let mut header = vec!["workload".to_owned()];
        header.extend(configs.iter().map(|c| c.label()));
        let mut t = TextTable::new(header);
        for r in &data.rows {
            let mut cells = vec![r.workload.clone()];
            cells.extend(r.mpki.iter().map(|m| f2(*m)));
            t.row(cells);
        }
        t
    } else {
        // Multi-suite: per-suite means, suites as columns.
        let mut header = vec!["config".to_owned()];
        header.extend(suites.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(header);
        for (ci, config) in configs.iter().enumerate() {
            let mut cells = vec![config.label()];
            for suite in &suites {
                let mpki = util::mean(
                    data.rows
                        .iter()
                        .filter(|r| r.suite == *suite)
                        .map(|r| r.mpki[ci]),
                );
                cells.push(f2(mpki));
            }
            t.row(cells);
        }
        t
    };
    let heading = if suites.len() == 1 {
        format!("branch MPKI per workload ({} suite)", suites[0])
    } else {
        "branch MPKI per predictor configuration (mean per suite)".to_owned()
    };

    let cpi = data.cpi.map(|rows| CpiJson {
        model: parsed
            .model
            .expect("CPI rows exist only with --model")
            .to_string(),
        rows,
    });

    if let Some(dir) = &parsed.json_dir {
        let json = SweepJson {
            scale: parsed.scale.to_string(),
            configs: configs.iter().map(|c| c.label()).collect(),
            rows: data.rows,
        };
        crate::write_json(dir, "sweep", &json)?;
        // Everything `--model` adds to the terminal lands in the dump
        // too, as its own file.
        if let Some(cpi) = &cpi {
            crate::write_json(dir, "cpi", cpi)?;
        }
        crate::write_json(dir, "report", &report)?;
    }

    crate::print_ignoring_pipe(&format!(
        "{heading}\n{}{}{report}\n",
        table.render(),
        cpi.as_ref().map(render_cpi).unwrap_or_default(),
    ));
    crate::metrics::emit(&parsed, Some(&report))?;
    Ok(ExitCode::SUCCESS)
}

/// Per-workload CPI of both paper cores under one timing backend — the
/// `--model` addendum, printed and (with `--json`) dumped as
/// `cpi.json`.
#[derive(Debug, Serialize)]
struct CpiJson {
    model: String,
    rows: Vec<CpiJsonRow>,
}

/// One workload's CPI on its dominant section.
#[derive(Debug, Serialize)]
struct CpiJsonRow {
    workload: String,
    suite: Suite,
    section: String,
    baseline_cpi: f64,
    tailored_cpi: f64,
}

/// Measures both paper cores over the selection through the chosen
/// timing backend (one additional cache-served replay per workload —
/// both cores share it).
fn measure_cpi(
    run: &Run,
    workloads: &[Workload],
    scale: rebalance_workloads::Scale,
    kind: FetchModelKind,
) -> Result<Vec<CpiJsonRow>, RunError> {
    let models = [
        CoreModel::new(CoreKind::Baseline).with_fetch_model(kind),
        CoreModel::new(CoreKind::Tailored).with_fetch_model(kind),
    ];
    let keys = FrontendKeys::of(&models);
    Ok(run
        .sweep_weighted(workloads.to_vec(), scale, |_| vec![keys.tools()])?
        .iter()
        .map(|o| {
            let backend = o.item.profile().backend;
            let section = if o.item.suite().has_parallel_sections() {
                rebalance_trace::Section::Parallel
            } else {
                rebalance_trace::Section::Serial
            };
            let reports = keys.reports(&o.tools[0]);
            let cpis: Vec<f64> = (reports.timings(&models, &backend).iter())
                .map(|t| t.section(section).cpi)
                .collect();
            CpiJsonRow {
                workload: o.item.name().to_owned(),
                suite: o.item.suite(),
                section: format!("{section:?}").to_lowercase(),
                baseline_cpi: cpis[0],
                tailored_cpi: cpis[1],
            }
        })
        .collect())
}

/// Renders the CPI addendum as a table.
fn render_cpi(cpi: &CpiJson) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "section",
        "baseline CPI",
        "tailored CPI",
        "tailored/baseline",
    ]);
    for r in &cpi.rows {
        t.row(vec![
            r.workload.clone(),
            r.section.clone(),
            f2(r.baseline_cpi),
            f2(r.tailored_cpi),
            f2(r.tailored_cpi / r.baseline_cpi),
        ]);
    }
    format!("per-workload CPI ({} model)\n{}", cpi.model, t.render())
}
