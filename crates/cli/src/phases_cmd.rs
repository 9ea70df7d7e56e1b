//! `rebalance phases` — print each workload's phase-cluster map: the
//! interval geometry, every cluster's representative and weight, and a
//! per-interval assignment strip.

use std::process::ExitCode;

use rebalance_experiments::util::TextTable;
use rebalance_pintools::BbvTool;
use rebalance_trace::{SamplePlan, SamplingConfig};
use rebalance_workloads::Suite;
use serde::Serialize;

use crate::args;

/// Machine-readable mirror of the printed cluster map (`--json DIR`
/// writes it as `phases.json`).
#[derive(Debug, Serialize)]
struct PhasesJson {
    scale: String,
    config: SamplingConfig,
    workloads: Vec<PhasesJsonWorkload>,
}

/// One workload's sampling plan.
#[derive(Debug, Serialize)]
struct PhasesJsonWorkload {
    workload: String,
    suite: Suite,
    intervals: usize,
    interval_insts: u64,
    replayed_fraction: f64,
    clusters: Vec<PhasesJsonCluster>,
    /// Interval → cluster id, in interval order.
    assignments: Vec<u32>,
}

/// One cluster of the plan.
#[derive(Debug, Serialize)]
struct PhasesJsonCluster {
    id: usize,
    representative: usize,
    weight: u64,
}

/// Renders the per-interval assignment strip, wrapped to `width`
/// clusters per line: each interval is one base-36 digit (`*` beyond
/// that) so the phase structure reads left to right.
fn assignment_strip(plan: &SamplePlan, width: usize) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut out = String::new();
    for chunk in plan.assignments().chunks(width) {
        out.push_str("    ");
        for &a in chunk {
            out.push(*DIGITS.get(a as usize).unwrap_or(&b'*') as char);
        }
        out.push('\n');
    }
    out
}

/// Runs the fingerprint + clustering pass for the selection and prints
/// the plan per workload (no timing tools replay: the plan itself is
/// the output).
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.force, "--force"),
        (parsed.model.is_some(), "--model"),
    ])?;
    args::forbid(&args::metrics_flag(&parsed))?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;
    let run = args::run(&parsed)?;
    let config = run.sampling.unwrap_or_default();

    let outcomes = run
        .sweep_sampled(&config, workloads, parsed.scale, |_| Vec::<BbvTool>::new())
        .map_err(|e| e.to_string())?;

    let mut text = String::new();
    let mut json = PhasesJson {
        scale: parsed.scale.to_string(),
        config,
        workloads: Vec::new(),
    };
    for o in &outcomes {
        let plan = &o.plan;
        text.push_str(&format!(
            "{} ({}): {} intervals x {} insts, {} clusters, replays {:.1}% (warmup {} insts/rep)\n",
            o.item.name(),
            o.item.suite(),
            plan.num_intervals(),
            plan.interval_insts(),
            plan.clusters().len(),
            plan.replayed_fraction() * 100.0,
            plan.warmup_insts(),
        ));
        let mut t = TextTable::new(vec!["cluster", "representative", "weight", "share"]);
        for (id, c) in plan.clusters().iter().enumerate() {
            t.row(vec![
                id.to_string(),
                format!(
                    "interval {} @ inst {}",
                    c.representative,
                    c.representative as u64 * plan.interval_insts()
                ),
                c.weight.to_string(),
                format!(
                    "{:.1}%",
                    c.weight as f64 / plan.num_intervals() as f64 * 100.0
                ),
            ]);
        }
        text.push_str(&t.render());
        text.push_str("  interval -> cluster:\n");
        text.push_str(&assignment_strip(plan, 80));
        text.push('\n');

        json.workloads.push(PhasesJsonWorkload {
            workload: o.item.name().to_owned(),
            suite: o.item.suite(),
            intervals: plan.num_intervals(),
            interval_insts: plan.interval_insts(),
            replayed_fraction: plan.replayed_fraction(),
            clusters: plan
                .clusters()
                .iter()
                .enumerate()
                .map(|(id, c)| PhasesJsonCluster {
                    id,
                    representative: c.representative,
                    weight: c.weight,
                })
                .collect(),
            assignments: plan.assignments().to_vec(),
        });
    }

    if let Some(dir) = &parsed.json_dir {
        crate::write_json(dir, "phases", &json)?;
        crate::write_json(dir, "report", &run.report())?;
    }
    text.push_str(&run.report().to_string());
    text.push('\n');
    crate::print_ignoring_pipe(&text);
    Ok(ExitCode::SUCCESS)
}
