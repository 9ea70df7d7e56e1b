//! `rebalance workloads list` — the registered roster, with per-suite
//! filtering and the kernel archetypes' design knobs.

use std::process::ExitCode;

use rebalance_experiments::util::TextTable;
use rebalance_workloads::KernelSpec;

use crate::args;

/// Lists the roster: name, suite, serial fraction, branch-fraction
/// target, hot/static footprints, instruction budget, phase shape —
/// and, for kernel workloads, the archetype.
pub fn list(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.no_cache, "--no-cache"),
        (parsed.cache_dir.is_some(), "--cache"),
        (parsed.json_dir.is_some(), "--json"),
        (parsed.force, "--force"),
        (parsed.model.is_some(), "--model"),
    ])?;
    args::forbid(&args::sampling_flags(&parsed))?;
    args::forbid(&args::metrics_flag(&parsed))?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;

    let mut t = TextTable::new(vec![
        "workload",
        "suite",
        "serial%",
        "bf%",
        "hot KB",
        "static KB",
        "insts",
        "phases",
        "archetype",
    ]);
    for w in &workloads {
        let p = w.profile();
        let kernel_section = if p.serial_fraction >= 1.0 {
            &p.serial
        } else {
            &p.parallel
        };
        let shape = if p.phases.is_legacy() {
            "legacy".to_owned()
        } else {
            format!(
                "{}ep r{} d{}",
                p.phases.epochs, p.phases.ramp, p.phases.drift_windows
            )
        };
        let archetype = KernelSpec::find(w.name())
            .map(|s| format!("{:?}: {}", s.archetype, s.archetype.description()))
            .unwrap_or_default();
        t.row(vec![
            w.name().to_owned(),
            w.suite().to_string(),
            format!("{:.1}", p.serial_fraction * 100.0),
            format!("{:.1}", kernel_section.branch_fraction * 100.0),
            format!("{:.1}", kernel_section.hot_kb),
            format!("{:.0}", p.static_kb),
            p.instructions.to_string(),
            shape,
            archetype,
        ]);
    }
    crate::print_ignoring_pipe(&format!("{} workload(s)\n{}", workloads.len(), t.render()));
    Ok(ExitCode::SUCCESS)
}
