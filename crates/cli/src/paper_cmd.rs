//! `rebalance paper` — regenerate the paper's exhibits through the
//! trace cache.

use std::path::PathBuf;
use std::process::ExitCode;

use rebalance_experiments::driver;
use rebalance_experiments::util::RunError;

use crate::args;

/// Runs the requested exhibits (default: all) and prints the shared
/// replay/cache report at the end. `--suite S` narrows every
/// roster-driven exhibit to one suite; `--model {penalty,ftq}` selects
/// the CPI timing backend for the CMP exhibits.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.force, "--force"),
        (parsed.all, "--all (use the `all` exhibit name)"),
    ])?;
    let exhibits = driver::resolve_exhibits(&parsed.positional)?;
    let run = args::run(&parsed)?;
    args::configure_metrics(&parsed);

    let json_dir = parsed.json_dir.as_ref().map(PathBuf::from);
    {
        let _paper_span = rebalance_telemetry::span("paper");
        let mut out = std::io::stdout().lock();
        match driver::run_exhibits(&run, &exhibits, parsed.scale, json_dir.as_deref(), &mut out) {
            Ok(()) => {}
            // A closed pipe (`rebalance paper ... | head`) is a normal way
            // to stop reading, not a failure.
            Err(RunError::Write(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                return Ok(ExitCode::SUCCESS);
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    let report = run.report();
    crate::print_ignoring_pipe(&format!("{report}\n"));
    crate::metrics::emit(&parsed, Some(&report))?;
    Ok(ExitCode::SUCCESS)
}
