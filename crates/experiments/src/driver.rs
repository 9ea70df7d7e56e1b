//! The exhibit driver behind the `rebalance paper` subcommand: name →
//! regenerator dispatch, scale parsing, and optional JSON dumping.

use std::io::Write;
use std::path::Path;

use rebalance_workloads::Scale;

use crate::util::{Run, RunError};
use crate::{ablations, caches, characterization, cmp, detail, fetchsim, predictors, sampling};

/// Every exhibit name the driver understands, in paper order (the
/// `kernels` exhibit — archetype characterization + predictor sweep —
/// the `fetchsim` decoupled-front-end grid, and the `sampling`
/// phase-sampling validation are ours, appended after the paper's).
pub const EXHIBITS: [&str; 19] = [
    "fig1",
    "fig2",
    "table1",
    "fig3",
    "fig4",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig11",
    "ablations",
    "detail",
    "kernels",
    "fetchsim",
    "sampling",
];

/// `true` if `name` is a known exhibit.
pub fn is_exhibit(name: &str) -> bool {
    EXHIBITS.contains(&name)
}

/// Expands an exhibit argument list: `all` expands to every exhibit,
/// an empty list defaults to every exhibit, duplicates (adjacent or
/// not) are dropped while preserving first-occurrence order.
///
/// # Errors
///
/// The first unknown exhibit name.
pub fn resolve_exhibits(names: &[String]) -> Result<Vec<String>, String> {
    let mut resolved = Vec::new();
    for name in names {
        if name == "all" {
            resolved.extend(EXHIBITS.iter().map(|s| s.to_string()));
        } else if is_exhibit(name) {
            resolved.push(name.clone());
        } else {
            return Err(format!(
                "unknown exhibit `{name}` (expected: all {})",
                EXHIBITS.join(" ")
            ));
        }
    }
    if resolved.is_empty() {
        resolved.extend(EXHIBITS.iter().map(|s| s.to_string()));
    }
    let mut seen = std::collections::HashSet::new();
    resolved.retain(|name| seen.insert(name.clone()));
    Ok(resolved)
}

/// Parses a scale argument: `smoke`, `quick`, `full`, or a positive
/// float multiplier.
pub fn parse_scale(arg: &str) -> Option<Scale> {
    match arg {
        "smoke" => Some(Scale::Smoke),
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        other => match other.parse::<f64>() {
            Ok(f) if f > 0.0 && f.is_finite() => Some(Scale::Custom(f)),
            _ => None,
        },
    }
}

fn dump_json<T: serde::Serialize>(dir: Option<&Path>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Regenerates the given exhibits at `scale` through `run`, writing each
/// rendering to `out` (and a JSON dump per exhibit into `json_dir` when
/// given).
/// Unknown names are skipped with a warning on stderr; exhibits sharing
/// a sweep (the characterization set, the Figure 10 CMP runs) compute
/// it once.
///
/// # Errors
///
/// The first exhibit's replay failure ([`RunError::Replay`]), or a
/// write failure on `out` ([`RunError::Write`]).
pub fn run_exhibits(
    run: &Run,
    exhibits: &[String],
    scale: Scale,
    json_dir: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), RunError> {
    let needs_characterization = exhibits
        .iter()
        .any(|e| matches!(e.as_str(), "fig1" | "fig2" | "table1" | "fig3" | "fig4"));
    let characterization_set = needs_characterization
        .then(|| characterization::run(run, scale))
        .transpose()?;

    let needs_cmp_runs = exhibits.iter().any(|e| e == "fig10");
    let cmp_runs = needs_cmp_runs
        .then(|| cmp::run_cmps(run, scale))
        .transpose()?;

    for exhibit in exhibits {
        let text = match exhibit.as_str() {
            "fig1" => {
                let set = characterization_set.as_ref().expect("precomputed");
                dump_json(json_dir, "fig1", &set.fig1);
                set.fig1.render()
            }
            "fig2" => {
                let set = characterization_set.as_ref().expect("precomputed");
                dump_json(json_dir, "fig2", &set.fig2);
                set.fig2.render()
            }
            "table1" => {
                let set = characterization_set.as_ref().expect("precomputed");
                dump_json(json_dir, "table1", &set.table1);
                set.table1.render()
            }
            "fig3" => {
                let set = characterization_set.as_ref().expect("precomputed");
                dump_json(json_dir, "fig3", &set.fig3);
                set.fig3.render()
            }
            "fig4" => {
                let set = characterization_set.as_ref().expect("precomputed");
                dump_json(json_dir, "fig4", &set.fig4);
                set.fig4.render()
            }
            "table2" => {
                let t = predictors::table2();
                dump_json(json_dir, "table2", &t);
                t.render()
            }
            "fig5" => {
                let f = predictors::fig5(run, scale)?;
                dump_json(json_dir, "fig5", &f);
                f.render()
            }
            "fig6" => {
                let f = predictors::fig6(run, scale)?;
                dump_json(json_dir, "fig6", &f);
                f.render()
            }
            "fig7" => {
                let f = caches::fig7(run, scale)?;
                dump_json(json_dir, "fig7", &f);
                f.render()
            }
            "fig8" => {
                let f = caches::fig8(run, scale)?;
                dump_json(json_dir, "fig8", &f);
                f.render()
            }
            "fig9" => {
                let f = caches::fig9(run, scale)?;
                dump_json(json_dir, "fig9", &f);
                f.render()
            }
            "table3" => {
                let t = cmp::table3();
                dump_json(json_dir, "table3", &t);
                t.render()
            }
            "fig10" => {
                let runs = cmp_runs.as_ref().expect("precomputed");
                let f = cmp::fig10_from_runs(runs);
                dump_json(json_dir, "fig10", &f);
                dump_json(json_dir, "fig10_raw", runs);
                f.render()
            }
            "fig11" => {
                let f = cmp::fig11(run, scale)?;
                dump_json(json_dir, "fig11", &f);
                f.render()
            }
            "detail" => {
                let d = detail::run(run, scale)?;
                dump_json(json_dir, "detail", &d);
                d.render()
            }
            "kernels" => {
                let c = characterization::kernels(run, scale)?;
                let p = predictors::kernels_sweep(run, scale)?;
                dump_json(json_dir, "kernels_characterization", &c);
                dump_json(json_dir, "kernels_predictors", &p);
                format!("{}\n{}", c.render(), p.render())
            }
            "fetchsim" => {
                let f = fetchsim::run(run, scale)?;
                dump_json(json_dir, "fetchsim", &f);
                f.render()
            }
            "sampling" => {
                let s = sampling::run(run, scale)?;
                dump_json(json_dir, "sampling", &s);
                s.render()
            }
            "ablations" => {
                let all = ablations::run_all(run, scale)?;
                dump_json(json_dir, "ablations", &all);
                all.iter()
                    .map(|a| a.render())
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            other => {
                eprintln!("warning: unknown exhibit `{other}` skipped");
                continue;
            }
        };
        writeln!(out, "{text}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_names_are_known() {
        assert!(is_exhibit("fig5"));
        assert!(is_exhibit("ablations"));
        assert!(is_exhibit("kernels"));
        assert!(is_exhibit("fetchsim"));
        assert!(is_exhibit("sampling"));
        assert!(!is_exhibit("fig99"));
        assert_eq!(EXHIBITS.len(), 19);
    }

    #[test]
    fn resolve_expands_validates_and_dedups() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(resolve_exhibits(&[]).unwrap().len(), 19);
        assert_eq!(resolve_exhibits(&names(&["all"])).unwrap().len(), 19);
        // Non-adjacent duplicates are dropped, order preserved.
        assert_eq!(
            resolve_exhibits(&names(&["fig5", "table2", "fig5"])).unwrap(),
            names(&["fig5", "table2"])
        );
        assert!(resolve_exhibits(&names(&["fig99"]))
            .unwrap_err()
            .contains("fig99"));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("smoke"), Some(Scale::Smoke));
        assert_eq!(parse_scale("quick"), Some(Scale::Quick));
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        assert_eq!(parse_scale("0.5"), Some(Scale::Custom(0.5)));
        assert_eq!(parse_scale("0"), None);
        assert_eq!(parse_scale("-1"), None);
        assert_eq!(parse_scale("nan"), None);
        assert_eq!(parse_scale("bogus"), None);
    }

    /// Every replay an exhibit makes is counted by the run's engine: on
    /// a fresh cached run, the report's replays are exactly the cache's
    /// hits plus generations, and its lanes are exactly the events the
    /// exhibit's tools observed — one full replay per roster workload.
    #[test]
    fn exhibits_account_for_every_replay_in_the_run_report() {
        use rebalance_trace::TraceCache;
        use rebalance_workloads::Suite;

        for exhibit in ["fig1", "fig10", "detail"] {
            let mut run = Run::default();
            run.suite = Some(Suite::Npb);
            run.cache = Some(TraceCache::scratch().unwrap());
            run_exhibits(
                &run,
                &[exhibit.to_owned()],
                Scale::Smoke,
                None,
                &mut std::io::sink(),
            )
            .unwrap();
            let report = run.report();
            let cache = report.cache.unwrap();
            let roster = run.roster();
            let events: u64 = roster
                .iter()
                .map(|w| {
                    let trace = w.trace(Scale::Smoke).unwrap();
                    trace.schedule().total_instructions()
                })
                .sum();
            assert!(report.replays > 0, "{exhibit}: {report}");
            assert_eq!(report.replays, roster.len() as u64, "{exhibit}: {report}");
            assert_eq!(
                report.replays,
                cache.hits + cache.generations,
                "{exhibit}: {report}"
            );
            assert_eq!(
                report.lanes.unwrap().instructions,
                events,
                "{exhibit}: {report}"
            );
            let _ = std::fs::remove_dir_all(run.cache.as_ref().unwrap().dir());
        }
    }

    #[test]
    fn run_exhibits_renders_table2() {
        // table2 is cheap: it needs no trace replay at all.
        let mut out = Vec::new();
        let run = Run::default();
        run_exhibits(&run, &["table2".to_owned()], Scale::Smoke, None, &mut out).unwrap();
        assert_eq!(run.report().replays, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Table II"), "{text}");
    }
}
