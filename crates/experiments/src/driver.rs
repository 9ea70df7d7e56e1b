//! The exhibit driver behind the `rebalance paper` subcommand: one
//! table of exhibits, each naming the workloads and measurements it
//! reads and rendering them with a pure aggregation, all fed by one
//! fused roster pass ([`pass::measure_items`]). Also scale parsing.

use std::io::Write;
use std::path::Path;

use rebalance_trace::SamplingConfig;
use rebalance_workloads::{Scale, Suite, Workload};
use serde::Serialize;

use crate::ablations::Ablation;
use crate::caches::FIG9_WORKLOADS;
use crate::characterization::CharacterizationSet;
use crate::cmp::FIG11_WORKLOADS;
use crate::pass::Need::{self, *};
use crate::pass::{self, Record};
use crate::predictors::FIG6_WORKLOADS;
use crate::util::{Run, RunError};
use crate::{caches, characterization, cmp, detail, fetchsim, predictors, sampling};

use Scope::*;

/// The workloads an exhibit reads.
#[derive(Debug, Clone, Copy)]
enum Scope {
    /// None: the exhibit replays nothing, or only its own workloads.
    Nothing,
    /// Every roster workload, in roster order.
    Roster,
    /// The named workloads the roster holds, in this order.
    Named(&'static [&'static str]),
    /// The kernel archetypes the roster holds.
    Kernels,
}

impl Scope {
    fn includes(self, w: &Workload) -> bool {
        match self {
            Nothing => false,
            Roster => true,
            Named(names) => names.contains(&w.name()),
            Kernels => w.suite() == Suite::Kernels,
        }
    }

    /// The records of this scope's workloads, in its order.
    fn pick(self, records: &[Record]) -> Vec<&Record> {
        let find = |name: &&str| records.iter().find(|r| r.workload.name() == *name);
        match self {
            Named(names) => names.iter().filter_map(find).collect(),
            _ => records
                .iter()
                .filter(|r| self.includes(&r.workload))
                .collect(),
        }
    }
}

/// What one exhibit's aggregation reads: its scope's records, the
/// ablation studies (empty unless it needs them) and the geometry of
/// the sampled replays.
struct Measured<'a> {
    records: Vec<&'a Record>,
    ablations: &'a [Ablation],
    sampling: SamplingConfig,
}

/// An exhibit's text and its pretty JSON dumps by file stem (`None`:
/// the exhibit's name).
type Rendered = (String, Vec<(Option<&'static str>, String)>);

fn json<T: Serialize>(stem: Option<&'static str>, value: &T) -> (Option<&'static str>, String) {
    let text = serde_json::to_string_pretty(value).expect("exhibit results serialize");
    (stem, text)
}

/// The rendering of an exhibit with one result, dumped under the
/// exhibit's name.
macro_rules! one {
    ($result:expr) => {{
        let result = $result;
        (result.render(), vec![json(None, &result)])
    }};
}

/// One exhibit: its name, the workloads and measurements it reads, and
/// its aggregation, which replays nothing.
struct Exhibit {
    name: &'static str,
    scope: Scope,
    needs: &'static [Need],
    render: fn(&Measured<'_>) -> Rendered,
}

impl Exhibit {
    const fn new(
        name: &'static str,
        scope: Scope,
        needs: &'static [Need],
        render: fn(&Measured<'_>) -> Rendered,
    ) -> Self {
        Exhibit {
            name,
            scope,
            needs,
            render,
        }
    }
}

/// Every exhibit in paper order (the `kernels` archetype table, the
/// `fetchsim` decoupled-front-end grid and the `sampling` validation
/// are ours, appended after the paper's).
#[rustfmt::skip]
const TABLE: [Exhibit; 19] = [
    Exhibit::new("fig1", Roster, &[Characterization], |m| one!(characterized(m).fig1)),
    Exhibit::new("fig2", Roster, &[Characterization], |m| one!(characterized(m).fig2)),
    Exhibit::new("table1", Roster, &[Characterization], |m| one!(characterized(m).table1)),
    Exhibit::new("fig3", Roster, &[Characterization], |m| one!(characterized(m).fig3)),
    Exhibit::new("fig4", Roster, &[Characterization], |m| one!(characterized(m).fig4)),
    Exhibit::new("table2", Nothing, &[], |_| one!(predictors::table2())),
    Exhibit::new("fig5", Roster, &[Predictors], |m| one!(predictors::fig5(&m.records))),
    Exhibit::new("fig6", Named(&FIG6_WORKLOADS), &[Predictors], |m| one!(predictors::fig6(&m.records))),
    Exhibit::new("fig7", Roster, &[Btbs], |m| one!(caches::fig7(&m.records))),
    Exhibit::new("fig8", Roster, &[Fig8Caches], |m| one!(caches::fig8(&m.records))),
    Exhibit::new("fig9", Named(&FIG9_WORKLOADS), &[Fig9Caches], |m| one!(caches::fig9(&m.records))),
    Exhibit::new("table3", Nothing, &[], |_| one!(cmp::table3())),
    Exhibit::new("fig10", Roster, &[Floorplans], fig10),
    Exhibit::new("fig11", Named(&FIG11_WORKLOADS), &[Floorplans], |m| one!(cmp::fig11(&m.records))),
    Exhibit::new("ablations", Nothing, &[Ablations], ablations),
    Exhibit::new("detail", Roster, &[Characterization], |m| one!(detail::table(&m.records))),
    Exhibit::new("kernels", Kernels, &[Characterization, Predictors], kernels),
    Exhibit::new("fetchsim", Roster, &[FetchGrid], |m| one!(fetchsim::exhibit(&m.records))),
    Exhibit::new("sampling", Roster, &[CoreModels], |m| one!(sampling::exhibit(&m.records, m.sampling))),
];

/// Figures 1–4 and Table I, aggregated together.
fn characterized(m: &Measured<'_>) -> CharacterizationSet {
    characterization::set(&m.records)
}

/// Figure 10, plus the per-workload results it averages.
fn fig10(m: &Measured<'_>) -> Rendered {
    let runs = cmp::cmp_runs(&m.records);
    let f = cmp::fig10_from_runs(&runs);
    let dumps = vec![json(None, &f), json(Some("fig10_raw"), &runs)];
    (f.render(), dumps)
}

/// The ablation studies, one table each.
fn ablations(m: &Measured<'_>) -> Rendered {
    let texts: Vec<String> = m.ablations.iter().map(Ablation::render).collect();
    (texts.join("\n"), vec![json(None, &m.ablations)])
}

/// The kernel archetypes' characterization and predictor tables.
fn kernels(m: &Measured<'_>) -> Rendered {
    let c = characterization::kernels(&m.records);
    let p = predictors::kernels(&m.records);
    let text = format!("{}\n{}", c.render(), p.render());
    let dumps = vec![
        json(Some("kernels_characterization"), &c),
        json(Some("kernels_predictors"), &p),
    ];
    (text, dumps)
}

/// Every exhibit name, in paper order.
pub const EXHIBITS: [&str; TABLE.len()] = {
    let mut names = [""; TABLE.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = TABLE[i].name;
        i += 1;
    }
    names
};

fn exhibit(name: &str) -> Option<&'static Exhibit> {
    TABLE.iter().find(|e| e.name == name)
}

/// `true` if `name` is a known exhibit.
pub fn is_exhibit(name: &str) -> bool {
    exhibit(name).is_some()
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

/// Regenerates the given exhibits at `scale` through `run`, writing each
/// rendering to `out` (and its JSON dumps into `json_dir` when given).
/// Unknown names are skipped with a warning on stderr.
///
/// Every roster workload a selected exhibit reads is replayed once, with
/// the union of the selected exhibits' needs, plus once sampled when
/// `sampling` (or a sampled `fetchsim`) is selected; the ablations keep
/// their own replays. The exhibits then render from those records.
///
/// # Errors
///
/// The first replay failure ([`RunError::Replay`]), a write failure on
/// `out` ([`RunError::Write`]) or on a JSON dump ([`RunError::Dump`]).
pub fn run_exhibits(
    run: &Run,
    exhibits: &[String],
    scale: Scale,
    json_dir: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), RunError> {
    let selected: Vec<&Exhibit> = exhibits
        .iter()
        .filter_map(|name| {
            let found = exhibit(name);
            if found.is_none() {
                eprintln!("warning: unknown exhibit `{name}` skipped");
            }
            found
        })
        .collect();
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(dir).map_err(|source| RunError::Dump {
            path: dir.to_owned(),
            source,
        })?;
    }
    // Every roster workload a selected exhibit reads, with the needs of
    // all the selected exhibits reading it.
    let items = run
        .roster()
        .into_iter()
        .map(|w| {
            let reading = selected.iter().filter(|e| e.scope.includes(&w));
            let needs: Vec<Need> = reading.flat_map(|e| e.needs.iter().copied()).collect();
            (w, needs)
        })
        .filter(|(_, needs)| !needs.is_empty())
        .collect();
    let sampling = run.sampling.unwrap_or_default();
    let records = pass::measure_items(run, scale, &sampling, items)?;
    let ablations = if selected.iter().any(|e| e.needs.contains(&Ablations)) {
        crate::ablations::run_all(run, scale)?
    } else {
        Vec::new()
    };
    for e in selected {
        let (text, dumps) = (e.render)(&Measured {
            records: e.scope.pick(&records),
            ablations: &ablations,
            sampling,
        });
        if let Some(dir) = json_dir {
            for (stem, json) in &dumps {
                let path = dir.join(format!("{}.json", stem.unwrap_or(e.name)));
                std::fs::write(&path, json).map_err(|source| RunError::Dump { path, source })?;
            }
        }
        writeln!(out, "{text}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_trace::TraceCache;

    #[test]
    fn exhibit_names_are_known() {
        assert!(is_exhibit("fig5"));
        assert!(is_exhibit("ablations"));
        assert!(is_exhibit("kernels"));
        assert!(is_exhibit("fetchsim"));
        assert!(is_exhibit("sampling"));
        assert!(!is_exhibit("fig99"));
        assert_eq!(EXHIBITS.len(), 19);
        assert_eq!(EXHIBITS[0], "fig1");
        assert_eq!(EXHIBITS[18], "sampling");
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

    /// Runs `exhibits` on a fresh NPB run with a scratch cache, returning
    /// the run (for its report).
    fn npb_run(exhibits: &[&str]) -> Run {
        let run = Run {
            suite: Some(Suite::Npb),
            cache: Some(TraceCache::scratch().unwrap()),
            ..Run::default()
        };
        let names: Vec<String> = exhibits.iter().map(|e| (*e).to_owned()).collect();
        let names = resolve_exhibits(&names).unwrap();
        run_exhibits(&run, &names, Scale::Smoke, None, &mut std::io::sink()).unwrap();
        let _ = std::fs::remove_dir_all(run.cache.as_ref().unwrap().dir());
        run
    }

    /// Every replay an exhibit makes is counted by the run's engine: on
    /// a fresh cached run, the report's replays are exactly the cache's
    /// hits plus generations, and its lanes are exactly the events the
    /// exhibit's tools observed — one full replay per roster workload.
    /// `all` measures each workload once in full and once sampled, plus
    /// the five ablation replays.
    #[test]
    fn exhibits_account_for_every_replay_in_the_run_report() {
        for exhibit in ["fig1", "fig10", "detail"] {
            let run = npb_run(&[exhibit]);
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
            assert_eq!(roster.len(), 10);
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
        }
        let report = npb_run(&["all"]).report();
        let cache = report.cache.unwrap();
        assert_eq!(report.replays, 10 + 10 + 5, "{report}");
        assert_eq!(report.replays, cache.hits + cache.generations, "{report}");
        assert_eq!(npb_run(&["table2"]).report().replays, 0);
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
