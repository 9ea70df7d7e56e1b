//! What the benchmark runs and reports: the three workloads, their input
//! sets, and the end-to-end and per-layer metric definitions.

use rebalance_workloads::Scale;

/// One user-facing `rebalance` command, run against a warm cache.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Subcommand and flags; `--scale`, `--cache` and `--json` follow.
    pub args: &'static [&'static str],
    /// The canonical input set's scale, as the CLI spells it.
    pub scale_name: &'static str,
    /// The same scale in millionths of the full instruction budget.
    pub scale_ppm: u32,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sweep_full",
        args: &["sweep", "--all"],
        scale_name: "quick",
        scale_ppm: 250_000,
        why: "the canonical nine-predictor sweep at quick scale: predictor on_batch bounds it, then decode and lane fill",
    },
    Workload {
        name: "sweep_sampled",
        args: &["sweep", "--all", "--sample", "160", "--sample-k", "8"],
        scale_name: "quick",
        scale_ppm: 250_000,
        why: "the same sweep phase-sampled: plan building and whole-stream decode dominate and predictor kernels barely show",
    },
    Workload {
        name: "paper",
        args: &["paper", "all"],
        scale_name: "smoke",
        scale_ppm: 20_000,
        why: "the full reproduction at smoke scale: 306 replays, repeated cache reads and parses, the FetchSim grid (40% of its time), coresim and characterization",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Number of distinct input sets: the canonical one (0) and four
/// held-out ones.
pub const INPUT_SETS: u32 = 5;

/// The input set a seed selects. Seed 0 is canonical; every other seed
/// folds onto held-out sets 1..=4, so each seed has a committed digest
/// and costs about as much as the canonical set.
pub fn input_set(seed: u64) -> u32 {
    if seed == 0 {
        0
    } else {
        1 + ((seed - 1) % u64::from(INPUT_SETS - 1)) as u32
    }
}

impl Workload {
    /// The `--scale` argument for an input set. Held-out set `s` shrinks
    /// every trace by `s` half-percent, which changes trace lengths,
    /// cache keys and sampling intervals but hardly the amount of work.
    pub fn scale_arg(&self, set: u32) -> String {
        if set == 0 {
            self.scale_name.to_owned()
        } else {
            let ppm = self.scale_ppm / 200 * (200 - set);
            (f64::from(ppm) / 1e6).to_string()
        }
    }

    /// [`Workload::scale_arg`] as the library reads it, through the
    /// parser the CLI uses, so in-process calls hit the same cache keys.
    pub fn scale(&self, set: u32) -> Scale {
        rebalance_experiments::driver::parse_scale(&self.scale_arg(set))
            .expect("benchmark scales are positive")
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, reported per workload with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const WALL_S: EndToEnd = EndToEnd {
    name: "wall_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
};
pub const CPU_S: EndToEnd = EndToEnd {
    name: "cpu_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
};
pub const SETUP_S: EndToEnd = EndToEnd {
    name: "setup_s",
    unit: "s",
    better: Better::Lower,
    bound: 0.25,
};
pub const PEAK_RSS_MB: EndToEnd = EndToEnd {
    name: "peak_rss_mb",
    unit: "MB",
    better: Better::Lower,
    bound: 0.2,
};
/// Zero on a healthy run, so it is reported in `results.json` but not
/// in the result line, whose metrics must never read 0; the line's
/// `failed` and `attempted` carry it.
pub const FAIL_FRAC: EndToEnd = EndToEnd {
    name: "fail_frac",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
};

/// The end-to-end metrics of the result line.
pub const LINE_METRICS: [&EndToEnd; 4] = [&WALL_S, &CPU_S, &SETUP_S, &PEAK_RSS_MB];

/// Every end-to-end metric of `results.json`.
pub const END_TO_END: [&EndToEnd; 5] = [&WALL_S, &CPU_S, &SETUP_S, &PEAK_RSS_MB, &FAIL_FRAC];

/// A per-layer metric of the traced run.
#[derive(Debug)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The crate and module measured, and the public call timed.
    pub layer: &'static str,
    /// The end-to-end metric and workload this layer should move, and
    /// the workloads it should not.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The nine predictors of Figure 5, by `PredictorChoice::label`.
pub const PREDICTOR_LABELS: [&str; 9] = [
    "gshare-big",
    "tournament-big",
    "tage-big",
    "gshare-small",
    "tournament-small",
    "tage-small",
    "L-gshare-small",
    "L-tournament-small",
    "L-tage-small",
];

/// `rebalance paper` exhibit groups, each timed as one child. The
/// characterization group shares one pass, so it is not split.
pub const PAPER_GROUPS: [(&str, &[&str]); 15] = [
    (
        "characterization",
        &["fig1", "fig2", "table1", "fig3", "fig4"],
    ),
    ("table2", &["table2"]),
    ("fig5", &["fig5"]),
    ("fig6", &["fig6"]),
    ("fig7", &["fig7"]),
    ("fig8", &["fig8"]),
    ("fig9", &["fig9"]),
    ("table3", &["table3"]),
    ("fig10", &["fig10"]),
    ("fig11", &["fig11"]),
    ("ablations", &["ablations"]),
    ("detail", &["detail"]),
    ("kernels", &["kernels"]),
    ("fetchsim", &["fetchsim"]),
    ("sampling", &["sampling"]),
];

/// Name, unit, direction, layer and what it moves, for every per-layer
/// metric but the per-predictor and paper-group rows.
type LayerRow = (
    &'static str,
    &'static str,
    Better,
    &'static str,
    &'static str,
);

const BEFORE_PREDICTORS: [LayerRow; 16] = [
    (
        "workloads.synth_ms",
        "ms",
        Lower,
        "workloads / Workload::trace",
        "setup_s on all; wall_s on paper; not wall_s on sweep_full",
    ),
    (
        "trace.interpret_mev_s",
        "Mev/s",
        Higher,
        "trace::exec / SyntheticTrace::replay(NullTool)",
        "setup_s; no wall_s",
    ),
    (
        "snapshot.encode_ms",
        "ms",
        Lower,
        "trace::snapshot / snapshot_bytes minus interpret",
        "setup_s",
    ),
    (
        "snapshot.bytes_per_event",
        "B/event",
        Lower,
        "trace::snapshot / snapshot_bytes",
        "setup_s; wall_s on paper",
    ),
    (
        "cache.write_ms",
        "ms",
        Lower,
        "trace::cache / TraceCache::record minus snapshot_bytes",
        "setup_s; no wall_s",
    ),
    (
        "cache.read_ms",
        "ms",
        Lower,
        "trace::cache / TraceCache::snapshot_bytes on the warm cache (read plus checksum)",
        "wall_s on paper; the sweeps less (one read per snapshot)",
    ),
    (
        "cache.read_mb_s",
        "MB/s",
        Higher,
        "trace::cache / TraceCache::snapshot_bytes on the warm cache",
        "wall_s on paper; the sweeps less (one read per snapshot)",
    ),
    (
        "snapshot.parse_ms",
        "ms",
        Lower,
        "trace::snapshot / Snapshot::parse (framing and checksum)",
        "wall_s on paper",
    ),
    (
        "snapshot.decode_ms",
        "ms",
        Lower,
        "trace::snapshot / Snapshot::replay(NullTool)",
        "wall_s on sweep_sampled most, sweep_full less",
    ),
    (
        "snapshot.decode_mev_s",
        "Mev/s",
        Higher,
        "trace::snapshot / Snapshot::replay(NullTool)",
        "wall_s on sweep_sampled most, sweep_full less",
    ),
    (
        "sampling.plan_ms",
        "ms",
        Lower,
        "trace::sampling / SamplePlan::from_snapshot(BbvTool)",
        "wall_s on sweep_sampled; not sweep_full",
    ),
    (
        "sampling.replay_ms",
        "ms",
        Lower,
        "trace::sampling / Snapshot::replay_sampled(NullTool)",
        "wall_s on sweep_sampled; not sweep_full",
    ),
    (
        "sampling.effective_mev_s",
        "Mev/s",
        Higher,
        "trace::sampling / Snapshot::replay_sampled(NullTool)",
        "wall_s on sweep_sampled; not sweep_full",
    ),
    (
        "sampling.delivered_frac",
        "ratio",
        Lower,
        "trace::sampling / SampledReplay::delivered_instructions",
        "a count: changes only with a re-blessed sampling golden",
    ),
    (
        "frontend.predictors_ms",
        "ms",
        Lower,
        "frontend / nine PredictorChoice::build_sims(figure5_set()) minus null",
        "wall_s and cpu_s on sweep_full; sweep_sampled barely",
    ),
    (
        "frontend.ns_per_branch",
        "ns",
        Lower,
        "frontend / predictors_ms per branch per predictor",
        "wall_s and cpu_s on sweep_full; sweep_sampled barely",
    ),
];

const AFTER_PREDICTORS: [LayerRow; 6] = [
    (
        "frontend.predictors_sampled_ms",
        "ms",
        Lower,
        "frontend / nine sims under replay_sampled minus null sampled",
        "wall_s on sweep_sampled (small)",
    ),
    (
        "fetchsim.grid_ms",
        "ms",
        Lower,
        "fetchsim / experiments::fetchsim::default_grid() as FetchSims minus null",
        "wall_s on paper; not the sweeps",
    ),
    (
        "fetchsim.ns_per_event_design",
        "ns",
        Lower,
        "fetchsim / grid_ms per event per design",
        "wall_s on paper; not the sweeps",
    ),
    (
        "pintools.characterize_ms",
        "ms",
        Lower,
        "pintools / characterization_tools() minus null",
        "wall_s on paper; not the sweeps",
    ),
    (
        "coresim.fetch_tools_ms",
        "ms",
        Lower,
        "coresim / baseline and tailored CoreModel::fetch_tools() minus null",
        "wall_s on paper; not the sweeps",
    ),
    (
        "trace.overhead_ms",
        "ms",
        Lower,
        "the benchmark's own spans: count times the cost of an empty span",
        "nothing; shows that tracing stays small",
    ),
];

/// Every per-layer metric, in report order.
pub fn layers() -> Vec<Layer> {
    let row = |(name, unit, better, layer, moves): LayerRow| Layer {
        name: name.to_owned(),
        unit,
        better,
        layer,
        moves,
    };
    let per_predictor = PREDICTOR_LABELS.iter().map(|label| Layer {
        name: format!("frontend.{label}.ms"),
        unit: "ms",
        better: Lower,
        layer: "frontend / one PredictorSim alone minus null",
        moves: "wall_s on sweep_full",
    });
    let paper_groups = PAPER_GROUPS.iter().map(|(group, _)| Layer {
        name: format!("paper.{group}_s"),
        unit: "s",
        better: Lower,
        layer: "experiments / `rebalance paper <group>` as one child",
        moves: "wall_s on paper; not the sweeps",
    });
    BEFORE_PREDICTORS
        .into_iter()
        .map(row)
        .chain(per_predictor)
        .chain(AFTER_PREDICTORS.into_iter().map(row))
        .chain(paper_groups)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_fold_onto_five_input_sets() {
        assert_eq!(input_set(0), 0);
        let sets: Vec<u32> = (1..=9).map(input_set).collect();
        assert_eq!(sets, [1, 2, 3, 4, 1, 2, 3, 4, 1]);
        assert!((1..=4).contains(&input_set(u64::MAX)));
    }

    #[test]
    fn held_out_scales_shrink_by_half_percent_steps() {
        let quick = workload("sweep_full").unwrap();
        assert_eq!(quick.scale_arg(0), "quick");
        assert_eq!(quick.scale_arg(1), "0.24875");
        assert_eq!(quick.scale_arg(4), "0.245");
        let smoke = workload("paper").unwrap();
        assert_eq!(smoke.scale_arg(2), "0.0198");
        assert_eq!(smoke.scale(0), Scale::Smoke);
        assert_eq!(smoke.scale(2), Scale::Custom(0.0198));
    }

    #[test]
    fn paper_groups_cover_every_exhibit_once() {
        let mut grouped: Vec<&str> = PAPER_GROUPS
            .iter()
            .flat_map(|(_, e)| e.iter().copied())
            .collect();
        let mut exhibits = rebalance_experiments::driver::EXHIBITS.to_vec();
        grouped.sort_unstable();
        exhibits.sort_unstable();
        assert_eq!(grouped, exhibits);
    }

    #[test]
    fn predictor_labels_match_figure5() {
        let labels: Vec<String> = rebalance_frontend::PredictorChoice::figure5_set()
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels, PREDICTOR_LABELS);
    }

    /// `BENCHMARK.json` at the repository root describes this benchmark
    /// to the tools that run it; it must list exactly what the code
    /// reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("a list")
                .to_vec()
        };
        let field = |v: &crate::json::Value, key: &str| match v.get(key) {
            Some(crate::json::Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, expected);
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), LINE_METRICS.len());
        for (m, spec) in e2e.iter().zip(LINE_METRICS) {
            assert_eq!(field(m, "name"), spec.name);
            assert_eq!(field(m, "unit"), spec.unit);
            assert_eq!(field(m, "better"), spec.better.as_str());
            assert_eq!(m.get("bound").and_then(|b| b.as_f64()), Some(spec.bound));
        }
        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = layers()
            .into_iter()
            .map(|l| (l.name, l.unit.to_owned(), l.better.as_str().to_owned()))
            .collect();
        assert_eq!(per_layer, expected);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let layers = layers();
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
