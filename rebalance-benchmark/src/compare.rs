//! `rebalance-benchmark compare PARENT.json CHANGE.json`: one verdict
//! per (workload, end-to-end metric), by the rule for claiming a gain
//! on a noisy host.

use std::fmt;

use crate::json::{self, Value};
use crate::proc::COMPARABLE_FIELDS;
use crate::spec::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges a change's samples against its parent's. Round `i` of one
/// side is paired with round `i` of the other.
///
/// * `better`: the change wins at least 9 of 10 pairs (ties count for
///   neither side) and its median beats the parent's by more than the
///   parent's interquartile range;
/// * `unresolved`: otherwise, when either side's interquartile range
///   exceeds `bound` as a share of its median;
/// * `worse`: otherwise, when the change's median is worse than the
///   parent's by more than `bound` as a share of the parent's;
/// * `same`: everything else.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(p), Some(c)) = (Summary::of(parent), Summary::of(change)) else {
        return Verdict::Unresolved;
    };
    let (wins, pairs) = pair_wins(parent, change, better);
    if wins * 10 >= pairs * 9
        && beats(better, c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        return Verdict::Better;
    }
    if p.rel_spread() > bound || c.rel_spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => c.median - p.median,
        Better::Higher => p.median - c.median,
    };
    let past_bound = if p.median == 0.0 {
        worse_by > 0.0
    } else {
        worse_by / p.median.abs() > bound
    };
    if past_bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

/// Pairs won by the change (ties count for neither side), and pairs.
fn pair_wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(better, **c, **p))
        .count();
    (wins, parent.len().min(change.len()))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples(metric: &Value) -> Option<Vec<f64>> {
    metric
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Host-block fields on which two result files disagree.
fn host_mismatches(parent: &Value, change: &Value) -> Vec<String> {
    COMPARABLE_FIELDS
        .iter()
        .filter_map(|field| {
            let field_of = |v: &Value| v.get("host").and_then(|h| h.get(field)).cloned();
            let (p, c) = (field_of(parent), field_of(change));
            (p != c).then(|| {
                let show = |v: Option<Value>| v.map_or("missing".to_owned(), |v| v.to_string());
                format!("{field}: {} vs {}", show(p), show(c))
            })
        })
        .collect()
}

/// Prints one row per (workload, end-to-end metric) present in both
/// files and returns the number of rows.
///
/// # Errors
///
/// Unreadable files, or hosts and round counts that differ without
/// `force`.
pub fn run(parent_path: &str, change_path: &str, force: bool) -> Result<usize, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let mismatches = host_mismatches(&parent, &change);
    if !mismatches.is_empty() {
        let list = mismatches.join("; ");
        if !force {
            return Err(format!(
                "not comparable ({list}); rerun both sides on one host with one --rounds and --seed, or pass --force"
            ));
        }
        println!("WARNING: not comparable ({list}); compared anyway because of --force");
    }
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta", "wins"
    );
    let mut rows = 0;
    let workloads = parent
        .get("workloads")
        .and_then(Value::as_obj)
        .unwrap_or(&[]);
    for (name, p_workload) in workloads {
        let Some(c_workload) = change.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<14} missing from {change_path}");
            continue;
        };
        for metric in spec::END_TO_END {
            let get = |w: &Value| {
                w.get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(samples)
            };
            let (Some(p), Some(c)) = (get(p_workload), get(c_workload)) else {
                continue;
            };
            let v = verdict(&p, &c, metric.better, metric.bound);
            let (pm, cm) = (
                Summary::of(&p).map_or(f64::NAN, |s| s.median),
                Summary::of(&c).map_or(f64::NAN, |s| s.median),
            );
            let delta = if pm == 0.0 {
                0.0
            } else {
                (cm - pm) / pm * 100.0
            };
            let (wins, pairs) = pair_wins(&p, &c, metric.better);
            println!(
                "{name:<14} {:<12} {pm:>12.4} {cm:>12.4} {delta:>+7.2}% {:>6}  {v}",
                metric.name,
                format!("{wins}/{pairs}"),
            );
            rows += 1;
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;

    #[test]
    fn identical_runs_are_the_same() {
        let xs = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(&xs, &xs, LOWER, 0.1), Verdict::Same);
    }

    #[test]
    fn a_gain_needs_nine_of_ten_pair_wins() {
        let parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        let mut change = parent.map(|x| x * 0.8);
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Better);
        // Nine wins and one tie: ties count for neither, 9/10 still holds.
        change[0] = parent[0];
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Better);
        // Eight wins: not a gain, and 20% faster is not a regression.
        change[1] = parent[1] * 1.5;
        assert_eq!(verdict(&parent, &change, LOWER, 0.1), Verdict::Same);
    }

    #[test]
    fn all_ties_are_the_same_not_better() {
        let xs = [2.0; 10];
        assert_eq!(verdict(&xs, &xs, LOWER, 0.1), Verdict::Same);
        assert_eq!(verdict(&xs, &xs, Better::Higher, 0.0), Verdict::Same);
    }

    #[test]
    fn a_gain_must_clear_the_parents_spread() {
        let parent = [1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0];
        let change = parent.map(|x| x - 0.05);
        // Wins every pair, but by less than the parent's IQR (0.2).
        assert_eq!(verdict(&parent, &change, LOWER, 0.5), Verdict::Same);
    }

    #[test]
    fn regressions_past_the_bound_are_worse() {
        let parent = [1.0; 10];
        assert_eq!(verdict(&parent, &[1.05; 10], LOWER, 0.1), Verdict::Same);
        assert_eq!(verdict(&parent, &[1.2; 10], LOWER, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&parent, &[0.8; 10], Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_past_the_bound_is_unresolved() {
        let parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(verdict(&parent, &parent, LOWER, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_zero_bound_count_flags_any_increase() {
        assert_eq!(verdict(&[0.0], &[0.0], LOWER, 0.0), Verdict::Same);
        assert_eq!(verdict(&[0.0], &[0.25], LOWER, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[0.25], &[0.0], LOWER, 0.0), Verdict::Better);
    }

    #[test]
    fn different_hosts_or_rounds_are_not_comparable() {
        let host = |rounds: f64| {
            Value::obj([(
                "host",
                Value::obj([
                    ("nproc", Value::Num(2.0)),
                    ("cpu", Value::str("x")),
                    ("kernel", Value::str("6")),
                    ("rounds", Value::Num(rounds)),
                    ("input_set", Value::Num(0.0)),
                ]),
            )])
        };
        assert!(host_mismatches(&host(15.0), &host(15.0)).is_empty());
        assert_eq!(host_mismatches(&host(15.0), &host(9.0)).len(), 1);
    }
}
