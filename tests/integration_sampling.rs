//! End-to-end guarantees of phase-sampled replay on real synthesized
//! workloads:
//!
//! 1. the **error-band contract**: for every workload in the paper
//!    roster *and* the kernels suite, under both the closed-form
//!    penalty backend and the cycle-level FTQ backend, the sampled CPI
//!    and per-structure MPKI sit inside the workload's declared bands
//!    (`rebalance_experiments::sampling::declared_bands` — the
//!    universal ±2% / ±5% bands where Smoke-scale statistics permit,
//!    committed per-workload bands where they do not);
//! 2. the **budget**: each sampled replay delivers at most `1/k` of the
//!    trace's instructions (representatives plus warmup).

use rebalance_experiments::sampling::{self, SamplingExhibit};
use rebalance_experiments::util::Run;
use rebalance_trace::SamplingConfig;
use rebalance_workloads::Scale;

/// One shared exhibit run for every assertion below: a full-replay
/// sweep plus a sampled sweep of the entire roster, both models sharing
/// each replay. Computed once per process — the tests only read it.
fn exhibit() -> &'static SamplingExhibit {
    static EXHIBIT: std::sync::OnceLock<SamplingExhibit> = std::sync::OnceLock::new();
    EXHIBIT.get_or_init(|| {
        sampling::run_subset(
            &Run::default(),
            rebalance::workloads::all(),
            Scale::Smoke,
            &SamplingConfig::default(),
        )
        .expect("roster replays")
    })
}

#[test]
fn sampled_errors_sit_inside_declared_bands_for_the_whole_roster() {
    let ex = exhibit();
    let roster = rebalance::workloads::all();
    assert_eq!(
        ex.rows.len(),
        roster.len() * 2,
        "two models (penalty + ftq) per workload"
    );
    let mut failures = Vec::new();
    for r in &ex.rows {
        let (cpi_band, mpki_abs) = sampling::declared_bands(&r.workload);
        if !r.within_declared_bands() {
            failures.push(format!(
                "{}/{}: cpi err {:.4} (band {:.3}), mpki full {:?} sampled {:?} (abs band {:.1})",
                r.workload, r.model, r.cpi_err, cpi_band, r.full_mpki, r.sampled_mpki, mpki_abs
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} row(s) outside their declared error bands:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn sampled_replay_stays_inside_its_instruction_budget() {
    let ex = exhibit();
    let cap = 1.0 / ex.config.k as f64;
    for r in &ex.rows {
        assert!(
            r.replayed_fraction <= cap + 1e-9,
            "{}/{}: replayed {:.4} of the trace, budget is 1/k = {:.4}",
            r.workload,
            r.model,
            r.replayed_fraction,
            cap
        );
        assert!(
            r.replayed_fraction > 0.0,
            "{}/{}: sampled replay delivered nothing",
            r.workload,
            r.model
        );
    }
}

#[test]
fn every_roster_workload_appears_under_both_models() {
    let ex = exhibit();
    for w in rebalance::workloads::all() {
        for model in ["penalty", "ftq"] {
            let row = ex
                .row(w.name(), model)
                .unwrap_or_else(|| panic!("{}/{model}: missing exhibit row", w.name()));
            assert!(
                row.full_cpi >= 1.0,
                "{}/{model}: full-replay CPI {} below the base CPI floor",
                w.name(),
                row.full_cpi
            );
            assert!(
                row.sampled_cpi >= 1.0,
                "{}/{model}: sampled CPI {} below the base CPI floor",
                w.name(),
                row.sampled_cpi
            );
        }
    }
}
