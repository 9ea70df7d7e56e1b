//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each exhibit aggregates measured workloads into a serializable result
//! with a text rendering that mirrors the paper's rows/series, with the
//! paper's reported values alongside where the paper gives them:
//!
//! | module | exhibits |
//! |---|---|
//! | [`characterization`] | Figures 1–4, Table I (one trace pass) |
//! | [`predictors`] | Table II, Figures 5 and 6 |
//! | [`caches`] | Figures 7, 8, 9 |
//! | [`cmp`] | Table III, Figures 10 and 11 |
//! | [`ablations`] | design-choice ablations + the thread-scaling study |
//! | [`detail`] | per-benchmark characterization rows |
//! | [`fetchsim`] | decoupled front-end (FTQ + FDIP) design grid |
//! | [`sampling`] | phase-sampled vs full-replay error validation |
//! | [`pass`] | the fused per-workload measurement pass they all read |
//!
//! The aggregations read per-workload [`pass::Record`]s and replay
//! nothing. The driver's exhibit table names, per exhibit, the
//! workloads and measurements it reads; [`driver::run_exhibits`]
//! replays each workload the selected exhibits read once through the
//! union of their tools ([`pass::measure_items`]), on a [`util::Run`]: the
//! one value that carries a run's sweep engine, trace cache, suite
//! filter, sampling geometry and CPI fetch model. The `rebalance paper`
//! subcommand builds the run from its flags:
//!
//! ```text
//! rebalance paper all --scale quick
//! rebalance paper fig5 table3 --scale full --json results/
//! ```
//!
//! # Examples
//!
//! ```
//! use rebalance_experiments::pass::{measure_all, Need};
//! use rebalance_experiments::{characterization, util::Run};
//! use rebalance_trace::SamplingConfig;
//! use rebalance_workloads::Scale;
//!
//! let (run, roster) = (Run::default(), rebalance_workloads::all());
//! let sampling = SamplingConfig::default();
//! let records = measure_all(&run, roster, Scale::Smoke, &sampling, &[Need::Characterization])
//!     .unwrap();
//! let set = characterization::set(&records.iter().collect::<Vec<_>>());
//! // 3 HPC suites and the kernel archetypes get total/serial/parallel
//! // bars; the sequentially-run SPEC CPU INT gets totals only.
//! assert_eq!(set.fig1.rows.len(), 4 * 3 + 1);
//! println!("{}", set.fig1.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod caches;
pub mod characterization;
pub mod cmp;
pub mod detail;
pub mod driver;
pub mod fetchsim;
pub mod paper;
pub mod pass;
pub mod predictors;
pub mod sampling;
pub mod util;
