//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each exhibit has a `run` function returning a serializable result and
//! a text rendering that mirrors the paper's rows/series, with the
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
//!
//! Every replaying exhibit takes a [`util::Run`]: the one value that
//! carries a run's sweep engine, trace cache, suite filter, sampling
//! geometry and CPI fetch model. The `rebalance paper` subcommand
//! builds it from its flags and drives the exhibits through
//! [`driver::run_exhibits`]:
//!
//! ```text
//! rebalance paper all --scale quick
//! rebalance paper fig5 table3 --scale full --json results/
//! ```
//!
//! # Examples
//!
//! ```
//! use rebalance_experiments::{characterization, util::Run};
//! use rebalance_workloads::Scale;
//!
//! let set = characterization::run(&Run::default(), Scale::Smoke).unwrap();
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
pub mod predictors;
pub mod sampling;
pub mod util;
