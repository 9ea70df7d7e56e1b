//! Interval-model multi-core simulator — the workspace's Sniper
//! substitute (the paper's Section V methodology).
//!
//! The model composes three layers:
//!
//! 1. **Front-end event rates**: a [`CoreModel`] is priced from the
//!    reports of the branch predictor, BTB/RAS, and I-cache of its
//!    [`FrontendConfig`](rebalance_frontend::FrontendConfig), split by
//!    serial/parallel section. A replay measures each configuration
//!    once however many designs name it ([`FrontendKeys`]).
//! 2. **Interval CPI**: per section, `CPI = base + data stalls +
//!    Σ (event rate × penalty)` with the paper's 12-cycle branch
//!    misprediction penalty.
//! 3. **CMP scheduling**: serial sections run on the master core
//!    (a baseline core when the floorplan has one), parallel sections
//!    are divided across all cores with a barrier at the end — an
//!    Amdahl composition over heterogeneous cores. Power integrates
//!    per-core activity over both phases (idle cores still leak).
//!
//! # Examples
//!
//! ```
//! use rebalance_coresim::CmpSim;
//! use rebalance_mcpat::CmpFloorplan;
//! use rebalance_workloads::{find, Scale};
//!
//! let ft = find("FT").unwrap();
//! let baseline = CmpSim::new(CmpFloorplan::baseline(8)).simulate(&ft, Scale::Smoke).unwrap();
//! let asym_pp = CmpSim::new(CmpFloorplan::asymmetric(1, 8)).simulate(&ft, Scale::Smoke).unwrap();
//! assert!(asym_pp.time_s < baseline.time_s, "an extra core buys time");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cmp_sim;
mod core_model;
mod fetch_model;
mod frontends;
mod penalties;

pub use cmp_sim::{
    floorplan_models, floorplan_results, simulate_floorplans, CmpResult, CmpSim, PARALLEL_THREADS,
};
pub use core_model::{CoreModel, CoreTiming, SectionCpi};
pub use fetch_model::FetchModelKind;
pub use frontends::{add_keys, CoreTools, FrontendKeys, FrontendReports};
pub use penalties::Penalties;
