//! Architecture-independent workload analyses — the Rust counterparts of
//! the paper's characterization pintools (Section III).
//!
//! Every tool implements [`Pintool`](rebalance_trace::Pintool) and
//! separates **serial** from **parallel** code sections, reproducing the
//! paper's `total`/`serial`/`parallel` bars:
//!
//! | tool | paper exhibit | measures |
//! |---|---|---|
//! | [`BranchMixTool`] | Figure 1 | dynamic branch-type breakdown |
//! | [`BranchBiasTool`] | Figure 2 | taken-rate distribution of conditionals |
//! | [`DirectionTool`] | Table I | backward vs forward taken branches |
//! | [`FootprintTool`] | Figure 3 | static & 99%-dynamic instruction footprint |
//! | [`BasicBlockTool`] | Figure 4 | basic-block bytes & taken-branch distance |
//!
//! [`characterize`] runs all five over one trace replay.
//!
//! # Examples
//!
//! ```
//! use rebalance_pintools::characterize;
//! use rebalance_workloads::{find, Scale};
//!
//! let workload = find("CG").expect("CG is in the roster");
//! let trace = workload.trace(Scale::Smoke).expect("valid profile");
//! let report = characterize(&trace);
//! assert!(report.mix.total().branch_fraction() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod basic_block;
mod bbv;
mod bias;
mod direction;
mod footprint;
mod mix;
mod pc_hash;
mod runner;

pub use basic_block::{BasicBlockReport, BasicBlockStats, BasicBlockTool};
pub use bbv::{BbvTool, BBV_FEATURES};
pub use bias::{BiasBuckets, BiasReport, BranchBiasTool, NUM_BIAS_BUCKETS};
pub use direction::{DirectionReport, DirectionStats, DirectionTool};
pub use footprint::{FootprintReport, FootprintTool};
pub use mix::{BranchMixReport, BranchMixTool, MixCounts};
pub use runner::{
    characterization_from_tools, characterization_tools, characterize, Characterization,
    CharacterizationTools,
};

// Re-exported for backwards-compatible access alongside the reports.
pub use rebalance_trace::BySection;
