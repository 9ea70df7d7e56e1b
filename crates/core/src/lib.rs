//! **rebalance** — HPC front-end characterization and core rebalancing.
//!
//! This facade crate ties the workspace together into the paper's
//! workflow:
//!
//! 1. **Characterize** a workload's dynamic code properties
//!    ([`characterize`], re-exported from the pintools crate);
//! 2. **Recommend** a front-end configuration sized to those properties
//!    ([`Recommender`]), reproducing the paper's implications (smaller
//!    I-cache with wider lines, small predictor plus loop BP, small BTB);
//! 3. **Evaluate** the tailored design's area/power savings and
//!    performance cost ([`evaluate_tailoring`], [`TailoringReport`])
//!    and whole-CMP designs ([`CmpFloorplan`]s priced on a workload
//!    from one replay by [`simulate_floorplans`]).
//!
//! # Quickstart
//!
//! ```
//! use rebalance::prelude::*;
//!
//! let workload = rebalance::workloads::find("CG").expect("in roster");
//! let trace = workload.trace(Scale::Smoke).expect("valid profile");
//! let profile = characterize(&trace);
//! let rec = Recommender::new().recommend(&profile);
//! assert!(rec.frontend.icache.size_bytes <= 32 * 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod designer;
mod recommend;
mod tailor;

pub use designer::{CmpDesign, CmpDesigner, DesignPoint, Objective};
pub use recommend::{Recommendation, Recommender, RecommenderThresholds};
pub use tailor::{evaluate_tailoring, TailoringReport};

/// The four benchmark suites and the 41-workload roster.
pub mod workloads {
    pub use rebalance_workloads::*;
}

/// Trace infrastructure (the Pin substitute).
pub mod trace {
    pub use rebalance_trace::*;
}

/// Instruction-set vocabulary (addresses, branch kinds).
pub mod isa {
    pub use rebalance_isa::*;
}

/// Characterization tools (Figures 1–4, Table I).
pub mod pintools {
    pub use rebalance_pintools::*;
}

/// Front-end hardware models.
pub mod frontend {
    pub use rebalance_frontend::*;
}

/// Area/power/energy models.
pub mod mcpat {
    pub use rebalance_mcpat::*;
}

/// Multi-core interval simulation.
pub mod coresim {
    pub use rebalance_coresim::*;
}

/// Decoupled front-end (FTQ + FDIP) timing simulation.
pub mod fetchsim {
    pub use rebalance_fetchsim::*;
}

pub use rebalance_coresim::{simulate_floorplans, CmpResult, CmpSim, CoreModel, FetchModelKind};
pub use rebalance_frontend::{CoreKind, FrontendConfig};
pub use rebalance_mcpat::{CmpFloorplan, CoreEstimate};
pub use rebalance_pintools::{characterize, Characterization};
pub use rebalance_workloads::{Scale, Suite, Workload};

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::designer::{CmpDesign, CmpDesigner, Objective};
    pub use crate::recommend::{Recommendation, Recommender};
    pub use crate::tailor::{evaluate_tailoring, TailoringReport};
    pub use rebalance_coresim::{simulate_floorplans, CmpSim, CoreModel, FetchModelKind};
    pub use rebalance_frontend::{CoreKind, FrontendConfig};
    pub use rebalance_mcpat::{CmpFloorplan, CoreEstimate};
    pub use rebalance_pintools::{characterize, Characterization};
    pub use rebalance_workloads::{Scale, Suite, Workload};
}
