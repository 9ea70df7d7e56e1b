//! Decoupled front-end timing simulation: a branch-prediction unit
//! running ahead of the I-cache through a **fetch target queue**, with
//! **fetch-directed instruction prefetching** and exact stall-cycle
//! attribution.
//!
//! The closed-form penalty model in `rebalance-coresim` converts MPKI
//! rates into CPI but cannot say *where fetch cycles actually go* —
//! whether a smaller BTB's extra resteers are hidden by run-ahead, or
//! how much of the I-cache miss latency FDIP covers. This crate models
//! the fetch pipeline itself, cycle-approximately, and attributes every
//! modeled fetch cycle to exactly one of five buckets:
//!
//! * **busy** — delivering instructions,
//! * **mispredict redirect** — execute-resolved flushes,
//! * **BTB resteer** — decode-resolved target corrections not hidden
//!   by the FTQ's lead,
//! * **I-cache miss** — miss cycles not hidden by prefetch,
//! * **FTQ empty** — the fetch stage starving for any other reason.
//!
//! The attribution is exact by construction and checked by
//! [`FetchReport::check_attribution`].
//!
//! [`FetchSim`] simulates one design point as a batched
//! [`Pintool`](rebalance_trace::Pintool). [`FetchGrid`] simulates a
//! whole design grid (FTQ depth × fetch width × prefetch degree ×
//! front-end) over **one** trace replay, and builds each stage that
//! never reads a clock — branch unit, block stream, I-cache walk — once
//! per distinct configuration rather than once per design point; design
//! points that differ only in BTB share one timing model until their
//! BTBs disagree. Its reports are bit-identical to one `FetchSim` per
//! point. Every
//! production replay times its design points with a `FetchGrid`;
//! `FetchSim` is the reference the grid is tested against.
//!
//! # Examples
//!
//! Sweep four design points over one replay; all four share one block
//! stream and one I-cache walk, which serves both prefetch degrees, and
//! the two BTB sizes share each degree's timing model until they first
//! price a branch differently:
//!
//! ```
//! use rebalance_fetchsim::{FetchConfig, FetchGrid, FtqConfig};
//! use rebalance_frontend::{BtbConfig, FrontendConfig};
//! use rebalance_workloads::{find, Scale};
//!
//! let mut grid = Vec::new();
//! for btb in [2048, 256] {
//!     for degree in [0, 4] {
//!         let frontend = FrontendConfig {
//!             btb: BtbConfig::new(btb, 8),
//!             ..FrontendConfig::baseline()
//!         };
//!         grid.push(FetchConfig::new(frontend, FtqConfig::new(16, 4, degree)));
//!     }
//! }
//! let trace = find("MG").unwrap().trace(Scale::Smoke).unwrap();
//! let mut sim = FetchGrid::new(&grid);
//! trace.replay(&mut sim);
//! for report in sim.reports() {
//!     report.check_attribution().expect("exact attribution");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod grid;
mod report;
mod sim;
mod stages;

pub use config::{FetchConfig, FtqConfig};
pub use grid::FetchGrid;
pub use report::{FetchReport, FetchStats, StallBreakdown};
pub use sim::FetchSim;
