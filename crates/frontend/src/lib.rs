//! Front-end hardware structure simulators (the paper's Section IV).
//!
//! Three families of models, each driven by the shared
//! [`Pintool`](rebalance_trace::Pintool) interface so they consume the
//! same dynamic instruction stream as the characterization tools:
//!
//! * **Branch predictors** ([`predictor`]): bimodal, gshare, the Alpha
//!   21264 tournament predictor, TAGE, and a loop branch predictor that
//!   can augment any base predictor — at the paper's Table II hardware
//!   budgets (~2 KB *small* and ~16 KB *big*).
//! * **Branch target buffer** ([`Btb`]): set-associative, modulo-indexed,
//!   storing targets of taken branches; returns are handled by a small
//!   return-address stack like the Cortex-A9's.
//! * **Instruction cache** ([`ICache`]): configurable size/line/assoc
//!   with LRU replacement, a sequential-fetch model, and per-line
//!   *usefulness* accounting (distinct bytes touched per resident line).
//!
//! # Examples
//!
//! ```
//! use rebalance_frontend::predictor::{Gshare, PredictorSim};
//! use rebalance_workloads::{find, Scale};
//!
//! let trace = find("CG").unwrap().trace(Scale::Smoke).unwrap();
//! let mut sim = PredictorSim::new(Gshare::new(13)); // ~2KB gshare
//! trace.replay(&mut sim);
//! let report = sim.report();
//! assert!(report.total().mpki() < 30.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod btb;
mod config;
mod icache;
pub mod predictor;
mod ras;

pub use btb::{Btb, BtbConfig, BtbReport, BtbSim, BtbStats};
pub use config::{CoreKind, FrontendConfig, PredictorChoice, PredictorClass, PredictorSize};
pub use icache::{CacheConfig, ICache, ICacheBank, ICacheReport, ICacheSim, ICacheStats};
pub use ras::ReturnAddressStack;
