//! Synthetic program model and dynamic trace interpreter — the workspace's
//! substitute for Pin dynamic binary instrumentation.
//!
//! The paper attaches *pintools* to real x86 binaries and observes the
//! dynamic instruction stream. Everything those tools consume is captured
//! by a [`TraceEvent`]: program counter, instruction byte length,
//! instruction class, branch outcome/target, and whether the instruction
//! executed in a **serial** or **parallel** code section.
//!
//! This crate provides:
//!
//! * a static program model ([`Program`], [`BasicBlock`], [`Terminator`])
//!   with byte-accurate code layout,
//! * stochastic branch semantics ([`CondBehavior`], [`IterCount`]) so a
//!   synthesized control-flow graph reproduces a target workload's branch
//!   bias and loop structure,
//! * a deterministic interpreter ([`Interpreter`]) that streams
//!   [`TraceEvent`]s to any [`Pintool`] observer, and
//! * a phase schedule ([`Schedule`], [`Phase`]) that alternates serial and
//!   parallel sections the way an OpenMP master thread does,
//! * the one-pass sweep engine ([`SweepEngine`], [`ToolSet`],
//!   [`Executor`]): N tools share one replay, items run in parallel,
//! * a binary snapshot format ([`snapshot`]) with an on-disk,
//!   content-addressed replay cache ([`TraceCache`]): traces are
//!   generated once and replayed from disk forever, with
//!   [`Report`]-able hit/miss accounting, and
//! * block-at-a-time event delivery ([`EventBatch`],
//!   [`Pintool::on_batch`]): producers hand tools ~[`DEFAULT_BATCH_CAPACITY`]
//!   events per call instead of one, as a dense branch slice, the
//!   sequential plain runs between branches ([`Piece`]) and
//!   per-section counts, so hot tools skip the events they ignore —
//!   bit-identical to per-event delivery by construction. A tool set
//!   that [`Need`]s only branches gets batches of branches alone.
//!
//! # Examples
//!
//! Build a two-block counted loop and count executed instructions:
//!
//! ```
//! use rebalance_trace::{
//!     CondBehavior, IterCount, Pintool, ProgramBuilder, Section, TraceEvent,
//! };
//!
//! struct Counter(u64);
//! impl Pintool for Counter {
//!     fn on_inst(&mut self, _ev: &TraceEvent) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut b = ProgramBuilder::new();
//! let region = b.region("hot");
//! let body = b.reserve_block();
//! let exit = b.reserve_block();
//! b.define_block(
//!     body,
//!     region,
//!     7,
//!     rebalance_trace::Terminator::Cond {
//!         taken: body, // back-edge
//!         fall: exit,
//!         behavior: CondBehavior::Loop { count: IterCount::Fixed(100) },
//!     },
//! );
//! b.define_block(exit, region, 1, rebalance_trace::Terminator::Exit);
//! let program = b.build().expect("valid program");
//!
//! let mut counter = Counter(0);
//! let summary = program
//!     .interpreter(42)
//!     .run(body, Section::Parallel, 10_000, &mut counter);
//! assert_eq!(summary.instructions, 10_000);
//! assert_eq!(counter.0, 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod builder;
mod by_section;
mod cache;
mod error;
mod event;
mod exec;
mod executor;
mod observer;
mod program;
mod report;
pub mod sampling;
mod schedule;
mod section;
pub mod snapshot;
pub mod stats;
mod sweep;
mod timed;
mod toolset;

pub use batch::{EventBatch, Piece, Pieces, PlainRun, DEFAULT_BATCH_CAPACITY, MAX_BATCH_CAPACITY};
pub use builder::ProgramBuilder;
pub use by_section::BySection;
pub use cache::{CacheError, CacheStats, CachedReplay, TraceCache, TraceKey, SNAPSHOT_EXT};
pub use error::{BuildError, BuildErrorKind};
pub use event::{BranchEvent, TraceEvent};
pub use exec::{Interpreter, RunSummary};
pub use executor::Executor;
pub use observer::{FnTool, MultiTool, Need, NullTool, Pintool};
pub use program::{BasicBlock, BlockId, CondBehavior, IterCount, Program, RegionId, Terminator};
pub use report::{LaneFill, Report};
pub use sampling::{
    weighted_add, ClusterInfo, Fingerprinter, SamplePlan, SampledReplay, SamplingConfig,
};
pub use schedule::{Phase, Schedule, SyntheticTrace};
pub use section::Section;
pub use snapshot::{OwnedSnapshot, Snapshot, SnapshotError, SnapshotInfo, SnapshotWriter};
pub use sweep::{SampledOutcome, SweepEngine, SweepOutcome};
pub use timed::Timed;
pub use toolset::ToolSet;
