//! The fetch-model abstraction: interchangeable timing backends for
//! [`SectionCpi`](crate::SectionCpi).
//!
//! The original interval model converts per-structure miss *rates* into
//! CPI through closed-form penalties ([`Penalties`](crate::Penalties)).
//! The decoupled FTQ simulator (`rebalance-fetchsim`) instead models
//! the fetch pipeline cycle-approximately and attributes every fetch
//! cycle. Both are valid backends for a
//! [`CoreModel`](crate::CoreModel)'s per-section CPI; this module makes
//! them interchangeable — and cross-validatable — behind one knob.

use std::fmt;

use rebalance_fetchsim::FetchSim;
use rebalance_trace::{EventBatch, Pintool, Section, TraceEvent};

use crate::core_model::FrontendTools;

/// Which timing backend a [`CoreModel`](crate::CoreModel) derives its
/// [`SectionCpi`](crate::SectionCpi) from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FetchModelKind {
    /// The closed-form interval model: `CPI = base + data stalls +
    /// Σ (event MPKI × penalty)`.
    #[default]
    Penalty,
    /// The decoupled FTQ simulator: fetch stall cycles are measured,
    /// not estimated, so redirects the run-ahead hides cost nothing.
    Ftq,
}

impl FetchModelKind {
    /// Parses a CLI spelling (`penalty` or `ftq`, case-insensitive).
    pub fn parse(name: &str) -> Option<FetchModelKind> {
        match name.to_ascii_lowercase().as_str() {
            "penalty" => Some(FetchModelKind::Penalty),
            "ftq" => Some(FetchModelKind::Ftq),
            _ => None,
        }
    }
}

impl fmt::Display for FetchModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchModelKind::Penalty => f.write_str("penalty"),
            FetchModelKind::Ftq => f.write_str("ftq"),
        }
    }
}

/// One core design's measurement tools under either backend — a single
/// [`Pintool`] either way, so mixed-model tool sets still share one
/// trace replay.
pub enum FetchTools {
    /// Rate counters for the closed-form model.
    Penalty(Box<FrontendTools>),
    /// The decoupled fetch-pipeline simulator.
    Ftq(Box<FetchSim>),
}

impl fmt::Debug for FetchTools {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchTools::Penalty(_) => f.write_str("FetchTools::Penalty(..)"),
            FetchTools::Ftq(sim) => f.debug_tuple("FetchTools::Ftq").field(sim).finish(),
        }
    }
}

impl Pintool for FetchTools {
    #[inline]
    fn on_inst(&mut self, ev: &TraceEvent) {
        match self {
            FetchTools::Penalty(tools) => tools.on_inst(ev),
            FetchTools::Ftq(sim) => sim.on_inst(ev),
        }
    }

    #[inline]
    fn on_section_start(&mut self, section: Section) {
        match self {
            FetchTools::Penalty(tools) => tools.on_section_start(section),
            FetchTools::Ftq(sim) => sim.on_section_start(section),
        }
    }

    /// One dispatch per block, then each backend's own batched loops.
    #[inline]
    fn on_batch(&mut self, batch: &EventBatch) {
        match self {
            FetchTools::Penalty(tools) => tools.on_batch(batch),
            FetchTools::Ftq(sim) => sim.on_batch(batch),
        }
    }

    #[inline]
    fn on_sample_weight(&mut self, weight: u64) {
        match self {
            FetchTools::Penalty(tools) => tools.on_sample_weight(weight),
            FetchTools::Ftq(sim) => sim.on_sample_weight(weight),
        }
    }

    #[inline]
    fn on_sample_gap(&mut self) {
        match self {
            FetchTools::Penalty(tools) => tools.on_sample_gap(),
            FetchTools::Ftq(sim) => sim.on_sample_gap(),
        }
    }

    #[inline]
    fn supports_sampled_replay(&self) -> bool {
        match self {
            FetchTools::Penalty(tools) => tools.supports_sampled_replay(),
            FetchTools::Ftq(sim) => sim.supports_sampled_replay(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for kind in [FetchModelKind::Penalty, FetchModelKind::Ftq] {
            assert_eq!(FetchModelKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(FetchModelKind::parse("FTQ"), Some(FetchModelKind::Ftq));
        assert_eq!(FetchModelKind::parse("sniper"), None);
        assert_eq!(FetchModelKind::default(), FetchModelKind::Penalty);
    }

    #[test]
    fn process_default_starts_as_penalty() {
        // Every core starts on the closed-form backend; only an
        // explicit `with_fetch_model` switches it.
        use crate::CoreModel;
        use rebalance_frontend::CoreKind;
        for kind in [CoreKind::Baseline, CoreKind::Tailored] {
            assert_eq!(CoreModel::new(kind).fetch_model(), FetchModelKind::Penalty);
        }
    }
}
