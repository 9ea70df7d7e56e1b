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
