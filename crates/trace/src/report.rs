//! The shared sweep/cache accounting report.
//!
//! Every consumer that used to print its own ad-hoc counters — the
//! experiment regenerators, the benches, the CLI — renders this one
//! struct instead, so replay and cache accounting always reads the
//! same everywhere.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use crate::cache::{CacheStats, TraceCache};
use crate::sweep::SweepEngine;

/// How many events one sweep delivered through fan-out batches, and how
/// many of them landed in each batch's dense branch slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneFill {
    /// Events pushed through batches.
    pub instructions: u64,
    /// Events that also landed in the dense branch slice.
    pub branches: u64,
}

impl LaneFill {
    /// Fraction of events that are branches (the density branch-only
    /// tools stream their batch's branch slice at).
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }
}

/// Replay, cache and lane accounting for one sweep (or one whole run).
///
/// # Examples
///
/// ```
/// use rebalance_trace::{Report, SweepEngine};
///
/// let engine = SweepEngine::new();
/// // ... run sweeps ...
/// let report = Report::from_engine(&engine);
/// assert_eq!(report.replays, engine.replays());
/// println!("{report}");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize)]
pub struct Report {
    /// Fan-out replays performed (one per `(workload, scale)` item,
    /// regardless of tool count — live and cached alike).
    pub replays: u64,
    /// Traces synthesized outside a cache ([`SweepEngine::generations`]).
    pub generated: u64,
    /// Cache accounting, when a [`TraceCache`] mediated the replays.
    pub cache: Option<CacheStats>,
    /// Batch-delivered events over the sweep, when an engine tallied
    /// them.
    pub lanes: Option<LaneFill>,
}

/// Field by field, except that `generated` is left out when zero (on
/// every cached run), so a cached run's JSON reads as it always has.
impl Serialize for Report {
    fn to_value(&self) -> Value {
        let mut fields = vec![("replays".to_owned(), self.replays.to_value())];
        if self.generated > 0 {
            fields.push(("generated".to_owned(), self.generated.to_value()));
        }
        fields.push(("cache".to_owned(), self.cache.to_value()));
        fields.push(("lanes".to_owned(), self.lanes.to_value()));
        Value::Map(fields)
    }
}

impl Report {
    /// A report over an engine's replay and lane counters, cache-less.
    pub fn from_engine(engine: &SweepEngine) -> Self {
        Report {
            replays: engine.replays(),
            generated: engine.generations(),
            cache: None,
            lanes: Some(engine.lanes()),
        }
    }

    /// Attaches a cache's counters.
    pub fn with_cache(mut self, cache: &TraceCache) -> Self {
        self.cache = Some(cache.stats());
        self
    }

    /// Trace generations performed: the engine's own plus, with a
    /// cache, the cache's.
    pub fn generations(&self) -> u64 {
        self.generated + self.cache.map_or(0, |stats| stats.generations)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replays: {} | generations: {}",
            self.replays,
            self.generations()
        )?;
        if let Some(stats) = &self.cache {
            write!(f, " | cache: {stats}")?;
        }
        if let Some(lanes) = &self.lanes {
            write!(
                f,
                " | lanes: {} events, {:.1}% branch",
                lanes.instructions,
                100.0 * lanes.branch_fraction()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheless_report_counts_the_engines_generations() {
        let engine = SweepEngine::new();
        let r = Report::from_engine(&engine);
        assert_eq!(r.replays, 0);
        assert_eq!(r.generations(), 0);
        assert!(r.cache.is_none());
        assert!(r.to_string().starts_with("replays: 0"));
        let trace = engine.generate(|| Err("no trace".into()));
        assert!(trace.is_err());
        let r = Report {
            replays: 2,
            ..Report::from_engine(&engine)
        };
        assert_eq!(r.generations(), 1, "one synthesis can serve two replays");
        assert!(r.to_string().starts_with("replays: 2 | generations: 1"));
        assert_eq!(r.to_value().get("generated"), Some(&Value::UInt(1)));
        let cached = Report::default().to_value();
        assert_eq!(cached.get("generated"), None, "left out when zero");
        assert!(cached.get("cache").is_some());
    }

    #[test]
    fn cached_report_uses_cache_generations() {
        let r = Report {
            replays: 41,
            ..Report::default()
        };
        assert_eq!(r.generations(), 0);
        let r = Report {
            cache: Some(CacheStats {
                hits: 38,
                misses: 3,
                generations: 3,
                ..CacheStats::default()
            }),
            ..r
        };
        assert_eq!(r.generations(), 3);
        let text = r.to_string();
        assert!(text.contains("replays: 41"), "{text}");
        assert!(text.contains("38 hits"), "{text}");
    }

    #[test]
    fn with_cache_reads_live_counters() {
        let cache = TraceCache::scratch().unwrap();
        let engine = SweepEngine::new();
        let r = Report::from_engine(&engine).with_cache(&cache);
        assert_eq!(r.cache, Some(CacheStats::default()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
