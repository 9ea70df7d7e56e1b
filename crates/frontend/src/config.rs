//! Front-end configurations: the paper's baseline and tailored cores.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::btb::BtbConfig;
use crate::icache::CacheConfig;
use crate::predictor::{
    DirectionPredictor, Gshare, PredictorSim, Tage, TageConfig, Tournament, WithLoop,
};

/// Which predictor family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorClass {
    /// McFarling gshare.
    Gshare,
    /// Alpha 21264 tournament.
    Tournament,
    /// TAGE.
    Tage,
}

impl PredictorClass {
    /// All families evaluated in Figure 5.
    pub const ALL: [PredictorClass; 3] = [
        PredictorClass::Gshare,
        PredictorClass::Tournament,
        PredictorClass::Tage,
    ];
}

impl fmt::Display for PredictorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorClass::Gshare => f.write_str("gshare"),
            PredictorClass::Tournament => f.write_str("tournament"),
            PredictorClass::Tage => f.write_str("tage"),
        }
    }
}

/// Hardware budget class of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorSize {
    /// ~2 KB.
    Small,
    /// ~16 KB.
    Big,
}

impl fmt::Display for PredictorSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorSize::Small => f.write_str("small"),
            PredictorSize::Big => f.write_str("big"),
        }
    }
}

/// A fully-specified predictor choice (family × size × loop BP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PredictorChoice {
    /// Predictor family.
    pub class: PredictorClass,
    /// Budget class.
    pub size: PredictorSize,
    /// Whether the 64-entry loop BP augments the base predictor.
    pub with_loop: bool,
}

impl PredictorChoice {
    /// Convenience constructor.
    pub fn new(class: PredictorClass, size: PredictorSize, with_loop: bool) -> Self {
        PredictorChoice {
            class,
            size,
            with_loop,
        }
    }

    /// The nine Figure 5 configurations, in the figure's legend order
    /// (big ×3, small ×3, small+LBP ×3).
    pub fn figure5_set() -> Vec<PredictorChoice> {
        let mut v = Vec::with_capacity(9);
        for class in PredictorClass::ALL {
            v.push(PredictorChoice::new(class, PredictorSize::Big, false));
        }
        for class in PredictorClass::ALL {
            v.push(PredictorChoice::new(class, PredictorSize::Small, false));
        }
        for class in PredictorClass::ALL {
            v.push(PredictorChoice::new(class, PredictorSize::Small, true));
        }
        v
    }

    /// Instantiates the predictor with the Table II parameters.
    pub fn build(&self) -> Box<dyn DirectionPredictor> {
        fn wrap<P: DirectionPredictor + 'static>(
            p: P,
            with_loop: bool,
        ) -> Box<dyn DirectionPredictor> {
            if with_loop {
                Box::new(WithLoop::new(p))
            } else {
                Box::new(p)
            }
        }
        match (self.class, self.size) {
            (PredictorClass::Gshare, PredictorSize::Small) => wrap(Gshare::new(13), self.with_loop),
            (PredictorClass::Gshare, PredictorSize::Big) => wrap(Gshare::new(16), self.with_loop),
            (PredictorClass::Tournament, PredictorSize::Small) => {
                wrap(Tournament::new(10, 8), self.with_loop)
            }
            (PredictorClass::Tournament, PredictorSize::Big) => {
                wrap(Tournament::new(12, 14), self.with_loop)
            }
            (PredictorClass::Tage, PredictorSize::Small) => {
                wrap(Tage::new(TageConfig::small()), self.with_loop)
            }
            (PredictorClass::Tage, PredictorSize::Big) => {
                wrap(Tage::new(TageConfig::big()), self.with_loop)
            }
        }
    }

    /// Fresh measurement sims for a set of configurations, one of each,
    /// in `choices` order: the reference that a
    /// [`PredictorBank`](crate::predictor::PredictorBank) over the same
    /// choices must match report for report.
    pub fn build_sims(
        choices: &[PredictorChoice],
    ) -> Vec<PredictorSim<Box<dyn DirectionPredictor>>> {
        choices
            .iter()
            .map(|choice| PredictorSim::new(choice.build()))
            .collect()
    }

    /// Display label matching the paper's Figure 5 legend
    /// (e.g. `"gshare-big"`, `"L-tage-small"`).
    pub fn label(&self) -> String {
        let prefix = if self.with_loop { "L-" } else { "" };
        format!("{prefix}{}-{}", self.class, self.size)
    }
}

impl fmt::Display for PredictorChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which of the paper's two core designs a front-end belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreKind {
    /// The baseline lean core (Cortex-A9-like, desktop-provisioned).
    Baseline,
    /// The HPC-tailored lean core with the downsized front-end.
    Tailored,
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreKind::Baseline => f.write_str("baseline"),
            CoreKind::Tailored => f.write_str("tailored"),
        }
    }
}

/// A complete front-end configuration (I-cache + predictor + BTB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Branch predictor choice.
    pub predictor: PredictorChoice,
    /// BTB geometry.
    pub btb: BtbConfig,
}

impl FrontendConfig {
    /// The paper's **baseline** core front-end: 32 KB / 64 B I-cache,
    /// 16 KB tournament predictor, 2K-entry BTB.
    pub fn baseline() -> Self {
        FrontendConfig {
            icache: CacheConfig::new(32 * 1024, 64, 4),
            predictor: PredictorChoice::new(PredictorClass::Tournament, PredictorSize::Big, false),
            btb: BtbConfig::new(2048, 8),
        }
    }

    /// The paper's **tailored** core front-end: 16 KB / 128 B I-cache
    /// (high associativity), 2 KB tournament predictor with loop BP,
    /// 256-entry BTB.
    pub fn tailored() -> Self {
        FrontendConfig {
            icache: CacheConfig::new(16 * 1024, 128, 8),
            predictor: PredictorChoice::new(PredictorClass::Tournament, PredictorSize::Small, true),
            btb: BtbConfig::new(256, 8),
        }
    }

    /// Configuration for one of the paper's two core designs.
    pub fn for_core(kind: CoreKind) -> Self {
        match kind {
            CoreKind::Baseline => Self::baseline(),
            CoreKind::Tailored => Self::tailored(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_set_is_complete_and_labelled() {
        let set = PredictorChoice::figure5_set();
        assert_eq!(set.len(), 9);
        let labels: Vec<String> = set.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "gshare-big",
                "tournament-big",
                "tage-big",
                "gshare-small",
                "tournament-small",
                "tage-small",
                "L-gshare-small",
                "L-tournament-small",
                "L-tage-small",
            ]
        );
    }

    #[test]
    fn built_predictors_respect_budget_classes() {
        for choice in PredictorChoice::figure5_set() {
            let p = choice.build();
            let kb = p.budget_bits() as f64 / 8.0 / 1024.0;
            match choice.size {
                PredictorSize::Small => {
                    // Small budget: ~2KB (+0.5KB when the LBP is added).
                    let limit = if choice.with_loop { 2.6 } else { 2.1 };
                    assert!(kb <= limit, "{}: {kb} KB", choice.label());
                }
                PredictorSize::Big => {
                    assert!((10.0..=17.0).contains(&kb), "{}: {kb} KB", choice.label());
                }
            }
        }
    }

    #[test]
    fn baseline_and_tailored_match_the_paper() {
        let b = FrontendConfig::baseline();
        assert_eq!(b.icache.size_bytes, 32 * 1024);
        assert_eq!(b.icache.line_bytes, 64);
        assert_eq!(b.btb.entries, 2048);
        assert_eq!(b.predictor.class, PredictorClass::Tournament);
        assert_eq!(b.predictor.size, PredictorSize::Big);
        assert!(!b.predictor.with_loop);

        let t = FrontendConfig::tailored();
        assert_eq!(t.icache.size_bytes, 16 * 1024);
        assert_eq!(t.icache.line_bytes, 128);
        assert_eq!(t.icache.assoc, 8);
        assert_eq!(t.btb.entries, 256);
        assert!(t.predictor.with_loop);
        assert_eq!(t.predictor.size, PredictorSize::Small);

        assert_eq!(FrontendConfig::for_core(CoreKind::Baseline), b);
        assert_eq!(FrontendConfig::for_core(CoreKind::Tailored), t);
    }

    #[test]
    fn display_impls() {
        assert_eq!(CoreKind::Baseline.to_string(), "baseline");
        assert_eq!(CoreKind::Tailored.to_string(), "tailored");
        assert_eq!(PredictorSize::Small.to_string(), "small");
        assert_eq!(
            PredictorChoice::new(PredictorClass::Tage, PredictorSize::Small, true).to_string(),
            "L-tage-small"
        );
    }
}
