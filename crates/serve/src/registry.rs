//! The tier registry: which detectors the runtime can degrade through.
//!
//! A [`Tier`] pairs a boxed [`PreparedDetector`] engine with a label (for
//! metrics and responses) and a [`TierCostClass`] telling the cost model
//! how to predict its decode time. The runtime holds a `Vec<Tier>`
//! ordered **most → least accurate**: the ladder walks it front to back
//! and serves the first tier whose predicted cost fits the remaining
//! deadline budget, falling through to the last tier (the floor) when
//! nothing fits. Tier *indices* into this vector are the identity used by
//! the ladder, the cost model, the metrics, and the responses.
//!
//! [`default_registry`] reproduces the fixed pre-registry ladder — exact
//! sphere decoding, then a K-best sweep, then MMSE — and any
//! [`crate::ServeRuntime::start_with_registry`] caller can stack a custom
//! descent (e.g. exact → best-first → K-best → MMSE) from the same parts.

use crate::budget::TierCostClass;
use crate::ladder::LadderConfig;
use sd_core::{
    ColumnOrdering, KBestSd, MetricKind, MmseDetector, PreparedDetector, QuantizedFsd,
    QuantizedKBestSd, SphereDecoder,
};
use sd_wireless::Constellation;
use std::sync::Arc;

/// One rung of the degradation ladder.
pub struct Tier {
    /// Human-readable tier name, carried into responses and metrics.
    pub label: Arc<str>,
    /// How the cost model predicts this tier's decode time.
    pub cost: TierCostClass,
    /// The decode engine itself.
    pub detector: Box<dyn PreparedDetector<f64>>,
}

impl Tier {
    /// Build a tier from its parts.
    pub fn new(
        label: impl Into<Arc<str>>,
        cost: TierCostClass,
        detector: Box<dyn PreparedDetector<f64>>,
    ) -> Self {
        Tier {
            label: label.into(),
            cost,
            detector,
        }
    }
}

impl std::fmt::Debug for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("label", &self.label)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// The stock exact rung: the sorted DFS on a sorted-QR detection order
/// ([`ColumnOrdering::Sorted`]). Its decisions are ML, so they equal the
/// natural order's; its search visits fewer nodes to reach them. The
/// approximate rungs keep the natural order, because reordering would
/// change their decisions.
fn exact_rung(constellation: &Constellation) -> Tier {
    Tier::new(
        "exact",
        TierCostClass::Adaptive,
        Box::new(
            SphereDecoder::<f64>::new(constellation.clone()).with_ordering(ColumnOrdering::Sorted),
        ),
    )
}

/// The stock three-rung descent: exact SD → K-best(`ladder.kbest_k`) →
/// MMSE. Decision-identical to the runtime's original hard-wired ladder.
pub fn default_registry(constellation: &Constellation, ladder: &LadderConfig) -> Vec<Tier> {
    vec![
        exact_rung(constellation),
        Tier::new(
            "k-best",
            TierCostClass::fixed_kbest(ladder.kbest_k),
            Box::new(KBestSd::<f64>::new(constellation.clone(), ladder.kbest_k)),
        ),
        Tier::new(
            "mmse",
            TierCostClass::Linear,
            Box::new(MmseDetector::new(constellation.clone())),
        ),
    ]
}

/// The five-rung descent with the fixed-point engines as cheap rungs:
/// exact SD → float K-best → fixed-i16 K-best (ℓ2) → fixed-i16 FSD (ℓ∞)
/// → MMSE. The quantized tiers run the same sweeps on i16/i32 kernels
/// (within the measured ≤[`sd_core::MAX_QUANT_DEGRADATION_DB`] dB BER
/// cost), giving the ladder two extra stops between "approximate tree
/// search" and "no tree at all".
pub fn quantized_registry(constellation: &Constellation, ladder: &LadderConfig) -> Vec<Tier> {
    vec![
        exact_rung(constellation),
        Tier::new(
            "k-best",
            TierCostClass::fixed_kbest(ladder.kbest_k),
            Box::new(KBestSd::<f64>::new(constellation.clone(), ladder.kbest_k)),
        ),
        Tier::new(
            "k-best-fx",
            TierCostClass::fixed_kbest(ladder.kbest_k),
            Box::new(QuantizedKBestSd::new(constellation.clone(), ladder.kbest_k)),
        ),
        Tier::new(
            "fsd-fx-linf",
            TierCostClass::fixed_fsd(1),
            Box::new(QuantizedFsd::new(constellation.clone()).with_metric(MetricKind::LInf)),
        ),
        Tier::new(
            "mmse",
            TierCostClass::Linear,
            Box::new(MmseDetector::new(constellation.clone())),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_wireless::Modulation;

    /// Only the exact rung reorders: the other rungs' decisions would
    /// move under another detection order.
    fn assert_only_the_exact_rung_is_sorted(tiers: &[Tier]) {
        assert_eq!(tiers[0].detector.ordering(), ColumnOrdering::Sorted);
        for t in &tiers[1..] {
            assert_eq!(
                t.detector.ordering(),
                ColumnOrdering::Natural,
                "{}",
                t.label
            );
        }
    }

    #[test]
    fn default_registry_shape() {
        let c = Constellation::new(Modulation::Qam4);
        let tiers = default_registry(&c, &LadderConfig::default());
        let labels: Vec<&str> = tiers.iter().map(|t| &*t.label).collect();
        assert_eq!(labels, ["exact", "k-best", "mmse"]);
        assert!(matches!(tiers[0].cost, TierCostClass::Adaptive));
        assert!(matches!(tiers[1].cost, TierCostClass::Fixed(_)));
        assert!(matches!(tiers[2].cost, TierCostClass::Linear));
        assert_only_the_exact_rung_is_sorted(&tiers);
    }

    #[test]
    fn registry_tiers_decode_through_the_engine_api() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sd_wireless::{noise_variance, FrameData};

        let c = Constellation::new(Modulation::Qam4);
        let tiers = default_registry(&c, &LadderConfig::default());
        let mut rng = StdRng::seed_from_u64(0x7EE5);
        let frame = FrameData::generate(4, 4, &c, noise_variance(20.0, 4), &mut rng);
        for tier in &tiers {
            let d = tier.detector.detect_frame(&frame);
            assert_eq!(d.indices.len(), 4, "tier {}", tier.label);
        }
    }

    #[test]
    fn quantized_registry_shape() {
        let c = Constellation::new(Modulation::Qam4);
        let tiers = quantized_registry(&c, &LadderConfig::default());
        let labels: Vec<&str> = tiers.iter().map(|t| &*t.label).collect();
        assert_eq!(
            labels,
            ["exact", "k-best", "k-best-fx", "fsd-fx-linf", "mmse"]
        );
        assert!(matches!(tiers[0].cost, TierCostClass::Adaptive));
        assert!(matches!(tiers[2].cost, TierCostClass::Fixed(_)));
        assert!(matches!(tiers[3].cost, TierCostClass::Fixed(_)));
        assert!(matches!(tiers[4].cost, TierCostClass::Linear));
        assert_only_the_exact_rung_is_sorted(&tiers);
    }

    #[test]
    fn quantized_tiers_decode_and_mostly_agree_at_high_snr() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sd_wireless::{noise_variance, FrameData};

        let c = Constellation::new(Modulation::Qam16);
        let tiers = quantized_registry(&c, &LadderConfig::default());
        let mut rng = StdRng::seed_from_u64(0xF1);
        let mut agree = [0usize; 5];
        const FRAMES: usize = 20;
        for _ in 0..FRAMES {
            let frame = FrameData::generate(8, 8, &c, noise_variance(24.0, 8), &mut rng);
            let exact = tiers[0].detector.detect_frame(&frame);
            for (t, tier) in tiers.iter().enumerate() {
                let d = tier.detector.detect_frame(&frame);
                assert_eq!(d.indices.len(), 8, "tier {}", tier.label);
                agree[t] += usize::from(d.indices == exact.indices);
            }
        }
        // At 24 dB every tree rung should virtually always match exact;
        // the quantized rungs are gated far tighter than this elsewhere.
        for (t, tier) in tiers.iter().enumerate().take(4) {
            assert!(
                agree[t] >= FRAMES - 2,
                "tier {} agreed on only {}/{FRAMES} frames",
                tier.label,
                agree[t]
            );
        }
    }
}
